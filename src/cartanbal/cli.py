"""Command-line interface: one subcommand per library operation.

Exit codes follow a uniform contract: 0 on success, 2 when a check
subcommand evaluates its predicate to false (projective, projective-hartogs,
balanced-cartan, balanced-hartogs, and corollary-scan when a row's claim fails),
and 1 on any error, including bad flags (whose message is the flag parser's
own reason).  Symbolic subcommands take exact rationals as "p/q" or integers
and reject decimal notation; the numeric subcommands (epsilon-ball,
epsilon-hartogs) take floats.

Every subcommand supports --json (machine-readable output with a schema
version field) and --manifest (tool version, catalog hash, and the full
parameter set, for reproducibility).  The epsilon subcommands can also dump
their grids as CSV with columns |z|, |w|, epsilon.

Render contract: a handler computes each value once and returns (exit code,
payload, lines).  The payload holds raw values (Fraction, CartanDomain,
bool, None, numbers, and sequences of these); where it reports a result
object it spreads that object's fields (verdict._asdict(), report._asdict(),
domain._asdict()) after the request parameters instead of copying them key
by key.  The lines are str.format templates over the payload and the parsed
flags.  _render is the one print path: it adds the schema field and the
manifest, then prints the payload through one JSON conversion (_json_ready:
a Fraction as "p/q", a domain as its label, a float that is not finite as
null, since JSON has no Infinity) or fills the templates (_fmt: true/false,
"-" for None, a domain as its label, sequences comma-joined; explicit specs
such as {spread:.3e} format floats).  Errors raised while rendering (an
integer past Python's int-to-str digit limit) exit 1 like errors raised
while computing.

An exact subcommand loads only exact code: the numeric modules are imported
inside their handlers (calabi in immersion, epsilon in the epsilon
subcommands), hashlib inside catalog_hash (--manifest) and csv inside the
--csv branch.  main sets OPENBLAS_NUM_THREADS to 1 unless the caller set it:
the package makes no BLAS call, and an unpinned OpenBLAS thread pool makes
the first numpy import about 0.1 s slower.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import string
import sys
from collections import ChainMap
from fractions import Fraction

from . import __version__
from .balanced import (
    HartogsSpec,
    balanced_scan,
    cartan_balanced,
    corollary_scan,
    hartogs_balanced,
)
from .catalog import CartanDomain, ball, enumerate_catalog, parse_domain
from .errors import CartanbalError, _check_size
from .exactnum import parse_rational
from .moments import moment_converges, moment_ratio
from .wallach import (
    cartan_projectively_induced,
    hartogs_projective_failure,
    wallach_set,
)

__all__ = ["main", "build_parser", "catalog_hash"]

_SCHEMA = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 1, not argparse's default 2.

    Exit 2 is reserved for predicate-false results of check subcommands.
    Negative exact rationals such as -1/2 are read as values, as argparse
    already does for -2 and -0.5, not as option strings.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(?:/-?\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def catalog_hash(dim_cap: int = 27) -> str:
    """sha256 over the canonical catalog rows; pins the enumerated table."""
    import hashlib

    h = hashlib.sha256()
    for dom in enumerate_catalog(dim_cap):
        row = f"{dom.label};r={dom.r};a={dom.a};b={dom.b};gamma={dom.gamma};dim={dom.dim}"
        h.update(row.encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# rendering


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "-"
    if isinstance(value, CartanDomain):
        return value.label
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)  # a Fraction prints as "p/q"


class _TextFormatter(string.Formatter):
    """str.format whose empty spec renders through _fmt; explicit specs work as usual."""

    def format_field(self, value, format_spec):
        return super().format_field(value, format_spec) if format_spec else _fmt(value)


_TEXT = _TextFormatter()


def _json_ready(value):
    """The payload in JSON types: a Fraction as "p/q", a domain (a tuple) as its
    label, a float that is not finite as None (JSON has no Infinity or NaN)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    if isinstance(value, CartanDomain):
        return value.label
    if isinstance(value, (list, tuple)):
        return [_json_ready(item) for item in value]
    return value


def _table(columns, rows) -> list[str]:
    """Aligned text table; columns are (header, payload key) pairs over dict rows."""
    headers = [header for header, _ in columns]
    cells = [[_fmt(row[key]) for _, key in columns] for row in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _render(args, payload: dict, lines: list[str]) -> None:
    """The one print path: the payload as JSON, or the lines filled from it."""
    payload = {"schema": _SCHEMA, **payload}
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "json", "manifest")
    }
    if args.manifest:
        payload["manifest"] = {
            "tool": "cartanbal",
            "version": __version__,
            "catalog_hash": catalog_hash(),
            "parameters": params,
        }
    if args.json:
        print(json.dumps(_json_ready(payload), indent=2))
        return
    fields = ChainMap(payload, vars(args))
    text = [_TEXT.vformat(line, (), fields) for line in lines]
    if args.manifest:
        man = payload["manifest"]
        text.append(f"manifest: {man['tool']} {man['version']} catalog {man['catalog_hash']}")
        text.append("manifest parameters: " + json.dumps(_json_ready(params)))
    print("\n".join(text))


# ---------------------------------------------------------------------------
# flag value parsers


def _flag_type(parse):
    """parse as an argparse type whose ValueError text is the usage error's reason.

    argparse reports a ValueError from a type as "invalid <function name>
    value"; an ArgumentTypeError keeps the parser's own message.
    """

    def typed(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return typed


def _rational_list(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",")]


def _grid_shape(text: str) -> tuple[int, int]:
    nz, sep, nw = text.partition("x")
    if not sep:
        raise ValueError(f"expected ROWSxCOLS like 8x8, got {text!r}")
    return (int(nz), int(nw))


def _caps_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two caps like 80,80, got {text!r}")
    return (int(parts[0]), int(parts[1]))


def _check_grid(text: str) -> tuple[float, int]:
    rmax_s, sep, n_s = text.partition(":")
    if not sep:
        raise ValueError(f"expected RMAX:N like 0.4:5, got {text!r}")
    rmax = float(rmax_s)
    n = int(n_s)
    if not 0 < rmax < 1 or n < 1:
        raise ValueError(f"need 0 < rmax < 1 and n >= 1, got {text!r}")
    return (rmax, n)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, payload, text line templates)


def _cmd_catalog(args):
    rows = [{"label": d.label, **d._asdict(), "is_ball": d.is_ball}
            for d in enumerate_catalog(args.dim_cap)]
    columns = [("domain", "label"), ("r", "r"), ("a", "a"), ("b", "b"), ("gamma", "gamma"),
               ("dim", "dim"), ("ball", "is_ball")]
    lines = _table(columns, rows) + [f"{len(rows)} domains of dimension <= {args.dim_cap}"]
    return 0, {"dim_cap": args.dim_cap, "domains": rows}, lines


def _cmd_wallach(args):
    ws = wallach_set(args.domain)
    payload = {"domain": args.domain, "discrete": ws.discrete,
               "threshold": ws.continuous_threshold}
    lines = ["domain: {domain}", "discrete points: {discrete}",
             "continuous part: every value > {threshold}"]
    return 0, payload, lines


def _cmd_projective(args):
    induced = cartan_projectively_induced(args.domain, args.beta)
    payload = {"domain": args.domain, "beta": args.beta, "projectively_induced": induced}
    lines = ["domain: {domain}  beta: {beta}", "projectively induced: {projectively_induced}"]
    return (0 if induced else 2), payload, lines


def _cmd_projective_hartogs(args):
    spec = HartogsSpec(args.domain, args.mu, args.alpha)
    witness = hartogs_projective_failure(spec)
    payload = {"domain": args.domain, "mu": args.mu, "alpha": args.alpha,
               "projectively_induced": witness is None, "witness_m": witness}
    lines = [f"spec: {spec.label}", "projectively induced: {projectively_induced}"]
    if witness is not None:
        lines.append("fails at fiber power m = {witness_m}")
    return (0 if witness is None else 2), payload, lines


def _cmd_moment(args):
    if not moment_converges(args.domain, args.s):
        raise CartanbalError(f"moment integral diverges at s = {args.s}; needs s > -1")
    value = moment_ratio(args.domain).eval_at(args.s)
    payload = {"domain": args.domain, "s": args.s, "value": value, "value_float": float(value)}
    lines = ["domain: {domain}  s: {s}", "moment ratio: {value} = {value_float:.12g}"]
    return 0, payload, lines


def _cmd_moment_ratio(args):
    mr = moment_ratio(args.domain)
    fr = mr.as_rational
    payload = {"domain": args.domain, "text": str(fr), "round_trip": fr.to_text(),
               "numer_degree": fr.numer_degree, "denom_degree": fr.denom_degree,
               "block_lengths": mr.block_lengths}
    lines = ["domain: {domain}", "block lengths: {block_lengths}", "moment ratio M(s) = {text}"]
    return 0, payload, lines


def _cmd_balanced_cartan(args):
    gamma = args.domain.gamma
    verdict = cartan_balanced(args.domain, args.beta)
    payload = {"domain": args.domain, "beta": args.beta,
               "threshold": Fraction(gamma - 1, gamma), "balanced": verdict}
    lines = ["domain: {domain}  beta: {beta}  threshold: {threshold} (exclusive)",
             "balanced: {balanced}"]
    return (0 if verdict else 2), payload, lines


def _cmd_balanced_hartogs(args):
    spec = HartogsSpec(args.domain, args.mu, args.alpha)
    v = hartogs_balanced(spec)
    payload = {"domain": args.domain, "mu": args.mu, "alpha": args.alpha, **v._asdict()}
    lines = [f"spec: {spec.label}", "balanced: {balanced}"]
    if v.witness_m is not None:
        lines.append("reason: {reason}; ratio at m=0 is {value_at_0}"
                     " but at m={witness_m} is {value_at_witness}")
    elif not v.balanced:
        lines.append("reason: {reason}")
    return (0 if v.balanced else 2), payload, lines


def _cmd_scan(args):
    scan = balanced_scan(args.dim_cap, mus=args.mus, alphas=args.alphas,
                         extended_alphas=args.extended_alphas)
    rows = [row.as_dict() for row in scan]
    keys = ("domain", "mu", "alpha", "balanced", "reason", "witness_m")
    lines = _table([(key, key) for key in keys], rows)
    lines.append(f"{len(rows)} rows, {sum(r['balanced'] for r in rows)} balanced")
    return 0, {"rows": rows}, lines


def _cmd_corollary_scan(args):
    report = corollary_scan(args.dim_cap, alphas=args.alphas)
    rows = [row.as_dict() for row in report.rows]
    payload = {"dim_cap": report.dim_cap, "all_ok": report.all_ok, "rows": rows}
    columns = [("domain", "domain"), ("excluded", "excluded"), ("mu0", "mu0"),
               ("alpha", "alpha"), ("induced", "projectively_induced"),
               ("balanced", "balanced"), ("ok", "ok")]
    lines = _table(columns, rows) + ["all rows ok: {all_ok}"]
    return (0 if report.all_ok else 2), payload, lines


def _cmd_immersion(args):
    from .calabi import (_MAX_GRID_POINTS, _check_pullback_size, _float, build_immersion,
                         verify_pullback)

    spec = HartogsSpec(ball(args.d), args.mu, args.alpha)
    if args.check_grid is not None:  # the sample grid is sized before the build
        import numpy as np

        rmax, n = args.check_grid
        _check_size("check_grid", f"{rmax}:{n}", n * n, "samples", _MAX_GRID_POINTS)
        mu = _float(spec.mu)  # inf past the float range, refused by verify_pullback
        radii = np.linspace(0.0, rmax, n).tolist()
        # keep a margin inside |w|^2 < (1-|z|^2)^mu so the tail stays small
        grid = [(r, [w for w in radii if w**2 < 0.9 * (1.0 - r**2) ** mu]) for r in radii]
        _check_pullback_size(sum(len(ws) for _, ws in grid), args.cap, args.d)
    coeffs = build_immersion(spec, args.cap)
    payload = {"d": args.d, "mu": args.mu, "alpha": args.alpha, "cap": args.cap,
               "entries": coeffs.entry_count, "check": None}
    lines = [f"spec: {spec.label}", "squared coefficients up to total degree {cap}: {entries}"]
    if args.check_grid is not None:
        samples = [((r / args.d**0.5,) * args.d, w) for r, ws in grid for w in ws]
        check = verify_pullback(coeffs, samples)
        payload["check"] = check._asdict()
        del payload["check"]["worst_sample"]
        lines.append("pullback check on {check[samples_checked]} samples:"
                     " max relative error {check[max_rel_error]:.3e},"
                     " tail bound {check[tail_bound]:.3e}")
    return 0, payload, lines


def _epsilon(args, title: str, head: dict, report):
    """Shared by the epsilon subcommands: payload after head, text lines and the CSV."""
    payload = {**head, **report._asdict(), "verdict": report.verdict}
    lines = [title, f"grid points: {len(report.values)}", "min epsilon: {min_value:.12g}",
             "max epsilon: {max_value:.12g}", "spread (max-min)/max: {spread:.3e}",
             "truncation tail bound: {tail_bound:.3e}", "verdict: {verdict}"]
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["|z|", "|w|", "epsilon"])
            for (rz, rw), value in zip(report.grid, report.values):
                writer.writerow([repr(rz), repr(rw), repr(value)])
        lines.append("csv written: {csv}")
    return 0, payload, lines


def _cmd_epsilon_ball(args):
    from .epsilon import epsilon_ball

    report = epsilon_ball(args.d, args.alpha, args.rmax, args.cap, grid_points=args.grid_points)
    head = {"d": args.d, "alpha": args.alpha, "rmax": args.rmax, "cap": args.cap}
    return _epsilon(args, "ball d={d} alpha={alpha}", head, report)


def _cmd_epsilon_hartogs(args):
    from .epsilon import DiscGrid, epsilon_hartogs_disc

    grid = DiscGrid(*args.grid, args.t_max, args.u_max)
    report = epsilon_hartogs_disc(args.mu, args.alpha, grid=grid, caps=args.caps)
    # this payload lists the grid before the caps; _epsilon keeps that position
    head = {"mu": args.mu, "alpha": args.alpha, "grid": report.grid, "caps": args.caps}
    return _epsilon(args, "hartogs disc mu={mu} alpha={alpha}", head, report)


# ---------------------------------------------------------------------------
# parser assembly: one table of (name, handler, help, flags)


def _domain(help=None):
    return "--domain", dict(type=parse_domain, required=True, help=help)


def _exact(flag, help="exact p/q"):
    return flag, dict(type=parse_rational, required=True, help=help)


def _dim_cap(help=None):
    return "--dim-cap", dict(type=int, default=27, help=help)


_HARTOGS_FLAGS = [_domain("base domain"), _exact("--mu"), _exact("--alpha")]
_CSV_FLAG = ("--csv", dict(metavar="PATH"))

_SUBCOMMANDS = [
    ("catalog", _cmd_catalog, "enumerate the bounded symmetric domains",
     [_dim_cap("largest dimension kept")]),
    ("wallach", _cmd_wallach, "discrete points and continuous threshold",
     [_domain("e.g. I:2,3")]),
    ("projective", _cmd_projective, "check beta*g_B projectively induced (exit 2 if not)",
     [_domain(), _exact("--beta")]),
    ("projective-hartogs", _cmd_projective_hartogs,
     "check the Hartogs metric projectively induced (exit 2 if not)", _HARTOGS_FLAGS),
    ("moment", _cmd_moment, "exact moment ratio value at s",
     [_domain(), _exact("--s", "exact p/q, > -1")]),
    ("moment-ratio", _cmd_moment_ratio, "factored moment ratio M(s)", [_domain()]),
    ("balanced-cartan", _cmd_balanced_cartan, "check beta*g_B balanced (exit 2 if not)",
     [_domain(), _exact("--beta")]),
    ("balanced-hartogs", _cmd_balanced_hartogs,
     "check the Hartogs metric balanced (exit 2 if not)", _HARTOGS_FLAGS),
    ("scan", _cmd_scan, "balancedness verdicts across the catalog", [
        _dim_cap(),
        ("--mus", dict(type=_rational_list, help="e.g. 1/2,1,2")),
        ("--alphas", dict(type=_rational_list, help="e.g. 4,11/2")),
        ("--extended-alphas",
         dict(action="store_true", help="add the extra default alpha sample d+17/8")),
    ]),
    ("corollary-scan", _cmd_corollary_scan,
     "canonical weight: induced yet unbalanced (exit 2 on any failure)",
     [_dim_cap(), ("--alphas", dict(type=_rational_list, help="absolute alpha values"))]),
    ("immersion", _cmd_immersion, "exact immersion coefficients over a ball", [
        ("--d", dict(type=int, default=1, help="ball dimension")),
        _exact("--mu"),
        _exact("--alpha"),
        ("--cap", dict(type=int, default=40, help="total degree cutoff")),
        ("--check-grid", dict(
            type=_check_grid, metavar="RMAX:N",
            help="verify the pullback on an N x N sample grid up to radius RMAX")),
    ]),
    ("epsilon-ball", _cmd_epsilon_ball,
     "epsilon function on the ball from closed-form Beta norms", [
        ("--d", dict(type=int, choices=(1, 2), default=1)),
        ("--alpha", dict(type=float, required=True)),
        ("--rmax", dict(type=float, default=0.9)),
        ("--cap", dict(type=int, default=200)),
        ("--grid-points", dict(type=int, default=25)),
        _CSV_FLAG,
    ]),
    ("epsilon-hartogs", _cmd_epsilon_hartogs, "epsilon function on the Hartogs disc domain", [
        ("--mu", dict(type=float, required=True)),
        ("--alpha", dict(type=float, required=True)),
        ("--grid", dict(type=_grid_shape, default=(8, 8), metavar="NZxNW")),
        ("--caps", dict(type=_caps_pair, default=(80, 80), metavar="CZ,CW")),
        ("--t-max", dict(type=float, default=0.35)),
        ("--u-max", dict(type=float, default=0.5)),
        _CSV_FLAG,
    ]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cartanbal",
        description=(
            "Balancedness and projective-inducedness of canonical metrics on "
            "Cartan domains and the Hartogs domains built over them."
        ),
    )
    parser.add_argument("--version", action="version", version=f"cartanbal {__version__}")
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, handler, help_text, flags in _SUBCOMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for flag, spec in flags:
            if spec.get("type") not in (None, int, float):
                spec = {**spec, "type": _flag_type(spec["type"])}
            sub.add_argument(flag, **spec)
        sub.add_argument("--json", action="store_true", help="machine-readable output")
        sub.add_argument(
            "--manifest",
            action="store_true",
            help="include tool version, catalog hash and parameters",
        )
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    # the package makes no BLAS call, and an unpinned OpenBLAS pool slows the
    # first numpy import by about 0.1 s; a value the caller set is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version print and stop
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        code, payload, lines = args.func(args)
        _render(args, payload, lines)
    except (CartanbalError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
