"""Command-line interface: one subcommand per library operation.

Exit codes follow a uniform contract: 0 on success, 2 when a check
subcommand evaluates its predicate to false (projective, projective-hartogs,
balanced-cartan, balanced-hartogs, and corollary-scan when any row fails),
and 1 on any error, including bad flags.  Symbolic subcommands take exact
rationals as "p/q" or integers and reject decimal notation; the numeric
subcommands (epsilon-ball, epsilon-hartogs) take floats.

Every subcommand supports --json (machine-readable output with a schema
version field) and --manifest (tool version, catalog hash, and the full
parameter set, for reproducibility).  The epsilon subcommands can also dump
their grids as CSV with columns |z|, |w|, epsilon.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .balanced import (
    HartogsSpec,
    balanced_scan,
    cartan_balanced,
    corollary_scan,
    hartogs_balanced,
)
from .calabi import build_immersion, verify_pullback
from .catalog import ball, enumerate_catalog, parse_domain
from .epsilon import DiscGrid, constancy_verdict, epsilon_ball, epsilon_hartogs_disc
from .errors import CartanbalError
from .exactnum import format_rational, parse_rational
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
    h = hashlib.sha256()
    for dom in enumerate_catalog(dim_cap):
        row = f"{dom.label};r={dom.r};a={dom.a};b={dom.b};gamma={dom.gamma};dim={dom.dim}"
        h.update(row.encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# rendering helpers


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rational(value)
    if value is None:
        return "-"
    return str(value)


def _table(headers, rows) -> list[str]:
    cells = [[_fmt(c) for c in row] for row in rows]
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


def _manifest_value(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_manifest_value(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _manifest_for(args) -> dict:
    params = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "json", "manifest"):
            continue
        if hasattr(value, "label"):
            value = value.label
        params[key] = _manifest_value(value)
    return {
        "tool": "cartanbal",
        "version": __version__,
        "catalog_hash": catalog_hash(),
        "parameters": params,
    }


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.manifest:
        payload = {**payload, "manifest": _manifest_for(args)}
    if args.json:
        print(json.dumps(payload, indent=2))
        return
    for line in lines:
        print(line)
    if args.manifest:
        man = payload["manifest"]
        print(f"manifest: {man['tool']} {man['version']} catalog {man['catalog_hash']}")
        print(f"manifest parameters: {json.dumps(man['parameters'], sort_keys=True)}")


def _write_csv(path: str, report) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["|z|", "|w|", "epsilon"])
        for (rz, rw), value in zip(report.grid, report.values):
            writer.writerow([repr(rz), repr(rw), repr(value)])


# ---------------------------------------------------------------------------
# flag value parsers


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
# subcommand handlers


def _cmd_catalog(args) -> int:
    domains = enumerate_catalog(args.dim_cap)
    rows = [
        {
            "label": d.label,
            "family": d.family.value,
            "sizes": list(d.sizes),
            "r": d.r,
            "a": d.a,
            "b": d.b,
            "gamma": d.gamma,
            "dim": d.dim,
            "is_ball": d.is_ball,
        }
        for d in domains
    ]
    payload = {"schema": _SCHEMA, "dim_cap": args.dim_cap, "domains": rows}
    lines = _table(
        ["domain", "r", "a", "b", "gamma", "dim", "ball"],
        [(d.label, d.r, d.a, d.b, d.gamma, d.dim, d.is_ball) for d in domains],
    )
    lines.append(f"{len(domains)} domains of dimension <= {args.dim_cap}")
    _emit(args, payload, lines)
    return 0


def _cmd_wallach(args) -> int:
    ws = wallach_set(args.domain)
    payload = {
        "schema": _SCHEMA,
        "domain": args.domain.label,
        "discrete": [format_rational(p) for p in ws.discrete],
        "threshold": format_rational(ws.continuous_threshold),
    }
    lines = [
        f"domain: {args.domain.label}",
        f"discrete points: {', '.join(format_rational(p) for p in ws.discrete)}",
        f"continuous part: every value > {format_rational(ws.continuous_threshold)}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_projective(args) -> int:
    induced = cartan_projectively_induced(args.domain, args.beta)
    payload = {
        "schema": _SCHEMA,
        "domain": args.domain.label,
        "beta": format_rational(args.beta),
        "projectively_induced": induced,
    }
    lines = [
        f"domain: {args.domain.label}  beta: {format_rational(args.beta)}",
        f"projectively induced: {_fmt(induced)}",
    ]
    _emit(args, payload, lines)
    return 0 if induced else 2


def _cmd_projective_hartogs(args) -> int:
    spec = HartogsSpec(args.domain, args.mu, args.alpha)
    witness = hartogs_projective_failure(spec)
    induced = witness is None
    payload = {
        "schema": _SCHEMA,
        "domain": args.domain.label,
        "mu": format_rational(args.mu),
        "alpha": format_rational(args.alpha),
        "projectively_induced": induced,
        "witness_m": witness,
    }
    lines = [f"spec: {spec.label}", f"projectively induced: {_fmt(induced)}"]
    if not induced:
        lines.append(f"fails at fiber power m = {witness}")
    _emit(args, payload, lines)
    return 0 if induced else 2


def _cmd_moment(args) -> int:
    if not moment_converges(args.domain, args.s):
        raise CartanbalError(
            f"moment integral diverges at s = {format_rational(args.s)}; needs s > -1"
        )
    value = moment_ratio(args.domain).eval_at(args.s)
    payload = {
        "schema": _SCHEMA,
        "domain": args.domain.label,
        "s": format_rational(args.s),
        "value": format_rational(value),
        "value_float": float(value),
    }
    lines = [
        f"domain: {args.domain.label}  s: {format_rational(args.s)}",
        f"moment ratio: {format_rational(value)} = {float(value):.12g}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_moment_ratio(args) -> int:
    mr = moment_ratio(args.domain)
    fr = mr.as_rational
    payload = {
        "schema": _SCHEMA,
        "domain": args.domain.label,
        "text": str(fr),
        "round_trip": fr.to_text(),
        "numer_degree": fr.numer_degree,
        "denom_degree": fr.denom_degree,
        "block_lengths": list(mr.block_lengths),
    }
    lines = [
        f"domain: {args.domain.label}",
        f"block lengths: {', '.join(str(n) for n in mr.block_lengths)}",
        f"moment ratio M(s) = {fr}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_balanced_cartan(args) -> int:
    dom = args.domain
    verdict = cartan_balanced(dom, args.beta)
    threshold = Fraction(dom.gamma - 1, dom.gamma)
    payload = {
        "schema": _SCHEMA,
        "domain": dom.label,
        "beta": format_rational(args.beta),
        "threshold": format_rational(threshold),
        "balanced": verdict,
    }
    lines = [
        f"domain: {dom.label}  beta: {format_rational(args.beta)}"
        f"  threshold: {format_rational(threshold)} (exclusive)",
        f"balanced: {_fmt(verdict)}",
    ]
    _emit(args, payload, lines)
    return 0 if verdict else 2


def _cmd_balanced_hartogs(args) -> int:
    spec = HartogsSpec(args.domain, args.mu, args.alpha)
    verdict = hartogs_balanced(spec)
    payload = {
        "schema": _SCHEMA,
        "domain": args.domain.label,
        "mu": format_rational(args.mu),
        "alpha": format_rational(args.alpha),
        "balanced": verdict.balanced,
        "reason": verdict.reason,
        "witness_m": verdict.witness_m,
        "value_at_0": None
        if verdict.value_at_0 is None
        else format_rational(verdict.value_at_0),
        "value_at_witness": None
        if verdict.value_at_witness is None
        else format_rational(verdict.value_at_witness),
    }
    lines = [f"spec: {spec.label}", f"balanced: {_fmt(verdict.balanced)}"]
    if not verdict.balanced:
        detail = f"reason: {verdict.reason}"
        if verdict.witness_m is not None:
            detail += (
                f"; ratio at m=0 is {format_rational(verdict.value_at_0)}"
                f" but at m={verdict.witness_m} is"
                f" {format_rational(verdict.value_at_witness)}"
            )
        lines.append(detail)
    _emit(args, payload, lines)
    return 0 if verdict.balanced else 2


def _cmd_scan(args) -> int:
    rows = balanced_scan(
        args.dim_cap,
        mus=args.mus,
        alphas=args.alphas,
        extended_alphas=args.extended_alphas,
    )
    payload = {"schema": _SCHEMA, "rows": [row.as_dict() for row in rows]}
    lines = _table(
        ["domain", "mu", "alpha", "balanced", "reason", "witness_m"],
        [
            (r.domain.label, r.mu, r.alpha, r.balanced, r.reason, r.witness_m)
            for r in rows
        ],
    )
    balanced_count = sum(1 for r in rows if r.balanced)
    lines.append(f"{len(rows)} rows, {balanced_count} balanced")
    _emit(args, payload, lines)
    return 0


def _cmd_corollary_scan(args) -> int:
    report = corollary_scan(args.dim_cap, alphas=args.alphas)
    payload = {
        "schema": _SCHEMA,
        "dim_cap": report.dim_cap,
        "all_ok": report.all_ok,
        "rows": [row.as_dict() for row in report.rows],
    }
    lines = _table(
        ["domain", "excluded", "mu0", "alpha", "induced", "balanced", "ok"],
        [
            (
                r.domain.label,
                r.excluded,
                r.mu0,
                r.alpha,
                r.projectively_induced,
                r.balanced,
                r.ok,
            )
            for r in report.rows
        ],
    )
    lines.append(f"all rows ok: {_fmt(report.all_ok)}")
    _emit(args, payload, lines)
    return 0 if report.all_ok else 2


def _cmd_immersion(args) -> int:
    spec = HartogsSpec(ball(args.d), args.mu, args.alpha)
    coeffs = build_immersion(spec, args.cap)
    check_payload = None
    lines = [
        f"spec: {spec.label}",
        f"squared coefficients up to total degree {args.cap}: {len(coeffs.entries)}",
    ]
    if args.check_grid is not None:
        rmax, n = args.check_grid
        mu = float(spec.mu)
        samples = []
        for r in np.linspace(0.0, rmax, n):
            z = float(r) if args.d == 1 else tuple([float(r) / args.d**0.5] * args.d)
            for w in np.linspace(0.0, rmax, n):
                # keep a margin inside |w|^2 < (1-|z|^2)^mu so the tail stays small
                if float(w) ** 2 < 0.9 * (1.0 - float(r) ** 2) ** mu:
                    samples.append((z, float(w)))
        check = verify_pullback(coeffs, samples)
        check_payload = {
            "max_rel_error": check.max_rel_error,
            "tail_bound": check.tail_bound,
            "samples_checked": check.samples_checked,
        }
        lines.append(
            f"pullback check on {check.samples_checked} samples:"
            f" max relative error {check.max_rel_error:.3e},"
            f" tail bound {check.tail_bound:.3e}"
        )
    payload = {
        "schema": _SCHEMA,
        "d": args.d,
        "mu": format_rational(args.mu),
        "alpha": format_rational(args.alpha),
        "cap": args.cap,
        "entries": len(coeffs.entries),
        "check": check_payload,
    }
    _emit(args, payload, lines)
    return 0


def _epsilon_payload(report, extra: dict) -> dict:
    return {
        "schema": _SCHEMA,
        **extra,
        "grid": [[rz, rw] for rz, rw in report.grid],
        "values": list(report.values),
        "min_value": report.min_value,
        "max_value": report.max_value,
        "spread": report.spread,
        "truncation_degree": list(report.truncation_degree),
        "tail_bound": report.tail_bound,
        "verdict": constancy_verdict(report.spread),
    }


def _epsilon_lines(report) -> list[str]:
    return [
        f"grid points: {len(report.values)}",
        f"min epsilon: {report.min_value:.12g}",
        f"max epsilon: {report.max_value:.12g}",
        f"spread (max-min)/max: {report.spread:.3e}",
        f"truncation tail bound: {report.tail_bound:.3e}",
        f"verdict: {constancy_verdict(report.spread)}",
    ]


def _cmd_epsilon_ball(args) -> int:
    report = epsilon_ball(
        args.d, args.alpha, args.rmax, args.cap, grid_points=args.grid_points
    )
    payload = _epsilon_payload(
        report, {"d": args.d, "alpha": args.alpha, "rmax": args.rmax, "cap": args.cap}
    )
    lines = [f"ball d={args.d} alpha={args.alpha}"] + _epsilon_lines(report)
    if args.csv:
        _write_csv(args.csv, report)
        lines.append(f"csv written: {args.csv}")
    _emit(args, payload, lines)
    return 0


def _cmd_epsilon_hartogs(args) -> int:
    nz, nw = args.grid
    grid = DiscGrid(nz=nz, nw=nw, t_max=args.t_max, u_max=args.u_max)
    report = epsilon_hartogs_disc(args.mu, args.alpha, grid=grid, caps=args.caps)
    payload = _epsilon_payload(
        report,
        {
            "mu": args.mu,
            "alpha": args.alpha,
            "grid": f"{nz}x{nw}",
            "caps": list(args.caps),
        },
    )
    lines = [f"hartogs disc mu={args.mu} alpha={args.alpha}"] + _epsilon_lines(report)
    if args.csv:
        _write_csv(args.csv, report)
        lines.append(f"csv written: {args.csv}")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub) -> None:
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument(
        "--manifest",
        action="store_true",
        help="include tool version, catalog hash and parameters",
    )


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

    sub = subs.add_parser("catalog", help="enumerate the bounded symmetric domains")
    sub.add_argument("--dim-cap", type=int, default=27, help="largest dimension kept")
    _add_common(sub)
    sub.set_defaults(func=_cmd_catalog)

    sub = subs.add_parser("wallach", help="discrete points and continuous threshold")
    sub.add_argument("--domain", type=parse_domain, required=True, help="e.g. I:2,3")
    _add_common(sub)
    sub.set_defaults(func=_cmd_wallach)

    sub = subs.add_parser(
        "projective", help="check beta*g_B projectively induced (exit 2 if not)"
    )
    sub.add_argument("--domain", type=parse_domain, required=True)
    sub.add_argument("--beta", type=parse_rational, required=True, help="exact p/q")
    _add_common(sub)
    sub.set_defaults(func=_cmd_projective)

    sub = subs.add_parser(
        "projective-hartogs",
        help="check the Hartogs metric projectively induced (exit 2 if not)",
    )
    sub.add_argument("--domain", type=parse_domain, required=True, help="base domain")
    sub.add_argument("--mu", type=parse_rational, required=True, help="exact p/q")
    sub.add_argument("--alpha", type=parse_rational, required=True, help="exact p/q")
    _add_common(sub)
    sub.set_defaults(func=_cmd_projective_hartogs)

    sub = subs.add_parser("moment", help="exact moment ratio value at s")
    sub.add_argument("--domain", type=parse_domain, required=True)
    sub.add_argument("--s", type=parse_rational, required=True, help="exact p/q, > -1")
    _add_common(sub)
    sub.set_defaults(func=_cmd_moment)

    sub = subs.add_parser("moment-ratio", help="factored moment ratio M(s)")
    sub.add_argument("--domain", type=parse_domain, required=True)
    _add_common(sub)
    sub.set_defaults(func=_cmd_moment_ratio)

    sub = subs.add_parser(
        "balanced-cartan", help="check beta*g_B balanced (exit 2 if not)"
    )
    sub.add_argument("--domain", type=parse_domain, required=True)
    sub.add_argument("--beta", type=parse_rational, required=True, help="exact p/q")
    _add_common(sub)
    sub.set_defaults(func=_cmd_balanced_cartan)

    sub = subs.add_parser(
        "balanced-hartogs", help="check the Hartogs metric balanced (exit 2 if not)"
    )
    sub.add_argument("--domain", type=parse_domain, required=True, help="base domain")
    sub.add_argument("--mu", type=parse_rational, required=True, help="exact p/q")
    sub.add_argument("--alpha", type=parse_rational, required=True, help="exact p/q")
    _add_common(sub)
    sub.set_defaults(func=_cmd_balanced_hartogs)

    sub = subs.add_parser("scan", help="balancedness verdicts across the catalog")
    sub.add_argument("--dim-cap", type=int, default=27)
    sub.add_argument("--mus", type=_rational_list, default=None, help="e.g. 1/2,1,2")
    sub.add_argument("--alphas", type=_rational_list, default=None, help="e.g. 4,11/2")
    sub.add_argument(
        "--extended-alphas",
        action="store_true",
        help="add the extra default alpha sample d+17/8",
    )
    _add_common(sub)
    sub.set_defaults(func=_cmd_scan)

    sub = subs.add_parser(
        "corollary-scan",
        help="canonical weight: induced yet unbalanced (exit 2 on any failure)",
    )
    sub.add_argument("--dim-cap", type=int, default=27)
    sub.add_argument(
        "--alphas", type=_rational_list, default=None, help="absolute alpha values"
    )
    _add_common(sub)
    sub.set_defaults(func=_cmd_corollary_scan)

    sub = subs.add_parser("immersion", help="exact immersion coefficients over a ball")
    sub.add_argument("--d", type=int, default=1, help="ball dimension")
    sub.add_argument("--mu", type=parse_rational, required=True, help="exact p/q")
    sub.add_argument("--alpha", type=parse_rational, required=True, help="exact p/q")
    sub.add_argument("--cap", type=int, default=40, help="total degree cutoff")
    sub.add_argument(
        "--check-grid",
        type=_check_grid,
        default=None,
        metavar="RMAX:N",
        help="verify the pullback on an N x N sample grid up to radius RMAX",
    )
    _add_common(sub)
    sub.set_defaults(func=_cmd_immersion)

    sub = subs.add_parser("epsilon-ball", help="epsilon function on the ball by quadrature")
    sub.add_argument("--d", type=int, choices=(1, 2), default=1)
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--rmax", type=float, default=0.9)
    sub.add_argument("--cap", type=int, default=200)
    sub.add_argument("--grid-points", type=int, default=25)
    sub.add_argument("--csv", default=None, metavar="PATH")
    _add_common(sub)
    sub.set_defaults(func=_cmd_epsilon_ball)

    sub = subs.add_parser(
        "epsilon-hartogs", help="epsilon function on the Hartogs disc domain"
    )
    sub.add_argument("--mu", type=float, required=True)
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--grid", type=_grid_shape, default=(8, 8), metavar="NZxNW")
    sub.add_argument("--caps", type=_caps_pair, default=(80, 80), metavar="CZ,CW")
    sub.add_argument("--t-max", type=float, default=0.35)
    sub.add_argument("--u-max", type=float, default=0.5)
    sub.add_argument("--csv", default=None, metavar="PATH")
    _add_common(sub)
    sub.set_defaults(func=_cmd_epsilon_hartogs)

    return parser


def main(argv=None) -> int:
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
        return args.func(args)
    except (CartanbalError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
