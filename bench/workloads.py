"""The three benchmark workloads: seeded inputs, the calls, and the checks.

Every workload is a closed loop from one single-threaded caller with one
operation in flight.  Inputs come only from ``random.Random(seed)``; the
program under test sees nothing but the generated values.  Every output is
checked against a route that does not share the library's code path (the
closed-form balancedness rule, a separate Wallach-set membership test, or a
numeric bound), and a failed check is counted, never dropped.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from time import perf_counter

import cartanbal as cb
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CATALOG_CAP = 27
CHILD_TIMEOUT_S = 60
# Every window runs at least this many operations, so that a traced run has
# traced and untraced samples of each kind however short --seconds is.
MIN_OPS = 6

def child_env() -> dict:
    """This process's environment (thread caps set by run.py) with src importable."""
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass(frozen=True)
class Size:
    """Problem sizes of the in-process workloads; FULL is what run.py uses."""

    scan_cap: int = 27
    corollary_cap: int = 27
    hartogs_caps: tuple[int, int] = (80, 80)
    coarse_grid: int = 8
    dense_grid: int = 32
    ball_cap: int = 100
    immersion_cap: int = 60
    pullback_samples: int = 25


FULL = Size()
TINY = Size(6, 6, (40, 40), 2, 4, 100, 20, 3)


class Session:
    """One workload run: check tally, latency samples, inputs digest, spans.

    With ``alternate`` set (the traced run) every other operation is traced,
    so traced and untraced latencies of the same operation mix can be
    compared; otherwise nothing is traced.
    """

    def __init__(self, tracer, alternate: bool = False):
        self.tracer = tracer
        self.alternate = alternate
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[tuple[float, bool]]] = defaultdict(list)
        self.work: dict[str, int] = defaultdict(int)
        self.ops = 0
        self.traced_wall = 0.0
        self._digest = hashlib.sha256()
        self.inputs_issued = 0
        self.probe = SpeedProbe(child_env(), ROOT)

    @property
    def call(self):
        return self.tracer.call

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    def issue(self, item) -> None:
        """Fold one generated input into the inputs digest."""
        self._digest.update(repr(item).encode())
        self._digest.update(b"\n")
        self.inputs_issued += 1

    @property
    def inputs_sha256(self) -> str:
        return self._digest.hexdigest()

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(what)

    def sample(self, kind: str, seconds: float) -> None:
        self.samples[kind].append((seconds, self.traced))

    def run(self, op, *args) -> None:
        """Run one operation, traced on every other call when alternating."""
        self.ops += 1
        self.tracer.enabled = self.alternate and self.ops % 2 == 1
        self.tracer.op = self.ops
        start = perf_counter()
        try:
            op(self, *args)
        except Exception as exc:  # a raising operation is a failed one
            self.check(False, f"{op.__name__}: {type(exc).__name__}: {exc}")
        finally:
            if self.tracer.enabled:
                self.traced_wall += perf_counter() - start
            self.tracer.enabled = False
        self.probe.maybe()


def timed(session: Session, kind: str, fn, *args):
    """Call a library function through the tracer and record its latency."""
    start = perf_counter()
    out = session.call(fn, *args)
    session.sample(kind, perf_counter() - start)
    return out


# ---------------------------------------------------------------------------
# independent routes for the expected outputs


def closed_form_balanced(dom, mu, alpha) -> bool:
    """Balanced iff rank-one base, mu == 1 and alpha > d+1."""
    return dom.r == 1 and mu == 1 and alpha > dom.dim + 1


def expected_reason(dom, mu, alpha) -> str:
    if alpha <= dom.dim + 1:
        return "alpha_not_above_d_plus_1"
    if alpha * mu <= dom.gamma - 1:
        return "alpha_mu_not_above_gamma_minus_1"
    return "ok" if closed_form_balanced(dom, mu, alpha) else "m_dependence"


def wallach_top(dom) -> F:
    return F((dom.r - 1) * dom.a, 2)


def admissible(dom, eta) -> bool:
    """eta is a nonzero point of {0, a/2, ..., (r-1)a/2} u ((r-1)a/2, oo)."""
    if eta > wallach_top(dom):
        return True
    steps = eta / F(dom.a, 2)
    return eta > 0 and steps.denominator == 1 and steps <= dom.r - 1


def expected_projective(dom, mu, alpha) -> bool:
    """(alpha+m)*mu admissible for every integer m >= 0."""
    m = 0
    while (alpha + m) * mu <= wallach_top(dom):
        if not admissible(dom, (alpha + m) * mu):
            return False
        m += 1
    return True


def corollary_row_count(domains, cap: int) -> int:
    """One excluded row per ball, three alpha samples per non-ball."""
    return sum(1 if d.r == 1 else 3 for d in domains if d.dim <= cap)


def fmt(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# exact-sweep


SPEC_KINDS = ("below",) + ("straddle",) * 3 + ("unit",) * 6


def spec_draw(rng: random.Random, dom, kind: str) -> tuple:
    """A (domain, mu, alpha) of one kind, around alpha = d+1 and alpha*mu = gamma-1.

    "below" puts alpha at or below d+1; "straddle" aims mu at the line
    alpha*mu = gamma-1 from either side; "unit" takes mu = 1, which is
    balanced on balls.  Alpha denominators are at most 4, mu's at most 4.
    """
    q = rng.choice((1, 2, 3, 4))
    if kind == "below":
        alpha = max(dom.dim + 1 - F(rng.randint(0, 2 * q), q), F(1, q))
    else:
        alpha = dom.dim + 1 + F(rng.randint(1, 3 * q), q)
    if kind == "straddle":
        q2 = rng.choice((2, 3, 4))
        mu = F(round(F(dom.gamma - 1) / alpha * q2) + rng.randint(-1, 2), q2)
        mu = mu if mu > 0 else F(1, q2)
    else:
        mu = F(1)
    return dom, mu, alpha


def exact_requests(rng: random.Random, domains):
    """Endless requests with the same mix in every seed.

    Domains come from a shuffled deck, each once per 89 requests, and kinds
    from shuffled blocks of SPEC_KINDS.  About a quarter of the verdicts are
    cheap precondition failures, so the median request is a full constancy
    test, and every verdict reason appears.
    """
    deck: list = []
    while True:
        kinds = list(SPEC_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if not deck:
                deck = list(domains)
                rng.shuffle(deck)
            yield spec_draw(rng, deck.pop(), kind)


def op_scan(session: Session, cap: int) -> None:
    rows = timed(session, "scan", cb.balanced_scan, cap)
    session.work["scan_rows"] += len(rows)
    session.check(bool(rows), "balanced_scan returned no rows")
    for row in rows:
        expected = closed_form_balanced(row.domain, row.mu, row.alpha)
        session.check(row.balanced == expected, f"scan row {row.as_dict()}")


def op_corollary(session: Session, cap: int, domains) -> None:
    report = timed(session, "corollary", cb.corollary_scan, cap)
    expected_rows = corollary_row_count(domains, cap)
    session.work["corollary_rows"] += len(report.rows)
    session.check(
        report.all_ok and len(report.rows) == expected_rows,
        f"corollary_scan({cap}): all_ok={report.all_ok}, "
        f"{len(report.rows)} rows, expected {expected_rows}",
        count=max(len(report.rows), expected_rows),
    )


def op_request(session: Session, dom, mu, alpha) -> None:
    start = perf_counter()
    spec = session.call(cb.HartogsSpec, dom, mu, alpha)
    verdict = session.call(cb.hartogs_balanced, spec)
    induced = session.call(cb.hartogs_projectively_induced, spec)
    session.sample("verdict", perf_counter() - start)
    session.work["requests"] += 1
    session.work[f"reason:{verdict.reason}"] += 1
    ok = (
        verdict.balanced == closed_form_balanced(dom, mu, alpha)
        and verdict.reason == expected_reason(dom, mu, alpha)
        and induced == expected_projective(dom, mu, alpha)
    )
    session.check(ok, f"request {dom.label} mu={mu} alpha={alpha}: {verdict}, {induced}")


def exact_sweep(session: Session, seed: int, seconds: float, size: Size = FULL) -> None:
    """One full scan, then single-spec requests with corollary scans spread over the window."""
    rng = random.Random(seed)
    domains = cb.enumerate_catalog(CATALOG_CAP)
    requests = exact_requests(rng, domains)
    deadline = perf_counter() + seconds
    session.run(op_scan, size.scan_cap)
    corollary_every = seconds / 10.0
    next_corollary = perf_counter()
    while perf_counter() < deadline or session.ops < MIN_OPS:
        if perf_counter() >= next_corollary:
            next_corollary += corollary_every
            session.run(op_corollary, size.corollary_cap, domains)
            continue
        dom, mu, alpha = next(requests)
        session.issue((dom.label, mu, alpha))
        session.run(op_request, dom, mu, alpha)


# ---------------------------------------------------------------------------
# numeric-evidence

NUMERIC_MUS = (F(1), F(1, 2), F(3, 2), F(2))


def alpha_pool(rng: random.Random) -> list[F]:
    """The 40 multiples of 1/16 in (2, 9/2], shuffled: the epsilon caches never see a repeat.

    The upper end keeps the cap-100 ball spread decisively constant; the
    lower end keeps every Hartogs norm convergent for each mu in NUMERIC_MUS.
    """
    pool = [2 + F(k, 16) for k in range(1, 41)]
    rng.shuffle(pool)
    return pool


def interior_samples(rng: random.Random, mu: F, count: int) -> list:
    """Points (z, w) of the Hartogs domain over ball(2) with |z|^2, |w|^2/N^mu <= 0.2."""
    out = []
    for _ in range(count):
        x = rng.uniform(0.0, 0.2)
        theta = rng.uniform(0.0, math.pi / 2)
        phases = (rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        radii = (math.sqrt(x) * math.cos(theta), math.sqrt(x) * math.sin(theta))
        z = tuple(r * complex(math.cos(p), math.sin(p)) for r, p in zip(radii, phases))
        w = math.sqrt(rng.uniform(0.0, 0.2) * (1.0 - x) ** float(mu))
        out.append((z, w))
    return out


def numeric_inputs(rng: random.Random, size: Size):
    """(mu, alpha, samples) with each mu once per block of four, alphas never repeated."""
    alphas = iter(alpha_pool(rng))
    while True:
        mus = list(NUMERIC_MUS)
        rng.shuffle(mus)
        for mu in mus:
            alpha = next(alphas, None)
            if alpha is None:
                return
            yield mu, alpha, interior_samples(rng, mu, size.pullback_samples)


def _epsilon_ok(session: Session, report, expect_constant: bool, what: str) -> None:
    verdict = session.call(cb.constancy_verdict, report.spread)
    decisive = verdict in ("constant", "non-constant")
    session.check(
        decisive and (verdict == "constant") == expect_constant and math.isfinite(report.tail_bound),
        f"{what}: verdict {verdict} (spread {report.spread:.3e}), expected "
        f"{'constant' if expect_constant else 'non-constant'}, tail {report.tail_bound}",
    )


def op_evidence(session: Session, mu: F, alpha: F, samples, size: Size) -> None:
    fmu, falpha = float(mu), float(alpha)
    coarse = session.call(cb.DiscGrid, size.coarse_grid, size.coarse_grid)
    dense = session.call(cb.DiscGrid, size.dense_grid, size.dense_grid)
    label = f"mu={mu} alpha={alpha}"

    start = perf_counter()
    cold = timed(session, "epsilon_hartogs", cb.epsilon_hartogs_disc, fmu, falpha, coarse, size.hartogs_caps)
    warm = timed(session, "epsilon_grid", cb.epsilon_hartogs_disc, fmu, falpha, dense, size.hartogs_caps)
    ball_report = timed(session, "epsilon_ball", cb.epsilon_ball, 2, falpha, 0.9, size.ball_cap)
    pull_start = perf_counter()
    spec = session.call(cb.HartogsSpec, session.call(cb.ball, 2), mu, alpha)
    coeffs = session.call(cb.build_immersion, spec, size.immersion_cap)
    check = session.call(cb.verify_pullback, coeffs, samples)
    end = perf_counter()
    session.sample("pullback", end - pull_start)
    session.sample("op", end - start)
    session.work["evidence_ops"] += 1

    disc = session.call(cb.parse_domain, "I:1,1")
    balanced = session.call(cb.hartogs_balanced, session.call(cb.HartogsSpec, disc, mu, alpha)).balanced
    _epsilon_ok(session, cold, balanced, f"epsilon_hartogs_disc {label}")
    _epsilon_ok(session, warm, balanced, f"dense epsilon_hartogs_disc {label}")
    _epsilon_ok(session, ball_report, alpha > 2, f"epsilon_ball d=2 alpha={alpha}")
    session.check(
        math.isfinite(check.tail_bound)
        and check.max_rel_error <= check.tail_bound + 1e-13
        and check.samples_checked == len(samples),
        f"verify_pullback {label}: error {check.max_rel_error:.3e} vs bound {check.tail_bound:.3e}",
    )


def numeric_evidence(session: Session, seed: int, seconds: float, size: Size = FULL) -> None:
    rng = random.Random(seed)
    deadline = perf_counter() + seconds
    for mu, alpha, samples in numeric_inputs(rng, size):
        if perf_counter() >= deadline and session.ops >= MIN_OPS:
            break
        session.issue((mu, alpha, samples))
        session.run(op_evidence, mu, alpha, samples, size)


# ---------------------------------------------------------------------------
# cli-session

EXACT_COMMANDS = (
    "catalog",
    "wallach",
    "projective",
    "projective-hartogs",
    "balanced-cartan",
    "balanced-hartogs",
    "moment",
    "moment-ratio",
    "corollary-scan",
)
NUMERIC_COMMANDS = ("epsilon-ball", "epsilon-hartogs")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exit_code: int
    check_json: object  # payload -> bool
    check_text: object  # stdout -> bool

    @property
    def numeric(self) -> bool:
        return self.argv[0] in NUMERIC_COMMANDS


def _any_text(out: str) -> bool:
    return bool(out.strip())


def _line_check(line: str):
    return lambda out: line in out.splitlines()


def make_command(rng: random.Random, name: str, domains) -> Command:
    """One subcommand with seeded arguments and its independently expected result."""
    dom = rng.choice(domains)
    d = ("--domain", dom.label)
    if name == "catalog":
        cap = rng.choice((5, 12, 27))
        count = sum(1 for x in domains if x.dim <= cap)
        return Command(
            ("catalog", "--dim-cap", str(cap)), 0,
            lambda p: len(p["domains"]) == count,
            _line_check(f"{count} domains of dimension <= {cap}"),
        )
    if name == "wallach":
        top = fmt(wallach_top(dom))
        return Command(
            ("wallach", *d), 0,
            lambda p: p["threshold"] == top and len(p["discrete"]) == dom.r,
            _line_check(f"continuous part: every value > {top}"),
        )
    if name == "projective":
        top = wallach_top(dom)
        eta = rng.choice([k * F(dom.a, 2) for k in range(1, dom.r)] + [top + F(1, 2), top + F(1, 4), F(1, 3)])
        beta = eta / dom.gamma
        induced = admissible(dom, beta * dom.gamma)
        return Command(
            ("projective", *d, "--beta", fmt(beta)), 0 if induced else 2,
            lambda p: p["projectively_induced"] == induced, _any_text,
        )
    if name == "projective-hartogs":
        mu = rng.choice((F(1, 2), F(1), F(2), F(dom.a, 2), F(1, 3)))
        alpha = rng.choice((F(1, 2), F(1), F(2), F(3), F(7, 2)))
        induced = expected_projective(dom, mu, alpha)
        return Command(
            ("projective-hartogs", *d, "--mu", fmt(mu), "--alpha", fmt(alpha)), 0 if induced else 2,
            lambda p: p["projectively_induced"] == induced, _any_text,
        )
    if name == "balanced-cartan":
        beta = F(dom.gamma - 1, dom.gamma) + F(rng.randint(-1, 2), 2 * dom.gamma)
        balanced = beta > F(dom.gamma - 1, dom.gamma)
        return Command(
            ("balanced-cartan", *d, "--beta", fmt(beta)), 0 if balanced else 2,
            lambda p: p["balanced"] == balanced, _any_text,
        )
    if name == "balanced-hartogs":
        dom, mu, alpha = spec_draw(rng, dom, rng.choice(SPEC_KINDS))
        balanced = closed_form_balanced(dom, mu, alpha)
        reason = expected_reason(dom, mu, alpha)
        return Command(
            ("balanced-hartogs", "--domain", dom.label, "--mu", fmt(mu), "--alpha", fmt(alpha)),
            0 if balanced else 2,
            lambda p: p["balanced"] == balanced and p["reason"] == reason, _any_text,
        )
    if name == "moment":
        s = rng.choice((F(-1, 2), F(0), F(1, 2), F(1), F(3), F(7, 2)))

        def in_range(p):  # M(0) = 1 and M is strictly decreasing on s > -1
            value = F(p["value"])
            return value == 1 if s == 0 else (value < 1) == (s > 0)

        # "--s=-1/2": argparse reads a separate "-1/2" as an option name
        return Command(("moment", *d, f"--s={fmt(s)}"), 0, in_range, _any_text)
    if name == "moment-ratio":
        return Command(
            ("moment-ratio", *d), 0,
            lambda p: p["denom_degree"] == dom.dim and p["numer_degree"] == 0, _any_text,
        )
    if name == "corollary-scan":
        cap = rng.choice((8, 16, 27))
        rows = corollary_row_count(domains, cap)
        return Command(
            ("corollary-scan", "--dim-cap", str(cap)), 0,
            lambda p: p["all_ok"] is True and len(p["rows"]) == rows,
            _line_check("all rows ok: true"),
        )
    if name == "epsilon-ball":
        alpha = rng.choice(("1.5", "2", "2.5", "3", "4"))
        return Command(
            ("epsilon-ball", "--alpha", alpha, "--cap", "200"), 0,
            lambda p: p["verdict"] == "constant" and math.isfinite(p["tail_bound"]),
            _line_check("verdict: constant"),
        )
    if name == "epsilon-hartogs":
        mu = rng.choice(("1", "0.5", "1.5", "2"))
        alpha = rng.choice(("2.5", "3", "3.5", "4"))
        verdict = "constant" if mu == "1" else "non-constant"
        return Command(
            ("epsilon-hartogs", "--mu", mu, "--alpha", alpha, "--grid", "4x4", "--caps", "40,40"), 0,
            lambda p: p["verdict"] == verdict and math.isfinite(p["tail_bound"]),
            _line_check(f"verdict: {verdict}"),
        )
    raise ValueError(f"unknown subcommand {name!r}")


def cli_commands(rng: random.Random, domains):
    """Blocks of five: four exact subcommands and one numeric, shuffled."""
    while True:
        block = [rng.choice(EXACT_COMMANDS) for _ in range(4)] + [rng.choice(NUMERIC_COMMANDS)]
        rng.shuffle(block)
        for name in block:
            cmd = make_command(rng, name, domains)
            flags = [flag for flag in ("--json", "--manifest") if rng.random() < (0.5 if flag == "--json" else 0.25)]
            yield Command(cmd.argv + tuple(flags), cmd.exit_code, cmd.check_json, cmd.check_text)


def _run_cli(argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cartanbal.cli", *argv],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )


def op_cli(session: Session, cmd: Command) -> None:
    start = perf_counter()
    proc = session.tracer.timed(f"cli.{cmd.argv[0]}", _run_cli, cmd.argv)
    wall = perf_counter() - start
    session.sample("cli_numeric" if cmd.numeric else "cli_exact", wall)
    session.work["processes"] += 1
    ok = proc.returncode == cmd.exit_code and "Traceback" not in proc.stderr
    if ok and "--json" in cmd.argv:
        payload = json.loads(proc.stdout)
        ok = payload.get("schema") == 1 and cmd.check_json(payload)
        if "--manifest" in cmd.argv:
            ok = ok and payload["manifest"]["tool"] == "cartanbal"
    elif ok:
        ok = cmd.check_text(proc.stdout)
        if "--manifest" in cmd.argv:
            ok = ok and any(line.startswith("manifest:") for line in proc.stdout.splitlines())
    session.check(ok, f"cartanbal {' '.join(cmd.argv)}: exit {proc.returncode}, stderr {proc.stderr[-300:]!r}")


def cli_session(session: Session, seed: int, seconds: float, size: Size = FULL) -> None:
    rng = random.Random(seed)
    domains = cb.enumerate_catalog(CATALOG_CAP)
    deadline = perf_counter() + seconds
    for cmd in cli_commands(rng, domains):
        if perf_counter() >= deadline and session.ops >= MIN_OPS:
            break
        session.issue(cmd.argv)
        session.run(op_cli, cmd)
        if session.ops % 2 == 0:
            session.probe.startup()


WORKLOADS = {
    "exact-sweep": exact_sweep,
    "numeric-evidence": numeric_evidence,
    "cli-session": cli_session,
}


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter imports the package and warms each layer it uses

SETUP_CODE = {
    "exact-sweep": """
from fractions import Fraction as F
import cartanbal as cb
doms = cb.enumerate_catalog(27)
spec = cb.HartogsSpec(cb.parse_domain("I:2,3"), F(1), F(8))
cb.hartogs_balanced(spec); cb.hartogs_projectively_induced(spec)
cb.moment_ratio(doms[-1]).eval_at(1)
cb.FactoredRational(1, [(1, 2)], [(1, 3)]).compose_affine(2, 1).is_constant()
cb.balanced_scan(2); cb.corollary_scan(2)
""",
    "numeric-evidence": """
from fractions import Fraction as F
import cartanbal as cb
r = cb.epsilon_hartogs_disc(1.0, 3.0, cb.DiscGrid(2, 2), (4, 4))
cb.constancy_verdict(r.spread)
cb.epsilon_ball(2, 3.0, 0.5, 4)
spec = cb.HartogsSpec(cb.ball(2), F(1), F(3))
cb.verify_pullback(cb.build_immersion(spec, 4), [((0.1, 0.1), 0.1)])
cb.hartogs_balanced(cb.HartogsSpec(cb.parse_domain("I:1,1"), F(1), F(3)))
""",
    "cli-session": """
import contextlib, io
import cartanbal.cli
with contextlib.redirect_stdout(io.StringIO()):
    cartanbal.cli.main(["catalog", "--dim-cap", "5", "--json"])
""",
}


def measure_setup(workload: str, repeats: int, probe: SpeedProbe) -> list[float]:
    """Seconds from interpreter start to "ready" in fresh processes.

    One unmeasured start comes first, so byte-code compilation and a cold
    file cache do not land in the first sample.  A reference start of the
    speed probe follows each one.
    """
    code = SETUP_CODE[workload] + "print('ready', flush=True)\n"
    out = []
    for i in range(repeats + 1):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - start
            try:
                _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process for {workload} failed: {err[-500:]}")
        if i:
            out.append(ready)
        probe.startup()
    return out
