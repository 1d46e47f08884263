"""Per-layer timings: each cartanbal module timed through its public functions.

Inputs are fixed (VI and I:2,3 on the exact path, the acceptance settings on
the numeric path), so these figures mean the same on every workload.  Each
timing is the median over several samples; a sample of a fast call times a
batch of calls and divides.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from time import perf_counter

import cartanbal as cb
import cartanbal.cli

from workloads import CHILD_TIMEOUT_S, ROOT, Session, child_env, closed_form_balanced

COUNT_SCAN_CAP = 8  # balanced.rows* count the verdicts of balanced_scan(8)


def per_call(fn, *args, samples: int = 7, batch: int = 1) -> tuple[float, object]:
    """Median seconds per call over `samples` batches, and the last result."""
    times = []
    out = None
    for _ in range(samples):
        start = perf_counter()
        for _ in range(batch):
            out = fn(*args)
        times.append((perf_counter() - start) / batch)
    return statistics.median(times), out


def _fresh_import_seconds() -> float:
    code = (
        "import time; t = time.perf_counter(); import cartanbal.cli; "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout)


def _cli_main(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cartanbal.cli.main(argv)
    return code, buf.getvalue()


def measure(session: Session) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as {name: (value, unit)}; outputs are checked."""
    out: dict[str, tuple[float, str]] = {}
    check = session.check
    vi = cb.parse_domain("VI")
    i23 = cb.parse_domain("I:2,3")

    # exactnum, on VI's moment ratio and the chain-ratio composition
    ratio = cb.moment_ratio(vi).as_rational
    factors = [(f.slope, f.intercept) for f in ratio.denom]
    t, built = per_call(cb.FactoredRational, ratio.scale, (), factors, "s", batch=20)
    out["exactnum.construct_us"] = (t * 1e6, "us")
    check(built == ratio and len(factors) == vi.dim, "FactoredRational(VI factors)")
    mu, alpha = F(1), F(30)
    t, at_m = per_call(ratio.compose_affine, mu, mu * alpha - vi.gamma, "m", batch=20)
    out["exactnum.compose_us"] = (t * 1e6, "us")
    at_m1 = ratio.compose_affine(mu, mu * (alpha + 1) - vi.gamma, "m")
    t, quotient = per_call(at_m1.__truediv__, at_m, batch=20)
    out["exactnum.divide_us"] = (t * 1e6, "us")
    t, constant = per_call(quotient.is_constant, batch=1000)
    out["exactnum.is_constant_us"] = (t * 1e6, "us")
    check(constant == (False, None), "VI chain quotient is not constant")
    t, value = per_call(ratio.eval_at, F(7, 3), batch=50)
    out["exactnum.eval_us"] = (t * 1e6, "us")
    expected = F(1)
    for f in ratio.denom:  # M(s) = prod c / (s + c) over the denominator factors
        expected *= f.eval_at(0) / f.eval_at(F(7, 3))
    check(value == expected, "moment ratio of VI at 7/3")

    # moments
    for label, dom in (("vi", vi), ("i23", i23)):
        t, mr = per_call(cb.moment_ratio, dom, batch=20)
        out[f"moments.moment_ratio_{label}_us"] = (t * 1e6, "us")
        check(mr.as_rational.denom_degree == dom.dim and mr.eval_at(0) == 1, f"moment_ratio({dom})")

    # balanced: one spec per verdict reason, then the counts of a small scan
    heavy = cb.HartogsSpec(vi, mu, alpha)
    t, chain = per_call(cb.norm_chain_ratio, heavy)
    out["balanced.chain_ratio_ms"] = (t * 1e3, "ms")
    check(not chain.is_constant()[0], "norm_chain_ratio(VI) is not constant")
    t, level = per_call(cb.final_quantity, heavy)
    out["balanced.final_quantity_ms"] = (t * 1e3, "ms")
    check(
        not level.is_constant()[0] and level.numer_degree == level.denom_degree,
        "final_quantity(VI) is non-constant with equal degrees after cancellation",
    )
    reasons = (
        ("ok", cb.HartogsSpec(cb.ball(2), F(1), F(4)), "ok"),
        ("m_dependence", heavy, "m_dependence"),
        ("alpha_mu", cb.HartogsSpec(i23, F(1, 4), F(8)), "alpha_mu_not_above_gamma_minus_1"),
    )
    for name, spec, reason in reasons:
        t, verdict = per_call(cb.hartogs_balanced, spec)
        out[f"balanced.verdict_{name}_ms"] = (t * 1e3, "ms")
        check(verdict.reason == reason, f"hartogs_balanced({spec.label}) reason {verdict.reason}")
    rows = cb.balanced_scan(COUNT_SCAN_CAP)
    by_reason = Counter(row.reason for row in rows)
    out["balanced.rows"] = (len(rows), "count")
    out["balanced.rows_ok"] = (by_reason["ok"], "count")
    out["balanced.rows_m_dependence"] = (by_reason["m_dependence"], "count")
    out["balanced.rows_alpha_mu"] = (by_reason["alpha_mu_not_above_gamma_minus_1"], "count")
    check(
        all(row.balanced == closed_form_balanced(row.domain, row.mu, row.alpha) for row in rows),
        f"balanced_scan({COUNT_SCAN_CAP}) rows follow the closed form",
    )

    # wallach, on the canonical-weight witness of VI
    mu0, alpha_min = cb.corollary_witness(vi)
    witness = cb.HartogsSpec(vi, mu0, alpha_min)
    t, induced = per_call(cb.hartogs_projectively_induced, witness, batch=200)
    out["wallach.projective_hartogs_us"] = (t * 1e6, "us")
    check(induced, "VI canonical weight is projectively induced")

    # catalog
    t, domains = per_call(cb.enumerate_catalog, 27, batch=5)
    out["catalog.enumerate_us"] = (t * 1e6, "us")
    check(len(domains) == 89, "enumerate_catalog(27) has 89 entries")
    t, parsed = per_call(cb.parse_domain, "I:2,3", batch=200)
    out["catalog.parse_us"] = (t * 1e6, "us")
    check(parsed == i23, "parse_domain round trip")

    # epsilon: cold quadrature norms, then warm-norm grids and single points
    t_h, h_norms = per_call(cb.hartogs_disc_norms, 2, 4, (80, 80), samples=3)
    t_b, b_norms = per_call(cb.ball_monomial_norms, 2, 3.5, 100, samples=3)
    out["epsilon.hartogs_norms_s"] = (t_h, "s")
    out["epsilon.ball_norms_s"] = (t_b, "s")
    out["epsilon.norms_per_s"] = ((len(h_norms.norms) + len(b_norms.norms)) / (t_h + t_b), "1/s")
    check(len(h_norms.norms) == 81 * 81 and len(b_norms.norms) == 5151, "norm counts")
    grid = cb.DiscGrid()
    cb.epsilon_hartogs_disc(2.0, 4.0, grid, (80, 80))  # fills the norm cache
    t, report = per_call(cb.epsilon_hartogs_disc, 2.0, 4.0, grid, (80, 80), samples=9)
    out["epsilon.grid_hartogs_ms"] = (t * 1e3, "ms")
    check(abs(report.spread - 1 / 14) < 1e-6, f"mu=2 alpha=4 Hartogs spread {report.spread}")
    cb.epsilon_ball(2, 3.5, 0.9, 100)
    t, report = per_call(cb.epsilon_ball, 2, 3.5, 0.9, 100, samples=9)
    out["epsilon.grid_ball_ms"] = (t * 1e3, "ms")
    check(cb.constancy_verdict(report.spread) == "constant", "ball d=2 alpha=3.5 is constant")
    t, v_h = per_call(cb.epsilon_point_hartogs, h_norms, 0.3, 0.2, batch=5)
    out["epsilon.point_hartogs_us"] = (t * 1e6, "us")
    t, v_b = per_call(cb.epsilon_point_ball, b_norms, (0.3, 0.2), batch=5)
    out["epsilon.point_ball_us"] = (t * 1e6, "us")
    check(v_h > 0 and v_b > 0, "epsilon point values are positive")

    # calabi, over ball(2) at cap 60 with 25 grid samples
    spec = cb.HartogsSpec(cb.ball(2), F(1), F(4))
    t_build, coeffs = per_call(cb.build_immersion, spec, 60, samples=3)
    samples = [((0.3 * i / 4, 0.3 * i / 4), 0.4 * j / 4) for i in range(5) for j in range(5)]
    t_pull, pulled = per_call(cb.verify_pullback, coeffs, samples, samples=3)
    entries = len(coeffs.entries)
    out["calabi.build_s"] = (t_build, "s")
    out["calabi.entries_per_s"] = (entries / t_build, "1/s")
    out["calabi.pullback_s"] = (t_pull, "s")
    out["calabi.terms_per_s"] = (entries * len(samples) / t_pull, "1/s")
    check(
        entries == 39711 and pulled.max_rel_error <= pulled.tail_bound + 1e-13,
        f"immersion entries {entries}, pullback error {pulled.max_rel_error:.3e}",
    )

    # cli: a fresh import, and main() in-process with the library warm
    out["cli.import_s"] = (statistics.median(_fresh_import_seconds() for _ in range(3)), "s")
    argv = ["balanced-hartogs", "--domain", "I:2,3", "--mu", "1", "--alpha", "8", "--json"]
    t, (code, text) = per_call(_cli_main, argv, samples=9)
    out["cli.main_ms"] = (t * 1e3, "ms")
    check(code == 2 and '"schema": 1' in text, f"cli main {argv}: exit {code}")
    return out
