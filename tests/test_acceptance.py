"""End-to-end acceptance checks, one test per headline guarantee.

Each test is self-contained, pins its tolerances explicitly, and asserts a
runtime ceiling where the guarantee includes one.  Run with -v to get one
pass/fail line per criterion.
"""

import math
import re
import time
from fractions import Fraction

import pytest
from scipy.integrate import quad

from cartanbal import (
    FactoredRational,
    HartogsSpec,
    TrivialSpaceError,
    ball_monomial_norms,
    balanced_scan,
    build_immersion,
    cartan_balanced,
    corollary_scan,
    enumerate_catalog,
    epsilon_ball,
    epsilon_hartogs_disc,
    final_quantity,
    make_domain,
    moment_ratio,
    parse_domain,
    verify_pullback,
)

F = Fraction

# one frozen exemplar per family: label -> (r, a, b, gamma, dim)
_FAMILY_EXEMPLARS = {
    "I:2,3": (2, 2, 1, 5, 6),
    "II:5": (5, 1, 0, 6, 15),
    "III:5": (2, 4, 2, 8, 10),
    "IV:5": (2, 3, 0, 5, 5),
    "V": (2, 6, 4, 12, 16),
    "VI": (3, 8, 0, 18, 27),
}


def test_c01_catalog_fidelity():
    """Every domain of dim <= 27 satisfies the genus and dimension identities."""
    t0 = time.monotonic()
    catalog = enumerate_catalog(27)
    assert len(catalog) == 89
    for dom in catalog:
        assert dom.gamma == (dom.r - 1) * dom.a + dom.b + 2
        assert dom.dim == dom.r * (dom.b + 1) + dom.a * dom.r * (dom.r - 1) // 2
        assert dom.is_ball == (dom.r == 1)
    by_label = {dom.label: dom for dom in catalog}
    for label, (r, a, b, gamma, dim) in _FAMILY_EXEMPLARS.items():
        dom = by_label[label]
        assert (dom.r, dom.a, dom.b, dom.gamma, dom.dim) == (r, a, b, gamma, dim)
    assert time.monotonic() - t0 < 1.0


def test_c02_balanced_threshold_boundary():
    """beta=(gamma-1)/gamma is rejected and beta+1/1000 accepted, everywhere."""
    t0 = time.monotonic()
    for dom in enumerate_catalog(27):
        threshold = F(dom.gamma - 1, dom.gamma)
        assert not cartan_balanced(dom, threshold)
        assert cartan_balanced(dom, threshold + F(1, 1000))
    assert time.monotonic() - t0 < 1.0


def test_c03_characterization_scan():
    """Exhaustive scan: balanced iff rank-one base, mu=1 and alpha > d+1."""
    t0 = time.monotonic()
    rows = balanced_scan(27)
    assert len(rows) > 1000
    for row in rows:
        expected = (
            row.domain.r == 1 and row.mu == 1 and row.alpha > row.domain.dim + 1
        )
        assert row.balanced == expected, row
        assert row.closed_form == row.balanced, row
        if row.necessary_ok:
            assert row.ratio_constant == row.balanced, row
        else:
            assert not row.balanced, row
    assert time.monotonic() - t0 < 10.0


def test_c04_frozen_final_quantities():
    """Two hand-expanded rational functions of the fiber degree, exact."""
    fq = final_quantity(HartogsSpec(make_domain("I", (1, 1)), F(2), F(4)))
    assert fq == FactoredRational(1, [(1, 3)], [(2, 7)], var="m")
    fq = final_quantity(HartogsSpec(make_domain("IV", (4,)), F(1), F(6)))
    assert fq == FactoredRational(1, [(1, 2)], [(1, 4)], var="m")


def test_c05_moment_quadrature_oracle():
    """Exact moment ratios match adaptive quadrature on the ball."""
    t0 = time.monotonic()
    ratio1 = moment_ratio(parse_domain("I:1,1"))
    for s in (1, 2, 5):
        numeric = quad(lambda t: (1.0 - t) ** s, 0.0, 1.0)[0]
        assert abs(numeric - float(ratio1.eval_at(s))) < 1e-10
    ratio2 = moment_ratio(parse_domain("I:1,2"))
    norm = quad(lambda t: t, 0.0, 1.0)[0]
    for s in (1, 2, 5):
        numeric = quad(lambda t: (1.0 - t) ** s * t, 0.0, 1.0)[0] / norm
        assert abs(numeric - float(ratio2.eval_at(s))) < 1e-9
    assert time.monotonic() - t0 < 5.0


def test_c06_divergence_flags():
    """Weighted norms diverge exactly when alpha <= d."""
    t0 = time.monotonic()
    for d in (1, 2):
        for offset in (-0.5, 0.0):
            message = f"alpha must exceed d = {d} for a nontrivial space, got {d + offset}"
            with pytest.raises(TrivialSpaceError, match=f"^{re.escape(message)}$"):
                ball_monomial_norms(d, d + offset, 5)
        assert ball_monomial_norms(d, d + 0.5, 5).norms
    assert time.monotonic() - t0 < 5.0


def test_c07_epsilon_constancy():
    """The balanced cases produce numerically flat epsilon grids."""
    t0 = time.monotonic()
    rep_ball = epsilon_ball(1, 3.0, grid_rmax=0.9, degree_cap=200)
    assert rep_ball.spread < 1e-5
    assert rep_ball.min_value == pytest.approx(2.0 / math.pi, rel=1e-8)
    rep_hart = epsilon_hartogs_disc(1.0, 4.0, caps=(80, 80))
    assert len(rep_hart.values) == 64
    assert rep_hart.spread < 1e-5
    assert rep_hart.min_value == pytest.approx(6.0 / math.pi**2, rel=1e-8)
    assert time.monotonic() - t0 < 60.0


def test_c08_epsilon_nonconstancy_witness():
    """The mu=2 Hartogs epsilon is visibly non-constant; spread frozen."""
    t0 = time.monotonic()
    rep = epsilon_hartogs_disc(2.0, 4.0, caps=(80, 80))
    assert rep.spread > 1e-3
    assert rep.spread == pytest.approx(0.0714285714, abs=1e-6)
    assert time.monotonic() - t0 < 60.0


def test_c09_pullback_identity():
    """Truncated immersion reproduces the potential within the tail bound."""
    t0 = time.monotonic()
    spec = HartogsSpec(make_domain("I", (1, 1)), F(1), F(3))
    coeffs = build_immersion(spec, 60)
    samples = [
        (0.4 * i / 4.0, 0.4 * j / 4.0) for i in range(5) for j in range(5)
    ]
    check = verify_pullback(coeffs, samples)
    assert check.max_rel_error < 1e-8
    assert check.max_rel_error <= check.tail_bound + 1e-13
    assert time.monotonic() - t0 < 10.0


def test_c10_corollary_scan():
    """Canonical weights: projectively induced yet unbalanced, no exceptions."""
    t0 = time.monotonic()
    report = corollary_scan(27)
    assert report.all_ok
    non_ball = [row for row in report.rows if not row.excluded]
    balls = [row for row in report.rows if row.excluded]
    assert len(non_ball) == 3 * (89 - len(balls))
    for row in non_ball:
        assert row.error is None
        assert row.projectively_induced is True
        assert row.balanced is False
    assert time.monotonic() - t0 < 10.0


def test_c11_balanced_range_containment():
    """gamma-1 exceeds the discrete Wallach top for every catalog entry."""
    t0 = time.monotonic()
    for dom in enumerate_catalog(27):
        assert dom.gamma - 1 > F((dom.r - 1) * dom.a, 2)
    assert time.monotonic() - t0 < 1.0
