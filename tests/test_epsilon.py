import cmath
import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from cartanbal.catalog import ball
from cartanbal.balanced import cartan_balanced
from cartanbal.epsilon import (
    SPREAD_CONSTANT,
    SPREAD_NONCONSTANT,
    DiscGrid,
    EpsilonReport,
    _log_beta as _log_beta_table,
    ball_monomial_norms,
    constancy_verdict,
    epsilon_ball,
    epsilon_hartogs_disc,
    epsilon_point_ball,
    epsilon_point_hartogs,
    hartogs_disc_norms,
)
from cartanbal.errors import SampleOutsideDomainError, TrivialSpaceError
from cartanbal.moments import moment_ratio


def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def test_disc_norms_match_beta_integrals():
    norms = ball_monomial_norms(1, 3.0, 10)
    assert not norms.divergent
    assert norms.norms[0] == pytest.approx(math.pi / 2, rel=1e-12)
    assert norms.norms[1] == pytest.approx(math.pi / 6, rel=1e-12)
    for m in range(11):
        exact = math.pi * math.exp(_log_beta(m + 1, 2.0))
        assert norms.norms[m] == pytest.approx(exact, rel=1e-11)


def test_disc_norms_fractional_weight_singular_endpoint():
    # 1 < alpha < 2 puts an integrable singularity at the boundary
    alpha = 1.5
    norms = ball_monomial_norms(1, alpha, 8)
    assert not norms.divergent
    for m in range(9):
        exact = math.pi * math.exp(_log_beta(m + 1, alpha - 1.0))
        assert norms.norms[m] == pytest.approx(exact, rel=1e-10)


def test_ball2_norms_match_gamma_ratio():
    alpha = 4.0
    norms = ball_monomial_norms(2, alpha, 6)
    for (m1, m2), value in norms.norms.items():
        log_exact = (
            2 * math.log(math.pi)
            + math.lgamma(m1 + 1)
            + math.lgamma(m2 + 1)
            + math.lgamma(alpha - 2.0)
            - math.lgamma(m1 + m2 + alpha)
        )
        assert value == pytest.approx(math.exp(log_exact), rel=1e-9)


def test_divergence_flags_at_thresholds():
    # norms diverge exactly when alpha <= d
    for d in (1, 2):
        for alpha, expect in [(d - 0.5, True), (float(d), True), (d + 0.5, False)]:
            norms = ball_monomial_norms(d, alpha, 4)
            assert norms.divergent is expect, (d, alpha)
            if expect:
                assert norms.norms == {}
            else:
                assert len(norms.norms) > 0


def test_divergence_matches_balanced_threshold():
    # on the ball the weight alpha corresponds to beta = alpha/gamma; the
    # space degenerates exactly when balancedness fails: alpha <= d means
    # beta <= (gamma-1)/gamma
    for d in (1, 2):
        gamma = d + 1
        assert ball_monomial_norms(d, float(d), 3).divergent
        assert not cartan_balanced(ball(d), F(d, gamma))
        assert not ball_monomial_norms(d, d + 0.5, 3).divergent
        assert cartan_balanced(ball(d), (F(d) + F(1, 2)) / gamma)


def test_moment_ratio_cross_oracle():
    # for the disc, norm(0)/pi equals the exact moment ratio at s = alpha-2
    for alpha in (3.0, 3.5, 5.25):
        norms = ball_monomial_norms(1, alpha, 0)
        exact = moment_ratio(ball(1)).eval_at(F(alpha) - 2)
        assert norms.norms[0] / math.pi == pytest.approx(float(exact), rel=1e-11)


def test_monomials_are_orthogonal_spot_quadrature():
    # cross term <z^1, z^2> over the disc with weight (1-|z|^2): the angular
    # quadrature of the oscillating factor vanishes
    def angular(kind):
        value, _ = quad(
            lambda th: math.cos(th) if kind == "re" else math.sin(th), 0, 2 * math.pi
        )
        return value

    radial, _ = quad(lambda r: r ** (1 + 2) * (1 - r * r) * r, 0, 1)
    assert abs(radial) > 1e-3  # the radial factor alone does not vanish
    assert abs(angular("re") * radial) < 1e-10
    assert abs(angular("im") * radial) < 1e-10


def test_epsilon_ball_disc_constant():
    report = epsilon_ball(1, 3.0, 0.9, 200)
    assert report.min_value == pytest.approx(2 / math.pi, rel=1e-10)
    assert report.max_value == pytest.approx(2 / math.pi, rel=1e-10)
    assert report.spread < SPREAD_CONSTANT
    assert constancy_verdict(report.spread) == "constant"
    assert report.tail_bound < 1e-10
    assert len(report.values) == 25
    assert all(rw == 0.0 for _, rw in report.grid)


def test_epsilon_ball2_constant():
    report = epsilon_ball(2, 4.0, 0.5, 40)
    assert report.min_value == pytest.approx(6 / math.pi**2, rel=1e-10)
    assert report.spread < SPREAD_CONSTANT


def test_epsilon_ball_divergent_raises():
    with pytest.raises(TrivialSpaceError):
        epsilon_ball(1, 1.0, 0.5, 20)
    with pytest.raises(SampleOutsideDomainError):
        epsilon_ball(1, 3.0, 1.2, 20)
    with pytest.raises(ValueError, match="grid_points"):
        epsilon_ball(1, 3.0, 0.5, 20, grid_points=0)


def test_norms_reject_non_finite_parameters():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha must be finite"):
            ball_monomial_norms(1, bad, 5)
        with pytest.raises(ValueError, match="alpha must be finite"):
            hartogs_disc_norms(1.0, bad, (3, 3))
        with pytest.raises(ValueError, match="mu must be finite"):
            hartogs_disc_norms(bad, 4.0, (3, 3))


@pytest.mark.parametrize(
    "d, alpha, rmax, cap", [(1, 3.0, 0.9, 60), (2, 4.0, 0.5, 40)]
)
def test_point_and_grid_agree_ball(d, alpha, rmax, cap):
    report = epsilon_ball(d, alpha, rmax, cap)
    norms = ball_monomial_norms(d, alpha, cap)
    for (r, _), value in zip(report.grid, report.values):
        z = r if d == 1 else (r / math.sqrt(2), r / math.sqrt(2))
        assert epsilon_point_ball(norms, z) == pytest.approx(value, rel=1e-12, abs=0)


def test_point_and_grid_agree_hartogs():
    report = epsilon_hartogs_disc(2.0, 4.0, grid=DiscGrid(nz=8, nw=8), caps=(40, 40))
    norms = hartogs_disc_norms(2.0, 4.0, (40, 40))
    assert len(report.values) == 64
    for (rz, rw), value in zip(report.grid, report.values):
        assert epsilon_point_hartogs(norms, rz, rw) == pytest.approx(value, rel=1e-12, abs=0)


def _worst_rel_gap(norms, exact) -> float:
    """Largest relative gap between the library norms and exact(key)."""
    worst = 0.0
    with mpmath.workdps(30):
        for key, value in norms.norms.items():
            oracle = exact(key)
            worst = max(worst, float(abs(value - oracle) / oracle))
    return worst


def test_quadrature_norms_match_mpmath_beta():
    # every norm at the acceptance settings is pi^k times a product of Beta values
    pi, beta, mpf = mpmath.pi, mpmath.beta, mpmath.mpf

    def hartogs_exact(key, mu=mpf(2), alpha=mpf(4)):
        j, m = key
        return pi**2 * beta(m + 1, alpha - 2) * beta(j + 1, mu * (alpha + m) - 1)

    def ball2_exact(key, alpha=mpf("3.5")):
        m1, m2 = key
        return pi**2 * beta(m1 + 1, m2 + 1) * beta(m1 + m2 + 2, alpha - 2)

    def ball1_exact(m, alpha=mpf(3)):
        return pi * beta(m + 1, alpha - 1)

    cases = [
        (hartogs_disc_norms(2, 4, (80, 80)), hartogs_exact, 81 * 81),
        (ball_monomial_norms(2, 3.5, 100), ball2_exact, 101 * 102 // 2),
        (ball_monomial_norms(1, 3, 200), ball1_exact, 201),
    ]
    for norms, exact, count in cases:
        assert len(norms.norms) == count
        worst = _worst_rel_gap(norms, exact)
        assert worst < 1e-10, (norms.setting, norms.params, worst)


def _quad(f, a, b, endpoint_power=0.0):
    """int_a^b f(x) (b-x)^endpoint_power dx; weight="alg" absorbs the endpoint power."""
    return quad(
        f, a, b, weight="alg", wvar=(0.0, endpoint_power), epsabs=0.0, epsrel=1e-12, limit=200
    )[0]


def test_norms_match_nested_quadrature_of_the_defining_integrals():
    # the unfactorised radial integrals, with no Beta function and no fiber
    # normalisation: an oracle that shares nothing with the closed form
    def hartogs(mu, alpha, j, m):
        # pi^2 int_0^1 int_0^(N^mu) (N^mu - rho)^(alpha-3) N^(2mu-2) t^j rho^m drho dt
        def fiber(t):
            return _quad(lambda rho: rho**m, 0.0, (1.0 - t) ** mu, alpha - 3.0)

        return math.pi**2 * _quad(lambda t: t**j * fiber(t), 0.0, 1.0, 2.0 * mu - 2.0)

    def ball2(alpha, m1, m2):
        # pi^2 int over the simplex t1 + t2 < 1 of (1-t1-t2)^(alpha-3) t1^m1 t2^m2
        def inner(t1):
            return _quad(lambda t2: t2**m2, 0.0, 1.0 - t1, alpha - 3.0)

        return math.pi**2 * _quad(lambda t1: t1**m1 * inner(t1), 0.0, 1.0)

    def ball1(alpha, m):
        return math.pi * _quad(lambda t: t**m, 0.0, 1.0, alpha - 2.0)

    cases = []
    for mu, alpha in ((0.75, 2.5), (2.0, 4.0), (1.0, 3.5)):
        norms = hartogs_disc_norms(mu, alpha, (7, 7)).norms
        cases += [(norms[k], hartogs(mu, alpha, *k)) for k in ((0, 0), (3, 2), (7, 5), (1, 7))]
    for alpha in (2.5, 3.5):
        norms = ball_monomial_norms(2, alpha, 8).norms
        cases += [(norms[k], ball2(alpha, *k)) for k in ((0, 0), (2, 3), (5, 1), (0, 8))]
    norms = ball_monomial_norms(1, 1.5, 8).norms  # (1-t)^(-1/2): the singular endpoint
    cases += [(norms[m], ball1(1.5, m)) for m in (0, 3, 8)]
    for value, oracle in cases:
        assert value == pytest.approx(oracle, rel=1e-8)


def test_epsilon_point_ball_rotation_invariant():
    norms = ball_monomial_norms(1, 3.0, 60)
    base = epsilon_point_ball(norms, 0.3)
    for phase in (0.7, 2.1, -1.2):
        rotated = epsilon_point_ball(norms, 0.3 * cmath.exp(1j * phase))
        assert rotated == pytest.approx(base, rel=1e-12)
    norms2 = ball_monomial_norms(2, 4.0, 40)
    base = epsilon_point_ball(norms2, (0.3, 0.4))
    rotated = epsilon_point_ball(
        norms2, (0.3 * cmath.exp(0.5j), 0.4 * cmath.exp(-1.3j))
    )
    assert rotated == pytest.approx(base, rel=1e-12)


def test_epsilon_point_ball_outside():
    norms = ball_monomial_norms(1, 3.0, 10)
    with pytest.raises(SampleOutsideDomainError):
        epsilon_point_ball(norms, 1.0)
    with pytest.raises(SampleOutsideDomainError):
        epsilon_point_ball(norms, (0.8, 0.7))


def _spread(n_max: int, count: int) -> list[int]:
    """About 2 count indices over 0..n_max, both ends included: count evenly
    spaced and count geometrically spaced, so the small indices are dense."""
    steps = [i / (count - 1) for i in range(count)]
    return sorted({round(n_max * s) for s in steps} | {round((n_max + 1) ** s) - 1 for s in steps})


# (n_max, c) of every table the norm builders and the Hartogs tail bound read,
# at the largest caps and near the divergence thresholds
_LOG_BETA_TABLES = {
    **{f"ball1-cap24999-alpha{a}": (24_999, a - 1.0) for a in (1.001, 50.0, 300.5)},
    "ball2-cap200-integer-c": (200, np.arange(1.0, 202.0)),
    **{f"ball2-cap200-alpha{a}": (201, a - 2.0) for a in (2.001, 3.5, 300.5)},
    **{f"hartogs-caps150-mu{mu}-alpha{a}-fiber": (151, a - 2.0)
       for mu, a in ((0.3334, 3.0), (0.01, 100.5), (5.0, 2.001))},
    **{f"hartogs-caps150-mu{mu}-alpha{a}-base": (151, mu * (a + np.arange(152.0)) - 1.0)
       for mu, a in ((0.3334, 3.0), (0.01, 100.5), (5.0, 2.001))},
}


@pytest.mark.parametrize("n_max, c", _LOG_BETA_TABLES.values(), ids=_LOG_BETA_TABLES.keys())
def test_log_beta_tables_match_mpmath(n_max, c):
    # B(n+1, c) from mpmath's Gamma functions, on up to 600 rows of a single
    # column, or 50 rows and 50 columns; values at or below 1e-300 are not compared
    c = np.atleast_1d(c)
    table = np.exp(_log_beta_table(n_max, c))
    assert table.shape == (n_max + 1, len(c))
    worst, compared = 0.0, 0
    with mpmath.workdps(30):
        for n in _spread(n_max, 300 if len(c) == 1 else 25):
            for i in _spread(len(c) - 1, 25) if len(c) > 1 else [0]:
                exact = mpmath.beta(n + 1, mpmath.mpf(float(c[i])))
                if exact > 1e-300:
                    worst = max(worst, float(abs(table[n, i] - exact) / exact))
                    compared += 1
    assert compared >= 40
    assert worst < 1e-11, worst


def test_hartogs_norms_match_beta_products():
    mu, alpha = 1.0, 4.0
    norms = hartogs_disc_norms(mu, alpha, (6, 6))
    assert not norms.divergent
    for (j, m), value in norms.norms.items():
        log_exact = (
            2 * math.log(math.pi)
            + _log_beta(m + 1, alpha - 2.0)
            + _log_beta(j + 1, mu * (alpha + m) - 1.0)
        )
        assert value == pytest.approx(math.exp(log_exact), rel=1e-9), (j, m)


def test_hartogs_norms_fractional_parameters():
    mu, alpha = 0.75, 2.5
    norms = hartogs_disc_norms(mu, alpha, (5, 5))
    assert not norms.divergent
    for (j, m), value in norms.norms.items():
        log_exact = (
            2 * math.log(math.pi)
            + _log_beta(m + 1, alpha - 2.0)
            + _log_beta(j + 1, mu * (alpha + m) - 1.0)
        )
        assert value == pytest.approx(math.exp(log_exact), rel=1e-9), (j, m)


def test_hartogs_divergence_flags():
    assert hartogs_disc_norms(1.0, 2.0, (3, 3)).divergent  # alpha <= 2
    assert hartogs_disc_norms(0.25, 3.0, (3, 3)).divergent  # alpha*mu <= 1
    assert hartogs_disc_norms(0.25, 4.0, (3, 3)).divergent  # alpha*mu = 1
    assert not hartogs_disc_norms(0.25, 4.5, (3, 3)).divergent
    with pytest.raises(TrivialSpaceError):
        epsilon_hartogs_disc(1.0, 2.0)


def test_epsilon_hartogs_balanced_case_constant():
    report = epsilon_hartogs_disc(1.0, 4.0, caps=(80, 80))
    assert report.min_value == pytest.approx(6 / math.pi**2, rel=1e-9)
    assert report.max_value == pytest.approx(6 / math.pi**2, rel=1e-9)
    assert report.spread < SPREAD_CONSTANT
    assert constancy_verdict(report.spread) == "constant"
    assert len(report.values) == 64


def test_epsilon_hartogs_unbalanced_case_spread():
    report = epsilon_hartogs_disc(2.0, 4.0, caps=(80, 80))
    assert report.values[0] == pytest.approx(14 / math.pi**2, rel=1e-9)
    assert report.spread > SPREAD_NONCONSTANT
    # frozen regression value from the first computation of this grid
    assert report.spread == pytest.approx(0.0714285714, abs=1e-6)
    assert constancy_verdict(report.spread) == "non-constant"


_STABILITY_GRID = DiscGrid(nz=4, nw=4, t_max=0.3, u_max=0.4)


def _assert_tail_covers(small, big):
    # every omitted term is positive: 0 <= v_big - v_small <= epsilon - v_small <= tail_small
    for v_small, v_big in zip(small.values, big.values):
        assert -1e-12 * big.max_value <= v_big - v_small <= small.tail_bound * (1 + 1e-9)


@pytest.mark.parametrize(
    "mu, alpha, grid, caps",
    [pytest.param(1.5, 3.5, _STABILITY_GRID, (50, 50), id="mu1.5-50x50")]
    + [
        pytest.param(mu, 3.5, _STABILITY_GRID, caps, id=f"mu{mu}-{caps[0]}x{caps[1]}")
        for mu in (1.0, 2.0, 0.5)
        for caps in ((12, 12), (20, 4), (4, 20), (2, 2))
    ]
    + [pytest.param(2.0, 4.0, DiscGrid(5, 5, 0.9, 0.95), (3, 5), id="infinite-tail")],
)
def test_epsilon_hartogs_truncation_stability(mu, alpha, grid, caps):
    small = epsilon_hartogs_disc(mu, alpha, grid=grid, caps=caps)
    big = epsilon_hartogs_disc(mu, alpha, grid=grid, caps=(60, 60))
    _assert_tail_covers(small, big)
    if grid.t_max == 0.9:
        assert small.tail_bound == math.inf and small.verdict == "inconclusive"


@pytest.mark.parametrize("d, alpha, big_cap", [(1, 3.5, 200), (2, 4.5, 100)])
@pytest.mark.parametrize("cap", [5, 10, 20])
def test_epsilon_ball_tail_bound_covers_truncation(d, alpha, big_cap, cap):
    small = epsilon_ball(d, alpha, 0.6, cap, grid_points=7)
    big = epsilon_ball(d, alpha, 0.6, big_cap, grid_points=7)
    _assert_tail_covers(small, big)


def test_epsilon_point_hartogs_rotation_invariant():
    norms = hartogs_disc_norms(2.0, 4.0, (40, 40))
    base = epsilon_point_hartogs(norms, 0.3, 0.25)
    for pz, pw in [(1.0, -0.5), (2.2, 0.9)]:
        rotated = epsilon_point_hartogs(
            norms, 0.3 * cmath.exp(1j * pz), 0.25 * cmath.exp(1j * pw)
        )
        assert rotated == pytest.approx(base, rel=1e-12)
    with pytest.raises(SampleOutsideDomainError):
        epsilon_point_hartogs(norms, 0.9, 0.9)


def test_point_evaluators_refuse_norms_of_another_setting():
    ball1, ball2 = ball_monomial_norms(1, 3.0, 20), ball_monomial_norms(2, 4.0, 10)
    hartogs = hartogs_disc_norms(2.0, 4.0, (10, 10))
    with pytest.raises(ValueError, match="needs hartogs-disc norms, got ball norms"):
        epsilon_point_hartogs(ball1, 0.3, 0.2)  # (d, alpha) would be read as (mu, alpha)
    with pytest.raises(ValueError, match="needs ball norms, got hartogs-disc norms"):
        epsilon_point_ball(hartogs, 0.3)
    with pytest.raises(SampleOutsideDomainError, match="z must have 2 coordinates"):
        epsilon_point_ball(ball2, 0.3)


@pytest.mark.parametrize("z, w", [(math.nan, 0.1), (0.1, math.nan), (complex(0.1, math.nan), 0.0)])
def test_nan_points_lie_outside_the_domain(z, w):
    with pytest.raises(SampleOutsideDomainError):
        epsilon_point_hartogs(hartogs_disc_norms(2.0, 4.0, (10, 10)), z, w)
    with pytest.raises(SampleOutsideDomainError):
        epsilon_point_ball(ball_monomial_norms(2, 4.0, 10), (z, w))
    with pytest.raises(SampleOutsideDomainError):
        epsilon_point_ball(ball_monomial_norms(1, 3.0, 10), z + w)  # NaN in z or in w


def test_grid_validation():
    with pytest.raises(SampleOutsideDomainError):
        DiscGrid(t_max=1.0)
    with pytest.raises(ValueError):
        DiscGrid(nz=0)
    grid = DiscGrid(nz=3, nw=2, t_max=0.2, u_max=0.3)
    report = epsilon_hartogs_disc(1.0, 4.0, grid=grid, caps=(40, 40))
    assert len(report.values) == 6
    # the fiber over t_max is empty in floating point
    with pytest.raises(SampleOutsideDomainError, match="t_max"):
        epsilon_hartogs_disc(300.0, 4.0, grid=DiscGrid(3, 3, 0.999, 0.5), caps=(6, 6))


def test_caps_may_be_any_int_pair():
    report = epsilon_hartogs_disc(1.0, 4.0, grid=DiscGrid(2, 2), caps=[4, 4])
    assert report.truncation_degree == (4, 4)


def test_size_limits_name_the_parameter():
    # each is refused before any norm is built
    with pytest.raises(ValueError, match="caps"):
        hartogs_disc_norms(1.0, 3.0, (2000, 2000))
    with pytest.raises(ValueError, match="caps"):
        epsilon_hartogs_disc(1.0, 3.0, grid=DiscGrid(100, 100), caps=(0, 24000))
    with pytest.raises(ValueError, match="degree_cap"):
        ball_monomial_norms(1, 3.0, 25_000)
    with pytest.raises(ValueError, match="degree_cap"):
        ball_monomial_norms(2, 3.0, 300)
    with pytest.raises(ValueError, match="grid"):
        DiscGrid(101, 100)
    with pytest.raises(ValueError, match="grid_points"):
        epsilon_ball(1, 3.0, 0.5, 20, grid_points=10_001)
    # sizes at the limits pass the checks (divergent weights build no norms)
    assert ball_monomial_norms(1, 1.0, 24_999).divergent
    assert ball_monomial_norms(2, 2.0, 222).divergent  # 24,976 norms
    assert hartogs_disc_norms(1.0, 2.0, (157, 157)).divergent  # 24,964 norms
    assert DiscGrid(100, 100).nz == 100


def test_norms_outside_the_float_range_are_refused():
    # a norm at or below 1/max has no finite reciprocal, and epsilon would be nan
    with pytest.raises(ValueError, match=r"degree_cap=2000 with d=1, alpha=300\.5"):
        ball_monomial_norms(1, 300.5, 2000)
    with pytest.raises(ValueError, match=r"caps=\(150, 150\) with mu=5\.0, alpha=300\.0"):
        hartogs_disc_norms(5, 300, (150, 150))
    # the threshold: the smallest norm is 1.7e-309 (subnormal, nonzero) at
    # alpha 217.5 and just above 1/max at 217.4
    with pytest.raises(ValueError, match="float range"):
        ball_monomial_norms(1, 217.5, 2000)
    norms = ball_monomial_norms(1, 217.4, 2000)
    assert min(norms.norms.values()) > 1.0 / np.finfo(float).max
    assert np.isfinite(norms._inverse).all()


def test_report_verdict_respects_tail_bound():
    def report(spread, tail):
        return EpsilonReport(((0.0, 0.0),), (1.0,), 1.0 - spread, 1.0, spread, (4,), tail)

    # a tail that covers the spread leaves the verdict open
    assert constancy_verdict(8.5e-3) == "non-constant"
    assert report(8.5e-3, 8.8e-3).verdict == "inconclusive"
    assert report(8.5e-3, 1e-4).verdict == "non-constant"
    assert report(1e-7, 1e-6).verdict == "constant"
    # an infinite tail is never decisive
    for spread in (0.0, 5e-4, 0.5):
        assert report(spread, math.inf).verdict == "inconclusive"
    # a zero tail changes nothing
    for spread in (0.0, 9e-6, 5e-4, 2e-3, 0.3):
        assert report(spread, 0.0).verdict == constancy_verdict(spread)


def test_verdict_thresholds():
    assert constancy_verdict(0.0) == "constant"
    assert constancy_verdict(9e-6) == "constant"
    assert constancy_verdict(5e-4) == "inconclusive"
    assert constancy_verdict(2e-3) == "non-constant"
