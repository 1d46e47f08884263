import cmath
import math
import random
import re
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import cartanbal.epsilon as epsilon_module
from cartanbal.catalog import ball
from cartanbal.balanced import cartan_balanced
from cartanbal.epsilon import (
    SPREAD_CONSTANT,
    SPREAD_NONCONSTANT,
    DiscGrid,
    EpsilonReport,
    _hartogs_tail_bound,
    _power_sum,
    _rising_table,
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
from oracles import hartogs_tail_bound_flat


def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def test_disc_norms_match_beta_integrals():
    norms = ball_monomial_norms(1, 3.0, 10)
    assert norms.norms[0] == pytest.approx(math.pi / 2, rel=1e-12)
    assert norms.norms[1] == pytest.approx(math.pi / 6, rel=1e-12)
    for m in range(11):
        exact = math.pi * math.exp(_log_beta(m + 1, 2.0))
        assert norms.norms[m] == pytest.approx(exact, rel=1e-11)


def test_disc_norms_fractional_weight_singular_endpoint():
    # 1 < alpha < 2 puts an integrable singularity at the boundary
    alpha = 1.5
    norms = ball_monomial_norms(1, alpha, 8)
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


def _ball_divergence(d, alpha):
    message = f"alpha must exceed d = {d} for a nontrivial space, got {alpha}"
    return pytest.raises(TrivialSpaceError, match=f"^{re.escape(message)}$")


def _disc_divergence(mu, alpha):
    message = f"norms diverge for mu={mu}, alpha={alpha} (needs alpha > 2 and alpha*mu > 1)"
    return pytest.raises(TrivialSpaceError, match=f"^{re.escape(message)}$")


def test_divergence_flags_at_thresholds():
    # norms diverge exactly when alpha <= d, and the builder refuses them
    for d in (1, 2):
        for alpha in (d - 0.5, float(d)):
            with _ball_divergence(d, alpha):
                ball_monomial_norms(d, alpha, 4)
        assert len(ball_monomial_norms(d, d + 0.5, 4).norms) > 0


def test_divergence_matches_balanced_threshold():
    # on the ball the weight alpha corresponds to beta = alpha/gamma; the
    # space degenerates exactly when balancedness fails: alpha <= d means
    # beta <= (gamma-1)/gamma
    for d in (1, 2):
        gamma = d + 1
        with _ball_divergence(d, float(d)):
            ball_monomial_norms(d, float(d), 3)
        assert not cartan_balanced(ball(d), F(d, gamma))
        ball_monomial_norms(d, d + 0.5, 3)
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


@pytest.mark.parametrize("shape", [(7,), (6, 5), (4, 3, 5)])
@pytest.mark.parametrize("firsts", ["repeated", "distinct", "single"])
def test_power_sum_matches_fsum(shape, firsts):
    rng = np.random.default_rng(len(shape))
    coef = rng.uniform(0.0, 2.0, shape) * (rng.uniform(size=shape) < 0.7)
    rows = {"repeated": 12, "distinct": 9, "single": 1}[firsts]
    bases = rng.uniform(0.05, 0.9, (rows, len(shape)))
    if firsts == "repeated":  # a grid: each first coordinate appears four times
        bases[:, 0] = np.repeat(rng.uniform(0.05, 0.9, 3), 4)
    # every axis contracted, then fewer base columns: the trailing axes come back
    for columns in range(len(shape), 0, -1):
        values = _power_sum(coef, bases[:, :columns])
        assert values.shape == (rows,) + shape[columns:]
        for b, value in zip(bases[:, :columns].tolist(), values):
            for rest in np.ndindex(shape[columns:]):
                exact = math.fsum(coef[e + rest] * math.prod(x**k for x, k in zip(b, e))
                                  for e in np.ndindex(shape[:columns]))
                assert value[rest] == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("cap", [6, 40])
@pytest.mark.parametrize("alpha", [3.5, 7.25])
def test_ball2_epsilon_matches_the_expanded_norm_sum(alpha, cap):
    # the evaluators sum t^n / r_n in t = |z|^2; the oracle sums every monomial
    # |z1|^(2 m1) |z2|^(2 m2) / ||z^m||^2 of the expanded dict, off the diagonal too
    norms = ball_monomial_norms(2, alpha, cap)
    assert len(norms._array) == cap + 1

    def oracle(moduli):
        total = math.fsum(moduli[0]**m1 * moduli[1]**m2 / value
                          for (m1, m2), value in norms.norms.items())
        return (1.0 - sum(moduli)) ** alpha * total

    for z in [(0.3, 0.2), (0.5, 0.1j), (0.0, 0.6)]:
        moduli = [abs(p) ** 2 for p in z]
        assert epsilon_point_ball(norms, z) == pytest.approx(oracle(moduli), rel=1e-12, abs=0)
    report = epsilon_ball(2, alpha, 0.9, cap, grid_points=7)
    for (r, _), value in zip(report.grid, report.values):
        assert value == pytest.approx(oracle([r * r / 2, r * r / 2]), rel=1e-12, abs=0)


def test_epsilon_ball_sums_once_per_grid(monkeypatch):
    calls = []

    def counting(coef, bases):
        calls.append(np.shape(bases))
        return _power_sum(coef, bases)

    monkeypatch.setattr(epsilon_module, "_power_sum", counting)
    for d in (1, 2):
        epsilon_ball(d, 3.5, 0.9, 100, grid_points=25)
    assert calls == [(25, 1), (25, 1)]


def test_epsilon_hartogs_sums_once_per_distinct_t_and_u(monkeypatch):
    # a 32x32 grid is summed over its 32 t values, then over its 32 u values,
    # never over its 1,024 points
    calls = []

    def counting(coef, bases):
        calls.append(np.shape(bases))
        return _power_sum(coef, bases)

    monkeypatch.setattr(epsilon_module, "_power_sum", counting)
    epsilon_hartogs_disc(2.0, 4.0, DiscGrid(32, 32), (80, 80))
    assert calls == [(32, 1), (32, 1)]


def test_grids_leave_the_norm_dict_unexpanded(monkeypatch):
    built = []

    def recording(builder):
        def build(*args):
            built.append(builder(*args))
            return built[-1]
        return build

    for name in ("hartogs_disc_norms", "ball_monomial_norms"):
        monkeypatch.setattr(epsilon_module, name, recording(getattr(epsilon_module, name)))
    epsilon_hartogs_disc(2.0, 4.0, DiscGrid(4, 4), (40, 40))
    epsilon_ball(2, 3.5, 0.9, 100)
    epsilon_ball(1, 3.0, 0.9, 100)
    assert [n.setting for n in built] == ["hartogs-disc", "ball", "ball"]
    for n in built:
        assert "norms" not in vars(n)


@pytest.mark.parametrize("build, keys, exact", [
    (lambda: ball_monomial_norms(1, 3.5, 30), list(range(31)),
     lambda m: mpmath.pi * mpmath.beta(m + 1, 2.5)),
    (lambda: ball_monomial_norms(2, 3.5, 20), [(n - m2, m2) for n in range(21) for m2 in range(n + 1)],
     lambda m: mpmath.pi**2 * mpmath.beta(m[0] + 1, m[1] + 1) * mpmath.beta(sum(m) + 2, 1.5)),
    (lambda: hartogs_disc_norms(2.0, 4.0, (12, 3)), [(j, m) for m in range(4) for j in range(13)],
     lambda k: mpmath.pi**2 * mpmath.beta(k[1] + 1, 2) * mpmath.beta(k[0] + 1, 2 * (4 + k[1]) - 1)),
    (lambda: hartogs_disc_norms(2.0, 4.0, (3, 12)), [(j, m) for m in range(13) for j in range(4)],
     lambda k: mpmath.pi**2 * mpmath.beta(k[1] + 1, 2) * mpmath.beta(k[0] + 1, 2 * (4 + k[1]) - 1)),
])
def test_norm_dict_keeps_its_keys_and_order(build, keys, exact):
    items = list(build().norms.items())
    assert [key for key, _ in items] == keys
    with mpmath.workdps(30):
        for key, value in items:
            assert type(value) is float
            assert value == pytest.approx(float(exact(key)), rel=1e-12, abs=0), key


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


# (n_max, c) over the ranges the norm builders and the Hartogs tail bound read,
# at the largest caps and near the divergence thresholds
_BETA_TABLES = {
    **{f"ball1-cap24999-alpha{a}": (24_999, a - 1.0) for a in (1.001, 50.0, 300.5)},
    "ball2-cap200-integer-c": (200, np.arange(1.0, 202.0)),
    **{f"ball2-cap200-alpha{a}": (201, a - 2.0) for a in (2.001, 3.5, 300.5)},
    **{f"hartogs-caps150-mu{mu}-alpha{a}-fiber": (151, a - 2.0)
       for mu, a in ((0.3334, 3.0), (0.01, 100.5), (5.0, 2.001))},
    **{f"hartogs-caps150-mu{mu}-alpha{a}-base": (151, mu * (a + np.arange(152.0)) - 1.0)
       for mu, a in ((0.3334, 3.0), (0.01, 100.5), (5.0, 2.001))},
}


@pytest.mark.parametrize("n_max, c", _BETA_TABLES.values(), ids=_BETA_TABLES.keys())
def test_log_beta_tables_match_mpmath(n_max, c):
    # B(n+1, c) = 1/(c rising(c+1, n)/n!), one _rising_table, against mpmath's
    # Gamma functions on up to 600 rows of a single column, or 50 rows and 50
    # columns; values at or below 1e-300 are not compared
    c = np.atleast_1d(c)
    table = 1.0 / _rising_table(c, c + 1.0, n_max + 1)
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
    for (j, m), value in norms.norms.items():
        log_exact = (
            2 * math.log(math.pi)
            + _log_beta(m + 1, alpha - 2.0)
            + _log_beta(j + 1, mu * (alpha + m) - 1.0)
        )
        assert value == pytest.approx(math.exp(log_exact), rel=1e-9), (j, m)


def test_hartogs_divergence_flags():
    # alpha <= 2, alpha*mu < 1 and alpha*mu = 1
    for mu, alpha in ((1.0, 2.0), (0.25, 3.0), (0.25, 4.0)):
        with _disc_divergence(mu, alpha):
            hartogs_disc_norms(mu, alpha, (3, 3))
    hartogs_disc_norms(0.25, 4.5, (3, 3))
    with _disc_divergence(1.0, 2.0):
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
    with pytest.raises(TypeError):
        DiscGrid(2.5, 2)
    with pytest.raises(TypeError):
        DiscGrid(2, 2.0)
    assert type(DiscGrid(np.int64(3), 2).nz) is int
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
    # a ball row holds degree_cap+1 coefficients for either d; the ball(2)
    # norms dict, C(degree_cap+2, 2) entries, is refused when read
    norms = ball_monomial_norms(2, 3.0, 300)
    with pytest.raises(ValueError, match=r"^degree_cap=300 needs 45,451 norms, over the limit"
                                         r" of 25,000$"):
        norms.norms
    with pytest.raises(ValueError, match="grid"):
        DiscGrid(101, 100)
    with pytest.raises(ValueError, match="grid_points"):
        epsilon_ball(1, 3.0, 0.5, 20, grid_points=10_001)
    # out-of-range sizes name the parameter too
    with pytest.raises(ValueError, match="d must be 1 or 2, got 3"):
        ball_monomial_norms(3, 4.0, 5)
    with pytest.raises(ValueError, match="degree_cap must be >= 0"):
        ball_monomial_norms(1, 4.0, -1)
    with pytest.raises(ValueError, match="caps must be nonnegative"):
        hartogs_disc_norms(1.0, 4.0, (-1, 3))
    # sizes at the limits pass the checks: the divergent weights reach the
    # threshold test that follows them, and build no norms
    with pytest.raises(TrivialSpaceError):
        ball_monomial_norms(1, 1.0, 24_999)
    with pytest.raises(TrivialSpaceError):
        ball_monomial_norms(2, 2.0, 24_999)
    assert len(ball_monomial_norms(2, 3.0, 222).norms) == 24_976
    with pytest.raises(TrivialSpaceError):
        hartogs_disc_norms(1.0, 2.0, (157, 157))  # 24,964 norms
    assert DiscGrid(100, 100).nz == 100


def test_hartogs_grid_size_counts_the_arrays_it_builds():
    # the largest arrays are the z-side powers, nz x (cap_z+1), and the tail
    # bound's nz x nw x (cap_w+2) sum: a long z cap fits a 100x100 grid
    report = epsilon_hartogs_disc(2.0, 4.0, DiscGrid(100, 100), (300, 10))
    assert len(report.values) == 10_000
    assert report.verdict == "non-constant"
    # 10,000 x 25,000 z-side powers, though the tail bound's sum holds 20,000
    with pytest.raises(ValueError, match=r"^caps=\(24999, 0\) needs 250,000,000 cells on a"
                                         r" 10000x1 grid, over the limit of 2,000,000$"):
        epsilon_hartogs_disc(2.0, 4.0, DiscGrid(10_000, 1), (24_999, 0))


def test_norms_outside_the_float_range_are_refused():
    # a norm at or below 1/max has no finite reciprocal, and epsilon would be nan
    with pytest.raises(ValueError, match=r"degree_cap=2000 with d=1, alpha=300\.5"):
        ball_monomial_norms(1, 300.5, 2000)
    with pytest.raises(ValueError, match=r"caps=\(150, 150\) with mu=5\.0, alpha=300\.0: .*"
                                         r"; lower the cap$"):
        hartogs_disc_norms(5, 300, (150, 150))
    # a first coefficient past max leaves no cap to lower, so the advice names
    # the weight: rising(alpha-2, 2)/pi^2 and (alpha-2)/pi^2 (mu alpha - 1)
    with pytest.raises(ValueError, match=r"^degree_cap=0 with d=2, alpha=1e\+200: a coefficient"
                                         r" leaves the float range; lower alpha$"):
        ball_monomial_norms(2, 1e200, 0)
    with pytest.raises(ValueError, match=r"^caps=\(0, 0\) with mu=1\.0, alpha=1e\+308: a"
                                         r" coefficient leaves the float range; lower mu or alpha$"):
        hartogs_disc_norms(1, 1e308, (0, 0))
    # the threshold: the largest coefficient passes max at alpha 217.5 (its
    # norm would be 1.7e-309, subnormal) and is 1.5e308 at 217.4
    with pytest.raises(ValueError, match="a coefficient leaves the float range"):
        ball_monomial_norms(1, 217.5, 2000)
    norms = ball_monomial_norms(1, 217.4, 2000)
    assert min(norms.norms.values()) > 1.0 / np.finfo(float).max
    assert np.isfinite(norms._array).all()


def test_hartogs_tail_bound_steps_past_the_float_range_in_logs():
    # caps (100, 100) are the largest these coefficients allow, so the tail's
    # next row and next column lie past the float range; stepped on in logs,
    # the bound stays finite (3.4e-27) and the verdict decisive
    for caps in ((101, 100), (100, 101)):
        with pytest.raises(ValueError, match="a coefficient leaves the float range"):
            hartogs_disc_norms(404.5, 2.5, caps)
    report = epsilon_hartogs_disc(404.5, 2.5, DiscGrid(3, 3, 1e-4, 0.5), (100, 100))
    assert 0 < report.tail_bound < 1e-20
    assert report.verdict == "non-constant"


# mu (alpha+m) |log(1-t)| reaches 1.8e5: pieces formed from logs of that size
# and left to cancel are about 1e-11 off
_LARGE_LOGS = (342.13, 475.68, (11, 4), DiscGrid(3, 6, 0.664, 0.0097))


@pytest.mark.parametrize("mu, alpha, caps, grid", [
    (2.0, 4.0, (80, 80), DiscGrid(32, 32)),
    (2.0, 4.0, (40, 40), DiscGrid(1, 9, 0.35, 0.5)),
    (2.0, 4.0, (40, 40), DiscGrid(9, 1, 0.35, 0.5)),
    (1.5, 3.5, (12, 20), DiscGrid(5, 4, 0.0, 0.6)),
    (1.5, 3.5, (20, 12), DiscGrid(4, 5, 0.6, 0.0)),
    (2.0, 4.0, (8, 8), DiscGrid(3, 3, 0.0, 0.0)),  # every point at the origin: a zero bound
    (2.0, 40.0, (20, 20), DiscGrid(4, 4, 0.3, 0.99)),  # a divergent fiber column
    (2.0, 4.0, (3, 5), DiscGrid(5, 5, 0.9, 0.95)),
    (0.5, 7.25, (4, 20), DiscGrid(6, 6, 0.8, 0.3)),  # Newton's series in the j tails
    (404.5, 2.5, (100, 100), DiscGrid(3, 3, 1e-4, 0.5)),
    (404.5, 2.5, (100, 100), DiscGrid(32, 32, 1e-4, 0.5)),
    # shifted sums that underflow, summed again in logs: a bound of 3.8e-138 where
    # the contraction alone gives 0, and a bound of 2e-256
    (5.1895, 1000.0, (40, 150), DiscGrid(8, 1, 1e-6, 0.9)),
    (4.87, 200.0, (100, 150), DiscGrid(2, 1, 1e-4, 0.5)),
    (219.9, 10.0, (150, 1), DiscGrid(3, 32, 0.9, 0.1)),  # row maxima thousands apart in logs
    _LARGE_LOGS,
])
def test_hartogs_tail_bound_matches_the_flat_oracle(mu, alpha, caps, grid, monkeypatch):
    # the bound over distinct t and u equals the point-by-point bound over the grid
    norms = hartogs_disc_norms(mu, alpha, caps)
    t = np.linspace(0.0, grid.t_max, grid.nz)
    u = np.linspace(0.0, grid.u_max, grid.nw)
    y = ((1.0 - t[:, None]) ** mu * u).ravel()
    want = hartogs_tail_bound_flat(np.repeat(t, grid.nw), y, norms)
    tables, einsum = [], np.einsum

    def recording(subscripts, *operands):
        tables.extend(operands)
        return einsum(subscripts, *operands)

    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", recording)
        got = _hartogs_tail_bound(t, u, norms)
    # each exponentiated table is shifted by its own rows' maxima, not one global one
    assert all((table.max(axis=1) == 1.0).all() for table in tables)
    assert (got == math.inf) == (want == math.inf)
    if want != math.inf:
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert epsilon_hartogs_disc(mu, alpha, grid, caps).tail_bound == got


def _tail_bound_in_60_digits(mu, alpha, caps, grid, coef) -> float:
    # the bound's series at the grid's own (t, u), with y = u (1-t)^mu exact and
    # the float coefficients stepped once more exactly
    cap_z, cap_w = caps
    mpf = mpmath.mpf
    with mpmath.workdps(60):
        mu, alpha = mpf(mu), mpf(alpha)
        c = [mu * (alpha + m) - 1 for m in range(cap_w + 2)]
        head = [mpf(x) for x in coef[0].tolist()]
        head.append(head[-1] * (alpha + cap_w - 1) / (cap_w + 1) * c[-1] / c[-2])
        last = [mpf(x) * (1 + c[m] / (cap_z + 1)) for m, x in enumerate(coef[-1].tolist())]
        best = mpf(0)
        for t in map(mpf, np.linspace(0.0, grid.t_max, grid.nz).tolist()):
            n_mu = (1 - t) ** mu
            for u in map(mpf, np.linspace(0.0, grid.u_max, grid.nw).tolist()):
                y = u * n_mu
                total = mpf(0)
                for m in range(cap_w + 1):
                    ratio = t * (cap_z + 2 + c[m]) / (cap_z + 2)
                    if ratio < 1:  # the j tail past cap_z, geometric
                        total += last[m] * t ** (cap_z + 1) * y**m / (1 - ratio)
                    else:  # the whole j sum, Newton's binomial series
                        total += head[m] * (1 - t) ** (-c[m] - 1) * y**m
                ratio = u * (cap_w + alpha) / (cap_w + 2) * (c[-1] + mu) / c[-1]
                assert ratio < 1
                total += head[-1] * (1 - t) ** (-c[-1] - 1) * y ** (cap_w + 1) / (1 - ratio)
                best = max(best, (n_mu - y) ** alpha * total)
        return float(best)


@pytest.mark.parametrize("mu, alpha, caps, grid", [
    _LARGE_LOGS,
    (2.0, 4.0, (12, 12), DiscGrid(2, 2)),
    (0.5, 7.25, (4, 20), DiscGrid(6, 6, 0.8, 0.3)),  # geometric and Newton j tails
])
def test_hartogs_tail_bound_matches_60_digits(mu, alpha, caps, grid):
    norms = hartogs_disc_norms(mu, alpha, caps)
    want = _tail_bound_in_60_digits(mu, alpha, caps, grid, norms._array)
    t = np.linspace(0.0, grid.t_max, grid.nz)
    u = np.linspace(0.0, grid.u_max, grid.nw)
    y = ((1.0 - t[:, None]) ** mu * u).ravel()
    assert _hartogs_tail_bound(t, u, norms) == pytest.approx(want, rel=1e-12, abs=0)
    assert hartogs_tail_bound_flat(np.repeat(t, grid.nw), y, norms) == pytest.approx(
        want, rel=1e-12, abs=0)


def _closed_form_settings(count=300, seed=2014):
    rng = random.Random(seed)
    for _ in range(count):
        mu = rng.choice((0.5, 0.75, 1.0, 1.5, 2.0, 3.0)) * rng.uniform(1.0, 1.05)
        alpha = rng.uniform(2.05, 12.0)
        caps = (rng.randint(2, 60), rng.randint(2, 60))
        grid = DiscGrid(rng.randint(1, 6), rng.randint(1, 6), rng.uniform(0, 0.6),
                        rng.uniform(0, 0.6))
        yield mu, alpha, caps, grid


def test_hartogs_tail_bound_covers_the_exact_disc_epsilon():
    # over the disc epsilon is exactly (alpha-2)(mu alpha - 1 + (1-mu) u)/pi^2
    # (Feng & Tu, Math. Z. 278, 2014), and each truncated value v lies in
    # [epsilon - T, epsilon] up to roundoff
    finite = 0
    for mu, alpha, caps, grid in _closed_form_settings():
        report = epsilon_hartogs_disc(mu, alpha, grid, caps)
        u = np.tile(np.linspace(0.0, grid.u_max, grid.nw), grid.nz)
        exact = (alpha - 2) * (mu * alpha - 1 + (1 - mu) * u) / math.pi**2
        gap, floor = exact - np.array(report.values), 1e-13 * exact
        setting = (mu, alpha, caps, grid)
        assert (gap >= -floor).all(), setting
        assert (gap <= report.tail_bound + floor).all(), setting
        # the bound is infinite only where the fiber series diverges at u_max
        m = caps[1] + 1
        c_m, c_next = mu * (alpha + m) - 1, mu * (alpha + m + 1) - 1
        fiber_ratio = grid.u_max * (m + alpha - 1) / (m + 1) * c_next / c_m
        assert math.isfinite(report.tail_bound) == (fiber_ratio < 1), setting
        finite += math.isfinite(report.tail_bound)
    assert finite >= 250


def test_ball2_epsilon_needs_no_norm_in_the_float_range():
    # every coefficient 1/r_n is finite (at most 7.9e254), but the least
    # degree-222 norm r_222/C(222, 111) is 3.5e-321: epsilon reads only the
    # coefficients and computes, while the norms dict refuses
    report = epsilon_ball(2, 1000.0, 0.9, 222, grid_points=3)
    assert report.values[0] == pytest.approx(998 * 999 / math.pi**2, rel=1e-14)
    assert all(math.isfinite(value) for value in report.values)
    norms = ball_monomial_norms(2, 1000.0, 222)
    with pytest.raises(ValueError, match=r"degree_cap=222 with d=2, alpha=1000\.0: the smallest"
                                         r" squared norm, 3\.5e-321, leaves the float range"):
        norms.norms


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
