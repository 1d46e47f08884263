import copy
import pickle
from fractions import Fraction as F

import mpmath
import pytest
from scipy.integrate import quad

from cartanbal.balanced import HartogsSpec, hartogs_balanced
from cartanbal.catalog import ball, enumerate_catalog, make_domain, parse_domain
from cartanbal.errors import PoleError
from cartanbal.exactnum import FactoredRational
from cartanbal.moments import _block_roots, block_lengths, moment_converges, moment_ratio
from polar_moments import _beta_route, _simplex_route, polar_moment_ratio


def test_block_lengths():
    assert block_lengths(ball(1)) == (1,)
    assert block_lengths(ball(4)) == (4,)
    assert block_lengths(parse_domain("I:2,2")) == (3, 1)
    assert block_lengths(parse_domain("IV:4")) == (3, 1)
    assert block_lengths(make_domain("VI")) == (17, 9, 1)
    for dom in enumerate_catalog(27):
        lengths = block_lengths(dom)
        assert len(lengths) == dom.r
        assert sum(lengths) == dom.dim
        assert all(n >= 1 for n in lengths)


def test_ball_moment_ratio_closed_form():
    assert moment_ratio(ball(1)).as_rational == FactoredRational(
        1, [], [(1, 1)], var="s"
    )
    # ball(d): prod_{t=1..d} (t)/(s+t) after shifting c_1 = 1
    d = 3
    mr = moment_ratio(ball(d))
    expected = FactoredRational(6, [], [(1, 1), (1, 2), (1, 3)], var="s")
    assert mr.as_rational == expected


def test_type_four_moment_ratio():
    mr = moment_ratio(parse_domain("IV:4"))
    expected = FactoredRational(12, [], [(1, 1), (1, 2), (1, 2), (1, 3)], var="s")
    assert mr.as_rational == expected
    assert mr.eval_at(F(1, 2)) == F(64, 175)


def test_normalized_at_zero_and_degree():
    for dom in enumerate_catalog(27):
        mr = moment_ratio(dom)
        assert mr.eval_at(0) == 1
        assert mr.as_rational.numer_degree == 0
        assert mr.as_rational.denom_degree == dom.dim


def test_convergence_predicate():
    dom = ball(2)
    assert moment_converges(dom, F(-1)) is False
    assert moment_converges(dom, F(-999, 1000)) is True
    assert moment_converges(dom, F(5)) is True
    assert moment_converges(dom, F(-3, 2)) is False


def test_poles_only_at_divergent_s():
    mr = moment_ratio(ball(1))
    with pytest.raises(PoleError):
        mr.eval_at(F(-1))
    # every pole of every catalog moment ratio sits at s <= -1
    for dom in enumerate_catalog(16):
        fr = moment_ratio(dom).as_rational
        for factor in fr.denom:
            root = -F(factor.intercept, factor.slope)
            assert root <= -1


def test_quadrature_oracle_ball1():
    # the radial reduction of the area integral over the disc: the ratio
    # of int_0^1 (1-t)^s dt to its s=0 value equals the exact moment ratio
    mr = moment_ratio(ball(1))
    base, _ = quad(lambda t: 1.0, 0, 1)
    for s in (1, 2, 5):
        num, _ = quad(lambda t, s=s: (1.0 - t) ** s, 0, 1, epsabs=1e-14)
        assert abs(num / base - float(mr.eval_at(s))) < 1e-10


def test_quadrature_oracle_ball2():
    # ball(2): volume density in rho = |z|^2 is proportional to rho, so the
    # weighted mass is int_0^1 (1-rho)^s rho drho up to constants
    mr = moment_ratio(ball(2))
    base, _ = quad(lambda rho: rho, 0, 1, epsabs=1e-14)
    for s in (1, 2, 5):
        num, _ = quad(lambda rho, s=s: (1.0 - rho) ** s * rho, 0, 1, epsabs=1e-14)
        assert abs(num / base - float(mr.eval_at(s))) < 1e-9


def test_rank_one_entries_share_the_ball_ratio():
    # III:2 and III:3 are balls of dimensions 1 and 3
    assert moment_ratio(make_domain("III", (2,))).as_rational == moment_ratio(
        ball(1)
    ).as_rational
    assert moment_ratio(make_domain("III", (3,))).as_rational == moment_ratio(
        ball(3)
    ).as_rational


def test_block_structure_matches_factors():
    # denominators are exactly s + c_j + t over the block grid
    dom = parse_domain("I:2,3")
    lengths = block_lengths(dom)
    fr = moment_ratio(dom).as_rational
    roots = sorted(-F(f.intercept, f.slope) for f in fr.denom)
    expected = sorted(
        -(F(1) + F((j - 1) * dom.a, 2) + t)
        for j, length in enumerate(lengths, start=1)
        for t in range(length)
    )
    assert roots == expected


def _block_identities(r, a, b):
    """From (r, a, b) alone, in O(r): the block starts c_j, the block lengths L_j,
    the sum of the roots c_j + t (t < L_j) and each block's largest root."""
    starts = [1 + F((j - 1) * a, 2) for j in range(1, r + 1)]
    lengths = [b + 1 + a * (r - j) for j in range(1, r + 1)]
    total = sum(n * c + F(n * (n - 1), 2) for c, n in zip(starts, lengths))
    return starts, lengths, total, [c + n - 1 for c, n in zip(starts, lengths)]


def test_block_root_identities_up_to_dim_1000():
    # the identities behind "only the ball": the roots sum to dim*gamma/2, the
    # largest is gamma - 1 (at j = 1), and dim + 1 - gamma vanishes only at rank 1
    doms = enumerate_catalog(1000)
    assert len(doms) == 4638
    for dom in doms:
        r, a, b, gamma, dim = dom.r, dom.a, dom.b, dom.gamma, dom.dim
        _, lengths, total, tops = _block_identities(r, a, b)
        assert sum(lengths) == dim and total == F(dim * gamma, 2), dom.label
        assert max(tops) == tops[0] == gamma - 1, dom.label
        assert 2 * (dim + 1 - gamma) == (r - 1) * (a * (r - 2) + 2 * b + 2), dom.label
        assert (dim + 1 == gamma) == (r == 1), dom.label


def test_block_roots_match_the_identities_up_to_dim_100():
    doms = enumerate_catalog(100)
    assert len(doms) == 372
    for dom in doms:
        starts, lengths, total, tops = _block_identities(dom.r, dom.a, dom.b)
        roots = _block_roots(dom)
        assert len(roots) == dom.dim and sum(roots) == total, dom.label
        firsts = [sum(lengths[:j]) for j in range(dom.r)]  # j-major blocks
        assert [roots[i] for i in firsts] == starts, dom.label
        assert [roots[i + n - 1] for i, n in zip(firsts, lengths)] == tops, dom.label
        assert min(roots) == 1 and max(roots) == dom.gamma - 1, dom.label


def test_shifted_roots_are_one_to_dim_exactly_on_balls():
    # at mu0 = gamma/(dim+1) the roots map to {1, ..., dim} only on a ball, and
    # hartogs_balanced agrees at alpha = dim + 2, past both necessary inequalities
    doms = enumerate_catalog(27)
    assert len(doms) == 89
    for dom in doms:
        mu0 = F(dom.gamma, dom.dim + 1)
        shifted = sorted((dom.gamma - c) / mu0 for c in _block_roots(dom))
        is_range = shifted == list(range(1, dom.dim + 1))
        assert is_range == dom.is_ball, dom.label
        verdict = hartogs_balanced(HartogsSpec(dom, mu0, dom.dim + 2))
        assert verdict.balanced == is_range, dom.label


def _gamma_omega(x, dom):
    """Gindikin Gamma function prod_{j=0..r-1} Gamma(x - j a/2) of the cone."""
    return mpmath.fprod(mpmath.gamma(x - mpmath.mpf(j * dom.a) / 2) for j in range(dom.r))


def test_gamma_quotient_oracle_all_ranks():
    # Faraut-Koranyi: int N^s dV / int dV equals
    #   G(s+1+a(r-1)/2) G(gamma) / (G(s+gamma) G(1+a(r-1)/2)),  G = Gamma_Omega,
    # a route that shares nothing with the telescoped block product
    doms = list(enumerate_catalog(27))
    assert len(doms) == 89
    with mpmath.workdps(40):
        worst = mpmath.mpf(0)
        for dom in doms:
            mr = moment_ratio(dom)
            shift = 1 + mpmath.mpf(dom.a * (dom.r - 1)) / 2
            for s in (F(-1, 2), F(1, 3), F(5, 2), F(7)):
                x = mpmath.mpf(s.numerator) / s.denominator
                oracle = (
                    _gamma_omega(x + shift, dom)
                    * _gamma_omega(dom.gamma, dom)
                    / (_gamma_omega(x + dom.gamma, dom) * _gamma_omega(shift, dom))
                )
                exact = mr.eval_at(s)
                value = mpmath.mpf(exact.numerator) / exact.denominator
                worst = max(worst, abs(value - oracle) / abs(oracle))
        assert worst < mpmath.mpf("1e-30")


# Left out of the polar oracle for time alone: with s = 1 and 2, II:6 takes
# about 0.7 s and I:5,5 about 0.2 s, against 0.2 s for the other 87 together.
_POLAR_SLOW = ("II:6", "I:5,5")


def test_polar_oracle_every_family():
    # the polar density needs only (r, a, b): it pins the block lengths, the
    # block roots c_j = 1 + (j-1)a/2 and the roles of a and b, V and VI included
    doms = [dom for dom in enumerate_catalog(27) if dom.label not in _POLAR_SLOW]
    assert len(doms) == 87 and {dom.family.value for dom in doms} >= {"V", "VI"}
    for dom in doms:
        mr = moment_ratio(dom)
        for s in (F(1, 3), F(5, 2)) if dom.a % 2 == 0 else (F(1), F(2)):
            assert mr.eval_at(s) == polar_moment_ratio(dom.r, dom.a, dom.b, s), (dom.label, s)
    # the two integrators agree where both apply, so the odd-a route is checked too
    for r, a, b in ((2, 2, 0), (2, 2, 1), (2, 4, 0), (3, 2, 0)):
        simplex = _simplex_route(r, a, b, 3) / _simplex_route(r, a, b, 0)
        assert simplex == _beta_route(r, a, b, F(3)) / _beta_route(r, a, b, F(0)), (r, a, b)


def test_moment_ratio_pickles_and_copies():
    ratio = moment_ratio(parse_domain("I:2,3"))
    for clone in (pickle.loads(pickle.dumps(ratio)), copy.copy(ratio), copy.deepcopy(ratio)):
        assert clone == ratio
        assert clone.as_rational.to_text() == ratio.as_rational.to_text()
        assert clone.eval_at(F(5, 2)) == ratio.eval_at(F(5, 2))
