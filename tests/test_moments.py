from fractions import Fraction as F

import mpmath
import pytest
from scipy.integrate import quad

from cartanbal.catalog import ball, enumerate_catalog, make_domain, parse_domain
from cartanbal.errors import PoleError
from cartanbal.exactnum import FactoredRational
from cartanbal.moments import block_lengths, moment_converges, moment_ratio


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
