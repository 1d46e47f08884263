from fractions import Fraction as F

import pytest

from cartanbal.balanced import HartogsSpec
from cartanbal.catalog import ball, enumerate_catalog, make_domain, parse_domain
from cartanbal.errors import BallNotAllowedError, NonpositiveParameterError
from cartanbal.wallach import (
    cartan_projectively_induced,
    corollary_witness,
    hartogs_projective_failure,
    hartogs_projectively_induced,
    wallach_set,
)


def test_wallach_set_examples():
    ws = wallach_set(parse_domain("I:2,2"))
    assert ws.discrete == (F(0), F(1))
    assert ws.continuous_threshold == F(1)
    ws = wallach_set(make_domain("VI"))
    assert ws.discrete == (F(0), F(4), F(8))
    assert ws.continuous_threshold == F(8)
    ws = wallach_set(ball(5))
    assert ws.discrete == (F(0),)
    assert ws.continuous_threshold == F(0)


def test_wallach_set_structure():
    for dom in enumerate_catalog(27):
        ws = wallach_set(dom)
        assert len(ws.discrete) == dom.r
        assert ws.discrete[0] == 0
        steps = {q - p for p, q in zip(ws.discrete, ws.discrete[1:])}
        assert steps <= {F(dom.a, 2)}
        assert ws.continuous_threshold == F((dom.r - 1) * dom.a, 2)
        assert ws.continuous_threshold == ws.discrete[-1]


def test_membership():
    ws = wallach_set(parse_domain("I:2,2"))
    assert F(0) in ws
    assert F(1) in ws
    assert F(1, 2) not in ws
    assert F(3, 2) in ws  # continuous part
    assert F(100) in ws
    assert F(-1) not in ws


def test_membership_brute_force():
    for label in ["II:3", "I:2,3", "III:4"]:
        dom = parse_domain(label)
        ws = wallach_set(dom)
        discrete = set(ws.discrete)
        for k in range(0, 600):
            eta = F(k, 12)
            expected = eta in discrete or eta > ws.continuous_threshold
            assert (eta in ws) == expected, (label, eta)


def test_cartan_projectively_induced():
    # rank one: every positive multiple of the metric embeds
    for beta in (F(1, 100), F(1, 2), F(7, 3)):
        assert cartan_projectively_induced(ball(1), beta)
        assert cartan_projectively_induced(ball(4), beta)
    dom = parse_domain("I:2,2")  # gamma=4, discrete {0,1}, threshold 1
    assert not cartan_projectively_induced(dom, F(1, 8))  # beta*gamma = 1/2
    assert cartan_projectively_induced(dom, F(1, 4))  # beta*gamma = 1, discrete
    assert cartan_projectively_induced(dom, F(1, 2))  # beta*gamma = 2 > 1
    assert not cartan_projectively_induced(dom, F(3, 16))  # beta*gamma = 3/4
    with pytest.raises(NonpositiveParameterError):
        cartan_projectively_induced(dom, F(0))
    with pytest.raises(NonpositiveParameterError):
        cartan_projectively_induced(dom, F(-1))


def test_hartogs_projective_failure_witness():
    dom = parse_domain("I:2,2")
    # (alpha+m)*mu = (1/4+m)*4/5 hits 1/5 at m=0: inside (0,1) but not discrete
    spec = HartogsSpec(dom, F(4, 5), F(1, 4))
    assert hartogs_projective_failure(spec) == 0
    assert not hartogs_projectively_induced(spec)
    # (3+m)*4/5 >= 12/5 > 1 for all m: always in the continuous part
    spec = HartogsSpec(dom, F(4, 5), F(3))
    assert hartogs_projective_failure(spec) is None
    assert hartogs_projectively_induced(spec)
    spec = HartogsSpec(dom, F(1, 3), F(3, 2))  # values 1/2, 5/6, ... start in a gap
    assert hartogs_projective_failure(spec) == 0
    # witness beyond m=0 needs several discrete points: TypeVI has {0, 4, 8},
    # and (2+m)*2 = 4, 6, 8, ... lands on 4 first, then in the gap at 6
    spec = HartogsSpec(make_domain("VI"), F(2), F(2))
    assert hartogs_projective_failure(spec) == 1
    # staying on the discrete lattice all the way up is fine: 4, 8, 12, ...
    spec = HartogsSpec(make_domain("VI"), F(4), F(1))
    assert hartogs_projective_failure(spec) is None


def test_hartogs_projective_matches_brute_force():
    dom = parse_domain("II:3")
    ws = wallach_set(dom)
    for mu in (F(1, 3), F(1, 2), F(1), F(5, 2)):
        for alpha in (F(1, 2), F(1), F(2), F(7, 2)):
            spec = HartogsSpec(dom, mu, alpha)
            witness = hartogs_projective_failure(spec)
            brute = None
            for m in range(0, 200):
                eta = (alpha + m) * mu
                if not (eta in ws and eta != 0):
                    brute = m
                    break
            assert witness == brute, (mu, alpha)


def test_ball_hartogs_always_induced():
    # rank-one base: W \ {0} is all positive reals, so any positive weight works
    for d in (1, 2, 3):
        for mu in (F(1, 7), F(1), F(9, 2)):
            for alpha in (F(1, 5), F(2)):
                assert hartogs_projectively_induced(HartogsSpec(ball(d), mu, alpha))


def test_corollary_witness():
    dom = parse_domain("I:2,2")
    mu0, alpha_min = corollary_witness(dom)
    assert mu0 == F(4, 5)
    assert alpha_min == F(5, 4)
    # at alpha_min the first point lands exactly on the top discrete point
    assert alpha_min * mu0 == wallach_set(dom).continuous_threshold
    with pytest.raises(BallNotAllowedError):
        corollary_witness(ball(3))


def test_corollary_witness_is_the_ray_start_not_the_least_inducing_alpha():
    # II:3 has discrete points 0, 1/2, 1; at alpha = 7/8 the fiber powers give
    # weights 1/2 (discrete) and then 1/2 + 4m/7 > 1, so a smaller alpha induces
    dom = parse_domain("II:3")
    mu0, alpha_min = corollary_witness(dom)
    assert (mu0, alpha_min) == (F(4, 7), F(7, 4))
    assert hartogs_projectively_induced(HartogsSpec(dom, mu0, F(7, 8)))
    assert not hartogs_projectively_induced(HartogsSpec(dom, mu0, F(3, 2)))
    assert F(7, 8) < alpha_min < dom.dim + 1  # the corollary's alphas lie on the ray


def test_corollary_witness_all_domains():
    for dom in enumerate_catalog(27):
        if dom.is_ball:
            continue
        mu0, alpha_min = corollary_witness(dom)
        assert mu0 == F(dom.gamma, dom.dim + 1)
        ws = wallach_set(dom)
        assert alpha_min * mu0 == ws.continuous_threshold
        # every alpha >= alpha_min keeps all fiber powers inside the set
        for offset in (F(0), F(1, 3), F(2)):
            spec = HartogsSpec(dom, mu0, alpha_min + offset)
            assert hartogs_projectively_induced(spec)


def test_balanced_range_inside_continuous_part():
    # gamma - 1 strictly exceeds the threshold (r-1)a/2 on every entry
    for dom in enumerate_catalog(27):
        assert F(dom.gamma - 1) > F((dom.r - 1) * dom.a, 2)
