import math
import tracemalloc
from fractions import Fraction as F

import pytest

from cartanbal.balanced import HartogsSpec
from cartanbal.calabi import (
    ball_h_coefficients,
    build_immersion,
    multi_index_enumerate,
    verify_pullback,
)
from cartanbal.catalog import ball, parse_domain
from cartanbal.errors import (
    BallNotAllowedError,
    NonpositiveParameterError,
    SampleOutsideDomainError,
)
from cartanbal.exactnum import rising


def test_multi_index_order():
    assert multi_index_enumerate(2, 2) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]
    assert multi_index_enumerate(1, 3) == [(0,), (1,), (2,), (3,)]
    # total degree never decreases along the enumeration
    out = multi_index_enumerate(3, 5)
    degrees = [sum(m) for m in out]
    assert degrees == sorted(degrees)
    assert len(set(out)) == len(out)


def test_multi_index_count():
    for d in (1, 2, 3):
        for cap in (0, 1, 4, 7):
            assert len(multi_index_enumerate(d, cap)) == math.comb(cap + d, d)


def test_ball_coefficients_one_variable():
    # c_m = rising(2k, m)/m! for d=1; at k=1/4 the base is 1/2
    coeffs = ball_h_coefficients(1, F(1, 4), 3)
    assert coeffs == {
        (0,): F(1),
        (1,): F(1, 2),
        (2,): F(3, 8),
        (3,): F(5, 16),
    }


def test_ball_coefficients_two_variables():
    # c_m = rising(3k, |m|)/(m1! m2!) for d=2; k=1 gives rising(3, |m|)
    coeffs = ball_h_coefficients(2, F(1), 2)
    assert coeffs[(0, 0)] == 1
    assert coeffs[(1, 0)] == coeffs[(0, 1)] == 3
    assert coeffs[(2, 0)] == coeffs[(0, 2)] == 6
    assert coeffs[(1, 1)] == 12
    for m, c in coeffs.items():
        assert c == rising(F(3), sum(m)) / (
            math.factorial(m[0]) * math.factorial(m[1])
        )


def test_ball_coefficients_require_positive_weight():
    with pytest.raises(NonpositiveParameterError):
        ball_h_coefficients(1, F(0), 3)
    with pytest.raises(NonpositiveParameterError):
        ball_h_coefficients(2, F(-1, 2), 3)


def test_immersion_slices():
    spec = HartogsSpec(ball(2), F(3, 2), F(4))
    coeffs = build_immersion(spec, 8)
    # pure fiber terms carry the binomial-series weights of (1-y)^(-alpha)
    for mw in range(9):
        assert coeffs.entries[((0, 0), mw)] == rising(F(4), mw) / math.factorial(mw)
    # the w=0 slice is the base-ball immersion at k = mu*alpha/(d+1)
    base = ball_h_coefficients(2, F(3, 2) * F(4) / 3, 8)
    for mz, c in base.items():
        assert coeffs.entries[(mz, 0)] == c


def test_immersion_binomial_case():
    # mu=1, alpha=1 over the disc: the target is 1/(1-t-y), whose
    # coefficients are the binomials C(mz+mw, mz)
    spec = HartogsSpec(ball(1), F(1), F(1))
    coeffs = build_immersion(spec, 10)
    for (mz, mw), c in coeffs.entries.items():
        assert c == math.comb(mz[0] + mw, mw)


def test_immersion_entry_count_and_positivity():
    spec = HartogsSpec(ball(1), F(1), F(3))
    coeffs = build_immersion(spec, 60)
    assert len(coeffs.entries) == 62 * 61 // 2
    assert all(c > 0 for c in coeffs.entries.values())
    assert coeffs.cutoff == 60


def test_immersion_needs_ball_base():
    with pytest.raises(BallNotAllowedError):
        build_immersion(HartogsSpec(parse_domain("I:2,2"), F(1), F(7)), 5)


def test_immersion_rejects_negative_cap():
    with pytest.raises(ValueError, match="degree_cap"):
        build_immersion(HartogsSpec(ball(1), F(1), F(3)), -1)


def test_pullback_disc():
    spec = HartogsSpec(ball(1), F(1), F(3))
    coeffs = build_immersion(spec, 60)
    samples = [
        (z / 10.0, w / 10.0) for z in range(0, 5) for w in range(0, 5)
    ]
    check = verify_pullback(coeffs, samples)
    assert check.samples_checked == 25
    assert check.max_rel_error < 1e-8
    assert check.max_rel_error <= check.tail_bound + 1e-13
    assert check.worst_sample in samples


def test_pullback_fractional_weights():
    spec = HartogsSpec(ball(1), F(3, 2), F(5, 2))
    coeffs = build_immersion(spec, 50)
    samples = [(0.0, 0.0), (0.3, 0.2), (0.1, 0.4), (0.35, 0.0)]
    check = verify_pullback(coeffs, samples)
    assert check.max_rel_error < 1e-8


def test_pullback_two_dimensional_base():
    spec = HartogsSpec(ball(2), F(1), F(4))
    coeffs = build_immersion(spec, 40)
    samples = [
        ((0.0, 0.0), 0.0),
        ((0.2, 0.1), 0.3),
        ((0.3, 0.3), 0.2),
        ((0.1, 0.25), 0.35),
    ]
    check = verify_pullback(coeffs, samples)
    assert check.max_rel_error < 1e-8
    assert check.max_rel_error <= check.tail_bound + 1e-13


def test_pullback_memory_is_bounded_per_fiber_power():
    # one dense array over (*mz, mw) held (cap+1)^(d+1) floats: ~10 MB here
    # and ~0.93 GB at d=4, cap 40; one mw slice at a time keeps ~1 MB here
    spec = HartogsSpec(ball(3), F(3, 2), F(5))
    coeffs = build_immersion(spec, 30)
    samples = [((0.1 * k, 0.05, 0.0), 0.08 * k) for k in range(5)]
    tracemalloc.start()
    try:
        check = verify_pullback(coeffs, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
    assert check.max_rel_error <= check.tail_bound + 1e-13


def test_pullback_rejects_outside_samples():
    spec = HartogsSpec(ball(1), F(2), F(3))
    coeffs = build_immersion(spec, 20)
    with pytest.raises(SampleOutsideDomainError):
        verify_pullback(coeffs, [(0.8, 0.8)])  # |w|^2 >= (1-|z|^2)^2
    with pytest.raises(SampleOutsideDomainError):
        verify_pullback(coeffs, [(1.0, 0.0)])
    with pytest.raises(ValueError):
        verify_pullback(coeffs, [])


def test_truncation_is_monotone():
    spec = HartogsSpec(ball(1), F(1), F(3))
    samples = [(0.35, 0.3)]
    err_40 = verify_pullback(build_immersion(spec, 40), samples).max_rel_error
    err_50 = verify_pullback(build_immersion(spec, 50), samples).max_rel_error
    # longer truncation cannot be meaningfully worse (float noise floor aside)
    assert err_50 <= err_40 + 1e-12


def test_tail_bound_tracks_radius():
    spec = HartogsSpec(ball(1), F(1), F(3))
    coeffs = build_immersion(spec, 60)
    near = verify_pullback(coeffs, [(0.1, 0.1)])
    far = verify_pullback(coeffs, [(0.45, 0.45)])
    assert near.tail_bound < far.tail_bound
    assert far.max_rel_error <= far.tail_bound + 1e-13
