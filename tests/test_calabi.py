import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

import cartanbal.calabi as calabi_module
from cartanbal.balanced import HartogsSpec
from cartanbal.calabi import (
    _check_grid_samples,
    _multinomials,
    _power_sum,
    _rising_row,
    _t_star,
    build_immersion,
    verify_pullback,
)
from cartanbal.catalog import ball, parse_domain
from cartanbal.cli import main
from cartanbal.epsilon import _hartogs_tail_bound, hartogs_disc_norms
from cartanbal.errors import (
    BallNotAllowedError,
    SampleOutsideDomainError,
)
from polar_moments import _rising


def _indices(dim: int, degree_cap: int) -> list[tuple[int, ...]]:
    return [index for index, _, _ in _multinomials(dim, degree_cap)]


def _ball_coefficients(d: int, mu, alpha, degree_cap: int) -> dict:
    """The w=0 slice of the immersion: the ball immersion at weight k = mu*alpha/(d+1)."""
    entries = build_immersion(HartogsSpec(ball(d), mu, alpha), degree_cap).entries
    return {mz: c for (mz, mw), c in entries.items() if mw == 0}


def test_multi_index_order():
    assert _indices(2, 2) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]
    assert _indices(1, 3) == [(0,), (1,), (2,), (3,)]
    # total degree never decreases along the enumeration
    out = _indices(3, 5)
    degrees = [sum(m) for m in out]
    assert degrees == sorted(degrees)
    assert len(set(out)) == len(out)


def test_multi_index_count():
    for d in (1, 2, 3):
        for cap in (0, 1, 4, 7):
            assert len(_indices(d, cap)) == math.comb(cap + d, d)


def test_multi_index_matches_sorted_reference():
    # the order as documented: by total degree, then by the reversed tuple
    for d, cap in ((1, 5), (2, 9), (3, 6), (4, 4)):
        reference = sorted(
            (m for m in itertools.product(range(cap + 1), repeat=d) if sum(m) <= cap),
            key=lambda m: (sum(m), m[::-1]),
        )
        assert _indices(d, cap) == reference


def test_multinomials_match_the_factorial_formula():
    for d, cap in ((1, 5), (2, 12), (3, 9), (4, 6)):
        assert _multinomials(d, cap) == [
            (m, sum(m), math.factorial(sum(m)) // math.prod(map(math.factorial, m)))
            for m in _indices(d, cap)
        ]


def test_ball_coefficients_one_variable():
    # c_m = rising(2k, m)/m! for d=1; at k = mu*alpha/2 = 1/4 the base is 1/2
    coeffs = _ball_coefficients(1, F(1, 4), F(2), 3)
    assert coeffs == {
        (0,): F(1),
        (1,): F(1, 2),
        (2,): F(3, 8),
        (3,): F(5, 16),
    }


def test_ball_coefficients_two_variables():
    # c_m = rising(3k, |m|)/(m1! m2!) for d=2; k = mu*alpha/3 = 1 gives rising(3, |m|)
    coeffs = _ball_coefficients(2, F(3, 2), F(2), 2)
    assert coeffs[(0, 0)] == 1
    assert coeffs[(1, 0)] == coeffs[(0, 1)] == 3
    assert coeffs[(2, 0)] == coeffs[(0, 2)] == 6
    assert coeffs[(1, 1)] == 12
    for m, c in coeffs.items():
        assert c == _rising(F(3), sum(m)) / (
            math.factorial(m[0]) * math.factorial(m[1])
        )


def test_immersion_slices():
    spec = HartogsSpec(ball(2), F(3, 2), F(4))
    coeffs = build_immersion(spec, 8)
    # pure fiber terms carry the binomial-series weights of (1-y)^(-alpha)
    for mw in range(9):
        assert coeffs.entries[((0, 0), mw)] == _rising(F(4), mw) / math.factorial(mw)
    # the w=0 slice is the base-ball immersion at k = mu*alpha/(d+1), whose
    # coefficients are rising(mu*alpha, |mz|)/prod_i mz_i!
    for mz, _, _ in _multinomials(2, 8):
        expected = _rising(F(6), sum(mz)) / math.prod(map(math.factorial, mz))
        assert coeffs.entries[(mz, 0)] == expected


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


@pytest.mark.parametrize("d, cap", [(1, 12), (2, 10), (3, 7)])
@pytest.mark.parametrize(
    "mu, alpha", [(F(1), F(3)), (F(2), F(5)), (F(3, 2), F(5, 2)), (F(2, 3), F(7, 4))]
)
def test_immersion_entries_match_exact_oracle(d, cap, mu, alpha):
    # each entry straight from the formula, not through the slice factors
    coeffs = build_immersion(HartogsSpec(ball(d), mu, alpha), cap)
    keys = list(coeffs.entries)
    assert keys == sorted(
        ((mz, mw) for mw in range(cap + 1)
         for mz in itertools.product(range(cap + 1 - mw), repeat=d) if sum(mz) <= cap - mw),
        key=lambda key: (key[1], sum(key[0]), key[0][::-1]),
    )
    assert coeffs.entry_count == len(keys) == math.comb(cap + d + 1, d + 1)
    for (mz, mw), c in coeffs.entries.items():
        expected = _rising(alpha, mw) / math.factorial(mw) * _rising(mu * (alpha + mw), sum(mz))
        assert c == expected / math.prod(math.factorial(part) for part in mz), (mz, mw)


def test_immersion_entries_are_lazy():
    spec = HartogsSpec(ball(2), F(3, 2), F(4))
    tracemalloc.start()
    try:
        coeffs = build_immersion(spec, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 39,711 eager entries peaked at 9.0 MB; a build computes no view at all
    assert peak < 1e6, peak
    assert coeffs._asdict() == {"spec": spec, "cutoff": 60, "entry_count": 39_711}
    assert vars(coeffs) == {}
    # the pullback reads only the float matrix
    verify_pullback(coeffs, [((0.2, 0.1), 0.3)])
    assert "slice_matrix" in vars(coeffs)
    assert "entries" not in vars(coeffs)
    assert len(coeffs.entries) == coeffs.entry_count == 39_711


def test_pullback_reads_the_slice_factors():
    # one low-degree cell of the float matrix off by 1e-6 must show far above
    # the tail bound; the matrix is read-only, so a perturbed copy replaces
    # the cached one on a fresh record
    coeffs = build_immersion(HartogsSpec(ball(2), F(1), F(4)), 40)
    sample = [((0.2, 0.1), 0.3)]
    assert verify_pullback(coeffs, sample).max_rel_error < 1e-13
    matrix = coeffs.slice_matrix.copy()
    matrix[1, 1] *= 1 + 1e-6  # n = 1, mw = 1
    perturbed = coeffs._replace()
    vars(perturbed)["slice_matrix"] = matrix
    check = verify_pullback(perturbed, sample)
    assert check.max_rel_error > check.tail_bound + 1e-13
    assert check.max_rel_error > 1e-8


# the float matrix does not depend on d, but the build refuses more than
# 200,000 entries: d=2 stops short of cap 150 and d=3 of cap 60
@pytest.mark.parametrize("d, cap", [(1, 0), (1, 1), (1, 60), (1, 150), (2, 0), (2, 1), (2, 60),
                                    (3, 0), (3, 1), (3, 30)])
def test_slice_matrix_matches_the_exact_rows(d, cap):
    # the exact _rising_row rows are the oracle: every cell within 1e-13
    # relative, and zero exactly where n + mw > cap
    settings = [(F(1), F(3)), (F(3, 2), F(5, 2)), (F(2, 3), F(7, 4)), (F(2), F(1, 7)),
                (F(3, 2), F(53, 16)), (F(1), F(400)), (F(2), F(400))]
    for mu, alpha in settings:
        coeffs = build_immersion(HartogsSpec(ball(d), mu, alpha), cap)
        matrix = coeffs.slice_matrix
        assert matrix.shape == (cap + 1, cap + 1) and not matrix.flags.writeable
        weights = _rising_row(F(1), alpha, cap)
        for mw, weight in enumerate(weights):
            row = _rising_row(weight, mu * (alpha + mw), cap - mw)
            assert len(row) == cap + 1 - mw
            exact = np.array([float(f) for f in row])
            np.testing.assert_allclose(matrix[:len(row), mw], exact, rtol=1e-13, atol=0,
                                       err_msg=f"mu={mu} alpha={alpha} mw={mw}")
            assert (matrix[len(row):, mw] == 0).all(), (mu, alpha, mw)


def test_immersion_needs_ball_base():
    with pytest.raises(BallNotAllowedError):
        build_immersion(HartogsSpec(parse_domain("I:2,2"), F(1), F(7)), 5)


def test_immersion_rejects_negative_cap():
    with pytest.raises(ValueError, match="degree_cap"):
        build_immersion(HartogsSpec(ball(1), F(1), F(3)), -1)


def test_immersion_rejects_oversized_cap():
    # C(cap+d+1, d+1) entries: ball(3) at cap 30 has 46,376, at cap 60 635,376
    assert len(build_immersion(HartogsSpec(ball(3), F(1), F(5)), 30).entries) == 46_376
    with pytest.raises(ValueError, match="degree_cap"):
        build_immersion(HartogsSpec(ball(3), F(1), F(5)), 60)
    # the count is at least its d=1 value and, at cap >= 1, d+2: both are
    # refused before the exact binomial, whose digits grow with d and cap
    for d, cap, name in ((10**6, 10**6, "degree_cap=1000000"),
                         (10**5, 10**5, "degree_cap=100000"),
                         (199_999, 1, "d=199999")):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=name):
            build_immersion(HartogsSpec(ball(d), F(1), F(3)), cap)
        assert time.perf_counter() - start < 1.0, (d, cap)
    assert build_immersion(HartogsSpec(ball(199_998), F(1), F(3)), 1).entry_count == 200_000
    assert build_immersion(HartogsSpec(ball(10**6), F(1), F(3)), 0).entry_count == 1


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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pullback_sums_every_term(d):
    # at a low cap the truncation error is large, so the one-pass sum must match
    # the fsum of the expanded entries, term by term, far above roundoff
    coeffs = build_immersion(HartogsSpec(ball(d), F(3, 2), F(7, 2)), 5)
    samples = [((0.3,) * d, 0.25), ((0.1, 0.4, 0.2, 0.15)[:d], 0.0), ((0.0,) * d, 0.45)]
    check = verify_pullback(coeffs, samples)
    rel = []
    for z, w in samples:
        x = [abs(part) ** 2 for part in z]
        y = abs(w) ** 2
        total = math.fsum(float(c) * math.prod(b**k for b, k in zip(x, mz)) * y**mw
                          for (mz, mw), c in coeffs.entries.items())
        target = ((1 - sum(x)) ** 1.5 - y) ** -3.5
        rel.append(abs(total - target) / target)
    assert check.max_rel_error > 1e-3
    assert check.max_rel_error == pytest.approx(max(rel), rel=1e-12)
    assert check.worst_sample == samples[rel.index(max(rel))]


def test_pullback_memory_is_bounded_per_fiber_power():
    # one dense array over (*mz, mw) held (cap+1)^(d+1) floats: ~10 MB here
    # and ~0.93 GB at d=4, cap 40; the (cap+1) x (cap+1) slice-factor matrix takes
    # 7.7 kB and the two (samples x cap+1) power-sum arrays 1.2 kB each
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


def test_pullback_contracts_once_per_distinct_squared_norm(monkeypatch):
    # a check grid repeats each |z|: 10 radii x 10 |w| contract the slice
    # matrix over n at the 10 distinct |z|^2, not at the 100 samples
    calls = []

    def counting(coef, bases):
        calls.append(np.shape(bases))
        return _power_sum(coef, bases)

    coeffs = build_immersion(HartogsSpec(ball(2), F(3, 2), F(4)), 30)
    radii = [0.04 * k for k in range(10)]
    samples = [((r / 2**0.5,) * 2, w) for r in radii for w in radii]
    monkeypatch.setattr(calabi_module, "_power_sum", counting)
    check = verify_pullback(coeffs, samples)
    assert calls == [(10, 1)]
    # each sample reads the row of its own |z|^2
    errors = [verify_pullback(coeffs, [sample]).max_rel_error for sample in samples]
    assert check.max_rel_error == pytest.approx(max(errors), rel=1e-12)
    assert check.worst_sample == samples[errors.index(max(errors))]


def test_pullback_refuses_oversized_sample_sets():
    # a call takes samples x max(cap+1, d) <= 2,000,000
    coeffs = build_immersion(HartogsSpec(ball(1), F(1), F(3)), 20)
    limit = 2_000_000 // 21
    verify_pullback(coeffs, [(0.1, 0.1)])  # numpy's import is not part of the bound
    tracemalloc.start()
    try:
        assert verify_pullback(coeffs, [(0.1, 0.1)] * limit).samples_checked == limit
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two chunks of 47,619 samples; a chunk's two (samples x 21) arrays, the rows of
    # its samples' |z|^2 and the powers of |w|^2, take 16 MB, the per-sample vectors
    # a few MB more (20.6 MB in all; 37 MB were every |z|^2 distinct)
    assert peak < 4e7, peak
    with pytest.raises(ValueError, match="samples=95239 needs 2,000,019 cells"):
        verify_pullback(coeffs, [(0.1, 0.1)] * (limit + 1))
    # past cap+1 the d coordinates each sample reduces count instead
    coeffs = build_immersion(HartogsSpec(ball(1000), F(1), F(5)), 1)
    samples = [((0.001,) * 1000, 0.1)] * (2_000_000 // 1000 + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="samples=2001 needs 2,001,000 cells"):
            verify_pullback(coeffs, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5, peak  # refused before any array is built


def test_pullback_memory_is_bounded_per_chunk():
    # each sample is reduced to (|z|^2, |w|^2), so one chunk of at most
    # 1,000,000 / 31 samples holds these 2,081 at cap 30, in two (samples x 31)
    # power-sum arrays of 0.5 MB each; a call takes 2,000,000 // 31 = 64,516
    coeffs = build_immersion(HartogsSpec(ball(3), F(1), F(5)), 30)
    samples = [((0.01 * (k % 20), 0.05, 0.1), 0.001 * (k % 300)) for k in range(2081)]
    verify_pullback(coeffs, samples[:1])  # numpy's import is not part of the bound
    tracemalloc.start()
    try:
        check = verify_pullback(coeffs, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e7, peak  # 1.6 MB: the two chunk arrays, the samples and the factor matrix
    assert check.samples_checked == 2081
    assert check.max_rel_error <= check.tail_bound + 1e-13
    with pytest.raises(ValueError, match="samples=64517 needs 2,000,027 cells"):
        verify_pullback(coeffs, (samples * 32)[:64_517])


@pytest.mark.parametrize("d", [1, 2, 10])
@pytest.mark.parametrize("mu, rmax, n", [(F(1), 0.4, 5), (F(3, 2), 0.9, 7), (F(1, 3), 0.6, 1)])
def test_check_grid_samples(capsys, d, mu, rmax, n):
    # z on the diagonal at each grid radius, w on the same radii, inside the
    # 0.9 margin; the immersion subcommand checks exactly these samples
    samples = _check_grid_samples(HartogsSpec(ball(d), mu, F(12)), rmax, n, 5)
    radii = np.linspace(0.0, rmax, n).tolist()
    kept = [(r, w) for r in radii for w in radii if w * w < 0.9 * (1 - r * r) ** float(mu)]
    assert len(samples) == len(kept)
    for (z, w), (r, w_kept) in zip(samples, kept):
        assert len(z) == d and len(set(z)) == 1 and w == w_kept
        x = sum(c * c for c in z)
        assert math.isclose(x, r * r, rel_tol=1e-15, abs_tol=1e-300)
        assert w * w < 0.9 * (1 - x) ** float(mu)
    code = main(["immersion", "--d", str(d), "--mu", str(mu), "--alpha", "12", "--cap", "5",
                 "--check-grid", f"{rmax}:{n}", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["check"]["samples_checked"] == len(samples)


def test_check_grid_samples_past_the_float_range():
    # mu 10^400 reads as inf: only the r = 0 row is kept, and verify_pullback
    # refuses mu by name
    spec = HartogsSpec(ball(2), F(10**400), F(3))
    samples = _check_grid_samples(spec, 0.4, 5, 20)
    assert samples == [((0.0, 0.0), w) for w in np.linspace(0.0, 0.4, 5).tolist()]
    with pytest.raises(ValueError, match=r"^mu=inf: .* leaves the float range; lower mu$"):
        verify_pullback(build_immersion(spec, 20), samples)
    with pytest.raises(ValueError, match="check_grid=0.4:101 needs 10,201 samples"):
        _check_grid_samples(spec, 0.4, 101, 20)


def test_pullback_names_a_huge_mu():
    # past the float range mu reads as inf and is refused by name before any
    # sample is checked; at mu 10^300 the slice factors overflow, and the
    # error names both parameters
    samples = [(0.0, 0.0), (0.2, 0.1)]
    coeffs = build_immersion(HartogsSpec(ball(1), F(10**400), F(3)), 20)
    with pytest.raises(ValueError, match=r"^mu=inf: .* leaves the float range; lower mu$"):
        verify_pullback(coeffs, samples)
    coeffs = build_immersion(HartogsSpec(ball(1), F(10**300), F(3)), 20)
    with pytest.raises(ValueError, match=r"^mu=1e\+300, alpha=3\.0: a slice factor .* lower mu or"
                                         r" alpha$"):
        verify_pullback(coeffs, samples[:1])


def test_pullback_at_large_alpha():
    # each tail-bound candidate F(t0) (q/t0)^(cap+1) / (1 - q/t0) is formed in
    # logs: at alpha 400 the largest is past the float range and the smallest
    # is 5.2e130; at alpha 3000 all of them are, and the bound is inf
    samples = [(r, w) for r in (0.0, 0.2, 0.4) for w in (0.0, 0.2, 0.4)]
    check = verify_pullback(build_immersion(HartogsSpec(ball(1), F(1), F(400)), 20), samples)
    assert 1e100 < check.tail_bound < math.inf
    assert check.max_rel_error <= check.tail_bound
    coeffs = build_immersion(HartogsSpec(ball(1), F(1), F(3000)), 20)
    check = verify_pullback(coeffs, [(0.1, 0.1)])
    assert check.tail_bound == math.inf
    # 0.68^-3000 at (0.4, 0.4) is no float: one error, and no numpy warning
    with pytest.raises(ValueError, match=r"alpha=3000\.0: .* leaves the float range"):
        verify_pullback(coeffs, samples)
    # at alpha 10^30 the target at the origin is 1, but the slice factors
    # (rising factorials in alpha) are past the float range
    coeffs = build_immersion(HartogsSpec(ball(1), F(1), F(10**30)), 20)
    with pytest.raises(ValueError, match=r"alpha=1e\+30: .* leaves the float range"):
        verify_pullback(coeffs, [(0.0, 0.0)])
    # past the float range alpha itself reads as inf, and the error still names it
    coeffs = build_immersion(HartogsSpec(ball(1), F(1), F(10**400)), 20)
    with pytest.raises(ValueError, match=r"alpha=inf: a slice factor .* leaves the float range"):
        verify_pullback(coeffs, [(0.0, 0.0)])

def test_hartogs_tail_bound_memory_is_bounded():
    # 32 distinct t and 32 distinct u at caps (80, 80): only the (32 x 82) tables
    # in t and u are exponentiated and contracted over m; the one sum that underflows,
    # the origin's, never holds the maximum, so no (32 x 32 x 82) array of pieces is
    # built and the peak is 0.16 MB
    t = np.linspace(0.0, 0.35, 32)
    u = np.linspace(0.0, 0.5, 32)
    norms = hartogs_disc_norms(2.0, 4.0, (80, 80))
    tracemalloc.start()
    try:
        tail = _hartogs_tail_bound(t, u, norms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e5, peak
    assert 0 < tail < 1e-6


def test_pullback_rejects_outside_samples():
    spec = HartogsSpec(ball(1), F(2), F(3))
    coeffs = build_immersion(spec, 20)
    with pytest.raises(SampleOutsideDomainError):
        verify_pullback(coeffs, [(0.8, 0.8)])  # |w|^2 >= (1-|z|^2)^2
    with pytest.raises(SampleOutsideDomainError):
        verify_pullback(coeffs, [(1.0, 0.0)])
    with pytest.raises(ValueError):
        verify_pullback(coeffs, [])


@pytest.mark.parametrize("sample", [(math.nan, 0.1), (0.1, math.nan), (complex(math.nan, 0.1), 0.1)])
def test_pullback_rejects_nan_samples(sample):
    coeffs = build_immersion(HartogsSpec(ball(1), F(2), F(3)), 20)
    with pytest.raises(SampleOutsideDomainError):
        verify_pullback(coeffs, [sample])


def test_pullback_rejects_a_scalar_z_over_a_larger_ball():
    coeffs = build_immersion(HartogsSpec(ball(2), F(1), F(4)), 10)
    with pytest.raises(SampleOutsideDomainError, match="z must have 2 coordinates"):
        verify_pullback(coeffs, [(0.1, 0.1)])


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
    # |z|^2 = 0.5625 is past t* = 0.5, where the comparison series diverges
    beyond = verify_pullback(build_immersion(spec, 20), [(0.75, 0.0)])
    assert beyond.tail_bound == math.inf


@pytest.mark.parametrize("mu", [1e-3, 1.0, 404.5, 1e10, 1e300])
def test_t_star_stops_at_the_float_fixed_point(mu):
    # the reference: all 200 halvings, with no early stop
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (1.0 - mid) ** mu - mid > 0:
            lo = mid
        else:
            hi = mid
    assert _t_star(mu) == lo
