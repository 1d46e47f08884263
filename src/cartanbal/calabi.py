"""Power-series coefficients of the projective immersion over a ball base.

For the ball of dimension d (genus d+1) and weight k > 0, the squared
moduli of the degree-graded immersion components satisfy

    sum_m c_m |z^m|^2 = (1 - |z|^2)^(-(d+1)k),

with the multinomial coefficients c_m = rising((d+1)k, |m|) / prod_i m_i!.
The Hartogs immersion over the ball couples a fiber power w^mw with the
ball components at weight k = mu(alpha+mw)/(d+1), weighted by
rising(alpha, mw)/mw!.  Summing squared moduli of all components (each
(m_z, m_w) pair counted once) reconstructs

    sum entries[(mz, mw)] |z^mz|^2 |w|^(2 mw) = ((1-|z|^2)^mu - |w|^2)^(-alpha),

which verify_pullback checks numerically on sample points, with an analytic
bound on the truncated tail.  Each coefficient is a per-(mw, |mz|) slice factor
times the multinomial |mz|!/prod_i mz_i!, so build_immersion stores only the
(cap+1)(cap+2)/2 exact slice factors and entries is expanded when read.

_power_sum is the one evaluator of the numeric power sums in this package:
the pullback check here and every epsilon value and tail slice in epsilon.py.
numpy is imported inside _dense, _power_sum and verify_pullback, the only
functions that use it, so importing the package loads no numeric stack and
the exact code paths never pay for it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable

from .balanced import HartogsSpec
from .errors import (
    BallNotAllowedError,
    NonpositiveParameterError,
    SampleOutsideDomainError,
    _check_size,
)

__all__ = [
    "multi_index_enumerate",
    "ball_h_coefficients",
    "ImmersionCoefficients",
    "build_immersion",
    "PullbackCheck",
    "verify_pullback",
]


# size limits, shared with epsilon.py; each is checked before any array is built
_MAX_ENTRIES = 200_000  # exact entries of one build_immersion
_MAX_GRID_POINTS = 10_000  # points of one epsilon grid or pullback sample grid
_MAX_GRID_CELLS = 2_000_000  # floats in one evaluation array


def multi_index_enumerate(dim: int, degree_cap: int) -> list[tuple[int, ...]]:
    """All multi-indices of length dim with total degree <= degree_cap.

    Ordered by total degree, ties broken reverse-lexicographically (compare
    the reversed tuples), so for dim=2: (0,0), (1,0), (0,1), (2,0), ...
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if degree_cap < 0:
        raise ValueError(f"degree_cap must be >= 0, got {degree_cap}")
    # levels[n] lists the degree-n indices in order: the last entry ascends slowest
    levels = [[(n,)] for n in range(degree_cap + 1)]
    for _ in range(dim - 1):
        levels = [[head + (last,) for last in range(n + 1) for head in levels[n - last]]
                  for n in range(degree_cap + 1)]
    return [index for level in levels for index in level]


def _multinomials(dim: int, degree_cap: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(m, |m|, |m|!/prod_i m_i!) for m in multi_index_enumerate(dim, degree_cap), in order."""
    factorials = [math.factorial(n) for n in range(degree_cap + 1)]
    return [(m, sum(m), factorials[sum(m)] // math.prod(factorials[part] for part in m))
            for m in multi_index_enumerate(dim, degree_cap)]


def _rising_row(scale: Fraction, s: Fraction, degree_cap: int) -> tuple[Fraction, ...]:
    """scale * rising(s, n)/n!, n = 0..degree_cap, by integer recurrences: one reduction each."""
    num, den = scale.numerator, scale.denominator
    row = []
    for n in range(degree_cap + 1):
        row.append(Fraction(num, den))
        num *= s.numerator + n * s.denominator
        den *= s.denominator * (n + 1)
    return tuple(row)


def _dense(index, values: np.ndarray) -> np.ndarray:
    """Dense float array holding values at the int indices (one row each), zero elsewhere."""
    import numpy as np

    index = np.asarray(index).reshape(len(values), -1).T
    out = np.zeros(tuple(index.max(axis=1) + 1))
    out[tuple(index)] = values
    return out


def _power_sum(coef: np.ndarray, bases) -> np.ndarray:
    """sum_e coef[e] * prod_i b_i^(e_i) at every row b of bases.

    coef is dense with one axis per variable and zeros off the support;
    bases is (npoints, coef.ndim).  Axes are contracted one at a time, last
    first, against the power vectors of their variable.
    """
    import numpy as np

    bases = np.asarray(bases, dtype=float)
    out = np.broadcast_to(coef, (len(bases), *coef.shape))
    for axis in reversed(range(coef.ndim)):
        powers = bases[:, axis, None] ** np.arange(coef.shape[axis])
        out = np.einsum("s...k,sk->s...", out, powers)
    return out


def ball_h_coefficients(d: int, k, degree_cap: int) -> dict[tuple[int, ...], Fraction]:
    """Squared component moduli for the ball immersion at weight k > 0.

    Returns {multi-index: c_m} with c_m = rising((d+1)k, |m|) / prod(m_i!),
    truncated at total degree degree_cap; c_0 = 1.
    """
    k = Fraction(k)
    if k <= 0:
        raise NonpositiveParameterError(f"weight k must be positive, got {k}")
    row = _rising_row(Fraction(1), (d + 1) * k, degree_cap)
    return {index: row[degree] * multinomial
            for index, degree, multinomial in _multinomials(d, degree_cap)}


@dataclass(frozen=True)
class ImmersionCoefficients:
    """Squared moduli of the Hartogs immersion components over a ball base.

    Pairs (z multi-index mz, w power mw) are truncated at |mz| + mw <= cutoff:
        entries[(mz, mw)] = slice_factors[mw][|mz|] * |mz|!/prod_i mz_i!,
        slice_factors[mw][n] = rising(alpha, mw)/mw! * rising(mu(alpha+mw), n)/n!.
    entries (mw-major, then multi_index_enumerate order) is expanded on first
    access; entry_count is its length.
    """

    spec: HartogsSpec
    cutoff: int
    slice_factors: tuple[tuple[Fraction, ...], ...]
    entry_count: int

    @cached_property
    def entries(self) -> dict[tuple[tuple[int, ...], int], Fraction]:
        d = self.spec.base.dim
        terms = _multinomials(d, self.cutoff)  # by degree: the first C(c+d, d) have |m| <= c
        return {(index, mw): row[degree] * multinomial
                for mw, row in enumerate(self.slice_factors)
                for index, degree, multinomial in terms[:math.comb(len(row) - 1 + d, d)]}


def build_immersion(spec: HartogsSpec, degree_cap: int) -> ImmersionCoefficients:
    """Exact slice factors for a ball-base Hartogs immersion.

    Row mw is the fiber weight rising(alpha, mw)/mw! (its n = 0 entry) times
    the ball slice rising(mu(alpha+mw), n)/n!, n = 0..degree_cap-mw.
    """
    if not spec.base.is_ball:
        raise BallNotAllowedError(
            f"immersion coefficients need a ball base, got {spec.base.label}"
        )
    if degree_cap < 0:
        raise ValueError(f"degree_cap must be >= 0, got {degree_cap}")
    d = spec.base.dim
    count = math.comb(degree_cap + d + 1, d + 1)
    _check_size("degree_cap", degree_cap, count, "entries", _MAX_ENTRIES)
    weights = _rising_row(Fraction(1), spec.alpha, degree_cap)
    slice_factors = tuple(_rising_row(weight, spec.mu * (spec.alpha + mw), degree_cap - mw)
                          for mw, weight in enumerate(weights))
    return ImmersionCoefficients(spec, degree_cap, slice_factors, count)


@dataclass(frozen=True)
class PullbackCheck:
    max_rel_error: float
    tail_bound: float  # relative, analytic, valid for all checked samples
    samples_checked: int
    worst_sample: tuple | None


def _as_point(z, d: int) -> tuple[complex, ...]:
    if d == 1 and not isinstance(z, (tuple, list)):
        return (complex(z),)
    if isinstance(z, numbers.Number):
        raise SampleOutsideDomainError(f"z must have {d} coordinates, got the scalar {z!r}")
    z = tuple(complex(part) for part in z)
    if len(z) != d:
        raise SampleOutsideDomainError(f"z must have {d} coordinates, got {len(z)}")
    return z


def _comparison_series_value(t: float, mu: float, alpha: float) -> float:
    """((1-t)^mu - t)^(-alpha), the diagonal majorant of the coefficient sums."""
    return ((1.0 - t) ** mu - t) ** (-alpha)


def _tail_bound_rel(q: float, cap: int, mu: float, alpha: float) -> float:
    """Bound sum of neglected coefficients against a geometric majorant.

    Every truncated term is <= (coefficient sum at total degree n) * q^n, and
    the generating function of those sums is ((1-t)^mu - t)^(-alpha), finite
    for t below the positive root t* of (1-t)^mu = t.  For any t0 in (q, t*)
    each degree-n sum is <= F(t0) t0^(-n), so the tail above degree cap is
    <= F(t0) (q/t0)^(cap+1) / (1 - q/t0); t0 is optimized over a small grid.

    The target value ((1-|z|^2)^mu - |w|^2)^(-alpha) is >= 1 everywhere on
    the domain, so this absolute bound is also a relative one.
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):  # bisection for t*: (1-t)^mu - t is decreasing
        mid = 0.5 * (lo + hi)
        if (1.0 - mid) ** mu - mid > 0:
            lo = mid
        else:
            hi = mid
    t_star = lo
    if q >= t_star:
        return math.inf
    best = math.inf
    for frac in (0.25, 0.5, 0.75, 0.9):
        t0 = q + (t_star - q) * frac
        ratio = q / t0
        bound = _comparison_series_value(t0, mu, alpha) * ratio ** (cap + 1) / (1 - ratio)
        best = min(best, bound)
    return best


def verify_pullback(coeffs: ImmersionCoefficients, samples: Iterable) -> PullbackCheck:
    """Compare the truncated coefficient sum against ((1-|z|^2)^mu-|w|^2)^(-alpha).

    Each sample is (z, w) with z a scalar (d=1) or a coordinate tuple.  Points
    must lie strictly inside the domain.  The truncated sum is evaluated at
    all samples one fiber power mw at a time: the dense array indexed by mz
    holds float(slice_factors[mw][|mz|]) times a float table of the exact
    multinomials, built once per call, so entries is never expanded.  One
    _power_sum call evaluates it at the bases (|z_1|^2, ..., |z_d|^2), and the
    result is weighted by |w|^(2 mw).  So the dense array holds (cap+1)^d
    cells at most, not (cap+1)^(d+1).
    The returned tail_bound is the analytic truncation bound at the worst
    sample, relative to the target value, and the measured error must stay
    below it (up to float roundoff).
    """
    import numpy as np

    spec = coeffs.spec
    d = spec.base.dim
    mu = float(spec.mu)
    alpha = float(spec.alpha)
    points = list(samples)
    if not points:
        raise ValueError("verify_pullback needs at least one sample")
    # one _power_sum holds samples x (cap+1)^(d-1) floats, and its powers samples x (cap+1)
    cells = len(points) * (coeffs.cutoff + 1) ** max(d - 1, 1)
    _check_size("samples", len(points), cells, f"cells at degree cap {coeffs.cutoff}",
                _MAX_GRID_CELLS)
    rows = []
    for z, w in points:
        moduli = [abs(part) ** 2 for part in _as_point(z, d)]
        x = sum(moduli)
        y = abs(complex(w)) ** 2
        if not (x < 1.0 and y < (1.0 - x) ** mu):
            raise SampleOutsideDomainError(
                f"sample z={z!r}, w={w!r} lies outside |w|^2 < (1-|z|^2)^mu < 1"
            )
        rows.append((*moduli, y))
    bases = np.array(rows)
    x = bases[:, :d].sum(axis=1)
    y = bases[:, d]
    n_mu = (1.0 - x) ** mu
    target = (n_mu - y) ** (-alpha)
    terms = _multinomials(d, coeffs.cutoff)
    multinomials = _dense([term[0] for term in terms], np.array([float(term[2]) for term in terms]))
    degrees = np.indices(multinomials.shape).sum(axis=0)
    total = np.zeros(len(points))
    for mw, row in enumerate(coeffs.slice_factors):
        box = (slice(len(row)),) * d
        # degrees in the box reach d*(len(row)-1); the factors past the row are zero
        factors = np.zeros(d * len(row))
        factors[:len(row)] = row
        total += y**mw * _power_sum(factors[degrees[box]] * multinomials[box], bases[:, :d])
    rel = np.abs(total - target) / target
    worst = int(np.argmax(rel))
    q_max = float(max(x.max(), (y / n_mu).max()))
    tail = _tail_bound_rel(q_max, coeffs.cutoff, mu, alpha)
    return PullbackCheck(float(rel[worst]), tail, len(points), points[worst])
