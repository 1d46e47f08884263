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
bound on the truncated tail.

_power_sum is the one evaluator of the numeric power sums in this package:
the pullback check here and every epsilon value and tail slice in epsilon.py.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .balanced import HartogsSpec
from .errors import (
    BallNotAllowedError,
    NonpositiveParameterError,
    SampleOutsideDomainError,
)
from .exactnum import rising

__all__ = [
    "multi_index_enumerate",
    "ball_h_coefficients",
    "ImmersionCoefficients",
    "build_immersion",
    "PullbackCheck",
    "verify_pullback",
]


def multi_index_enumerate(dim: int, degree_cap: int) -> list[tuple[int, ...]]:
    """All multi-indices of length dim with total degree <= degree_cap.

    Ordered by total degree, ties broken reverse-lexicographically (compare
    the reversed tuples), so for dim=2: (0,0), (1,0), (0,1), (2,0), ...
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if degree_cap < 0:
        raise ValueError(f"degree_cap must be >= 0, got {degree_cap}")

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    out: list[tuple[int, ...]] = []
    for total in range(degree_cap + 1):
        level = sorted(compositions(total, dim), key=lambda t: tuple(reversed(t)))
        out.extend(level)
    return out


def _dense(index, values: np.ndarray) -> np.ndarray:
    """Dense float array holding values at the int indices (one row each), zero elsewhere."""
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
    s = (d + 1) * k
    rising_by_degree = [Fraction(1)]
    for n in range(degree_cap):
        rising_by_degree.append(rising_by_degree[-1] * (s + n))
    out: dict[tuple[int, ...], Fraction] = {}
    for idx in multi_index_enumerate(d, degree_cap):
        denom = 1
        for part in idx:
            denom *= math.factorial(part)
        out[idx] = rising_by_degree[sum(idx)] / denom
    return out


@dataclass(frozen=True)
class ImmersionCoefficients:
    """Squared moduli of the Hartogs immersion components over a ball base.

    entries maps (z multi-index, w power) to the exact coefficient; pairs are
    truncated at total degree |mz| + mw <= cutoff.
    """

    spec: HartogsSpec
    cutoff: int
    entries: dict[tuple[tuple[int, ...], int], Fraction]


def build_immersion(spec: HartogsSpec, degree_cap: int) -> ImmersionCoefficients:
    """Exact squared coefficients for a ball-base Hartogs immersion.

    entries[(mz, mw)] = rising(alpha, mw)/mw! * c_mz at weight
    mu(alpha+mw)/(d+1); the fiber weights at mz = 0 are the factors
    rising(alpha, mw)/mw! themselves.
    """
    if not spec.base.is_ball:
        raise BallNotAllowedError(
            f"immersion coefficients need a ball base, got {spec.base.label}"
        )
    if degree_cap < 0:
        raise ValueError(f"degree_cap must be >= 0, got {degree_cap}")
    d = spec.base.dim
    entries: dict[tuple[tuple[int, ...], int], Fraction] = {}
    for mw in range(degree_cap + 1):
        weight = rising(spec.alpha, mw) / math.factorial(mw)
        k = spec.mu * (spec.alpha + mw) / (d + 1)
        ball_part = ball_h_coefficients(d, k, degree_cap - mw)
        for mz, coeff in ball_part.items():
            entries[(mz, mw)] = weight * coeff
    return ImmersionCoefficients(spec, degree_cap, entries)


@dataclass(frozen=True)
class PullbackCheck:
    max_rel_error: float
    tail_bound: float  # relative, analytic, valid for all checked samples
    samples_checked: int
    worst_sample: tuple | None


def _as_point(z, d: int) -> tuple[complex, ...]:
    if d == 1 and not isinstance(z, (tuple, list)):
        return (complex(z),)
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
    all samples one fiber power mw at a time: the coefficients of that mw go
    into a dense array indexed by mz, one _power_sum call evaluates it at the
    bases (|z_1|^2, ..., |z_d|^2), and the result is weighted by |w|^(2 mw).
    So the dense array holds (cap+1)^d cells at most, not (cap+1)^(d+1).
    The returned tail_bound is the analytic truncation bound at the worst
    sample, relative to the target value, and the measured error must stay
    below it (up to float roundoff).
    """
    spec = coeffs.spec
    d = spec.base.dim
    mu = float(spec.mu)
    alpha = float(spec.alpha)
    points = list(samples)
    if not points:
        raise ValueError("verify_pullback needs at least one sample")
    rows = []
    for z, w in points:
        moduli = [abs(part) ** 2 for part in _as_point(z, d)]
        x = sum(moduli)
        y = abs(complex(w)) ** 2
        if x >= 1.0 or y >= (1.0 - x) ** mu:
            raise SampleOutsideDomainError(
                f"sample z={z!r}, w={w!r} lies outside |w|^2 < (1-|z|^2)^mu < 1"
            )
        rows.append((*moduli, y))
    bases = np.array(rows)
    x = bases[:, :d].sum(axis=1)
    y = bases[:, d]
    n_mu = (1.0 - x) ** mu
    target = (n_mu - y) ** (-alpha)
    total = np.zeros(len(points))
    # entries come grouped by mw; a split group would only cost an extra call
    for mw, fiber in itertools.groupby(coeffs.entries.items(), key=lambda item: item[0][1]):
        keys, values = zip(*fiber)
        coef = _dense([mz for mz, _ in keys], np.fromiter(map(float, values), float, len(values)))
        total += y**mw * _power_sum(coef, bases[:, :d])
    rel = np.abs(total - target) / target
    worst = int(np.argmax(rel))
    q_max = float(max(x.max(), (y / n_mu).max()))
    tail = _tail_bound_rel(q_max, coeffs.cutoff, mu, alpha)
    return PullbackCheck(float(rel[worst]), tail, len(points), points[worst])
