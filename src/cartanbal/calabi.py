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
times the multinomial |mz|!/prod_i mz_i!.  As
sum_{|mz|=n} (n!/prod_i mz_i!) |z^mz|^2 = |z|^(2n), the pullback sum is the
power sum of the float slice matrix [|mz|, mw] at (|z|^2, |w|^2), contracted
over |mz| once per distinct |z|^2 and over mw once per sample.  Kept here
with the grid limits and _squared_norm: _rising_table, which builds it and
epsilon.py's coefficients, and _power_sum, which evaluates all three sums.
The exact entries are expanded only when read, and no request path reads
them.  _check_grid_samples builds and sizes the immersion CLI's check grid.

numpy is imported inside slice_matrix, verify_pullback, _check_grid_samples,
_rising_table and _power_sum, the only code that uses it, so build_immersion
alone loads no numpy.  The package loads this module on the first lookup of a
numeric name, and the CLI only in its immersion handler, so the exact code
paths load neither this module nor numpy.  Its records are namedtuples.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from typing import Iterable

from .balanced import HartogsSpec
from .errors import (
    BallNotAllowedError,
    SampleOutsideDomainError,
    _check_size,
    _Frozen,
)

__all__ = [
    "ImmersionCoefficients",
    "build_immersion",
    "PullbackCheck",
    "verify_pullback",
]


# size limits, shared with epsilon.py; each is checked before any array is built
_MAX_ENTRIES = 200_000  # exact entries of one build_immersion
_MAX_GRID_POINTS = 10_000  # points of one epsilon grid or pullback sample grid
_MAX_GRID_CELLS = 2_000_000  # floats in one evaluation array


def _multinomials(dim: int, degree_cap: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(m, |m|, |m|!/prod_i m_i!) for the multi-indices m of length dim with |m| <= degree_cap.

    Ordered by total degree, ties broken reverse-lexicographically (compare
    the reversed tuples), so for dim=2: (0,0), (1,0), (0,1), (2,0), ...

    levels[n] lists the degree-n indices in order, the last entry ascending
    slowest; appending m_last to an index of degree n - m_last multiplies its
    multinomial by C(n, m_last).
    """
    levels = [[((n,), 1)] for n in range(degree_cap + 1)]
    for _ in range(dim - 1):
        levels = [[(head + (last,), multinomial * math.comb(n, last))
                   for last in range(n + 1) for head, multinomial in levels[n - last]]
                  for n in range(degree_cap + 1)]
    return [(index, n, multinomial)
            for n, level in enumerate(levels) for index, multinomial in level]


def _rising_row(scale: Fraction, s: Fraction, degree_cap: int) -> tuple[Fraction, ...]:
    """scale * rising(s, n)/n!, n = 0..degree_cap, by integer recurrences: one reduction each."""
    num, den = scale.numerator, scale.denominator
    row = []
    for n in range(degree_cap + 1):
        row.append(Fraction(num, den))
        num *= s.numerator + n * s.denominator
        den *= s.denominator * (n + 1)
    return tuple(row)


def _rising_table(weights, s, rows: int) -> np.ndarray:
    """Floats [n, k] = weights[k] * rising(s[k], n)/n!, n < rows, inf past the float range:
    one cumulative product down the weights stacked on the steps (s[k]+n-1)/n."""
    import numpy as np

    n = np.arange(1.0, rows)[:, None]
    with np.errstate(over="ignore"):
        return np.cumprod(np.vstack((weights, (n - 1.0 + s) / n)), axis=0)


def _float(x: Fraction) -> float:
    """float(x) for x > 0, or inf past the float range (float(x) raises there)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


class ImmersionCoefficients(_Frozen,
                            namedtuple("ImmersionCoefficients", "spec cutoff entry_count")):
    """Squared moduli of the Hartogs immersion components over a ball base.

    Pairs (z multi-index mz, w power mw) are truncated at |mz| + mw <= cutoff:
        entries[(mz, mw)] = s[mw][|mz|] * |mz|!/prod_i mz_i!,
        s[mw][n] = rising(alpha, mw)/mw! * rising(mu(alpha+mw), n)/n!.
    Each of the two views is computed on first read and cached:
    slice_matrix, the float (cutoff+1) x (cutoff+1) matrix [n, mw] of the
    slice factors s that verify_pullback sums, and entries (mw-major, then in
    _multinomials order), expanded from exact _rising_row rows of s.
    entry_count is the length of entries.  Even the float matrix waits for a
    reader, so a build alone (the immersion subcommand without a check)
    loads no numpy.  Immutable, views included: the cache is the instance
    __dict__, which cached_property writes directly.
    """

    def __reduce__(self):
        """Pickle and copy through the constructor: a clone recomputes its views."""
        return ImmersionCoefficients, tuple(self)

    @cached_property
    def slice_matrix(self) -> np.ndarray:
        """Read-only floats [n, mw]: zero where n + mw > cutoff, inf past the float range.

        The fiber weights rising(alpha, mw)/mw! head the columns of one
        _rising_table in the steps of rising(mu(alpha+mw), n)/n!.
        """
        import numpy as np

        cap = self.cutoff
        mu, alpha = _float(self.spec.mu), _float(self.spec.alpha)
        mw = np.arange(cap + 1.0)
        with np.errstate(over="ignore"):
            weights = _rising_table([1.0], [alpha], cap + 1)[:, 0]
            matrix = _rising_table(weights, mu * (alpha + mw), cap + 1)
        matrix[mw[:, None] + mw > cap] = 0.0
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def entries(self) -> dict[tuple[tuple[int, ...], int], Fraction]:
        spec, cap, d = self.spec, self.cutoff, self.spec.base.dim
        terms = _multinomials(d, cap)  # by degree: the first C(c+d, d) have |m| <= c
        rows = (_rising_row(weight, spec.mu * (spec.alpha + mw), cap - mw)
                for mw, weight in enumerate(_rising_row(Fraction(1), spec.alpha, cap)))
        return {(index, mw): row[degree] * multinomial
                for mw, row in enumerate(rows)
                for index, degree, multinomial in terms[:math.comb(len(row) - 1 + d, d)]}


def build_immersion(spec: HartogsSpec, degree_cap: int) -> ImmersionCoefficients:
    """The truncated immersion of a ball-base Hartogs domain, size-checked.

    Refuses a non-ball base and a cap or dimension past 200,000 entries;
    builds no coefficient, since each view of ImmersionCoefficients is
    computed on first read.
    """
    if not spec.base.is_ball:
        raise BallNotAllowedError(
            f"immersion coefficients need a ball base, got {spec.base.label}"
        )
    degree_cap = operator.index(degree_cap)
    if degree_cap < 0:
        raise ValueError(f"degree_cap must be >= 0, got {degree_cap}")
    d = spec.base.dim
    # C(cap+d+1, d+1) is at least its d=1 value and, for cap >= 1, its cap=1
    # value d+2; refusing on those first keeps the exact count small
    at_d1 = (degree_cap + 1) * (degree_cap + 2) // 2
    _check_size("degree_cap", degree_cap, at_d1, "entries even at d=1", _MAX_ENTRIES)
    if degree_cap >= 1:
        _check_size("d", d, d + 2, "entries even at degree cap 1", _MAX_ENTRIES)
    count = math.comb(degree_cap + d + 1, d + 1)
    _check_size("degree_cap", degree_cap, count, "entries", _MAX_ENTRIES)
    return ImmersionCoefficients(spec, degree_cap, count)


PullbackCheck = namedtuple("PullbackCheck", "max_rel_error tail_bound samples_checked worst_sample")


def _squared_norm(z, d: int) -> float:
    """|z|^2 of a point of C^d: a scalar for d=1, else a sequence of d coordinates."""
    if d == 1 and not isinstance(z, (tuple, list)):
        return abs(complex(z)) ** 2
    if isinstance(z, numbers.Number):
        raise SampleOutsideDomainError(f"z must have {d} coordinates, got the scalar {z!r}")
    z = tuple(map(complex, z))
    if len(z) != d:
        raise SampleOutsideDomainError(f"z must have {d} coordinates, got {len(z)}")
    return sum([abs(part) ** 2 for part in z])


def _power_sum(coef: np.ndarray, bases) -> np.ndarray:
    """sum_e coef[e, ...] * prod_i b_i^(e_i) at every row b of bases.

    coef is dense with one axis per variable and zeros off the support;
    bases is (npoints, k), k <= coef.ndim, and the leading k axes of coef are
    contracted one per base column, so the result is
    (npoints,) + coef.shape[k:].  einsum without optimize never calls BLAS,
    whose unpinned thread pool makes these small products many times slower.
    """
    import numpy as np

    bases = np.asarray(bases, dtype=float)
    out = np.einsum("k...,sk->s...", coef, bases[:, 0, None] ** np.arange(coef.shape[0]))
    for axis in range(1, bases.shape[1]):
        powers = bases[:, axis, None] ** np.arange(coef.shape[axis])
        out = np.einsum("sk...,sk->s...", out, powers)
    return out


def _t_star(mu: float) -> float:
    """The positive root of (1-t)^mu = t, by bisection: (1-t)^mu - t is decreasing.

    Stops at the float fixed point, where the midpoint equals an end, or
    after 200 halvings, whichever comes first; a step past the fixed point
    would change neither end.
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if (1.0 - mid) ** mu - mid > 0:
            lo = mid
        else:
            hi = mid
    return lo


def _tail_bound_rel(q: float, cap: int, mu: float, alpha: float) -> float:
    """Bound sum of neglected coefficients against a geometric majorant.

    Every truncated term is <= (coefficient sum at total degree n) * q^n, and
    the generating function of those sums is ((1-t)^mu - t)^(-alpha), finite
    for t below the positive root t* of (1-t)^mu = t.  For any t0 in (q, t*)
    each degree-n sum is <= F(t0) t0^(-n), so the tail above degree cap is
    <= F(t0) (q/t0)^(cap+1) / (1 - q/t0); t0 is optimized over a small grid.
    The candidates are formed in logs, so a bound past the float range is inf.

    The target value ((1-|z|^2)^mu - |w|^2)^(-alpha) is >= 1 everywhere on
    the domain, so this absolute bound is also a relative one.
    """
    if q == 0.0:
        return 0.0  # every omitted term has degree >= 1 and vanishes
    t_star = _t_star(mu)
    if q >= t_star:
        return math.inf
    best = math.inf
    for frac in (0.25, 0.5, 0.75, 0.9):
        t0 = q + (t_star - q) * frac
        ratio = q / t0
        log_f = -alpha * math.log((1.0 - t0) ** mu - t0)  # log F(t0)
        best = min(best, log_f + (cap + 1) * math.log(ratio) - math.log1p(-ratio))
    try:
        return math.exp(best)
    except OverflowError:
        return math.inf


def _check_pullback_size(samples: int, cap: int, d: int) -> None:
    """ValueError when a pullback check of this many samples is too large.

    Per sample the check touches cap+1 cells of each power-sum array and d
    coordinates in _squared_norm, so it takes samples x max(cap+1, d) cells.
    """
    cells = samples * max(cap + 1, d)
    _check_size("samples", samples, cells, f"cells at degree cap {cap}, d={d}", _MAX_GRID_CELLS)


def _check_grid_samples(spec: HartogsSpec, rmax: float, n: int, cap: int) -> list:
    """Size-checked samples ((r/sqrt(d),)*d, w), r and w on np.linspace(0, rmax, n),
    with w^2 < 0.9 (1-r^2)^mu (a margin that keeps the tail small); an inf mu is
    left for verify_pullback to refuse."""
    import numpy as np

    d = spec.base.dim
    _check_size("check_grid", f"{rmax}:{n}", n * n, "samples", _MAX_GRID_POINTS)
    mu = _float(spec.mu)
    radii = np.linspace(0.0, rmax, n).tolist()
    grid = [(r, w) for r in radii for w in radii if w**2 < 0.9 * (1.0 - r**2) ** mu]
    _check_pullback_size(len(grid), cap, d)
    return [((r / d**0.5,) * d, w) for r, w in grid]


def verify_pullback(coeffs: ImmersionCoefficients, samples: Iterable) -> PullbackCheck:
    """Compare the truncated coefficient sum against ((1-|z|^2)^mu-|w|^2)^(-alpha).

    Each sample is (z, w) with z a scalar (d=1) or a coordinate tuple.  Points
    must lie strictly inside the domain, and a call takes at most 2,000,000 /
    max(cap+1, d) of them.  Every (mz, mw) term counts, yet no entry is
    expanded: as sum_{|mz|=n} (n!/prod_i mz_i!) |z^mz|^2 = |z|^(2n), the sum is
    the power sum of coeffs.slice_matrix at (|z|^2, |w|^2).  _power_sum
    contracts its n axis once per distinct |z|^2, so a check grid of radii
    pays (cap+1)^2 per radius, not per sample; the mw axis is then summed per
    sample, in chunks whose two (samples x cap+1) arrays hold at most
    2,000,000 floats.
    The returned tail_bound is the analytic truncation bound, relative to the
    target value and valid at every sample; the measured error stays below it
    (up to float roundoff).  Past the float range, mu is a ValueError naming
    mu, a target one naming alpha, and a slice factor one naming both.
    """
    import numpy as np

    spec = coeffs.spec
    d = spec.base.dim
    cap = coeffs.cutoff
    mu, alpha = _float(spec.mu), _float(spec.alpha)
    if not math.isfinite(mu):
        raise ValueError(f"mu={mu}: the fiber exponent leaves the float range; lower mu")
    points = list(samples)
    if not points:
        raise ValueError("verify_pullback needs at least one sample")
    _check_pullback_size(len(points), cap, d)
    slots, which, ys = {}, [], []  # slots numbers the distinct |z|^2 in order of appearance
    for z, w in points:
        x = _squared_norm(z, d)
        y = abs(complex(w)) ** 2
        if not (x < 1.0 and y < (1.0 - x) ** mu):
            raise SampleOutsideDomainError(
                f"sample z={z!r}, w={w!r} lies outside |w|^2 < (1-|z|^2)^mu < 1"
            )
        which.append(slots.setdefault(x, len(slots)))
        ys.append(y)
    x, which, y = np.array(list(slots)), np.array(which), np.array(ys)  # x: the distinct |z|^2
    del slots, ys  # the per-sample lists go before the chunk arrays are built
    n_mu = ((1.0 - x) ** mu)[which]
    with np.errstate(over="ignore"):
        target = (n_mu - y) ** (-alpha)
    if not np.isfinite(target).all():
        raise ValueError(
            f"alpha={alpha}: the target ((1-|z|^2)^mu - |w|^2)^(-alpha) leaves the float"
            " range at a sample; lower alpha or the sample radius"
        )
    factors = coeffs.slice_matrix
    if not np.isfinite(factors).all():
        raise ValueError(
            f"mu={mu}, alpha={alpha}: a slice factor of the immersion leaves the float range;"
            " lower mu or alpha"
        )
    # the n axis once per distinct |z|^2, then the mw axis per sample
    by_x = _power_sum(factors, x[:, None])  # [distinct |z|^2, mw]
    powers = np.arange(cap + 1.0)
    step = max(1, _MAX_GRID_CELLS // (2 * (cap + 1)))
    total = np.concatenate([np.einsum("sk,sk->s", by_x[which[lo:lo + step]],
                                      y[lo:lo + step, None] ** powers)
                            for lo in range(0, len(points), step)])
    rel = np.abs(total - target) / target
    worst = int(np.argmax(rel))
    tail = _tail_bound_rel(float(max(x.max(), (y / n_mu).max())), cap, mu, alpha)
    return PullbackCheck(float(rel[worst]), tail, len(points), points[worst])
