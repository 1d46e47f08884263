"""Numerical epsilon-function evaluation on rank-one domains from closed-form norms.

Squared monomial norms are taken against the plain Euclidean volume form
on coordinates (so all constants below are tied to that normalization):

  ball(d), d in {1, 2}:   ||z^m||^2 = int (1-|z|^2)^(alpha-(d+1)) |z^m|^2 dV
  Hartogs over the disc:  ||z^j w^m||^2 =
      int (N^mu - |w|^2)^(alpha-3) N^(2 mu - 2) |z|^(2j) |w|^(2m) dV,
      N = 1 - |z|^2, over {|z| < 1, |w|^2 < N^mu}.

Angular integration is exact (monomials are orthogonal; tests spot-check the
cross terms by quadrature), which reduces every norm to iterated radial
integrals in t = |z|^2 and rho = |w|^2.  The Hartogs fiber variable is
normalized by rho = N^mu * u, which maps the fiber integral to a fixed Beta
integral in u and leaves a pure power of N for the base integral.  Every
radial integral is then int_0^1 t^p (1-t)^e dt = B(p+1, e+1), so each norm
is pi^k times a product of Beta values:

  ball(1):       pi   B(m+1, alpha-1)
  ball(2):       pi^2 B(m1+1, m2+1) B(m1+m2+2, alpha-2)
  Hartogs disc:  pi^2 B(m+1, alpha-2) B(j+1, mu(alpha+m)-1)

Each first Beta argument is an integer, so the norms are read from _log_beta
tables: B(n+1, c) = B(n, c) n/(n+c) summed in logs.  The tests check them
against nested quadrature of the unfactorised integrals and mpmath Beta values.

Divergent norms are never reported as numbers.  Each setting tests its exact
integrability threshold once, where its norms are built (alpha > d for the
ball; alpha > 2 and alpha*mu > 1 for the Hartogs disc), and every evaluator
raises that setting's one TrivialSpaceError (or, for another setting's norms,
ValueError) through _require_convergent.

The epsilon function of the weight is

    epsilon(p) = weight(p) * sum_m |basis_m(p)|^2 / ||basis_m||^2,

so on the ball epsilon(z) = (1-|z|^2)^alpha sum |z^m|^2/||z^m||^2, and over
the disc epsilon(z, w) = (N^mu - |w|^2)^alpha sum |z^j w^m|^2/||z^j w^m||^2.
Each sum is a power sum in the squared moduli, with coefficients the dense
inverse-norm array that each norms object derives once; calabi._power_sum
evaluates it at one point, on a whole grid, and on the ball's tail slice.
Constancy of epsilon over a grid is the numerical signature of balancedness:
constancy_verdict reads a spread below 1e-5 as constant, above 1e-3 as
non-constant, and between them as inconclusive.  Omitted terms are positive,
so with the absolute tail bound T each true value lies in [v, v + T];
EpsilonReport.verdict is inconclusive unless the spread moved by T / max
either way reads the same.  The Hartogs tail bound is one array expression
over (grid points x fiber powers).  Sizes (norms, grid points, evaluation
arrays) are checked against module limits before any norm is built.

numpy, the only numeric dependency, is imported inside the functions that call
it (WeightedBasisNorms._inverse, the norm builders, the grid functions, the
tail bound and the two log helpers), not at module level, so it loads on the
first numeric call and never on the exact code paths.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .calabi import (
    _MAX_GRID_CELLS,
    _MAX_GRID_POINTS,
    _as_point,
    _dense,
    _power_sum,
    multi_index_enumerate,
)
from .errors import SampleOutsideDomainError, TrivialSpaceError, _check_size

__all__ = [
    "WeightedBasisNorms",
    "EpsilonReport",
    "DiscGrid",
    "ball_monomial_norms",
    "epsilon_ball",
    "epsilon_point_ball",
    "hartogs_disc_norms",
    "epsilon_hartogs_disc",
    "epsilon_point_hartogs",
    "constancy_verdict",
    "SPREAD_CONSTANT",
    "SPREAD_NONCONSTANT",
]

SPREAD_CONSTANT = 1e-5
SPREAD_NONCONSTANT = 1e-3

# size limit checked before any norm is built; the grid limits live in calabi.py
_MAX_NORMS = 25_000  # norms of one setting


@dataclass(frozen=True)
class WeightedBasisNorms:
    """Squared monomial norms for one weighted Bergman setting.

    setting is "ball" (params d, alpha; keys are int degrees for d=1 and
    multi-index tuples for d=2) or "hartogs-disc" (params mu, alpha; keys are
    (z degree, w degree) pairs).  divergent means the defining integrals do
    not converge; then norms is empty.
    """

    setting: str
    params: tuple
    norms: dict
    divergent: bool

    @cached_property
    def _inverse(self) -> np.ndarray:
        """1/norm as a dense array, one axis per variable, zero off the keys."""
        import numpy as np

        return _dense(list(self.norms), 1.0 / np.fromiter(self.norms.values(), float))


_DIVERGENT = {
    "ball": "alpha must exceed d = {} for a nontrivial space, got {}",
    "hartogs-disc": "norms diverge for mu={}, alpha={} (needs alpha > 2 and alpha*mu > 1)",
}


def _require_convergent(norms: WeightedBasisNorms, setting: str) -> None:
    if norms.setting != setting:
        raise ValueError(f"needs {setting} norms, got {norms.setting} norms")
    if norms.divergent:
        raise TrivialSpaceError(_DIVERGENT[norms.setting].format(*norms.params))


@dataclass(frozen=True)
class EpsilonReport:
    """Truncated epsilon on a grid; tail_bound is absolute and holds at every point.

    Every omitted term is positive, so each true value lies in [v, v + tail_bound].
    verdict applies constancy_verdict to the spread moved by tail_bound / max_value
    either way, and is "inconclusive" unless both agree (always so for an infinite tail).
    """

    grid: tuple  # (|z|, |w|) pairs; |w| = 0 for ball settings
    values: tuple
    min_value: float
    max_value: float
    spread: float  # (max - min) / max
    truncation_degree: tuple
    tail_bound: float

    @property
    def verdict(self) -> str:
        slack = self.tail_bound / self.max_value
        low = constancy_verdict(self.spread - slack)
        return low if low == constancy_verdict(self.spread + slack) else "inconclusive"


@dataclass(frozen=True)
class DiscGrid:
    """Interior evaluation grid for the Hartogs disc setting.

    t = |z|^2 runs over nz points in [0, t_max]; the fiber coordinate is
    sampled through u = |w|^2 / (1-t)^mu over nw points in [0, u_max], which
    keeps every point strictly inside the domain and keeps the truncation
    tail controlled by max(t_max, u_max).
    """

    nz: int = 8
    nw: int = 8
    t_max: float = 0.35
    u_max: float = 0.5

    def __post_init__(self):
        if not (self.nz >= 1 and self.nw >= 1):
            raise ValueError("grid needs at least one point per axis")
        if not (0 <= self.t_max < 1 and 0 <= self.u_max < 1):
            raise SampleOutsideDomainError(
                "grid bounds must satisfy 0 <= t_max < 1 and 0 <= u_max < 1"
            )
        _check_size("grid", f"{self.nz}x{self.nw}", self.nz * self.nw, "points", _MAX_GRID_POINTS)


def _report(grid, values: np.ndarray, caps: tuple, tail: float) -> EpsilonReport:
    values = values.tolist()
    vmax, vmin = max(values), min(values)
    return EpsilonReport(tuple(grid), tuple(values), vmin, vmax, (vmax - vmin) / vmax, caps, tail)


def constancy_verdict(spread: float) -> str:
    """Map a measured spread to "constant", "non-constant" or "inconclusive"."""
    if spread < SPREAD_CONSTANT:
        return "constant"
    if spread > SPREAD_NONCONSTANT:
        return "non-constant"
    return "inconclusive"


def _log_beta(n_max: int, c) -> np.ndarray:
    """log B(n+1, c) for n = 0..n_max along axis 0, for every c > 0 of the array c.

    B(1, c) = 1/c and B(n+1, c) = B(n, c) n/(n+c), so the table is -log c plus
    the cumulative sum of -log1p(c/k), k = 1..n.
    """
    import numpy as np

    c = np.asarray(c, dtype=float)
    k = np.arange(1.0, n_max + 1.0).reshape(-1, *(1,) * c.ndim)
    return np.cumsum(np.concatenate([-np.log(c)[None], -np.log1p(c / k)]), axis=0)


def _xlogy(x, y) -> np.ndarray:
    """x log y with 0 log 0 = 0 and log 0 = -inf, raising no numpy warning."""
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


# ---------------------------------------------------------------------------
# ball norms and epsilon


def _check_invertible(norms, setting: str) -> None:
    """ValueError when the smallest norm has no finite float reciprocal."""
    import numpy as np

    # compare with 1/max rather than multiply by max: the check cannot overflow
    if not norms.min() > 1.0 / float(np.finfo(float).max):
        raise ValueError(
            f"{setting}: the smallest squared norm is {norms.min():.3g}, whose"
            " reciprocal leaves the float range; lower the cap"
        )


def ball_monomial_norms(d: int, alpha, degree_cap: int) -> WeightedBasisNorms:
    """Squared monomial norms on the ball, or a divergence flag if alpha <= d.

    d=1: ||z^m||^2 = pi * int t^m (1-t)^(alpha-2) dt = pi B(m+1, alpha-1),
         keys m = 0..degree_cap.
    d=2: after the angular and simplex reduction (t_i = rho s_i),
         ||z^m||^2 = pi^2 * int u^m1 (1-u)^m2 du * int rho^(|m|+1) (1-rho)^(alpha-3) drho
                   = pi^2 B(m1+1, m2+1) B(|m|+2, alpha-2),
         keys all multi-indices with |m| <= degree_cap.
    """
    import numpy as np

    alpha = float(alpha)
    if d not in (1, 2):
        raise ValueError(f"d must be 1 or 2, got {d}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if degree_cap < 0:
        raise ValueError(f"degree_cap must be >= 0, got {degree_cap}")
    count = degree_cap + 1 if d == 1 else math.comb(degree_cap + 2, 2)
    _check_size("degree_cap", degree_cap, count, "norms", _MAX_NORMS)
    if alpha <= d:
        return WeightedBasisNorms("ball", (d, alpha), {}, True)
    if d == 1:
        keys = range(degree_cap + 1)
        log_beta = _log_beta(degree_cap, alpha - 1.0)
    else:
        keys = multi_index_enumerate(2, degree_cap)
        m1, m2 = np.array(keys).T
        log_beta = (_log_beta(degree_cap, np.arange(1.0, degree_cap + 2.0))[m1, m2]
                    + _log_beta(degree_cap + 1, alpha - 2.0)[m1 + m2 + 1])
    norms = math.pi**d * np.exp(log_beta)
    _check_invertible(norms, f"degree_cap={degree_cap} with d={d}, alpha={alpha}")
    return WeightedBasisNorms("ball", (d, alpha), dict(zip(keys, norms.tolist())), False)


def epsilon_point_ball(norms: WeightedBasisNorms, z) -> float:
    """epsilon at one point of the ball, from precomputed norms."""
    _require_convergent(norms, "ball")
    d, alpha = norms.params
    moduli = [abs(p) ** 2 for p in _as_point(z, d)]
    t = sum(moduli)
    if not t < 1.0:
        raise SampleOutsideDomainError(f"|z|^2 = {t} is not < 1")
    return (1.0 - t) ** alpha * float(_power_sum(norms._inverse, [moduli])[0])


def epsilon_ball(
    d: int, alpha, grid_rmax: float, degree_cap: int, grid_points: int = 25
) -> EpsilonReport:
    """epsilon along a radial grid on the ball; TrivialSpaceError if alpha <= d.

    For d=2 the grid runs along the diagonal |z_1| = |z_2|.  The truncation
    tail at |z|^2 = t obeys the exact term ratio
    a_(n+1)/a_n = t (n+alpha)/(n+1) (from the Beta-integral norms), which is
    decreasing in n, so the tail above the cap is bounded by the last kept
    degree-slice times a geometric series.
    """
    import numpy as np

    alpha = float(alpha)
    if not 0 < grid_rmax < 1:
        raise SampleOutsideDomainError(f"grid_rmax must lie in (0, 1), got {grid_rmax}")
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    _check_size("grid_points", grid_points, grid_points, "points", _MAX_GRID_POINTS)
    cells = grid_points * (degree_cap + 2)
    _check_size("degree_cap", degree_cap, cells, f"cells on {grid_points} points", _MAX_GRID_CELLS)
    norms = ball_monomial_norms(d, alpha, degree_cap)
    _require_convergent(norms, "ball")
    radii = np.linspace(0.0, grid_rmax, grid_points)
    t = radii**2
    bases = np.outer(t, [1.0] if d == 1 else [0.5, 0.5])
    inv = norms._inverse
    top_degree = np.indices(inv.shape).sum(axis=0) == degree_cap
    weight = (1.0 - t) ** alpha
    values = weight * _power_sum(inv, bases)
    last_slice = _power_sum(np.where(top_degree, inv, 0.0), bases)
    rho = t * (degree_cap + alpha) / (degree_cap + 1)
    tail = math.inf if rho.max() >= 1 else float(np.max(weight * last_slice * rho / (1 - rho)))
    return _report([(r, 0.0) for r in radii.tolist()], values, (degree_cap,), tail)


# ---------------------------------------------------------------------------
# Hartogs disc norms and epsilon


def hartogs_disc_norms(mu, alpha, caps: tuple[int, int]) -> WeightedBasisNorms:
    """Squared norms of z^j w^m over the Hartogs domain on the disc.

    Normalizing the fiber by rho = (1-t)^mu u factorizes each norm exactly:

        ||z^j w^m||^2 = pi^2 * int_0^1 u^m (1-u)^(alpha-3) du
                              * int_0^1 t^j (1-t)^(mu(alpha+m)-2) dt
                      = pi^2 B(m+1, alpha-2) B(j+1, mu(alpha+m)-1).

    The divergence thresholds are exact: the u integral needs alpha > 2 and
    the t integral needs mu(alpha+m) > 1 for all m >= 0, i.e. alpha*mu > 1.
    """
    import numpy as np

    mu, alpha = float(mu), float(alpha)
    cap_z, cap_w = caps
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be finite and positive, got {mu}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if cap_z < 0 or cap_w < 0:
        raise ValueError(f"caps must be nonnegative, got {caps}")
    _check_size("caps", (cap_z, cap_w), (cap_z + 1) * (cap_w + 1), "norms", _MAX_NORMS)
    if alpha <= 2 or alpha * mu <= 1:
        return WeightedBasisNorms("hartogs-disc", (mu, alpha), {}, True)
    c = mu * (alpha + np.arange(cap_w + 1.0)) - 1.0
    log_beta = _log_beta(cap_w, alpha - 2.0)[:, None] + _log_beta(cap_z, c).T  # [m, j]
    keys = [(j, m) for m in range(cap_w + 1) for j in range(cap_z + 1)]
    norms = math.pi**2 * np.exp(log_beta).ravel()
    _check_invertible(norms, f"caps={caps} with mu={mu}, alpha={alpha}")
    return WeightedBasisNorms("hartogs-disc", (mu, alpha), dict(zip(keys, norms.tolist())), False)


def epsilon_point_hartogs(norms: WeightedBasisNorms, z, w) -> float:
    """epsilon at one point (z, w) of the Hartogs disc domain."""
    _require_convergent(norms, "hartogs-disc")
    mu, alpha = norms.params
    t = abs(complex(z)) ** 2
    y = abs(complex(w)) ** 2
    if not (t < 1.0 and y < (1.0 - t) ** mu):
        raise SampleOutsideDomainError(
            f"(z, w) with |z|^2={t}, |w|^2={y} lies outside the domain"
        )
    return ((1.0 - t) ** mu - y) ** alpha * float(_power_sum(norms._inverse, [(t, y)])[0])


def epsilon_hartogs_disc(
    mu, alpha, grid: DiscGrid | None = None, caps: tuple[int, int] = (80, 80)
) -> EpsilonReport:
    """epsilon over an interior grid of the Hartogs disc domain."""
    import numpy as np

    grid = grid or DiscGrid()
    caps = tuple(map(operator.index, caps))
    cells = grid.nz * grid.nw * (max(caps) + 2)
    _check_size("caps", caps, cells, f"cells on a {grid.nz}x{grid.nw} grid", _MAX_GRID_CELLS)
    norms = hartogs_disc_norms(mu, alpha, caps)
    _require_convergent(norms, "hartogs-disc")
    mu, alpha = norms.params
    if (1.0 - grid.t_max) ** mu == 0.0:
        raise SampleOutsideDomainError(f"(1-t_max)^mu is 0 in floats: t_max={grid.t_max}, mu={mu}")
    t = np.repeat(np.linspace(0.0, grid.t_max, grid.nz), grid.nw)  # row-major nz x nw grid
    n_mu = (1.0 - t) ** mu
    bases = np.column_stack([t, np.tile(np.linspace(0.0, grid.u_max, grid.nw), grid.nz) * n_mu])
    values = (n_mu - bases[:, 1]) ** alpha * _power_sum(norms._inverse, bases)
    tail = _hartogs_tail_bound(bases[:, 0], bases[:, 1], mu, alpha, *caps)
    return _report(map(tuple, np.sqrt(bases).tolist()), values, caps, tail)


def _hartogs_tail_bound(t, y, mu: float, alpha: float, cap_z: int, cap_w: int) -> float:
    """Largest absolute bound on the epsilon truncation error over the points (t, y).

    Terms are a(j, m) = t^j y^m / (pi^2 B(m+1, alpha-2) B(j+1, c_m)), c_m = mu(alpha+m) - 1.
    One (points x fiber powers 0..cap_w+1) array holds one piece per column:

    * m <= cap_w: the j tail past cap_z, geometric with ratio t (j+1+c_m)/(j+1),
      decreasing in j; if that ratio is >= 1 at j = cap_z+1, the whole j sum
      c_m (1-t)^(-c_m-1) instead (Newton's binomial series);
    * m = cap_w+1: the full j sums b_m = y^m c_m (1-t)^(-c_m-1) / (pi^2 B(m+1, alpha-2))
      of all m > cap_w, geometric with the decreasing ratio
      (y/(1-t)^mu) (m+alpha-1)/(m+1) * c_(m+1)/c_m, or inf if that is >= 1.

    Pieces are formed in logs with the weight ((1-t)^mu - y)^alpha folded in;
    _xlogy gives 0 log 0 = 0 and log 0 = -inf, so t = 0 and y = 0 need no special
    case.  B(m+1, alpha-2) and B(cap_z+2, c_m) are read from _log_beta tables.
    The pieces are updated in place, so at most three (points x powers) arrays live.
    """
    import numpy as np

    t, y = t[:, None], y[:, None]
    m = np.arange(cap_w + 2.0)
    c = mu * (alpha + m) - 1.0
    log_weight = _xlogy(alpha, (1.0 - t) ** mu - y) - 2.0 * math.log(math.pi)
    log_w = _xlogy(m, y)
    log_w += log_weight
    log_w -= _log_beta(cap_w + 1, alpha - 2.0)
    log_full = log_w + np.log(c)
    log_full -= (c + 1.0) * np.log1p(-t)
    log_first = log_w  # the first omitted term of each piece, in place
    log_first += _xlogy(cap_z + 1, t)
    log_first -= _log_beta(cap_z + 1, c)[-1]
    log_first[:, -1:] = log_full[:, -1:]
    ratio = t * (cap_z + 2 + c)
    ratio /= cap_z + 2
    ratio[:, -1:] = (
        y / (1.0 - t) ** mu * (m[-1:] + alpha - 1.0) / (m[-1:] + 1.0) * (c[-1:] + mu) / c[-1:]
    )
    converges = ratio < 1.0
    log_first -= np.log1p(np.negative(ratio, out=ratio), out=ratio, where=converges)
    log_full[:, -1] = np.inf  # a divergent fiber sum; the j sums of m <= cap_w stay
    np.copyto(log_full, log_first, where=converges)
    return float(np.exp(log_full, out=log_full).sum(axis=1).max())
