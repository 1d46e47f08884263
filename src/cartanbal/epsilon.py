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

Each first Beta argument is an integer, so 1/B(n+1, c) = c rising(c+1, n)/n!
and each array is one calabi._rising_table.  The tests check the norms against
nested quadrature of the unfactorised integrals and mpmath Beta values.

Divergent norms are never reported as numbers.  Each builder tests its
setting's exact integrability threshold (alpha > d for the ball; alpha > 2
and alpha*mu > 1 for the Hartogs disc) and raises TrivialSpaceError there, so
every WeightedBasisNorms is convergent and the evaluators check only that
they were given the right setting's norms.

The epsilon function of the weight is

    epsilon(p) = weight(p) * sum_m |basis_m(p)|^2 / ||basis_m||^2,

so on the ball epsilon(z) = (1-|z|^2)^alpha sum |z^m|^2/||z^m||^2, and over
the disc epsilon(z, w) = (N^mu - |w|^2)^alpha sum |z^j w^m|^2/||z^j w^m||^2.
Each sum is a power sum in the squared moduli.  A ball norm is a radial
row entry r_|m| over the multinomial |m|!/prod_i m_i!, and those multinomials
sum the |z^m|^2 to |z|^(2n), so the ball sum is sum_n t^n / r_n in t = |z|^2.
Each setting keeps one dense array of coefficients (the row 1/r_n, the
Hartogs [j, m] reciprocal norms); calabi's _power_sum sums one variable
and _read_samples reads the points, as in the pullback.  A Hartogs grid is
the product of nz values of t = |z|^2 and nw values of u = |w|^2/(1-t)^mu,
so |w|^(2m) = (1-t)^(mu m) u^m: _hartogs_values sums the [j, m] array over
j once per t, scales it by (1-t)^(mu m) and sums over m once per u, two
power sums over nz and nw points instead of one over nz * nw.  A point is
the 1 x 1 grid at u = |w|^2/(1-|z|^2)^mu.
Constancy of epsilon over a grid is the numerical signature of balancedness:
constancy_verdict reads a spread below 1e-5 as constant, above 1e-3 as
non-constant, and between them as inconclusive.  Omitted terms are positive,
so with the absolute tail bound T each true value lies in [v, v + T];
EpsilonReport.verdict is inconclusive unless the spread moved by T / max
either way reads the same.  The Hartogs tail bound is summed in the same
t and u, as a (t, fiber power) x (u, fiber power) contraction of two log
tables (_hartogs_tail_bound).  Sizes (norms, grid points, evaluation arrays) are
checked against module limits before any norm is built, each by the array
it builds: a ball row counts degree_cap+1 norms for either d, and a Hartogs
grid the larger of its z-side power table, nz x (cap_z+1), and the tail
bound's worst case, every point summed again in logs, nz x nw x (cap_w+2).
The ball(2) norms dict, C(degree_cap+2, 2) entries, is checked when it is
first read.

numpy, the only numeric dependency, is imported inside the functions that call
it, not at module level, so it loads on the first numeric call.
The module itself loads on the first lookup of a numeric name in the package,
or in the CLI's epsilon handlers, so the exact code paths never load it.
EpsilonReport and DiscGrid are namedtuples; the CLI spreads report._asdict().
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from functools import cached_property

from .calabi import (
    _MAX_GRID_CELLS,
    _MAX_GRID_POINTS,
    _multinomials,
    _power_sum,
    _read_samples,
    _rising_table,
)
from .errors import SampleOutsideDomainError, TrivialSpaceError, _check_size, _Checked, _Frozen

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

# a shifted tail-bound sum below this may have lost every term to underflow
_TINY_SUM = 1e-250


class WeightedBasisNorms(_Frozen):
    """Squared monomial norms for one weighted Bergman setting.

    setting is "ball" (params d, alpha; keys are int degrees for d=1 and
    multi-index tuples for d=2) or "hartogs-disc" (params mu, alpha; keys are
    (z degree, w degree) pairs).  _array holds the read-only coefficients the
    sums read: the ball row 1/r_n with ||z^m||^2 = r_|m| m1! m2! / |m|!, or
    the Hartogs [j, m] reciprocal norms; norms is the {key: norm} dict, in the
    builder's key order, expanded on first read, and at d=2 refused before
    it expands past 25,000 multi-indices.  Outside the float range (a
    coefficient above max, a norm at or below 1/max) either one is refused.
    The builders refuse a divergent setting, so every instance is convergent.
    Immutable, views included; equality is identity, as a tuple would compare
    arrays.  Only the two norm builders create instances; pickles and copies
    go through the constructor.
    """

    def __init__(self, setting: str, params: tuple, _array: np.ndarray):
        vars(self).update(setting=setting, params=params, _array=_array)
        _array.flags.writeable = False
        if not math.isfinite(_array.max()):  # every coefficient is positive
            raise self._range_error("a coefficient")

    def __reduce__(self):
        return WeightedBasisNorms, (self.setting, self.params, self._array)

    def _range_error(self, what: str) -> ValueError:
        caps = tuple(n - 1 for n in self._array.shape)
        label, weight = _LABEL[self.setting]
        # a first coefficient past max leaves no cap, not even 0, that fits
        knob = "the cap" if math.isfinite(self._array.flat[0]) else weight
        return ValueError(f"{label.format(caps, *self.params)}: {what} leaves the float range;"
                          f" lower {knob}")

    @cached_property
    def norms(self) -> dict:
        rows = (1.0 / self._array).tolist()
        if self.setting == "hartogs-disc":  # the w degree ascends slowest
            norms = {(j, m): rows[j][m] for m in range(len(rows[0])) for j in range(len(rows))}
        elif self.params[0] == 1:
            norms = dict(enumerate(rows))
        else:
            cap = len(rows) - 1
            _check_size("degree_cap", cap, math.comb(cap + 2, 2), "norms", _MAX_NORMS)
            norms = {m: rows[n] / multinomial
                     for m, n, multinomial in _multinomials(2, cap)}
        if not min(norms.values()) > 1.0 / sys.float_info.max:
            raise self._range_error(f"the smallest squared norm, {min(norms.values()):.3g},")
        return norms


# each setting's parameter label and its weight parameters
_LABEL = {"ball": ("degree_cap={0[0]} with d={1}, alpha={2}", "alpha"),
          "hartogs-disc": ("caps={0} with mu={1}, alpha={2}", "mu or alpha")}


def _require_setting(norms: WeightedBasisNorms, setting: str) -> None:
    if norms.setting != setting:
        raise ValueError(f"needs {setting} norms, got {norms.setting} norms")


class EpsilonReport(namedtuple("EpsilonReport", "grid values min_value max_value spread"
                               " truncation_degree tail_bound")):
    """Truncated epsilon on a grid; tail_bound is absolute and holds at every point.

    grid holds the (|z|, |w|) pairs, with |w| = 0 on the ball; values holds
    epsilon at each, and spread is (max_value - min_value) / max_value.
    Every omitted term is positive, so each true value lies in [v, v + tail_bound].
    verdict applies constancy_verdict to the spread moved by tail_bound / max_value
    either way, and is "inconclusive" unless both agree (always so for an infinite tail).
    """

    __slots__ = ()

    @property
    def verdict(self) -> str:
        slack = self.tail_bound / self.max_value
        low = constancy_verdict(self.spread - slack)
        return low if low == constancy_verdict(self.spread + slack) else "inconclusive"


class DiscGrid(_Checked, namedtuple("DiscGrid", "nz nw t_max u_max")):
    """Interior evaluation grid for the Hartogs disc setting.

    t = |z|^2 runs over nz points in [0, t_max]; the fiber coordinate is
    sampled through u = |w|^2 / (1-t)^mu over nw points in [0, u_max], which
    keeps every point strictly inside the domain and keeps the truncation
    tail controlled by max(t_max, u_max).
    """

    __slots__ = ()

    def __new__(cls, nz: int = 8, nw: int = 8, t_max: float = 0.35, u_max: float = 0.5):
        nz, nw = operator.index(nz), operator.index(nw)
        if not (nz >= 1 and nw >= 1):
            raise ValueError("grid needs at least one point per axis")
        if not (0 <= t_max < 1 and 0 <= u_max < 1):
            raise SampleOutsideDomainError(
                "grid bounds must satisfy 0 <= t_max < 1 and 0 <= u_max < 1"
            )
        _check_size("grid", f"{nz}x{nw}", nz * nw, "points", _MAX_GRID_POINTS)
        return super().__new__(cls, nz, nw, t_max, u_max)


def _report(grid, values: np.ndarray, caps: tuple, tail: float) -> EpsilonReport:
    vmax, vmin = float(values.max()), float(values.min())
    return EpsilonReport(tuple(grid), tuple(values.tolist()), vmin, vmax, (vmax - vmin) / vmax,
                         caps, tail)


def constancy_verdict(spread: float) -> str:
    """Map a measured spread to "constant", "non-constant" or "inconclusive"."""
    if spread < SPREAD_CONSTANT:
        return "constant"
    if spread > SPREAD_NONCONSTANT:
        return "non-constant"
    return "inconclusive"


def _xlogy(x, y) -> np.ndarray:
    """x log y with 0 log 0 = 0 and log 0 = -inf, raising no numpy warning."""
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


# ---------------------------------------------------------------------------
# ball norms and epsilon


def ball_monomial_norms(d: int, alpha, degree_cap: int) -> WeightedBasisNorms:
    """Squared monomial norms on the ball; TrivialSpaceError if alpha <= d.

    d=1: ||z^m||^2 = pi * int t^m (1-t)^(alpha-2) dt = pi B(m+1, alpha-1),
         keys m = 0..degree_cap.
    d=2: after the angular and simplex reduction (t_i = rho s_i),
         ||z^m||^2 = pi^2 * int u^m1 (1-u)^m2 du * int rho^(|m|+1) (1-rho)^(alpha-3) drho
                   = pi^2 B(m1+1, m2+1) B(|m|+2, alpha-2),
         keys all multi-indices with |m| <= degree_cap.  B(m1+1, m2+1) is
         m1! m2!/(n+1)!, n = |m|, so r_n = pi^2 B(n+2, alpha-2)/(n+1).
    For either d, 1/r_n = rising(alpha-d, d)/pi^d * rising(alpha, n)/n!: the
    array is that row of degree_cap+1 coefficients, one per degree.
    """
    alpha, degree_cap = float(alpha), operator.index(degree_cap)
    if d not in (1, 2):
        raise ValueError(f"d must be 1 or 2, got {d}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if degree_cap < 0:
        raise ValueError(f"degree_cap must be >= 0, got {degree_cap}")
    _check_size("degree_cap", degree_cap, degree_cap + 1, "norms", _MAX_NORMS)
    if alpha <= d:
        raise TrivialSpaceError(f"alpha must exceed d = {d} for a nontrivial space, got {alpha}")
    weight = math.prod(alpha - k for k in range(1, d + 1)) / math.pi**d  # rising(alpha-d, d)/pi^d
    row = _rising_table([weight], [alpha], degree_cap + 1)[:, 0]
    return WeightedBasisNorms("ball", (d, alpha), row)


def epsilon_point_ball(norms: WeightedBasisNorms, z) -> float:
    """epsilon at one point z of the ball (d coordinates, or a scalar at d=1), from norms."""
    _require_setting(norms, "ball")
    d, alpha = norms.params
    t, _ = _read_samples([(z, 0.0)], d, 1.0)
    return float((1.0 - t[0]) ** alpha * _power_sum(norms._array, t)[0])


def epsilon_ball(
    d: int, alpha, grid_rmax: float, degree_cap: int, grid_points: int = 25
) -> EpsilonReport:
    """epsilon along a radial grid on the ball; TrivialSpaceError if alpha <= d.

    epsilon is radial, a power sum in t = |z|^2 alone, so for d=2 a grid
    point r stands for every z with |z| = r.  The degree-n term
    a_n = t^n / r_n obeys the exact ratio a_(n+1)/a_n = t (n+alpha)/(n+1)
    (from the Beta-integral norms), which is decreasing in n, so the tail
    above the cap is bounded by the last kept term times a geometric series.
    """
    import numpy as np

    alpha = float(alpha)
    degree_cap, grid_points = operator.index(degree_cap), operator.index(grid_points)
    if not 0 < grid_rmax < 1:
        raise SampleOutsideDomainError(f"grid_rmax must lie in (0, 1), got {grid_rmax}")
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    _check_size("grid_points", grid_points, grid_points, "points", _MAX_GRID_POINTS)
    cells = grid_points * (degree_cap + 2)
    _check_size("degree_cap", degree_cap, cells, f"cells on {grid_points} points", _MAX_GRID_CELLS)
    norms = ball_monomial_norms(d, alpha, degree_cap)
    radii = np.linspace(0.0, grid_rmax, grid_points)
    t = radii**2
    weight = (1.0 - t) ** alpha
    values = weight * _power_sum(norms._array, t)
    last_term = norms._array[-1] * t**degree_cap
    rho = t * (degree_cap + alpha) / (degree_cap + 1)
    tail = math.inf if rho.max() >= 1 else float(np.max(weight * last_term * rho / (1 - rho)))
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
    the t integral needs mu(alpha+m) > 1 for all m >= 0, i.e. alpha*mu > 1;
    otherwise TrivialSpaceError.
    The coefficients are the fiber row (alpha-2)/pi^2 rising(alpha-1, m)/m! times
    c_m rising(c_m+1, j)/j!, c_m = mu(alpha+m) - 1, as 1/B(j+1, c) = c rising(c+1, j)/j!.
    """
    import numpy as np

    mu, alpha = float(mu), float(alpha)
    caps = tuple(map(operator.index, caps))
    cap_z, cap_w = caps
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be finite and positive, got {mu}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if cap_z < 0 or cap_w < 0:
        raise ValueError(f"caps must be nonnegative, got {caps}")
    _check_size("caps", (cap_z, cap_w), (cap_z + 1) * (cap_w + 1), "norms", _MAX_NORMS)
    if alpha <= 2 or alpha * mu <= 1:
        raise TrivialSpaceError(
            f"norms diverge for mu={mu}, alpha={alpha} (needs alpha > 2 and alpha*mu > 1)"
        )
    fiber = _rising_table([(alpha - 2.0) / math.pi**2], [alpha - 1.0], cap_w + 1)[:, 0]
    with np.errstate(over="ignore"):  # inf past the float range, which the record refuses
        c = mu * (alpha + np.arange(cap_w + 1.0)) - 1.0
        coef = _rising_table(fiber * c, c + 1.0, cap_z + 1)  # [j, m]
    return WeightedBasisNorms("hartogs-disc", (mu, alpha), coef)


def epsilon_point_hartogs(norms: WeightedBasisNorms, z, w) -> float:
    """epsilon at one point (z, w) of the Hartogs disc domain: the 1 x 1 case of the grid."""
    _require_setting(norms, "hartogs-disc")
    mu, alpha = norms.params
    t, y = _read_samples([(z, w)], 1, mu)
    n_mu = (1.0 - t) ** mu
    return float((n_mu[0] - y[0]) ** alpha * _hartogs_values(norms, t, y / n_mu)[0, 0])


def epsilon_hartogs_disc(
    mu, alpha, grid: DiscGrid | None = None, caps: tuple[int, int] = (80, 80)
) -> EpsilonReport:
    """epsilon over an interior grid of the Hartogs disc domain."""
    import numpy as np

    grid = grid or DiscGrid()
    caps = tuple(map(operator.index, caps))
    # the largest arrays: the z-side powers and the tail bound's (t, u, fiber power)
    # re-sum in logs, built only where shifted sums underflow, but at worst at every point
    cells = max(grid.nz * (caps[0] + 1), grid.nz * grid.nw * (caps[1] + 2))
    _check_size("caps", caps, cells, f"cells on a {grid.nz}x{grid.nw} grid", _MAX_GRID_CELLS)
    norms = hartogs_disc_norms(mu, alpha, caps)
    mu, alpha = norms.params
    if (1.0 - grid.t_max) ** mu == 0.0:
        raise SampleOutsideDomainError(f"(1-t_max)^mu is 0 in floats: t_max={grid.t_max}, mu={mu}")
    t = np.linspace(0.0, grid.t_max, grid.nz)
    u = np.linspace(0.0, grid.u_max, grid.nw)
    n_mu = (1.0 - t) ** mu
    y = n_mu[:, None] * u  # [t, u], row-major nz x nw
    values = (n_mu[:, None] - y) ** alpha * _hartogs_values(norms, t, u)
    tail = _hartogs_tail_bound(t, u, norms)
    pairs = zip(np.repeat(np.sqrt(t), grid.nw).tolist(), np.sqrt(y).ravel().tolist())
    return _report(pairs, values.ravel(), caps, tail)


def _hartogs_values(norms: WeightedBasisNorms, t, u) -> np.ndarray:
    """The [t, u] table of sum_{j,m} coef[j, m] t^j y^m, y = (1-t)^mu u, unweighted:
    the one Hartogs evaluator, for a grid's distinct t and u or one point's."""
    import numpy as np

    mu, coef = norms.params[0], norms._array
    scale = ((1.0 - t) ** mu)[:, None] ** np.arange(coef.shape[1], dtype=float)  # [t, m]
    return _power_sum((_power_sum(coef, t) * scale).T, u).T


def _hartogs_tail_bound(t, u, norms: WeightedBasisNorms) -> float:
    """Largest absolute bound on the epsilon truncation error over the grid t x u.

    t holds the nz distinct |z|^2 and u the nw distinct |w|^2/(1-t)^mu, so the
    points are (t_i, y_ik) with y_ik = u_k (1-t_i)^mu.  Terms are
    a(j, m) = coef[j, m] t^j y^m, coef = norms._array at the caps (cap_z, cap_w),
    coef[j, m] = 1/(pi^2 B(m+1, alpha-2) B(j+1, c_m)) and c_m = mu(alpha+m) - 1.
    Each point sums one piece per fiber power m = 0..cap_w+1:

    * m <= cap_w: the j tail past cap_z, geometric with ratio t (j+1+c_m)/(j+1),
      decreasing in j; if that ratio is >= 1 at j = cap_z+1, the whole j sum
      c_m (1-t)^(-c_m-1) instead (Newton's binomial series);
    * m = cap_w+1: the full j sums b_m = y^m c_m (1-t)^(-c_m-1) / (pi^2 B(m+1, alpha-2))
      of all m > cap_w, geometric with the decreasing ratio
      u (m+alpha-1)/(m+1) * c_(m+1)/c_m, or inf if that is >= 1 at any u.

    The weight ((1-t)^mu - y)^alpha = (1-t)^(mu alpha) (1-u)^alpha and
    y^m = u^m (1-t)^(mu m) are folded in before any log is taken, so the
    (1-t)^(c_m+1) a piece carries cancels in a whole j sum and stays as
    (c_m+1) log1p(-t) in a geometric j tail.  Each piece's log is then the sum
    of two tables: an (nz x cap_w+2) one in (t, m), the j ratios and the Newton
    alternative included, and an (nw x cap_w+2) one in (u, m), m log u +
    alpha log1p(-u).  _xlogy gives 0 log 0 = 0 and log 0 = -inf, so t = 0 and
    u = 0 need no special case.  The pieces read coef's first and last rows,
    stepped once more in logs, which cannot overflow:
    coef[cap_z+1, m] = coef[cap_z, m] (1 + c_m/(cap_z+1)), and
    coef[0, cap_w+1] = coef[0, cap_w] (alpha+cap_w-1)/(cap_w+1) c_(cap_w+1)/c_cap_w.

    Only the two tables are exponentiated, each row shifted by its own
    maximum so that it peaks at exactly 1; one einsum contracts them over m,
    and the row maxima are added back in logs.  A shifted sum below 1e-250
    may have lost every term to underflow, as its rows can peak at different
    m; it enters as 1e-250, a ceiling on the true sum.  If such a ceiling
    is the largest value, every point below 1e-250 is summed again in logs
    from its own rows, so the bound never falls below the point-by-point
    sum.  A grid's origin sums to exactly 0, but its ceiling
    is the largest only where every bound is tiny, so the usual grids skip
    the re-sum.  That is the only (points x fiber powers) array, at worst
    nz x nw x (cap_w+2); without it the peak at 32 x 32, caps (80, 80), is
    0.16 MB.
    """
    import numpy as np

    (mu, alpha), coef = norms.params, norms._array
    cap_z, cap_w = (n - 1 for n in coef.shape)
    m = np.arange(cap_w + 2.0)
    c = mu * (alpha + m) - 1.0
    fiber_ratio = u * (m[-1] + alpha - 1.0) / (m[-1] + 1.0) * (c[-1] + mu) / c[-1]
    if not (fiber_ratio < 1.0).all():
        return math.inf  # a divergent fiber sum at some u
    log_u = _xlogy(m, u[:, None]) + alpha * np.log1p(-u[:, None])  # [u, m]
    log_u[:, -1] -= np.log1p(-fiber_ratio)
    t = t[:, None]
    log_head = np.log(coef[0])
    step = math.log((alpha + cap_w - 1.0) / (cap_w + 1.0)) + math.log(c[-1] / c[-2])
    log_t = np.tile(np.append(log_head, log_head[-1] + step), (len(t), 1))  # [t, m]
    ratio = t * (cap_z + 2 + c[:-1])
    ratio /= cap_z + 2
    converges = ratio < 1.0
    log_first = _xlogy(cap_z + 1, t) + (np.log(coef[-1]) + np.log1p(c[:-1] / (cap_z + 1)))
    log_first += (c[:-1] + 1.0) * np.log1p(-t)
    log_first -= np.log1p(-ratio, where=converges, out=np.zeros_like(ratio))
    np.copyto(log_t[:, :-1], log_first, where=converges)
    shift_t = log_t.max(axis=1, keepdims=True)
    shift_u = log_u.max(axis=1, keepdims=True)
    log_t -= shift_t
    log_u -= shift_u
    base = shift_t + shift_u.T  # [t, u]
    sums = np.einsum("im,km->ik", np.exp(log_t), np.exp(log_u))
    logs = np.log(np.maximum(sums, _TINY_SUM)) + base
    best = logs.argmax()
    if sums.flat[best] < _TINY_SUM:  # the largest ceiling may stand for a flushed sum
        i, k = np.nonzero(sums < _TINY_SUM)
        pieces = log_t[i] + log_u[k]
        top = np.maximum(pieces.max(axis=1), -sys.float_info.max)
        pieces -= top[:, None]
        with np.errstate(divide="ignore"):
            logs[i, k] = np.log(np.exp(pieces, out=pieces).sum(axis=1)) + top + base[i, k]
        best = logs.argmax()
    return float(np.exp(logs.flat[best]))
