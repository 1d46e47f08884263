"""Flat reference implementations kept as test oracles (not collected).

factored_from_text parses FactoredRational.to_text back, the check on the
moment-ratio round_trip payload: no request path reads that form.

hartogs_tail_bound_flat is the Hartogs epsilon tail bound evaluated point by
point: one (points x fiber powers) array per piece, with no use of the
t x u product structure of the grid, which epsilon._hartogs_tail_bound
exploits.  The two share the series and the step rules but not the array
layout, so a slip in how the product form splits a piece's log between its
(t, fiber power) and (u, fiber power) tables shows as a mismatch.
"""

import math
import re

import numpy as np

from cartanbal.exactnum import FactoredRational, parse_rational

_TEXT_RE = re.compile(r"^num:\s*\[(.*)\];\s*den:\s*\[(.*)\];\s*scale:\s*(\S+)$")
_FACTOR_RE = re.compile(r"^\s*(-?\d+)?\s*\*?\s*([A-Za-z]\w*)\s*(?:([+-])\s*(\d+))?\s*$")


def factored_from_text(text: str) -> FactoredRational:
    """The FactoredRational whose to_text() is text, variable name included."""
    m = _TEXT_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a FactoredRational text form: {text!r}")

    var = "x"

    def parse_factors(blob: str) -> list[tuple[int, int]]:
        nonlocal var
        out = []
        for part in filter(None, (p.strip() for p in blob.split(","))):
            fm = _FACTOR_RE.match(part)
            if not fm:
                raise ValueError(f"bad factor {part!r} in {text!r}")
            slope = int(fm.group(1)) if fm.group(1) else 1
            var = fm.group(2)
            inter = int(fm.group(4) or 0)
            if fm.group(3) == "-":
                inter = -inter
            out.append((slope, inter))
        return out

    numer = parse_factors(m.group(1))
    denom = parse_factors(m.group(2))
    return FactoredRational(parse_rational(m.group(3)), numer, denom, var=var)


def _xlogy(x, y):
    """x log y with 0 log 0 = 0 and log 0 = -inf, raising no numpy warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def hartogs_tail_bound_flat(t, y, norms) -> float:
    """Largest absolute bound on the Hartogs epsilon truncation error over the points (t, y).

    t and y are flat arrays of the same length, one entry per point.  Terms
    are a(j, m) = coef[j, m] t^j y^m with coef = norms._array and
    c_m = mu(alpha+m) - 1.  Each point sums one piece per fiber power
    m = 0..cap_w+1: for m <= cap_w the j tail past cap_z, geometric with
    ratio t (j+1+c_m)/(j+1), or the whole j sum c_m (1-t)^(-c_m-1) if that
    ratio is >= 1 at j = cap_z+1; for m = cap_w+1 the full j sums of all
    m > cap_w, geometric with ratio (y/(1-t)^mu) (m+alpha-1)/(m+1) c_(m+1)/c_m,
    or inf if that is >= 1.  Each point's u = y/(1-t)^mu is read back once,
    and the weight ((1-t)^mu - y)^alpha = (1-t)^(mu alpha) (1-u)^alpha and
    y^m = u^m (1-t)^(mu m) are folded into the pieces before any log is taken:
    a piece carries (1-t)^(c_m+1), which cancels a whole j sum exactly and
    stays as (c_m+1) log1p(-t) in a geometric j tail.
    """
    (mu, alpha), coef = norms.params, norms._array
    cap_z, cap_w = (n - 1 for n in coef.shape)
    t, y = np.asarray(t, float)[:, None], np.asarray(y, float)[:, None]
    u = y / (1.0 - t) ** mu
    m = np.arange(cap_w + 2.0)
    c = mu * (alpha + m) - 1.0
    log_head = np.log(coef[0])
    step = math.log((alpha + cap_w - 1.0) / (cap_w + 1.0)) + math.log(c[-1] / c[-2])
    log_w = _xlogy(m, u) + alpha * np.log1p(-u)
    log_full = log_w + np.append(log_head, log_head[-1] + step)
    log_first = log_w + _xlogy(cap_z + 1, t) + (c + 1.0) * np.log1p(-t)
    log_first[:, :-1] += np.log(coef[-1]) + np.log1p(c[:-1] / (cap_z + 1))
    log_first[:, -1:] = log_full[:, -1:]
    ratio = t * (cap_z + 2 + c) / (cap_z + 2)
    ratio[:, -1:] = u * (m[-1:] + alpha - 1.0) / (m[-1:] + 1.0) * (c[-1:] + mu) / c[-1:]
    converges = ratio < 1.0
    log_first -= np.log1p(-np.where(converges, ratio, 0.0))
    log_full[:, -1] = np.inf  # a divergent fiber sum; the j sums of m <= cap_w stay
    log_full = np.where(converges, log_first, log_full)
    return float(np.exp(log_full).sum(axis=1).max())
