"""First-principles moment ratios from the polar form of the volume (not collected).

In polar coordinates (Faraut & Korányi, J. Funct. Anal. 88, 1990; Hua) a
bounded symmetric domain of rank r with invariants (a, b) has

    integral_Omega f(N) dV = c * integral_[0,1]^r f(prod_i (1 - t_i))
                                 * prod_i t_i^b * prod_{i<j} |t_i - t_j|^a dt,

so the moment ratio M(s) = integral N^s dV / integral dV is I(s)/I(0) with

    I(s) = integral_[0,1]^r prod_i (1 - t_i)^s t_i^b prod_{i<j} |t_i - t_j|^a dt.

This route needs only (r, a, b): no block lengths, no shifted roots and no
Gamma quotient, so it shares no derivation with the telescoped product the
package builds.  Two exact integrators:

  * even a: expand prod_{i<j} (t_i - t_j)^a and integrate each monomial as a
    product of one-dimensional Beta integrals,
    integral_0^1 t^p (1-t)^s dt = p! / rising(s+1, p+1), exact at rational s;
  * any a, integer s >= 0: the integrand is symmetric, and on the ordered
    simplex 1 > t_1 > ... > t_r > 0 it equals the polynomial
    prod_i (1 - t_i)^s t_i^b prod_{i<j} (t_i - t_j)^a, integrated innermost
    variable first.  Odd a needs this route.

Nothing here imports cartanbal.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, factorial


def _mul(p: dict, q: dict) -> dict:
    """Product of two polynomials stored as {exponent tuple: coefficient}."""
    out = defaultdict(int)
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[tuple(x + y for x, y in zip(e1, e2))] += c1 * c2
    return {e: c for e, c in out.items() if c}


def _monomial(r: int, powers: dict) -> tuple:
    return tuple(powers.get(i, 0) for i in range(r))


def _vandermonde_power(r: int, a: int) -> dict:
    """prod_{i<j} (t_i - t_j)^a, expanded."""
    poly = {(0,) * r: 1}
    for i in range(r):
        for j in range(i + 1, r):
            pair = {_monomial(r, {i: a - k, j: k}): comb(a, k) * (-1) ** k for k in range(a + 1)}
            poly = _mul(poly, pair)
    return poly


def _rising(x: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(n):
        out *= x + k
    return out


def _beta_route(r: int, a: int, b: int, s: Fraction) -> Fraction:
    """I(s) up to an s-free constant, term by term over the expanded |Delta|^a (even a)."""
    if a % 2:
        raise ValueError(f"the Beta route needs an even a, got {a}")
    beta = {}  # integral_0^1 t^p (1-t)^s dt by exponent p

    def weight(p: int) -> Fraction:
        if p not in beta:
            beta[p] = Fraction(factorial(p)) / _rising(s + 1, p + 1)
        return beta[p]

    total = Fraction(0)
    for exps, coeff in _vandermonde_power(r, a).items():
        term = Fraction(coeff)
        for e in exps:
            term *= weight(e + b)
        total += term
    return total


def _simplex_route(r: int, a: int, b: int, s: int) -> Fraction:
    """I(s) / r!, integrated iteratively over the ordered simplex (integer s >= 0)."""
    if s != int(s) or s < 0:
        raise ValueError(f"the simplex route needs an integer s >= 0, got {s}")
    s = int(s)
    poly = _vandermonde_power(r, a)
    for i in range(r):
        one_minus = {_monomial(r, {i: k}): comb(s, k) * (-1) ** k for k in range(s + 1)}
        poly = _mul(poly, one_minus)
    poly = {tuple(e + b for e in exps): Fraction(c) for exps, c in poly.items()}
    # integrate t_r from 0 to t_{r-1}, then t_{r-1} from 0 to t_{r-2}, ...
    for k in range(r - 1, 0, -1):
        out = defaultdict(Fraction)
        for exps, c in poly.items():
            lifted = list(exps[:k])
            lifted[k - 1] += exps[k] + 1
            out[tuple(lifted)] += c / (exps[k] + 1)
        poly = out
    return sum(c / (exps[0] + 1) for exps, c in poly.items())


def polar_moment_ratio(r: int, a: int, b: int, s) -> Fraction:
    """M(s) = I(s)/I(0) from the polar density: the Beta route for even a,
    the simplex route (integer s >= 0 only) for odd a."""
    s = Fraction(s)
    route = _simplex_route if a % 2 else _beta_route
    return route(r, a, b, s) / route(r, a, b, Fraction(0))
