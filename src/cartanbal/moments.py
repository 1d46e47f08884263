"""Exact moment ratio of the canonical defining polynomial N on a domain.

The normalized moment

    M(s) = integral_Omega N^s dV / integral_Omega N^0 dV

is a rational function of s: writing c_j = 1 + (j-1)a/2 and block lengths
L_j = b + 1 + a(r-j), the Gamma-quotient product telescopes (after pairing
the Gamma arguments across j and r+1-j, the exponent gaps become the
integers L_j) into

    M(s) = prod_{j=1..r} prod_{t=0..L_j-1} (c_j + t) / (s + c_j + t).

The denominator has sum(L_j) = dim factors, M(0) = 1 exactly, and the
underlying integral converges precisely for s > -1 (the binding factor is
the j=1, t=0 one, with c_1 = 1).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import prod

from .catalog import CartanDomain
from .exactnum import FactoredRational

__all__ = ["MomentRatio", "block_lengths", "moment_ratio", "moment_converges"]


def block_lengths(dom: CartanDomain) -> tuple[int, ...]:
    """L_j = b + 1 + a(r-j) for j = 1..r; these sum to dim."""
    return tuple(dom.b + 1 + dom.a * (dom.r - j) for j in range(1, dom.r + 1))


class MomentRatio(namedtuple("MomentRatio", "domain as_rational block_lengths")):
    """M(s) as a FactoredRational in the variable s, normalized to 1 at s=0."""

    __slots__ = ()

    def eval_at(self, s) -> Fraction:
        return self.as_rational.eval_at(s)


def _block_roots(dom: CartanDomain) -> tuple:
    """The dim poles c_j + t of M, j-major, with t < L_j; an int wherever integral."""
    roots = []
    for j, length in enumerate(block_lengths(dom), start=1):
        c_j = Fraction(2 + (j - 1) * dom.a, 2)  # 1 + (j-1)a/2
        c_j = c_j.numerator if c_j.denominator == 1 else c_j
        roots += [c_j + t for t in range(length)]
    return tuple(roots)


def moment_ratio(dom: CartanDomain) -> MomentRatio:
    """The exact M(s) of the domain."""
    roots = _block_roots(dom)
    ratio = FactoredRational(prod(roots), (), [(1, c) for c in roots], var="s")
    return MomentRatio(dom, ratio, block_lengths(dom))


def moment_converges(dom: CartanDomain, s) -> bool:
    """Integrability of N^s on the domain: s > -1 for every family."""
    return Fraction(s) > -1
