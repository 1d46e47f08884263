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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .catalog import CartanDomain
from .exactnum import FactoredRational

__all__ = ["MomentRatio", "block_lengths", "moment_ratio", "moment_converges"]


def block_lengths(dom: CartanDomain) -> tuple[int, ...]:
    """L_j = b + 1 + a(r-j) for j = 1..r; these sum to dim."""
    return tuple(dom.b + 1 + dom.a * (dom.r - j) for j in range(1, dom.r + 1))


@dataclass(frozen=True)
class MomentRatio:
    domain: CartanDomain
    as_rational: FactoredRational  # in the variable s, normalized to 1 at s=0
    block_lengths: tuple[int, ...]

    def eval_at(self, s) -> Fraction:
        return self.as_rational.eval_at(s)


@lru_cache(maxsize=256)
def moment_ratio(dom: CartanDomain) -> MomentRatio:
    """The exact M(s) of the domain; cached per (frozen) domain."""
    lengths = block_lengths(dom)
    scale = Fraction(1)
    denom = []
    for j, length in enumerate(lengths, start=1):
        c_j = 1 + Fraction((j - 1) * dom.a, 2)
        for t in range(length):
            scale *= c_j + t
            denom.append((Fraction(1), c_j + t))
    ratio = FactoredRational(scale, (), denom, var="s")
    return MomentRatio(dom, ratio, lengths)


def moment_converges(dom: CartanDomain, s) -> bool:
    """Integrability of N^s on the domain: s > -1 for every family."""
    return Fraction(s) > -1
