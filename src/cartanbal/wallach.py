"""Wallach set membership and projective-inducedness predicates.

For a domain of rank r with invariant a, the admissible weights of the
weighted Bergman construction form

    W = {0, a/2, 2(a/2), ..., (r-1)a/2}  union  ((r-1)a/2, infinity),

a finite arithmetic set of step a/2 together with the open half line above
its largest element.  Rank one collapses W to {0} union (0, infinity).

A multiple beta*g_B of the Bergman metric is projectively induced exactly
when beta*gamma lies in W minus {0}; a Hartogs metric alpha*g(mu) over base
Omega is projectively induced exactly when (alpha+m)*mu lies in W minus {0}
for every integer m >= 0.  Since (alpha+m)*mu is increasing in m and all
sufficiently large values land in the half line, only finitely many m need
an explicit membership check.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING

from .catalog import CartanDomain
from .errors import BallNotAllowedError, NonpositiveParameterError

if TYPE_CHECKING:  # HartogsSpec lives in balanced; only moduli are used here
    from .balanced import HartogsSpec

__all__ = [
    "WallachSet",
    "wallach_set",
    "cartan_projectively_induced",
    "hartogs_projective_failure",
    "hartogs_projectively_induced",
    "corollary_witness",
]


class WallachSet(namedtuple("WallachSet", "discrete continuous_threshold")):
    """Discrete points (Fractions) plus the open half line above continuous_threshold."""

    __slots__ = ()

    def __contains__(self, eta) -> bool:
        eta = Fraction(eta)
        return eta > self.continuous_threshold or eta in self.discrete


def wallach_set(dom: CartanDomain) -> WallachSet:
    step = Fraction(dom.a, 2)
    discrete = tuple(k * step for k in range(dom.r))
    return WallachSet(discrete, discrete[-1])


def cartan_projectively_induced(dom: CartanDomain, beta) -> bool:
    """True iff beta*gamma is an admissible nonzero weight."""
    beta = Fraction(beta)
    if beta <= 0:
        raise NonpositiveParameterError(f"beta must be positive, got {beta}")
    eta = beta * dom.gamma
    return eta != 0 and eta in wallach_set(dom)


def hartogs_projective_failure(spec: "HartogsSpec") -> int | None:
    """Smallest integer m >= 0 with (alpha+m)*mu not admissible, else None.

    Only m with (alpha+m)*mu <= (r-1)a/2 can fail; everything above the
    threshold lies in the continuous part of W.
    """
    w = wallach_set(spec.base)
    m = 0
    while (spec.alpha + m) * spec.mu <= w.continuous_threshold:
        eta = (spec.alpha + m) * spec.mu
        if eta == 0 or eta not in w.discrete:
            return m
        m += 1
    return None


def hartogs_projectively_induced(spec: "HartogsSpec") -> bool:
    """True iff (alpha+m)*mu is an admissible nonzero weight for all m >= 0."""
    return hartogs_projective_failure(spec) is None


def corollary_witness(dom: CartanDomain) -> tuple[Fraction, Fraction]:
    """(mu0, alpha_min) for the canonical fiber-weight choice on a non-ball.

    mu0 = gamma/(dim+1) makes the Hartogs metric Einstein; every
    alpha >= alpha_min = (r-1)(dim+1)a/(2*gamma), the continuous Wallach
    threshold over mu0, then gives a projectively induced metric.  At
    alpha_min itself, alpha_min*mu0 = (r-1)a/2 is the top discrete Wallach
    point, which is nonzero precisely because r >= 2.  alpha_min is the least
    alpha of that continuous ray, not always the least inducing alpha (II:3
    also induces at alpha = 7/8, as 7/8*mu0 = 1/2 is a discrete point); the
    corollary's alpha > dim + 1 lies on the ray.
    """
    if dom.is_ball:
        raise BallNotAllowedError(
            f"{dom.label} is a ball; the canonical-weight witness is defined "
            "only for rank >= 2"
        )
    mu0 = Fraction(dom.gamma, dom.dim + 1)
    return mu0, wallach_set(dom).continuous_threshold / mu0
