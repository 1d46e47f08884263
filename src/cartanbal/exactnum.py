"""Exact arithmetic for products of linear factors in one formal variable.

The central object is FactoredRational: a quantity

    scale * prod(numer factors) / prod(denom factors)

where each factor is a LinearFactor P*x + Q.  Inside a FactoredRational every
factor is a primitive integer pair: P and Q are coprime ints and P > 0.
Constancy of the rational function is then decided by multiset comparison:

  * the constructor accepts rational (slope, intercept) pairs and splits each
    one, once, into its primitive integer pair and a rational constant (an
    int or a Fraction is read as it is, any other rational through Fraction);
    the constants are accumulated as an integer numerator and denominator and
    become the single Fraction `scale` at the end;
  * one Counter holds each pair's signed exponent (+1 per numerator entry,
    -1 per denominator entry); its positive part is the numerator and its
    negative part the denominator, so common factors cancel.

After this normalization two proportional factors are literally equal, so a
FactoredRational is a constant function exactly when no factors remain, and
the constant is the scale.  The decision is sound for functions of one real
variable: a rational function that agrees with a constant on infinitely many
points (all of them, here) is identically that constant, and conversely a
nonempty reduced factorization has a zero or pole and cannot be constant.

Products, quotients, reciprocals and affine substitutions all build their
result with the constructor, so every value is normalized by one path.
Evaluation at a rational p/q works on the integers P*p + Q*q and builds one
Fraction.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import PoleError, _Checked, _Frozen

__all__ = [
    "parse_rational",
    "LinearFactor",
    "FactoredRational",
]

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(-?\d+)\s*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational; decimals are rejected."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(
            f"expected an exact rational like 3 or 3/4, got {text!r}"
            " (decimal notation is not accepted here)"
        )
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


class LinearFactor(_Checked, namedtuple("LinearFactor", "slope intercept")):
    """The affine function slope*x + intercept, slope nonzero.

    Inside a FactoredRational the pair is primitive: coprime ints with a
    positive slope.  Ordering, equality and hashing are those of the tuple.
    """

    __slots__ = ()

    def __new__(cls, slope, intercept):
        if slope == 0:
            raise ValueError("LinearFactor slope must be nonzero")
        return tuple.__new__(cls, (slope, intercept))

    def eval_at(self, x) -> Fraction:
        return self.slope * Fraction(x) + self.intercept

    def render(self, var: str = "x") -> str:
        s, i = self.slope, self.intercept
        head = var if s == 1 else ("-" + var if s == -1 else f"{s}{var}")
        if i == 0:
            return head
        sign = "+" if i > 0 else "-"
        return f"{head}{sign}{abs(i)}"


_EXACT_TYPES = (int, Fraction)


def _split(factor) -> tuple[LinearFactor, int, int]:
    """Split a rational (slope, intercept) pair as (g/d) * (P x + Q).

    P > 0 and gcd(P, Q) = 1; g is a nonzero integer and d a positive one.
    """
    slope, intercept = factor
    if type(slope) not in _EXACT_TYPES:
        slope = Fraction(slope)
    if type(intercept) not in _EXACT_TYPES:
        intercept = Fraction(intercept)
    if not slope:
        raise ValueError("LinearFactor slope must be nonzero")
    slope_den, intercept_den = slope.denominator, intercept.denominator
    d = lcm(slope_den, intercept_den)
    p = slope.numerator * (d // slope_den)
    q = intercept.numerator * (d // intercept_den)
    g = gcd(p, q) if p > 0 else -gcd(p, q)
    # the slope was checked above, so build the tuple without LinearFactor's own check
    return tuple.__new__(LinearFactor, (p // g, q // g)), g, d


class FactoredRational(_Frozen):
    """scale * prod(numer) / prod(denom), canonical and fully cancelled.

    The variable name is cosmetic (used for rendering only) and is excluded
    from equality; arithmetic keeps the left operand's name.
    """

    __slots__ = ("scale", "numer", "denom", "var")

    def __init__(self, scale, numer: Iterable = (), denom: Iterable = (), var: str = "x"):
        scale = Fraction(scale)
        if scale == 0:
            raise ValueError("FactoredRational scale must be nonzero")
        num, den = scale.numerator, scale.denominator
        exponents = Counter()
        for factor in numer:
            prim, g, d = _split(factor)
            exponents[prim] += 1
            num *= g
            den *= d
        for factor in denom:
            prim, g, d = _split(factor)
            exponents[prim] -= 1
            num *= d
            den *= g
        object.__setattr__(self, "scale", Fraction(num, den))
        object.__setattr__(self, "numer", tuple(sorted((+exponents).elements())))
        object.__setattr__(self, "denom", tuple(sorted((-exponents).elements())))
        object.__setattr__(self, "var", var)

    def __reduce__(self):
        """Pickle and copy through the constructor, which the slot state cannot bypass."""
        return FactoredRational, (self.scale, self.numer, self.denom, self.var)

    # -- algebra ---------------------------------------------------------

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        return FactoredRational(
            self.scale * other.scale, self.numer + other.numer, self.denom + other.denom, self.var
        )

    def reciprocal(self) -> "FactoredRational":
        return FactoredRational(1 / self.scale, self.denom, self.numer, self.var)

    def __truediv__(self, other: "FactoredRational") -> "FactoredRational":
        return self * other.reciprocal()

    def compose_affine(self, coeff, shift, var: str | None = None) -> "FactoredRational":
        """Substitute x -> coeff*x + shift (coeff nonzero).

        The factor P x + Q becomes the rational pair (P coeff, P shift + Q),
        which the constructor normalizes like any other input factor.
        """
        coeff, shift = Fraction(coeff), Fraction(shift)
        if coeff == 0:
            raise ValueError("affine substitution needs a nonzero slope")

        def substituted(factors):
            return [(p * coeff, p * shift + q) for p, q in factors]

        var = self.var if var is None else var
        return FactoredRational(self.scale, substituted(self.numer), substituted(self.denom), var)

    # -- evaluation and constancy ----------------------------------------

    def eval_at(self, x) -> Fraction:
        """Exact value at a rational point; PoleError at denominator roots."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        den = self.scale.denominator
        for f in self.denom:
            v = f.slope * p + f.intercept * q
            if v == 0:
                raise PoleError(
                    f"denominator factor ({f.render(self.var)}) vanishes at "
                    f"{self.var}={x}"
                )
            den *= v
        num = self.scale.numerator
        for f in self.numer:
            num *= f.slope * p + f.intercept * q
        excess = len(self.denom) - len(self.numer)
        if excess > 0:
            num *= q**excess
        else:
            den *= q**-excess
        return Fraction(num, den)

    def is_constant(self) -> tuple[bool, Fraction | None]:
        """(True, value) if the function is constant, else (False, None).

        By canonical cancellation: numerator and denominator share no factor,
        so the function is constant exactly when both are empty.
        """
        if not self.numer and not self.denom:
            return True, self.scale
        return False, None

    @property
    def numer_degree(self) -> int:
        return len(self.numer)

    @property
    def denom_degree(self) -> int:
        return len(self.denom)

    # -- equality, hashing, rendering ------------------------------------

    def _key(self):
        return (self.scale, self.numer, self.denom)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        parts = []
        if self.scale != 1 or not (self.numer or self.denom):
            parts.append(str(self.scale))
        if self.numer:
            parts.append("".join(f"({f.render(self.var)})" for f in self.numer))
        head = "*".join(parts) if parts else "1"
        if not self.denom:
            return head
        tail = "".join(f"({f.render(self.var)})" for f in self.denom)
        return f"{head}/{tail}"

    def __repr__(self) -> str:
        return f"FactoredRational({self})"

    def to_text(self) -> str:
        """Exact text form "num: [...]; den: [...]; scale: p/q"; tests/oracles.py parses it back."""
        num = ", ".join(f.render(self.var) for f in self.numer)
        den = ", ".join(f.render(self.var) for f in self.denom)
        return f"num: [{num}]; den: [{den}]; scale: {self.scale}"
