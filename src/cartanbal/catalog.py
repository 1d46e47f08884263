"""Classification catalog of the irreducible bounded symmetric domains.

Six families are supported, keyed by rank r and the two further integer
invariants (a, b) of the classification:

    TypeI(m, n), 1 <= m <= n   r = m,      a = 2, b = n - m,  dim = m n
    TypeII(n),   n >= 1        r = n,      a = 1, b = 0,      dim = n(n+1)/2
    TypeIII(n),  n >= 2        r = [n/2],  a = 4, b = 0 or 2, dim = n(n-1)/2
    TypeIV(n),   n >= 3        r = 2,      a = n - 2, b = 0,  dim = n
    TypeV16                    r = 2,      a = 6, b = 4,      dim = 16
    TypeVI27                   r = 3,      a = 8, b = 0,      dim = 27

The genus is defined by gamma = (r-1)a + b + 2 and every entry satisfies the
dimension identity dim = r(b+1) + a r(r-1)/2.  Rank-one entries are complex
hyperbolic balls; TypeI(1, d) is the canonical ball constructor, and the
stored value of a is immaterial whenever r = 1.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from enum import Enum

from .errors import DomainParseError, InvalidSizeError, _check_size

__all__ = [
    "Family",
    "CartanDomain",
    "make_domain",
    "ball",
    "parse_domain",
    "enumerate_catalog",
]

# checked before any domain is built: cap 1,000 gives 4,638 domains in about 0.03 s
_MAX_DIM_CAP = 1_000


class Family(str, Enum):
    TYPE_I = "I"
    TYPE_II = "II"
    TYPE_III = "III"
    TYPE_IV = "IV"
    TYPE_V = "V"
    TYPE_VI = "VI"

    @property
    def size_count(self) -> int:
        return {"I": 2, "II": 1, "III": 1, "IV": 1, "V": 0, "VI": 0}[self.value]


class CartanDomain(namedtuple("CartanDomain", "family sizes r a b gamma dim")):
    """One catalog entry with its derived invariants.

    A namedtuple: equality, hashing, ordering and _asdict() are those of the
    fields (family, sizes, r, a, b, gamma, dim), so a domain equals the plain
    tuple of its fields.  The CLI renders a domain value as its label.
    """

    __slots__ = ()

    @property
    def is_ball(self) -> bool:
        """Rank one means the domain is the complex hyperbolic ball."""
        return self.r == 1

    @property
    def label(self) -> str:
        if self.sizes:
            return f"{self.family.value}:{','.join(str(s) for s in self.sizes)}"
        return self.family.value

    def __str__(self) -> str:
        return self.label


def _invariants(family: Family, sizes: tuple[int, ...]) -> tuple[int, int, int, int]:
    """Return (r, a, b, dim) for a validated family/size combination."""
    if family is Family.TYPE_I:
        m, n = sizes
        if not 1 <= m <= n:
            raise InvalidSizeError(f"TypeI requires 1 <= m <= n, got m={m}, n={n}")
        return m, 2, n - m, m * n
    if family is Family.TYPE_II:
        (n,) = sizes
        if n < 1:
            raise InvalidSizeError(f"TypeII requires n >= 1, got n={n}")
        return n, 1, 0, n * (n + 1) // 2
    if family is Family.TYPE_III:
        (n,) = sizes
        if n < 2:
            raise InvalidSizeError(f"TypeIII requires n >= 2, got n={n}")
        return n // 2, 4, 0 if n % 2 == 0 else 2, n * (n - 1) // 2
    if family is Family.TYPE_IV:
        (n,) = sizes
        if n < 3:
            raise InvalidSizeError(f"TypeIV requires n >= 3, got n={n}")
        return 2, n - 2, 0, n
    if family is Family.TYPE_V:
        return 2, 6, 4, 16
    return 3, 8, 0, 27


def make_domain(family: Family | str, sizes=()) -> CartanDomain:
    """Construct a catalog entry, validating the size constraints.

    Raises InvalidSizeError naming the violated constraint, including a wrong
    number of sizes for the family.
    """
    fam = Family(family)
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != fam.size_count:
        raise InvalidSizeError(
            f"Type{fam.value} takes {fam.size_count} size(s), got {len(sizes)}"
        )
    r, a, b, dim = _invariants(fam, sizes)
    gamma = (r - 1) * a + b + 2
    dom = CartanDomain(fam, sizes, r, a, b, gamma, dim)
    # Combinatorial identity tying dim to (r, a, b); holds by construction.
    assert dom.dim == r * (b + 1) + a * r * (r - 1) // 2
    return dom


def ball(d: int) -> CartanDomain:
    """Complex hyperbolic ball of dimension d, realized as TypeI(1, d)."""
    if d < 1:
        raise InvalidSizeError(f"ball dimension must be >= 1, got {d}")
    return make_domain(Family.TYPE_I, (1, d))


def parse_domain(text: str) -> CartanDomain:
    """Parse strings like "I:2,3", "II:4", "IV:5", "V", "VI"."""
    head, sep, tail = text.strip().partition(":")
    try:
        fam = Family(head)
    except ValueError:
        raise DomainParseError(
            f"unknown family {head!r}; expected one of I, II, III, IV, V, VI"
        ) from None
    if not sep:
        sizes: tuple[int, ...] = ()
    else:
        try:
            sizes = tuple(int(p) for p in tail.split(","))
        except ValueError:
            raise DomainParseError(f"sizes in {text!r} must be integers") from None
    if len(sizes) != fam.size_count:
        raise DomainParseError(
            f"Type{fam.value} takes {fam.size_count} size(s), got {text!r}"
        )
    return make_domain(fam, sizes)


def enumerate_catalog(dim_cap: int) -> list[CartanDomain]:
    """All constructible domains of dimension <= dim_cap, deterministic order.

    Entries are ordered by family and then by size tuple.  Distinct catalog
    entries may share their invariants (low-dimensional coincidences such as
    TypeII(1) and TypeI(1,1) both being the disc are kept as separate rows).
    """
    dim_cap = operator.index(dim_cap)
    if dim_cap < 1:
        raise ValueError(f"dim_cap must be a positive integer, got {dim_cap}")
    _check_size("dim_cap", dim_cap, dim_cap, "catalog dimensions", _MAX_DIM_CAP)
    out: list[CartanDomain] = []
    for m in range(1, dim_cap + 1):
        if m * m > dim_cap:
            break
        for n in range(m, dim_cap // m + 1):
            out.append(make_domain(Family.TYPE_I, (m, n)))
    n = 1
    while n * (n + 1) // 2 <= dim_cap:
        out.append(make_domain(Family.TYPE_II, (n,)))
        n += 1
    n = 2
    while n * (n - 1) // 2 <= dim_cap:
        out.append(make_domain(Family.TYPE_III, (n,)))
        n += 1
    for n in range(3, dim_cap + 1):
        out.append(make_domain(Family.TYPE_IV, (n,)))
    if dim_cap >= 16:
        out.append(make_domain(Family.TYPE_V))
    if dim_cap >= 27:
        out.append(make_domain(Family.TYPE_VI))
    return out
