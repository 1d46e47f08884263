"""Exception hierarchy shared by all cartanbal modules, and the record mixins they share."""

__all__ = [
    "CartanbalError",
    "InvalidSizeError",
    "DomainParseError",
    "NonpositiveParameterError",
    "PoleError",
    "BallNotAllowedError",
    "PreconditionError",
    "InternalConsistencyError",
    "SampleOutsideDomainError",
    "TrivialSpaceError",
]


class CartanbalError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSizeError(CartanbalError, ValueError):
    """A domain family was given sizes outside its admissible range."""


class DomainParseError(CartanbalError, ValueError):
    """A domain string could not be parsed (syntax, not size range)."""


class NonpositiveParameterError(CartanbalError, ValueError):
    """A metric parameter that must be positive was not."""


class PoleError(CartanbalError, ZeroDivisionError):
    """A factored rational function was evaluated at a denominator root."""


class BallNotAllowedError(CartanbalError, ValueError):
    """An operation defined only for rank >= 2 domains got a ball."""


class PreconditionError(CartanbalError, ValueError):
    """A stated precondition failed; the message names the inequality."""


class InternalConsistencyError(CartanbalError, AssertionError):
    """Two independent computation routes disagreed.  Must never fire."""


class SampleOutsideDomainError(CartanbalError, ValueError):
    """A numeric sample point lies outside the domain of definition."""


class TrivialSpaceError(CartanbalError, ValueError):
    """The weighted Hilbert space contains no nonzero analytic functions."""


def _check_size(name: str, value, count: int, unit: str, limit: int) -> None:
    """ValueError naming the parameter when a request needs more than limit units."""
    if count > limit:
        raise ValueError(f"{name}={value} needs {count:,} {unit}, over the limit of {limit:,}")


class _Checked:
    """Namedtuple mixin: _make, and so _replace, build through the validating __new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Frozen:
    """Mixin refusing attribute writes and deletes after construction."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__
