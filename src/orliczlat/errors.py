"""Exception types shared across the package, and the one input boundary.

The CLI maps these onto its exit-code contract: config problems exit 2,
budget overruns exit 3, failed invariant batteries exit 1.
Every outside value is read through :func:`coerce`, every integer by the
one rule :func:`as_int`, and every ``{"family": id, <params>}`` spec is
built by :func:`from_spec`, so an unreadable value is always an
:class:`InvalidInputError`.
"""

from __future__ import annotations

import decimal
import sys
from typing import Any, Callable, Mapping


class OrliczError(Exception):
    """Base class for all package errors."""


class InvalidInputError(OrliczError, ValueError):
    """An argument violates a documented precondition."""


class ConjugateInfiniteError(OrliczError):
    """The convex conjugate is +inf, as a float, at the requested point.

    Raised when no finite x has Phi'(x) >= y, so the supremum does not
    stabilise at any float (a bounded slope, or a root past the float
    range), or when x*y - Phi(x) at the maximiser is inf - inf.
    """

    def __init__(self, y: float):
        self.y = y
        super().__init__(f"conjugate infinite at y={y!r}: the sup passes the float range")


class ConvexityError(InvalidInputError):
    """A convexity probe failed; carries the violating abscissa."""

    def __init__(self, message: str, abscissa: float):
        self.abscissa = abscissa
        super().__init__(f"{message} (violated near x={abscissa:g})")


class NumericalFailureError(OrliczError):
    """An internal consistency gate failed; the result would be unreliable."""


class ResourceLimitError(OrliczError):
    """An enumeration or convolution exceeded its configured budget."""


class PreconditionError(OrliczError):
    """A diagnostic was invoked outside the regime where it is meaningful."""


def coerce(convert: Callable[[Any], Any], value: Any, what: str) -> Any:
    """convert(value); a value that does not convert, or overflows doing so, is a config error."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{what}: cannot read {value!r} ({exc})") from exc


def as_int(value: Any) -> int:
    """The integer rule: an int, an integral float, or integral decimal text
    read exactly, as a config reads ``8.0`` or ``1e3``. A boolean, a
    fraction, nan, inf or an exponent above the float's largest (a config
    reads that number as inf) raises ValueError instead of being truncated."""
    if isinstance(value, str):
        try:
            exact = decimal.Decimal(value)
        except decimal.InvalidOperation:
            raise ValueError(f"{value!r} is not decimal text") from None
        if (not exact.is_finite() or exact.as_tuple().exponent > sys.float_info.max_10_exp
                or exact != exact.to_integral_value()):
            raise ValueError(f"{value!r} is not integer text")
        value = f"{exact.to_integral_value():f}"  # int's own text rule and digit limit
    elif isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def from_spec(what: str, families: Mapping[str, Callable[..., Any]], spec: Any) -> Any:
    """``families[family](**params)`` for a ``{"family": id, <params>}`` spec of float params;
    a maker that overflows on readable parameters is a numerical failure naming the family."""
    if not isinstance(spec, Mapping) or "family" not in spec:
        raise InvalidInputError(f"{what} spec needs an object with a 'family': {spec!r}")
    family = str(spec["family"])
    maker = families.get(family)
    if maker is None:
        raise InvalidInputError(f"unknown {what} family {family!r} (known: {sorted(families)})")
    params = {k: coerce(float, v, f"{what} {family!r} parameter {k!r}")
              for k, v in spec.items() if k != "family"}
    try:
        return maker(**params)
    except TypeError as exc:
        raise InvalidInputError(f"bad parameters for {what} {family!r}: {params}") from exc
    except OverflowError as exc:
        raise NumericalFailureError(f"{what} {family!r} with {params} overflows ({exc})") from exc
