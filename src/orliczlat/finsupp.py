"""Finitely supported complex functions on the integer lattice.

The sparse map from d-vectors to complex scalars is the universal carrier
for everything the package convolves, pairs, or takes norms of. Entries
that are exactly zero are never stored; all values must be finite.

Wire format (shared with the CLI):

    {"dim": d, "entries": [[[x1, ..., xd], [re, im]], ...]}

with entries sorted lexicographically by point.

Two doors lead in, and each checks once. The public constructor takes
values from outside: :func:`as_point` reads the points, values become
complex, and a point of the wrong dimension or a value that is not finite
is an :class:`InvalidInputError`. The internal :meth:`FinSuppFn._computed`
takes every function the package computes, as int-tuple points of length
``dim`` and complex values; a value that is not finite there is a
:class:`NumericalFailureError` naming its point. Both drop exact zeros,
since the support size sets the Luxemburg bracket and ``pairing`` sums
over the smaller support.

One array view leads out: :func:`_int64_points` reads the points of a
support as an int64 array, or says None when a coordinate does not fit,
so the array paths of convolution, the derivation pairing and the weight
reader share one rule for the lattice's int64 range. Each function reads
its view once (:meth:`FinSuppFn._int64_view`) and keeps it; a producer
that already holds the array of its points hands it to
:meth:`FinSuppFn._computed`, which keeps it in place of a second read.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, as_int, coerce

Point = tuple[int, ...]

_UNREAD = object()  # a view not read yet; None is a support with no view

__all__ = ["FinSuppFn", "Point", "as_point"]


def as_point(x: Iterable[int] | int) -> Point:
    """Normalise an int or an int sequence to a lattice point tuple; each
    coordinate is read by the integer rule :func:`~orliczlat.errors.as_int`,
    and a string is one coordinate."""
    if type(x) is int:
        return (x,)
    if type(x) is tuple and x and all(type(c) is int for c in x):
        return x
    coords = x if isinstance(x, Iterable) and not isinstance(x, str) else (x,)
    pt = tuple(coerce(as_int, c, "lattice coordinate") for c in coords)
    if not pt:
        raise InvalidInputError("lattice points must have positive dimension")
    return pt


def _int64_points(points: Collection[Point], dim: int) -> np.ndarray | None:
    """The points (int tuples of length ``dim``) as an int64 (n, dim) array,
    in order; None when a coordinate lies outside (-2**63, 2**63), so that
    -p and |p| of every point read are int64 too."""
    try:
        pts = np.fromiter(itertools.chain.from_iterable(points), np.int64, len(points) * dim)
    except OverflowError:
        return None
    return _as_view(pts.reshape(len(points), dim))


def _as_view(pts: np.ndarray) -> np.ndarray | None:
    """An int64 (n, dim) array of points as their view, read-only since
    functions share it; None where a coordinate is -2**63, as in
    :func:`_int64_points`."""
    if pts.size and pts.min() == -(2**63):
        return None
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True)
class FinSuppFn:
    """Immutable sparse function: finite support in Z^d, complex values."""

    dim: int
    entries: Mapping[Point, complex] = field(default_factory=dict)
    # memo of norms.luxemburg_norm, keyed by the Young function, and of
    # norms.weighted_norm's Luxemburg kind, keyed by (Young function, weight)
    _luxemburg: dict[object, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # memo of the support's int64 view, read by _int64_view
    _view: object = field(default=_UNREAD, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InvalidInputError(f"dim must be >= 1, got {self.dim!r}")
        clean: dict[Point, complex] = {}
        for raw_pt, raw_v in self.entries.items():
            pt = as_point(raw_pt)
            if len(pt) != self.dim:
                raise InvalidInputError(f"point {pt!r} has dimension {len(pt)}, not {self.dim}")
            if not cmath.isfinite(v := complex(raw_v)):
                raise InvalidInputError(f"non-finite value {v!r} at {pt!r}")
            if v != 0:
                clean[pt] = v
        object.__setattr__(self, "entries", MappingProxyType(clean))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _computed(
        cls, dim: int, entries: Mapping[Point, complex], what: str,
        view: np.ndarray | None = None,
    ) -> "FinSuppFn":
        """The function a producer in this package computed, minus exact zeros:
        its points are int tuples of length ``dim`` and its values complex.
        The producer hands over a fresh dict, which the function keeps as
        its entries where no value is an exact zero, without a copy, and
        may hand over ``view``, its points in key order as an int64
        (n, dim) array, which the function keeps as its view.
        Raises :class:`NumericalFailureError` naming the first entry, in
        insertion order, whose value is not finite."""
        if not all(map(cmath.isfinite, entries.values())):
            p, v = next((p, v) for p, v in entries.items() if not cmath.isfinite(v))
            raise NumericalFailureError(f"{what} value {v!r} at {p!r} is not finite")
        if not all(entries.values()):
            if view is not None:
                view = view[[v != 0 for v in entries.values()]]
            entries = {p: v for p, v in entries.items() if v != 0}
        f = object.__new__(cls)  # frozen: the fields are set past __setattr__
        vars(f).update(dim=dim, entries=MappingProxyType(entries), _luxemburg={},
                       _view=_UNREAD if view is None else _as_view(view))
        return f

    @classmethod
    def zero(cls, dim: int) -> "FinSuppFn":
        return cls(dim, {})

    @classmethod
    def delta(cls, point: Iterable[int] | int, value: complex = 1.0) -> "FinSuppFn":
        pt = as_point(point)
        return cls(len(pt), {pt: value})

    @classmethod
    def indicator(cls, points: Iterable[Iterable[int] | int]) -> "FinSuppFn":
        pts = [as_point(p) for p in points]
        if not pts:
            raise InvalidInputError("indicator of an empty set has no dimension")
        return cls(len(pts[0]), {p: 1.0 for p in pts})

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Point, complex]]:
        return iter(self.entries.items())

    def __getitem__(self, point: Iterable[int] | int) -> complex:
        return self.entries.get(as_point(point), 0.0)

    def _int64_view(self) -> np.ndarray | None:
        """The support's int64 view, :func:`_int64_points` of its entries
        (None where a coordinate does not fit), read once and kept."""
        if self._view is _UNREAD:
            object.__setattr__(self, "_view", _int64_points(self.entries, self.dim))
        return self._view

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def support(self) -> list[Point]:
        return sorted(self.entries)

    def magnitudes(self) -> np.ndarray:
        """|f(s)| over the support in insertion order, equal to ``abs(complex)``
        bit for bit (``np.hypot``; ``np.abs`` may differ in the last ulp)."""
        vals = np.fromiter(self.entries.values(), dtype=complex, count=len(self.entries))
        return np.hypot(vals.real, vals.imag)

    # -- arithmetic --------------------------------------------------------

    def scale(self, c: complex) -> "FinSuppFn":
        if not cmath.isfinite(c := complex(c)):
            raise InvalidInputError(f"scale factor {c!r} is not finite")
        return FinSuppFn._computed(self.dim, {p: c * v for p, v in self.entries.items()}, "scaled")

    def __add__(self, other: "FinSuppFn") -> "FinSuppFn":
        self._check_dim(other)
        out = dict(self.entries)
        for p, v in other.entries.items():
            out[p] = out.get(p, 0.0) + v
        return FinSuppFn._computed(self.dim, out, "sum")

    def __sub__(self, other: "FinSuppFn") -> "FinSuppFn":
        return self + other.scale(-1.0)

    def pointwise_mul(self, other: "FinSuppFn") -> "FinSuppFn":
        self._check_dim(other)
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        return FinSuppFn._computed(
            self.dim,
            {p: v * big.entries[p] for p, v in small.entries.items() if p in big.entries},
            "product",
        )

    def flip(self) -> "FinSuppFn":
        """The reflection f(-x); an involution compatible with convolution.
        The points are negated as one int64 array where they have a view
        (:meth:`_int64_view`), which the flip keeps as its own, and one at a
        time where they do not."""
        pts = self._int64_view()
        if pts is None:
            keys = [tuple(-c for c in p) for p in self.entries]
        else:
            pts = -pts
            keys = map(tuple, pts.tolist())
        return FinSuppFn._computed(
            self.dim, dict(zip(keys, self.entries.values())), "flip", pts)

    def abs(self) -> "FinSuppFn":
        with np.errstate(over="ignore"):  # abs(complex) raises OverflowError there
            mags = self.magnitudes().astype(complex).tolist()
        return FinSuppFn._computed(self.dim, dict(zip(self.entries, mags)), "abs")

    def _check_dim(self, other: "FinSuppFn") -> None:
        if self.dim != other.dim:
            raise InvalidInputError(f"dimension mismatch: {self.dim} vs {other.dim}")

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [
                [list(p), [v.real, v.imag]] for p, v in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "FinSuppFn":
        try:
            dim, entries = obj["dim"], {}
            for pt, val in obj["entries"]:
                if (key := as_point(pt)) in entries:
                    raise ValueError(f"point {key!r} is repeated")
                entries[key] = complex(float(val[0]), float(val[1]))
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise InvalidInputError(f"malformed sparse-function object: {exc}") from exc
        return cls(coerce(as_int, dim, "sparse-function dim"), entries)
