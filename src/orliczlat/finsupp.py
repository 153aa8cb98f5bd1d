"""Finitely supported complex functions on the integer lattice.

The sparse map from d-vectors to complex scalars is the universal carrier
for everything the package convolves, pairs, or takes norms of. Entries
that are exactly zero are never stored; all values must be finite.

Wire format (shared with the CLI):

    {"dim": d, "entries": [[[x1, ..., xd], [re, im]], ...]}

with entries sorted lexicographically by point.

Every public construction validates its entries in ``__post_init__``:
points become int tuples of length ``dim``, values become finite complex
numbers. Hot paths whose producer already guarantees that build through
the internal :meth:`FinSuppFn._trusted`, which skips those checks and
keeps the one rule they share with it: exact zeros are dropped, since the
support size sets the Luxemburg bracket and ``pairing`` sums over the
smaller support. Its callers, each of which hands it int-tuple points of
length ``dim`` and complex values it has checked to be finite, are
``algebra.convolve`` (both paths), :meth:`FinSuppFn.flip`,
``norms.apply_weight`` and ``amenability.apply_derivation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import InvalidInputError

Point = tuple[int, ...]

__all__ = ["FinSuppFn", "Point", "as_point"]


def as_point(x: Iterable[int] | int) -> Point:
    """Normalise an int or an int sequence to a lattice point tuple."""
    if isinstance(x, int):
        return (x,)
    pt = tuple(int(c) for c in x)
    if not pt:
        raise InvalidInputError("lattice points must have positive dimension")
    return pt


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

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InvalidInputError(f"dim must be >= 1, got {self.dim!r}")
        clean: dict[Point, complex] = {}
        for raw_pt, raw_v in self.entries.items():
            pt = as_point(raw_pt)
            if len(pt) != self.dim:
                raise InvalidInputError(
                    f"point {pt!r} has dimension {len(pt)}, expected {self.dim}"
                )
            v = complex(raw_v)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise InvalidInputError(f"non-finite value {v!r} at {pt!r}")
            if v != 0:
                clean[pt] = v
        object.__setattr__(self, "entries", MappingProxyType(clean))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, dim: int, entries: Mapping[Point, complex]) -> "FinSuppFn":
        """The function with these entries, minus exact zeros, unchecked:
        the caller guarantees int-tuple points of length ``dim`` and finite
        complex values (see the module docstring)."""
        f = object.__new__(cls)
        object.__setattr__(f, "dim", dim)
        object.__setattr__(
            f, "entries", MappingProxyType({p: v for p, v in entries.items() if v != 0})
        )
        object.__setattr__(f, "_luxemburg", {})
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

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def support(self) -> list[Point]:
        return sorted(self.entries)

    def max_abs(self) -> float:
        return max((abs(v) for v in self.entries.values()), default=0.0)

    def magnitudes(self) -> np.ndarray:
        """|f(s)| over the support in insertion order, equal to ``abs(complex)``
        bit for bit (``np.hypot``; ``np.abs`` may differ in the last ulp)."""
        vals = np.fromiter(self.entries.values(), dtype=complex, count=len(self.entries))
        return np.hypot(vals.real, vals.imag)

    # -- arithmetic --------------------------------------------------------

    def scale(self, c: complex) -> "FinSuppFn":
        return FinSuppFn(self.dim, {p: c * v for p, v in self.entries.items()})

    def __add__(self, other: "FinSuppFn") -> "FinSuppFn":
        self._check_dim(other)
        out = dict(self.entries)
        for p, v in other.entries.items():
            out[p] = out.get(p, 0.0) + v
        return FinSuppFn(self.dim, out)

    def __sub__(self, other: "FinSuppFn") -> "FinSuppFn":
        return self + other.scale(-1.0)

    def pointwise_mul(self, other: "FinSuppFn") -> "FinSuppFn":
        self._check_dim(other)
        small, big = (self, other) if len(self) <= len(other) else (other, self)
        return FinSuppFn(
            self.dim,
            {p: v * big.entries[p] for p, v in small.entries.items() if p in big.entries},
        )

    def flip(self) -> "FinSuppFn":
        """The reflection f(-x); an involution compatible with convolution."""
        return FinSuppFn._trusted(
            self.dim, {tuple(-c for c in p): v for p, v in self.entries.items()}
        )

    def abs(self) -> "FinSuppFn":
        return FinSuppFn(self.dim, {p: abs(v) for p, v in self.entries.items()})

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
            dim = int(obj["dim"])
            entries = {
                tuple(int(c) for c in pt): complex(float(val[0]), float(val[1]))
                for pt, val in obj["entries"]
            }
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise InvalidInputError(f"malformed sparse-function object: {exc}") from exc
        return cls(dim, entries)
