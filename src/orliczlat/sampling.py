"""Seeded sample pools for the experiment runners.

Random draws place a support uniformly in the ball of the requested radius
and give each entry magnitude |N(0,1)| with an independent uniform phase.
Every trial derives its own generator from (seed, radius, trial index), so
results do not depend on evaluation order.

Deterministic adversarial candidates ride along with the random draws:
ball indicators (the classic witnesses against unweighted convolution
bounds), the atom at :meth:`DampedHomomorphism.peak_point` (the witness
for derivation growth), and the inverse-weight and damped-form profiles.
The ball of a radius is read into one int64 array, which its candidates
keep as their view. Candidate pairs are emitted as (f, flip f) and (f, f),
and as (f, f) twice where f is even or odd under the reflection, decided
from its values (the ball indicators and the 1/omega profile are even,
the damped-form profile odd), so the scans dedupe pairs by identity and
build flips only for the atoms.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import InvalidInputError
from .finsupp import FinSuppFn, Point, _int64_points
from .weights import DampedHomomorphism, Homomorphism, Weight, ball, ball_size

__all__ = ["rng_for", "random_finsupp", "adversarial_candidates", "scan_pairs"]

# Ball indicators and profiles are only enumerated up to this many points.
PROFILE_SUPPORT_CAP = 8192


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng((int(seed),) + tuple(int(k) for k in key))


def random_finsupp(
    dim: int,
    radius: int,
    rng: np.random.Generator,
    max_support: int = 40,
) -> FinSuppFn:
    if not (1 <= max_support < 2**62 and 0 <= radius < 2**62):
        raise InvalidInputError(
            f"need 1 <= max_support and 0 <= radius, both below 2**62; "
            f"got {max_support!r}, {radius!r}"
        )
    size = int(rng.integers(1, max_support + 1))
    entries: dict[Point, complex] = {}
    pts = rng.integers(-radius, radius + 1, size=(size, dim)).tolist()
    mags = np.abs(rng.standard_normal(size)).tolist()
    phases = rng.uniform(0.0, 2.0 * math.pi, size).tolist()
    for row, m, th in zip(pts, mags, phases):
        if m == 0.0:
            continue
        entries[tuple(row)] = m * complex(math.cos(th), math.sin(th))
    return FinSuppFn._computed(dim, entries or {(0,) * dim: 1 + 0j}, "random draw")


def adversarial_candidates(
    dim: int,
    radius: int,
    omega: Weight | None = None,
    xi: Homomorphism | None = None,
) -> list[tuple[str, FinSuppFn]]:
    one = 1 + 0j
    # (kind, entries, the int64 view of their points or None to read it later)
    cands: list[tuple[str, dict[Point, complex], np.ndarray | None]] = [
        ("corner-atom", {(radius,) * dim: one}, None),
        ("axis-atom", {(radius,) + (0,) * (dim - 1): one}, None),
    ]
    dh = DampedHomomorphism(xi, omega) if omega is not None and xi is not None else None
    if dh is not None:
        cands.append(("damped-peak-atom", {dh.peak_point(radius): one}, None))
    if ball_size(radius, dim) <= PROFILE_SUPPORT_CAP:
        pts = ball(radius, dim)
        view = _int64_points(pts, dim)
        cands.append(("ball-indicator", dict.fromkeys(pts, one), view))
        if radius >= 2:
            half = dict.fromkeys(ball(radius // 2, dim), one)
            cands.append(("half-ball-indicator", half, None))
        if omega is not None:
            inverse = (1.0 / omega.at_points(view, dim)).astype(complex).tolist()
            cands.append(("inverse-weight-profile", dict(zip(pts, inverse)), view))
        if dh is not None:
            cands.append(("damped-form-profile", dict(zip(pts, dh.values(pts, view))), view))
    return [(kind, FinSuppFn._computed(dim, entries, kind, view))
            for kind, entries, view in cands]


def scan_pairs(
    dim: int,
    radius: int,
    trials: int,
    seed: int,
    omega: Weight | None = None,
    xi: Homomorphism | None = None,
) -> Iterator[tuple[str, FinSuppFn, FinSuppFn]]:
    """Adversarial pairs first, then ``trials`` seeded random pairs.

    Each candidate f is paired with its flip, then with itself. Where f is
    even or odd under the reflection (:func:`_reflection_partner`), the
    flip pair is (f, f) too, the same object, so the scans measure it
    once; ``algebra._ratio_scan`` states what makes that exact."""
    for kind, f in adversarial_candidates(dim, radius, omega, xi):
        yield f"{kind}/flipped", f, _reflection_partner(f)
        yield f"{kind}/same", f, f
    for t in range(trials):
        rng = rng_for(seed, radius, t)
        f = random_finsupp(dim, radius, rng)
        g = random_finsupp(dim, radius, rng)
        yield f"random[{t}]", f, g


def _reflection_partner(f: FinSuppFn) -> FinSuppFn:
    """f itself where f(-x) = f(x) at every x or f(-x) = -f(x) at every x,
    else ``f.flip()``. Decided from f's values on its int64 view where its
    keys run in an order that the reflection reverses, as a ball's
    lexicographic order does (each candidate keeps it, less the zeros it
    drops at pairs of points x and -x): the values read backwards then
    equal the values, or their negatives, as complex numbers (a zero's sign
    does not count). Any other f gets its flip."""
    pts = f._int64_view()
    if pts is not None and np.array_equal(pts[::-1], -pts):
        vals = np.fromiter(f.entries.values(), complex, len(f))
        if np.array_equal(vals[::-1], vals) or np.array_equal(vals[::-1], -vals):
            return f
    return f.flip()
