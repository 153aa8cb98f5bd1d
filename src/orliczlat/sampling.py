"""Seeded sample pools for the experiment runners.

Random draws place a support uniformly in the ball of the requested radius
and give each entry magnitude |N(0,1)| with an independent uniform phase.
Every trial derives its own generator from (seed, radius, trial index), so
results do not depend on evaluation order.

Deterministic adversarial candidates ride along with the random draws:
ball indicators (the classic witnesses against unweighted convolution
bounds), the atom at :meth:`DampedHomomorphism.peak_point` (the witness
for derivation growth), and the inverse-weight and damped-form profiles.
Candidate pairs are emitted as (f, flip f) and (f, f), and as (f, f) twice
where flip f has f's entries (the ball indicators and the 1/omega profile),
so the scans dedupe pairs by identity.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import InvalidInputError
from .finsupp import FinSuppFn, Point
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
    cands: list[tuple[str, dict[Point, complex]]] = [
        ("corner-atom", {(radius,) * dim: one}),
        ("axis-atom", {(radius,) + (0,) * (dim - 1): one}),
    ]
    dh = DampedHomomorphism(xi, omega) if omega is not None and xi is not None else None
    if dh is not None:
        cands.append(("damped-peak-atom", {dh.peak_point(radius): one}))
    if ball_size(radius, dim) <= PROFILE_SUPPORT_CAP:
        pts = ball(radius, dim)
        cands.append(("ball-indicator", dict.fromkeys(pts, one)))
        if radius >= 2:
            cands.append(("half-ball-indicator", dict.fromkeys(ball(radius // 2, dim), one)))
        if omega is not None:
            inverse = (1.0 / omega.at_points(pts, dim)).astype(complex).tolist()
            cands.append(("inverse-weight-profile", dict(zip(pts, inverse))))
        if dh is not None:
            cands.append(("damped-form-profile", dict(zip(pts, dh.values(pts)))))
    return [(kind, FinSuppFn._computed(dim, entries, kind)) for kind, entries in cands]


def scan_pairs(
    dim: int,
    radius: int,
    trials: int,
    seed: int,
    omega: Weight | None = None,
    xi: Homomorphism | None = None,
) -> Iterator[tuple[str, FinSuppFn, FinSuppFn]]:
    """Adversarial pairs first, then ``trials`` seeded random pairs. A
    candidate whose flip has its entries is its own flip: every measure
    reads magnitudes, an order-free Luxemburg norm or an exact sum, so
    neither g's key order nor a zero's sign can change a value."""
    for kind, f in adversarial_candidates(dim, radius, omega, xi):
        g = f.flip()
        yield f"{kind}/flipped", f, f if g.entries == f.entries else g
        yield f"{kind}/same", f, f
    for t in range(trials):
        rng = rng_for(seed, radius, t)
        f = random_finsupp(dim, radius, rng)
        g = random_finsupp(dim, radius, rng)
        yield f"random[{t}]", f, g
