"""The invariant battery behind the ``verify`` command and the acceptance gate.

Each check returns one row per catalog pair with the worst normalised
margin observed on the documented grid; a margin above the stated
tolerance fails the row. Grids: the product inequality runs on a 50x50
log grid over (0, 100]^2, the inverse sandwich on a 25-point log grid
over [1e-6, 1e3], the norm sandwich and the pairing bound on seeded
random functions, and the sqrt-pair comparisons on a 25-point log grid
over [1e-3, 1e3] for the orientations whose sqrt transform is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import _sqrt_pair
from .errors import ConjugateInfiniteError, PreconditionError
from .norms import holder_check, luxemburg_norm, orlicz_norm
from .sampling import random_finsupp, rng_for
from .young import ComplementaryPair, catalog, default_grid, young_inequality_margin

__all__ = [
    "VerifyRow",
    "young_inequality_margin",
    "inverse_sandwich_margin",
    "norm_sandwich_margin",
    "holder_margin",
    "sqrt_pair_margin",
    "run_battery",
    "BATTERY_SEED",
]

BATTERY_SEED = 592035

SANDWICH_GRID = default_grid(25)
SQRT_GRID = default_grid(25, 1e-3, 1e3)


@dataclass(frozen=True)
class VerifyRow:
    invariant: str
    pair: str
    passed: bool
    worst_margin: float
    tolerance: float
    note: str = ""


def inverse_sandwich_margin(pair: ComplementaryPair) -> float:
    """Worst violation of x <= inv(Phi)(x)*inv(Psi)(x) <= 2x, relative to max(1, x)."""
    worst = -math.inf
    for x in SANDWICH_GRID:
        prod = pair.phi.inverse(x) * pair.psi.inverse(x)
        scale = max(1.0, x)
        worst = max(worst, (x - prod) / scale, (prod - 2.0 * x) / scale)
    return worst


def norm_sandwich_margin(pair: ComplementaryPair) -> float:
    """Worst relative escape of the Orlicz norm from [N, 2N] on 50 random f."""
    worst = -math.inf
    for t in range(50):
        rng = rng_for(BATTERY_SEED, 1, t)
        f = random_finsupp(dim=1 + t % 2, radius=6, rng=rng, max_support=12)
        n = luxemburg_norm(pair.phi, f)
        o = orlicz_norm(pair, f)
        worst = max(worst, (n - o) / n, (o - 2.0 * n) / (2.0 * n))
    return worst


def holder_margin(pair: ComplementaryPair) -> float:
    """Worst of (sum|fg| - bound) / (1 + bound) over 25 seeded random pairs."""
    worst = -math.inf
    for t in range(25):
        rng = rng_for(BATTERY_SEED, 2, t)
        f = random_finsupp(dim=1, radius=5, rng=rng, max_support=10)
        g = random_finsupp(dim=1, radius=5, rng=rng, max_support=10)
        rep = holder_check(pair, f, g)
        worst = max(worst, (rep.lhs - rep.rhs) / (1.0 + rep.rhs))
    return worst


def sqrt_pair_margin(pair: ComplementaryPair) -> float | None:
    """Worst relative violation of the sqrt-pair comparisons, or None when
    the sqrt transform of psi is rejected (the check is then vacuous)."""
    try:
        _, phi_tilde = _sqrt_pair(pair)
    except PreconditionError:
        return None
    worst = -math.inf
    phi = pair.phi
    for x in SQRT_GRID:
        fx = phi(x)
        if fx <= 0.0 or math.isinf(fx):
            continue
        try:
            upper = phi_tilde(2.0 * x * x / fx)
        except ConjugateInfiniteError:
            upper = math.inf  # an infinite upper bound holds trivially
        try:
            lower = phi_tilde(x * x / (4.0 * fx))
        except ConjugateInfiniteError:
            return math.inf
        if math.isfinite(upper):
            worst = max(worst, (fx - upper) / (1.0 + upper))
        worst = max(worst, (lower - fx) / (1.0 + fx))
    return worst


_CHECKS = (
    ("young_inequality", young_inequality_margin, 1e-9),
    ("inverse_sandwich", inverse_sandwich_margin, 1e-8),
    ("norm_sandwich", norm_sandwich_margin, 1e-9),
    ("holder", holder_margin, 1e-8),
)


def run_battery(pairs: Sequence[ComplementaryPair] | None = None) -> list[VerifyRow]:
    """Run every invariant over the catalog (or the given pairs)."""
    todo = list(pairs) if pairs is not None else catalog()
    rows: list[VerifyRow] = []
    for pair in todo:
        name = pair.describe()
        for label, fn, tol in _CHECKS:
            margin = fn(pair)
            rows.append(VerifyRow(label, name, margin <= tol, margin, tol))
        for oriented, tag in ((pair, "as-is"), (pair.swap(), "swapped")):
            margin = sqrt_pair_margin(oriented)
            if margin is None:
                margin, tag = 0.0, f"{tag}: sqrt transform rejected, check vacuous"
            rows.append(
                VerifyRow("sqrt_pair_inequalities", name, margin <= 1e-6, margin, 1e-6, note=tag)
            )
    return rows
