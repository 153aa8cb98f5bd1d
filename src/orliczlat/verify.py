"""The invariant battery behind the ``verify`` command and the acceptance gate.

Each check returns one row per catalog pair with the worst normalised
margin observed on the documented grid; a margin above the stated
tolerance fails the row. Grids: the product inequality runs on a 50x50
log grid over (0, 100]^2, the inverse sandwich on a 25-point log grid
over [1e-6, 1e3], the norm sandwich and the pairing bound on seeded
random functions, and the sqrt-pair comparisons on a 25-point log grid
over [1e-3, 1e3] for the orientations whose sqrt transform is accepted.

The seeded functions depend on ``BATTERY_SEED`` alone, so their entries
are drawn once per process (:func:`_battery_draws`); each check builds
fresh functions from them, so no norm memoised on a function (keyed by
its Young function, which would keep a numeric conjugate and its solve
cache alive) outlives the call. The norm sandwich and the pairing bound
build all their functions first and measure their Luxemburg norms in one
lockstep batch per Young function (:func:`_measure_ahead`): Phi for the
sandwich's 50 f, Phi for the pairing's 25 f and Psi for its 25 g. Their
loops then read those norms from the memo while they form the Orlicz
norms, the pairing rows and the margin in draw order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import _sqrt_psi
from .errors import ConjugateInfiniteError, PreconditionError
from .finsupp import FinSuppFn, Point
from .norms import _luxemburg_of, holder_check, luxemburg_norm, orlicz_norm
from .sampling import random_finsupp, rng_for
from .young import (
    ComplementaryPair,
    YoungFunction,
    catalog,
    default_grid,
    numeric_conjugate,
    young_inequality_margin,
)

__all__ = [
    "VerifyRow",
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

# a seeded function of the battery as (dim, entries)
Drawn = tuple[int, Mapping[Point, complex]]


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


@functools.cache
def _battery_draws() -> tuple[list[Drawn], list[tuple[Drawn, Drawn]]]:
    """The seeded functions of the norm sandwich (50 f) and of the pairing
    bound (25 (f, g)) as (dim, entries), drawn once; the checks measure
    functions built from them afresh (:func:`_fresh`)."""
    sandwich = [random_finsupp(dim=1 + t % 2, radius=6, rng=rng_for(BATTERY_SEED, 1, t),
                               max_support=12) for t in range(50)]
    holder = []
    for t in range(25):
        rng = rng_for(BATTERY_SEED, 2, t)
        holder.append([random_finsupp(dim=1, radius=5, rng=rng, max_support=10)
                       for _ in range(2)])
    return ([(f.dim, f.entries) for f in sandwich],
            [((f.dim, f.entries), (g.dim, g.entries)) for f, g in holder])


def _fresh(drawn: Drawn) -> FinSuppFn:
    """A new function with the drawn entries, and so with no memo yet."""
    dim, entries = drawn
    return FinSuppFn._computed(dim, dict(entries), "random draw")


def _measure_ahead(*batches: tuple[YoungFunction, list[FinSuppFn]]) -> None:
    """Memoise the Luxemburg norm of every f of each (Phi, fs) batch, one
    lockstep run per batch (:func:`~orliczlat.norms._luxemburg_of`), so
    that the check's loop reads them from the memo; each norm is the float
    the f gets alone. A batch that raises memoises nothing and stops the
    rest, and the loop then replays the check one function at a time, so
    the error that surfaces is the one it meets first in draw order."""
    try:
        for phi, fs in batches:
            _luxemburg_of(phi, fs)
    except Exception:  # any error: the function-at-a-time loop raises the one met first
        pass


def norm_sandwich_margin(pair: ComplementaryPair) -> float:
    """Worst relative escape of the Orlicz norm from [N, 2N] on 50 random f."""
    fs = [_fresh(drawn) for drawn in _battery_draws()[0]]
    _measure_ahead((pair.phi, fs))
    worst = -math.inf
    for f in fs:
        n = luxemburg_norm(pair.phi, f)
        o = orlicz_norm(pair, f)
        worst = max(worst, (n - o) / n, (o - 2.0 * n) / (2.0 * n))
    return worst


def holder_margin(pair: ComplementaryPair) -> float:
    """Worst of (sum|fg| - bound) / (1 + bound) over 25 seeded random pairs."""
    fgs = [(_fresh(f), _fresh(g)) for f, g in _battery_draws()[1]]
    _measure_ahead((pair.phi, [f for f, _ in fgs]), (pair.psi, [g for _, g in fgs]))
    worst = -math.inf
    for f, g in fgs:
        rep = holder_check(pair, f, g)
        worst = max(worst, (rep.lhs - rep.rhs) / (1.0 + rep.rhs))
    return worst


def sqrt_pair_margin(pair: ComplementaryPair) -> float | None:
    """Worst relative violation of the sqrt-pair comparisons, or None when
    the sqrt transform of psi is rejected (the check is then vacuous)."""
    try:
        phi_tilde = numeric_conjugate(_sqrt_psi(pair))
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
        except ConjugateInfiniteError:  # past a bounded slope, as of sqrt[power(p=2)] = x/2
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
