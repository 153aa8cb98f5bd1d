"""Sparse convolution on Z^d and weighted convolution-algebra diagnostics.

The scans here are lower-bound certificates, not proofs: each samples
seeded pairs, takes the worst ratio of a bounded-bilinear-map inequality,
and reports how that worst case moves as the support radius grows. A
plateau (growth below 15% across a 4x radius increase) is consistency
evidence for boundedness; growth of 25% or more is evidence against it.
Reports carry ``certificate="empirical"`` to make this status explicit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConvexityError,
    InvalidInputError,
    PreconditionError,
    ResourceLimitError,
)
from .finsupp import FinSuppFn, _int64_points
from .norms import (
    _luxemburg_of,
    _weighted_luxemburg_of,
    luxemburg_norm,
    weighted_l1_norm,
)
from .sampling import scan_pairs
from .weights import Weight
from .young import ComplementaryPair, YoungFunction, numeric_conjugate, sqrt_transform

__all__ = [
    "convolve",
    "flip",
    "AlgebraContext",
    "ScanReport",
    "classify_trend",
    "submult_estimate",
    "l1_module_check",
    "conv_inclusion_check",
    "pointwise_inclusion_check",
    "PLATEAU_MAX_GROWTH",
    "GROWTH_MIN",
]

MAX_CONV_OPS = 10_000_000

# Where convolve takes the plain loop instead of the array path (measured
# crossovers, see CHANGES.md). Each entry of f costs the array path one
# numpy pass over g of ~10 us, so it loses when g has fewer than
# _ARRAY_MIN_ROW entries or the pair fewer than _ARRAY_MIN_OPS products.
# Its box costs 17 bytes a cell: beyond _ARRAY_MAX_BOX_PER_OP cells per
# product (sparse draws) it would outgrow the loop's dict.
_ARRAY_MIN_ROW = 16
_ARRAY_MIN_OPS = 128
_ARRAY_MAX_BOX_PER_OP = 8

# Trend thresholds: below the first is a plateau, at or above the second is
# growth, anything between is reported as indeterminate.
PLATEAU_MAX_GROWTH = 0.15
GROWTH_MIN = 0.25


def convolve(f: FinSuppFn, g: FinSuppFn) -> FinSuppFn:
    """Exact sparse convolution (f*g)(x) = sum_y f(y) g(x-y).

    The result is the one the plain double loop over f, then g, gives, bit
    for bit and in the same key order:

    - Each output key sums its terms in the iteration order of f, starting
      from ``0j``, and for one key and one entry a of f exactly one entry b
      of g contributes. So the array path walks the entries of f in order
      and adds a*g into the bounding box of supp f + supp g with one
      fancy-indexed ``+=`` per entry (the indices of one step are distinct).
    - Products are formed from real arrays in CPython's complex-multiply
      order, ``re = ar*br - ai*bi`` and ``im = ar*bi + ai*br``, and summed
      into separate float64 arrays that start at 0.0; numpy's own complex
      multiply differs from CPython's in the last ulp.
    - Keys are listed in first-appearance order (``pairing`` sums in the
      insertion order of its smaller argument): each step appends the
      indices not seen before, in the iteration order of g.

    Small pairs take the loop itself (:func:`_takes_loop`, checked before any
    array is read), and so do pairs with a point that has no int64 view
    (:func:`~orliczlat.finsupp._int64_points`) and the pairs
    :func:`_box_convolve` refuses: a box corner outside int64, or a box
    much larger than ``len(f) * len(g)``. Raises
    :class:`ResourceLimitError` above ``MAX_CONV_OPS`` products and
    :class:`NumericalFailureError` naming the first output point, in key
    order, whose value overflows. ``amenability._derivation_pairing`` reads
    D(f) = window * h off the same kernel, under the same rules for taking
    the loop.
    """
    f._check_dim(g)
    ops = len(f) * len(g)
    if ops > MAX_CONV_OPS:
        raise ResourceLimitError(f"convolution needs {ops} products, budget {MAX_CONV_OPS}")
    if _takes_loop(len(g), ops):
        return _convolve_loop(f, g)
    f_pts, g_pts = _int64_points(f.entries, f.dim), _int64_points(g.entries, f.dim)
    gv = np.fromiter(g.entries.values(), dtype=complex, count=len(g))
    box = None if f_pts is None or g_pts is None else _box_convolve(
        f_pts, f.entries.values(), g_pts, gv.real.copy(), gv.imag.copy()
    )
    if box is None:
        return _convolve_loop(f, g)
    re, im, order, corner, extent = box
    vals = np.empty(len(order), dtype=complex)
    vals.real, vals.imag = re[order], im[order]
    axes = [[c + base for c in axis.tolist()]
            for axis, base in zip(np.unravel_index(order, extent), corner)]
    return FinSuppFn._computed(f.dim, dict(zip(zip(*axes), vals.tolist())), "convolution")


def _takes_loop(ng: int, ops: int) -> bool:
    """convolve's first rule: a row of g shorter than ``_ARRAY_MIN_ROW`` or
    fewer than ``_ARRAY_MIN_OPS`` products take the loop."""
    return ng < _ARRAY_MIN_ROW or ops < _ARRAY_MIN_OPS


def _box_convolve(
    f_pts: np.ndarray, f_vals: Iterable[complex], g_pts: np.ndarray, gr: np.ndarray, gi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], list[int]] | None:
    """The array path of :func:`convolve` on int64 point arrays: for each
    entry a of f in order, a*g added into the bounding box of supp f +
    supp g in CPython's complex-multiply order.

    Returns the real and imaginary box, the cells reached in
    first-appearance order, and the box's lowest corner and per-axis
    extent (row-major cells); None, for the loop, where the box has more
    than ``_ARRAY_MAX_BOX_PER_OP`` cells per product or a corner of it
    leaves int64.
    """
    f_lo, f_hi = f_pts.min(axis=0).tolist(), f_pts.max(axis=0).tolist()
    g_lo, g_hi = g_pts.min(axis=0).tolist(), g_pts.max(axis=0).tolist()
    extent = [fh - fl + gh - gl + 1 for fl, fh, gl, gh in zip(f_lo, f_hi, g_lo, g_hi)]
    corner = [fl + gl for fl, gl in zip(f_lo, g_lo)]
    box = math.prod(extent)
    if (box > _ARRAY_MAX_BOX_PER_OP * len(f_pts) * len(g_pts) or min(corner) < -(2**63)
            or max(fh + gh for fh, gh in zip(f_hi, g_hi)) >= 2**63):
        return None
    f_at = np.ravel_multi_index(tuple((f_pts - f_lo).T), extent).tolist()
    g_at = np.ravel_multi_index(tuple((g_pts - g_lo).T), extent)
    re, im = np.zeros(box), np.zeros(box)
    seen = np.zeros(box, dtype=bool)
    fresh = []
    with np.errstate(over="ignore", invalid="ignore"):
        for shift, a in zip(f_at, f_vals):
            at = g_at + shift
            ar, ai = a.real, a.imag
            re[at] += ar * gr - ai * gi
            im[at] += ar * gi + ai * gr
            new = at[~seen[at]]
            seen[new] = True
            fresh.append(new)
    return re, im, np.concatenate(fresh), corner, extent


def _convolve_loop(f: FinSuppFn, g: FinSuppFn) -> FinSuppFn:
    out: dict = {}
    get = out.get
    for p, a in f:
        for q, b in g:
            key = tuple(map(operator.add, p, q))
            out[key] = get(key, 0j) + a * b
    return FinSuppFn._computed(f.dim, out, "convolution")


flip = FinSuppFn.flip


@dataclass(frozen=True, eq=False)
class AlgebraContext:
    """A complementary pair, a weight, and a lattice dimension."""

    pair: ComplementaryPair
    omega: Weight
    dim: int = 1

    def weighted_luxemburg_norms(self, fs: Sequence[FinSuppFn]) -> list[float]:
        """``weighted_norm(phi, omega, f)`` of the Luxemburg kind for each f,
        the distinct unmemoised fs measured in one batch."""
        return _weighted_luxemburg_of(self.pair.phi, self.omega, fs)

    def describe(self) -> str:
        return f"{self.pair.phi.describe()} / {self.omega.describe()} / Z^{self.dim}"


@dataclass(frozen=True)
class ScanReport:
    op: str
    params: dict
    per_radius: list[dict]
    max_ratio: float
    trend: str
    certificate: str = "empirical"

    def to_json_obj(self) -> dict:
        return {
            "op": self.op,
            "params": self.params,
            "max_ratio": self.max_ratio,
            "per_radius": self.per_radius,
            "trend": self.trend,
            "certificate": self.certificate,
        }


def classify_trend(first: float, last: float) -> str:
    if first <= 0.0:
        return "indeterminate"
    growth = last / first - 1.0
    if growth < PLATEAU_MAX_GROWTH:
        return "plateau"
    if growth >= GROWTH_MIN:
        return "growth"
    return "indeterminate"


def _radius_ladder(radius: int) -> list[int]:
    return [max(1, radius // 4), max(1, radius // 2), radius]


def _ratio_scan(
    op: str,
    params: dict,
    radii: Sequence[int],
    top,
    left,
    right,
    dim: int,
    trials: int,
    seed: int,
    *,
    omega: Weight | None = None,
    xi=None,
) -> ScanReport:
    """Worst top(f, g) / (left(f) right(g)) per radius over the seeded pairs.

    This is the one bounded-bilinear-map scan: a pair where either norm
    is 0 is skipped.

    ``left`` and ``right`` measure a list of functions at once and return
    their norms in order. A radius draws all its pairs first, then measures
    every f with one ``left`` call and every g with one ``right`` call (the
    Luxemburg measures run the distinct functions of the batch in lockstep,
    see :func:`~orliczlat.norms._luxemburg_norms`), and only then forms the
    ratios in pair order. If drawing or measuring raises, the radius is
    replayed a pair at a time, each measure on a list of one, so the error
    surfaces that the pair order meets first.

    The radii are scanned in ascending order, each once; the trend needs
    two distinct radii, and a radius below 1 is refused.
    """
    radii = sorted(set(radii))
    if not radii:
        raise InvalidInputError(f"{op}: a scan needs at least one radius")
    if radii[0] < 1:
        raise InvalidInputError(f"{op}: radius {radii[0]} is below 1")
    per_radius = []
    for r in radii:
        try:
            drawn = list(scan_pairs(dim, r, trials, seed, omega=omega, xi=xi))
            measured = zip(drawn, left([f for _, f, _ in drawn]), right([g for _, _, g in drawn]))
        except Exception:  # any error: the pair-at-a-time replay raises the one met first
            measured = (
                ((kind, f, g), left([f])[0], right([g])[0])
                for kind, f, g in scan_pairs(dim, r, trials, seed, omega=omega, xi=xi)
            )
        best, best_kind = 0.0, ""
        for (kind, f, g), nf, ng in measured:
            if nf == 0.0 or ng == 0.0:
                continue
            ratio = top(f, g) / (nf * ng)
            if ratio > best:
                best, best_kind = ratio, kind
        per_radius.append({"radius": r, "max_ratio": best, "argmax": best_kind})
    first, last = per_radius[0]["max_ratio"], per_radius[-1]["max_ratio"]
    return ScanReport(
        op=op,
        params=params,
        per_radius=per_radius,
        max_ratio=max(row["max_ratio"] for row in per_radius),
        trend=classify_trend(first, last) if len(radii) > 1 else "indeterminate",
    )


def submult_estimate(
    ctx: AlgebraContext,
    radius: int,
    trials: int,
    seed: int,
) -> ScanReport:
    """Scan ||f*g|| / (||f|| ||g||) in the weighted Luxemburg norm.

    A growing worst case across the radius ladder is evidence that the
    weighted space is not a convolution algebra; a plateau only says the
    sampled pairs found no obstruction.
    """
    return _ratio_scan(
        "submult_estimate",
        {"context": ctx.describe(), "radius": radius, "trials": trials, "seed": seed},
        _radius_ladder(radius),
        lambda f, g: ctx.weighted_luxemburg_norms([convolve(f, g)])[0],
        ctx.weighted_luxemburg_norms,
        ctx.weighted_luxemburg_norms,
        ctx.dim, trials, seed, omega=ctx.omega,
    )


def l1_module_check(
    ctx: AlgebraContext,
    radius: int,
    trials: int,
    seed: int,
) -> ScanReport:
    """Scan ||f*g||_{Phi,w} / (||f||_{1,w} ||g||_{Phi,w}).

    The weighted-L1 module bound holds for every weight, so this scan is
    expected to plateau unconditionally; it serves as a control experiment
    for the thresholds.
    """
    return _ratio_scan(
        "l1_module_check",
        {"context": ctx.describe(), "radius": radius, "trials": trials, "seed": seed},
        _radius_ladder(radius),
        lambda f, g: ctx.weighted_luxemburg_norms([convolve(f, g)])[0],
        lambda fs: [weighted_l1_norm(ctx.omega, f) for f in fs],
        ctx.weighted_luxemburg_norms,
        ctx.dim, trials, seed, omega=ctx.omega,
    )


def _sqrt_pair(pair: ComplementaryPair) -> tuple[YoungFunction, YoungFunction]:
    try:
        psi_tilde = sqrt_transform(pair.psi)
    except ConvexityError as exc:
        raise PreconditionError(
            f"sqrt transform rejected for {pair.psi.describe()}: {exc}"
        ) from exc
    return psi_tilde, numeric_conjugate(psi_tilde)


def conv_inclusion_check(
    pair: ComplementaryPair,
    radius: int,
    trials: int,
    seed: int,
    dim: int = 1,
) -> ScanReport:
    """Scan the convolution inclusion: N_Psi(u*f) / (N_T(u) N_Phi(f)) where
    T is the sqrt transform of Psi."""
    psi_tilde, _ = _sqrt_pair(pair)
    return _ratio_scan(
        "conv_inclusion_check",
        {"pair": pair.describe(), "radius": radius, "trials": trials, "seed": seed},
        _radius_ladder(radius),
        lambda u, f: luxemburg_norm(pair.psi, convolve(u, f)),
        lambda us: _luxemburg_of(psi_tilde, us),
        lambda fs: _luxemburg_of(pair.phi, fs),
        dim, trials, seed,
    )


def pointwise_inclusion_check(
    pair: ComplementaryPair,
    radius: int,
    trials: int,
    seed: int,
    dim: int = 1,
) -> ScanReport:
    """Scan the pointwise-product inclusion: N_Phi(u.g) / (N_T(u) N_Psi(g))
    where T is the conjugate of the sqrt transform of Psi."""
    _, phi_tilde = _sqrt_pair(pair)
    return _ratio_scan(
        "pointwise_inclusion_check",
        {"pair": pair.describe(), "radius": radius, "trials": trials, "seed": seed},
        _radius_ladder(radius),
        lambda u, g: luxemburg_norm(pair.phi, u.pointwise_mul(g)),
        lambda us: _luxemburg_of(phi_tilde, us),
        lambda gs: _luxemburg_of(pair.psi, gs),
        dim, trials, seed,
    )
