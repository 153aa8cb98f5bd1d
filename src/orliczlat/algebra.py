"""Sparse convolution on Z^d and weighted convolution-algebra diagnostics.

The scans here are lower-bound certificates, not proofs: each samples
seeded pairs, takes the worst ratio of a bounded-bilinear-map inequality,
and reports how that worst case moves as the support radius grows. A
plateau (growth below 15% across a 4x radius increase) is consistency
evidence for boundedness; growth of 25% or more is evidence against it.
Reports carry ``certificate="empirical"`` to make this status explicit.

A scan measures a radius in three batches: the left norms, the right
norms and the tops (:func:`_ratio_scan`), each distinct pair of objects
once. A candidate that is even or odd under the reflection stands in for
its own flip (:func:`~orliczlat.sampling.scan_pairs`), so its /flipped
pair is its /same pair by identity. A convolution top is the function
:func:`convolve` returns: the weighted tops of a radius are read in one
weighted pass and measured in one lockstep Luxemburg call
(:func:`_convolution_norms`).
The box kernel (:func:`_box_convolve`) adds
a chunk of f's entries at a time in one ordered ``np.add.at`` pass, so
each cell is bit for bit the sum one entry at a time gives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConvexityError,
    InvalidInputError,
    PreconditionError,
    ResourceLimitError,
)
from .finsupp import FinSuppFn
from .norms import (
    _luxemburg_norms,
    _luxemburg_of,
    _scaled_back,
    _weighted_luxemburg_of,
    _weighted_magnitudes,
    weighted_l1_norm,
)
from .sampling import scan_pairs
from .weights import Weight
from .young import ComplementaryPair, YoungFunction, numeric_conjugate, sqrt_transform

__all__ = [
    "convolve",
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
# crossovers, see CHANGES.md). The box kernel pays a fixed run of numpy
# calls per pair, whatever the length of g, and the loop a step per product:
# in convolve and the tops they meet at 64-192 products.
# The box costs 17 bytes a cell: beyond _ARRAY_MAX_BOX_PER_OP cells per
# product (sparse draws) it would outgrow the loop's dict.
_ARRAY_MIN_OPS = 128
_ARRAY_MAX_BOX_PER_OP = 8

# Products per chunk of f's rows in the box kernel: the chunk's cell and
# product arrays stay under 1 MB.
_CHUNK_PRODUCTS = 2**14

# Trend thresholds: below the first is a plateau, at or above the second is
# growth, anything between is reported as indeterminate.
PLATEAU_MAX_GROWTH = 0.15
GROWTH_MIN = 0.25


def convolve(f: FinSuppFn, g: FinSuppFn) -> FinSuppFn:
    """Exact sparse convolution (f*g)(x) = sum_y f(y) g(x-y).

    Each value is the one the plain double loop over f, then g, gives, bit
    for bit:

    - Each output key sums its terms in the iteration order of f, starting
      from ``0j``, and for one key and one entry a of f exactly one entry b
      of g contributes. So the array path adds the products into the
      bounding box of supp f + supp g with ``np.add.at``, a chunk of f's
      entries at a time, which applies them in f's order
      (:func:`_box_convolve`).
    - Products are formed from real arrays in CPython's complex-multiply
      order, ``re = ar*br - ai*bi`` and ``im = ar*bi + ai*br``, and summed
      into separate float64 arrays that start at 0.0; numpy's own complex
      multiply differs from CPython's in the last ulp.

    The array path lists the box's nonzero cells row-major, the loop its
    keys as they first appear; no value the package reports reads that
    order. The route is asked once: pairs below ``_ARRAY_MIN_OPS`` products
    take the loop (:func:`_takes_box`, checked before any array is read),
    and so do pairs with a point that has no int64 view
    (:meth:`~orliczlat.finsupp.FinSuppFn._int64_view`) and the pairs
    :func:`_box_convolve` refuses: a box corner outside int64, or a box much
    larger than ``len(f) * len(g)``. Raises :class:`ResourceLimitError`
    above ``MAX_CONV_OPS`` products and :class:`NumericalFailureError`
    naming the first output point, in key order, whose value overflows. The
    scans' convolution tops are the functions it returns
    (:func:`_convolution_norms`).
    """
    f._check_dim(g)
    ops = len(f) * len(g)
    if ops > MAX_CONV_OPS:
        raise ResourceLimitError(f"convolution needs {ops} products, budget {MAX_CONV_OPS}")
    if _takes_box(ops):
        f_pts, g_pts = f._int64_view(), g._int64_view()
        if f_pts is not None and g_pts is not None:
            gv = np.fromiter(g.entries.values(), dtype=complex, count=len(g))
            box = _box_convolve(f_pts, f.entries.values(), g_pts, gv.real.copy(), gv.imag.copy())
            if box is not None:
                return _box_function(f.dim, *box)
    return _convolve_loop(f, g)


def _takes_box(ops: int) -> bool:
    """The one route rule: a pair of ``ops`` products takes the box kernel
    from ``_ARRAY_MIN_OPS`` up to ``MAX_CONV_OPS``, whatever its shape."""
    return _ARRAY_MIN_OPS <= ops <= MAX_CONV_OPS


def _box_function(dim: int, re: np.ndarray, im: np.ndarray, corner: list[int],
                  extent: list[int]) -> FinSuppFn:
    """f*g as a sparse function read off its box: the nonzero cells,
    row-major. The box lies in int64 (:func:`_box_convolve`), so the
    coordinates are added there, and their array is the function's view."""
    cells = np.flatnonzero((re != 0.0) | (im != 0.0))
    vals = np.empty(len(cells), dtype=complex)
    vals.real, vals.imag = re[cells], im[cells]
    axes = np.array(np.unravel_index(cells, extent)) + np.array(corner)[:, None]
    keys = zip(*axes.tolist())
    return FinSuppFn._computed(dim, dict(zip(keys, vals.tolist())), "convolution", axes.T)


def _box_convolve(
    f_pts: np.ndarray, f_vals: Iterable[complex], g_pts: np.ndarray, gr: np.ndarray, gi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[int], list[int]] | None:
    """The array path of :func:`convolve` on int64 point arrays: a*b for
    each entry a of f and b of g, added into the bounding box of supp f +
    supp g in f's order.

    The entries of f are taken a chunk of rows at a time
    (:func:`_chunked_cells`). A chunk's products are one 2-D broadcast in
    CPython's complex-multiply order, added by ``np.add.at``, which is
    unbuffered and applies its indices in order: each cell sums its terms
    in f's order from 0.0, as one ``+=`` per entry of f would. A chunk
    summed apart (``np.bincount``, ``reduceat``, ``sum``) and then added
    would associate differently.

    Returns the real and imaginary box and the box's lowest corner and
    per-axis extent (row-major cells); None, for the loop, where the box
    has more than ``_ARRAY_MAX_BOX_PER_OP`` cells per product or a corner
    of it leaves int64. A cell no product lands in holds 0.0 in both boxes,
    so the nonzero cells are the support of f*g.
    """
    f_lo, f_hi = f_pts.min(axis=0).tolist(), f_pts.max(axis=0).tolist()
    g_lo, g_hi = g_pts.min(axis=0).tolist(), g_pts.max(axis=0).tolist()
    extent = [fh - fl + gh - gl + 1 for fl, fh, gl, gh in zip(f_lo, f_hi, g_lo, g_hi)]
    corner = [fl + gl for fl, gl in zip(f_lo, g_lo)]
    box = math.prod(extent)
    if (box > _ARRAY_MAX_BOX_PER_OP * len(f_pts) * len(g_pts) or min(corner) < -(2**63)
            or max(fh + gh for fh, gh in zip(f_hi, g_hi)) >= 2**63):
        return None
    f_at = np.ravel_multi_index(tuple((f_pts - f_lo).T), extent)
    g_at = np.ravel_multi_index(tuple((g_pts - g_lo).T), extent)
    fv = np.fromiter(f_vals, dtype=complex, count=len(f_pts))
    fr, fi = fv.real[:, None], fv.imag[:, None]
    re, im = np.zeros(box), np.zeros(box)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, cells in _chunked_cells(f_at, g_at):
            ar, ai = fr[rows], fi[rows]
            np.add.at(re, cells, (ar * gr - ai * gi).ravel())
            np.add.at(im, cells, (ar * gi + ai * gr).ravel())
    return re, im, corner, extent


def _chunked_cells(f_at: np.ndarray, g_at: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """The rows of f in chunks of about ``_CHUNK_PRODUCTS`` products (one
    row where g alone is longer), each with the cells its products land
    in, f-major: row by row of f, each in g's order."""
    step = max(1, _CHUNK_PRODUCTS // len(g_at))
    for start in range(0, len(f_at), step):
        rows = slice(start, start + step)
        yield rows, (f_at[rows, None] + g_at).ravel()


def _convolution_norms(
    phi: YoungFunction, omega: Weight | None, fs: Sequence[FinSuppFn], gs: Sequence[FinSuppFn]
) -> list[float]:
    """The Luxemburg norm under phi of omega * (f*g), or of f*g where omega
    is None, for each pair, measured in one lockstep batch. Each f*g is the
    function :func:`convolve` returns: the weighted tops are read in one
    :func:`~orliczlat.norms._weighted_magnitudes` pass, and each unweighted
    top as soon as it is built, so only its magnitudes stay alive."""
    if omega is None:
        with np.errstate(over="ignore"):
            scaled = [convolve(f, g)._scaled_magnitudes() for f, g in zip(fs, gs)]
        mags_list, exponents = [m for m, _ in scaled], [s for _, s in scaled]
    else:
        mags_list, exponents = _weighted_magnitudes(omega, [convolve(f, g) for f, g in zip(fs, gs)])
    return _scaled_back(phi, _luxemburg_norms(phi, mags_list), exponents)


def _convolve_loop(f: FinSuppFn, g: FinSuppFn) -> FinSuppFn:
    out: dict = {}
    get = out.get
    for p, a in f:
        for q, b in g:
            key = tuple(map(operator.add, p, q))
            out[key] = get(key, 0j) + a * b
    return FinSuppFn._computed(f.dim, out, "convolution")


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

    The three measures take lists and return their values in order:
    ``left(fs)`` and ``right(gs)`` the norms of the fs and of the gs,
    ``top(fs, gs)`` the numerator of each pair (f, g). A radius draws all
    its pairs first, measures every f with one ``left`` call and every g
    with one ``right`` call, then each distinct pair (by identity) whose
    two norms are nonzero with one ``top`` call (the Luxemburg measures run
    the functions of a batch in lockstep, see
    :func:`~orliczlat.norms._luxemburg_norms`), and only then forms the
    ratios in pair order. If drawing or measuring
    raises, the radius is replayed a pair at a time, each measure on lists
    of one, so the error surfaces that the pair order meets first.

    The radii are scanned in ascending order, each once; the trend needs
    two distinct radii, and a radius below 1 is refused.

    ``scan_pairs`` pairs a candidate f that is even or odd under the
    reflection with itself where its flip g would stand, which is exact
    under one condition on the measures: each reads magnitudes, a
    Luxemburg norm or an exact sum, so neither g's key order nor a zero's
    sign changes a value, and each ``top`` reads |B(f, g)| or a norm of
    f*g for a bilinear B. For odd f, g = -f: negating g negates every
    product exactly, and the convolution's sums from 0.0 and the exact
    pairing sum (``math.fsum`` is correctly rounded) are then negated
    exactly, up to signed zeros, so every magnitude is unchanged. A
    measure outside that condition must not be scanned over these pools.
    """
    radii = sorted(set(radii))
    if not radii:
        raise InvalidInputError(f"{op}: a scan needs at least one radius")
    if radii[0] < 1:
        raise InvalidInputError(f"{op}: radius {radii[0]} is below 1")
    per_radius = []
    for r in radii:
        try:
            ratios = _ratios(list(scan_pairs(dim, r, trials, seed, omega=omega, xi=xi)),
                             top, left, right)
        except Exception:  # any error: the pair-at-a-time replay raises the one met first
            ratios = [row for pair in scan_pairs(dim, r, trials, seed, omega=omega, xi=xi)
                      for row in _ratios([pair], top, left, right)]
        best, best_kind = 0.0, ""
        for kind, ratio in ratios:
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


def _ratios(pairs: list, top, left, right) -> list[tuple[str, float]]:
    """(kind, top / (left right)) for each pair whose two norms are nonzero,
    in pair order: one call of each measure, ``top`` on each distinct
    (f, g) by identity once, the only place a top is deduped."""
    nfs, ngs = left([f for _, f, _ in pairs]), right([g for _, _, g in pairs])
    kept = [(kind, f, g, nf * ng)
            for (kind, f, g), nf, ng in zip(pairs, nfs, ngs) if nf != 0.0 and ng != 0.0]
    distinct = {(id(f), id(g)): (f, g) for _, f, g, _ in kept}
    tops = dict(zip(distinct, top([f for f, _ in distinct.values()],
                                  [g for _, g in distinct.values()])))
    return [(kind, tops[id(f), id(g)] / den) for kind, f, g, den in kept]


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
        lambda fs, gs: _convolution_norms(ctx.pair.phi, ctx.omega, fs, gs),
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
        lambda fs, gs: _convolution_norms(ctx.pair.phi, ctx.omega, fs, gs),
        lambda fs: [weighted_l1_norm(ctx.omega, f) for f in fs],
        ctx.weighted_luxemburg_norms,
        ctx.dim, trials, seed, omega=ctx.omega,
    )


def _sqrt_psi(pair: ComplementaryPair) -> YoungFunction:
    """The sqrt transform T of the pair's Psi; a rejected one raises
    PreconditionError."""
    try:
        return sqrt_transform(pair.psi)
    except ConvexityError as exc:
        raise PreconditionError(
            f"sqrt transform rejected for {pair.psi.describe()}: {exc}"
        ) from exc


def conv_inclusion_check(
    pair: ComplementaryPair,
    radius: int,
    trials: int,
    seed: int,
    dim: int = 1,
) -> ScanReport:
    """Scan the convolution inclusion: N_Psi(u*f) / (N_T(u) N_Phi(f)) where
    T is the sqrt transform of Psi."""
    psi_tilde = _sqrt_psi(pair)
    return _ratio_scan(
        "conv_inclusion_check",
        {"pair": pair.describe(), "radius": radius, "trials": trials, "seed": seed},
        _radius_ladder(radius),
        lambda us, fs: _convolution_norms(pair.psi, None, us, fs),
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
    phi_tilde = numeric_conjugate(_sqrt_psi(pair))
    return _ratio_scan(
        "pointwise_inclusion_check",
        {"pair": pair.describe(), "radius": radius, "trials": trials, "seed": seed},
        _radius_ladder(radius),
        lambda us, gs: _luxemburg_of(pair.phi, [u.pointwise_mul(g) for u, g in zip(us, gs)]),
        lambda us: _luxemburg_of(phi_tilde, us),
        lambda gs: _luxemburg_of(pair.psi, gs),
        dim, trials, seed,
    )
