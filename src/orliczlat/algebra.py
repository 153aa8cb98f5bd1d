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
pair is its /same pair by identity. The convolution tops of a radius are
one array pass (:func:`_convolution_norms`): one box kernel call adds
every pair's products into its own box (:func:`_box_tops`), a chunk at a
time in ordered ``np.add.at`` passes, so each cell is bit for bit the sum
one entry at a time gives; the nonzero cells are weighted and measured in
one lockstep Luxemburg call, and no top is built as a sparse function.
:func:`convolve` is the same kernel on one pair, read off its box.
"""

from __future__ import annotations

import itertools
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
from .finsupp import FinSuppFn
from .norms import (
    _luxemburg_norms,
    _luxemburg_of,
    _scaled_back,
    _split_at_scale,
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

# Where convolve takes the plain loop instead of the box kernel (measured
# crossover, see CHANGES.md). The kernel pays a fixed run of numpy calls per
# call, about 110 us on one pair whatever the length of g, and the loop
# about 0.5 us a product: on one pair they meet at 250-330 products (d = 1
# and 2). The scans' tops share one kernel call per radius whatever their
# size, so this crossover governs convolve alone (and with it the pairs
# that call refuses).
# A box cell costs 17 bytes: beyond _ARRAY_MAX_BOX_PER_OP cells per product
# (sparse draws) the box would outgrow the loop's dict.
_ARRAY_MIN_OPS = 256
_ARRAY_MAX_BOX_PER_OP = 8

# Products per chunk of the box kernel: a chunk's cell and product arrays
# stay under 1 MB.
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
      (:func:`_box_tops`).
    - Products are formed from real arrays in CPython's complex-multiply
      order, ``re = ar*br - ai*bi`` and ``im = ar*bi + ai*br``, and summed
      into separate float64 arrays that start at 0.0; numpy's own complex
      multiply differs from CPython's in the last ulp.

    The array path lists the box's nonzero cells row-major, the loop its
    keys as they first appear; no value the package reports reads that
    order. The route is asked once: pairs below ``_ARRAY_MIN_OPS`` products
    take the loop (:func:`_takes_box`, checked before any array is read),
    and so do the pairs the box kernel :func:`_box_tops` refuses: a point
    with no int64 view (:meth:`~orliczlat.finsupp.FinSuppFn._int64_view`),
    a box corner outside int64, or a box much larger than ``len(f) *
    len(g)``. Raises :class:`ResourceLimitError` above ``MAX_CONV_OPS``
    products and :class:`NumericalFailureError` naming the first output
    point, in key order, whose value overflows. The scans' convolution
    tops are measured by the same kernel without building this function
    (:func:`_convolution_norms`); where that batch cannot be exact for a
    pair, the pair's top is the one returned here.
    """
    f._check_dim(g)
    ops = len(f) * len(g)
    if ops > MAX_CONV_OPS:
        raise ResourceLimitError(f"convolution needs {ops} products, budget {MAX_CONV_OPS}")
    if _takes_box(ops):
        re, im, _, boxes = _box_tops([f], [g])
        if boxes[0] is not None:
            return _box_function(f.dim, re, im, *boxes[0])
    return _convolve_loop(f, g)


def _ends(sizes: Iterable[int]) -> list[int]:
    return [0, *itertools.accumulate(sizes)]


def _takes_box(ops: int) -> bool:
    """The one route rule of :func:`convolve`: a pair of ``ops`` products
    takes the box kernel from ``_ARRAY_MIN_OPS`` up to ``MAX_CONV_OPS``,
    whatever its shape."""
    return _ARRAY_MIN_OPS <= ops <= MAX_CONV_OPS


def _box_function(dim: int, re: np.ndarray, im: np.ndarray, corner: list[int],
                  extent: list[int]) -> FinSuppFn:
    """f*g as a sparse function read off its box: the nonzero cells,
    row-major. The box lies in int64 (:func:`_box_tops`), so the
    coordinates are added there, and their array is the function's view."""
    cells = np.flatnonzero((re != 0.0) | (im != 0.0))
    vals = np.empty(len(cells), dtype=complex)
    vals.real, vals.imag = re[cells], im[cells]
    axes = np.array(np.unravel_index(cells, extent)) + np.array(corner)[:, None]
    keys = zip(*axes.tolist())
    return FinSuppFn._computed(dim, dict(zip(keys, vals.tolist())), "convolution", axes.T)


def _box_tops(
    fs: Sequence[FinSuppFn], gs: Sequence[FinSuppFn]
) -> tuple[np.ndarray, np.ndarray, list[int], list[tuple[list[int], list[int]] | None]]:
    """The box kernel: f*g for each pair (f, g), each added into the
    bounding box of supp f + supp g, every box at its own offset in one
    real and one imaginary buffer, in one array pass.

    Each distinct f or g (by identity) has its int64 view, its values and
    its bounding box read once. The products a*b of a pair, for each entry
    a of f and b of g, are formed in CPython's complex-multiply order and
    added by ``np.add.at``, which is unbuffered and applies its indices in
    order, f-major: each cell sums its terms in f's order from 0.0, as one
    ``+=`` per entry of f would. A sum taken apart (``np.bincount``,
    ``reduceat``, ``sum``) and then added would associate differently. A
    chunk holds at most ``_CHUNK_PRODUCTS`` products: a run of whole pairs
    gathered product by product, or a block of one larger pair's rows of f
    broadcast against all of g (one row where g alone is longer).

    Returns the two buffers, the ends of the boxes in them (``ends[k]`` to
    ``ends[k + 1]`` for pair k, empty where it has no box) and, per pair,
    its box's lowest corner and per-axis extent (row-major cells), or None
    where the kernel refuses the pair: another dimension than the first f,
    an empty f or g, more than ``MAX_CONV_OPS`` products, a point with no
    int64 view, a box with more than ``_ARRAY_MAX_BOX_PER_OP`` cells per
    product, or a box corner outside int64. Those are checked in Python
    ints before any array arithmetic. A cell no product lands in holds 0.0
    in both buffers, so the nonzero cells of a box are the support of f*g.
    """
    dim = fs[0].dim if fs else 0
    held = [h for h in {id(h): h for h in itertools.chain(fs, gs)}.values()
            if h.dim == dim and len(h) and h._int64_view() is not None]
    starts = _ends(len(h) for h in held)
    at: dict[int, tuple[int, list[int], list[int]]] = {}
    if held:
        pts = np.concatenate([h._int64_view() for h in held])
        vals = np.fromiter(itertools.chain.from_iterable(h.entries.values() for h in held),
                           complex, starts[-1])
        lows = np.minimum.reduceat(pts, starts[:-1]).tolist()
        highs = np.maximum.reduceat(pts, starts[:-1]).tolist()
        at = {id(h): box for h, box in zip(held, zip(starts, lows, highs))}
    ends, boxes, live = [0], [], []
    for f, g in zip(fs, gs):
        box = None
        if id(f) in at and id(g) in at and len(f) * len(g) <= MAX_CONV_OPS:
            (f_at, f_lo, f_hi), (g_at, g_lo, g_hi) = at[id(f)], at[id(g)]
            extent = [fh - fl + gh - gl + 1 for fl, fh, gl, gh in zip(f_lo, f_hi, g_lo, g_hi)]
            corner = [fl + gl for fl, gl in zip(f_lo, g_lo)]
            if (math.prod(extent) <= _ARRAY_MAX_BOX_PER_OP * len(f) * len(g)
                    and min(corner) >= -(2**63)
                    and max(fh + gh for fh, gh in zip(f_hi, g_hi)) < 2**63):
                box = corner, extent
                strides = [math.prod(extent[i + 1:]) for i in range(len(extent))]
                live.append([f_at, len(f), g_at, len(g), ends[-1], *f_lo, *g_lo, *strides])
        boxes.append(box)
        ends.append(ends[-1] + (math.prod(box[1]) if box else 0))
    re, im = np.zeros(ends[-1]), np.zeros(ends[-1])
    if live:
        _add_products(re, im, pts, vals, live)
    return re, im, ends, boxes


def _add_products(re: np.ndarray, im: np.ndarray, pts: np.ndarray, vals: np.ndarray,
                  live: list[list[int]]) -> None:
    """Add the products of each pair of ``live`` into its box (see
    :func:`_box_tops`). A pair is [start of f among the points and values,
    len f, the same two for g, the box's offset, then per axis f's lowest
    corner, g's and the box's row-major stride]. Each row of f and column
    of g gets its cell offset first: a product a*b lands in their sum."""
    table = np.array(live, np.int64)
    dim = (table.shape[1] - 5) // 3
    f_at, nf, g_at, ng, offset = table[:, :5].T
    f_lo, g_lo, strides = table[:, 5:5 + dim], table[:, 5 + dim:5 + 2 * dim], table[:, 5 + 2 * dim:]
    row_of = np.repeat(np.arange(len(live)), nf)
    col_of = np.repeat(np.arange(len(live)), ng)
    rows, cols = _ranges(f_at, nf), _ranges(g_at, ng)  # among the points and values
    row_cells = ((pts[rows] - f_lo[row_of]) * strides[row_of]).sum(axis=1) + offset[row_of]
    col_cells = ((pts[cols] - g_lo[col_of]) * strides[col_of]).sum(axis=1)
    fr, fi, gr, gi = vals.real[rows], vals.imag[rows], vals.real[cols], vals.imag[cols]
    per_row, first_col = ng[row_of], (np.cumsum(ng) - ng)[row_of]  # each row's columns
    row_ends, col_ends = _ends(nf.tolist()), _ends(ng.tolist())

    def add(ar, ai, br, bi, cells):
        np.add.at(re, cells, (ar * br - ai * bi).ravel())
        np.add.at(im, cells, (ar * bi + ai * br).ravel())

    def gather(a: int, b: int) -> None:  # rows a..b-1, each against its pair's g
        counts = per_row[a:b]
        col = _ranges(first_col[a:b], counts)
        add(np.repeat(fr[a:b], counts), np.repeat(fi[a:b], counts), gr[col], gi[col],
            np.repeat(row_cells[a:b], counts) + col_cells[col])

    with np.errstate(over="ignore", invalid="ignore"):
        first, total = 0, 0  # the run of whole pairs first..k-1, total products
        for k, n in enumerate((nf * ng).tolist()):
            if total and total + n > _CHUNK_PRODUCTS:
                gather(row_ends[first], row_ends[k])
                first, total = k, 0
            if n <= _CHUNK_PRODUCTS:
                total += n
                continue
            cs = slice(col_ends[k], col_ends[k + 1])  # pair k alone, a block of rows at a time
            step = max(1, _CHUNK_PRODUCTS // (col_ends[k + 1] - col_ends[k]))
            for a in range(row_ends[k], row_ends[k + 1], step):
                rs = slice(a, min(a + step, row_ends[k + 1]))
                add(fr[rs, None], fi[rs, None], gr[cs], gi[cs],
                    (row_cells[rs, None] + col_cells[cs]).ravel())
            first = k + 1
        if total:
            gather(row_ends[first], row_ends[-1])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """start, start + 1, ..., start + count - 1 for each start and count, in order."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _convolution_norms(
    phi: YoungFunction, omega: Weight | None, fs: Sequence[FinSuppFn], gs: Sequence[FinSuppFn]
) -> list[float]:
    """The Luxemburg norm under phi of omega * (f*g), or of f*g where omega
    is None, for each pair, in one array pass: every f*g from one
    :func:`_box_tops` call, the nonzero cells' coordinates through one
    ``Weight.at_points``, the magnitudes through one ``np.hypot`` and one
    ``norms._split_at_scale``, and the norms through one lockstep
    :func:`~orliczlat.norms._luxemburg_norms` call. No top is built as a
    sparse function; each norm is the float the reader gives on the
    function :func:`convolve` returns (``weighted_norm`` of the Luxemburg
    kind, or ``luxemburg_norm``), the weighted products as
    :func:`~orliczlat.norms._weighted_magnitudes` forms them.

    The reference, ``convolve(f, g)`` and that reader, measures a pair
    only where the batch cannot be exact: a pair the kernel refuses, a top
    that is not finite, or a weighted product that is not finite. The
    tops go in pair order, then the weightings, so each error is the one
    building and weighting every top in pair order meets first.
    """
    re, im, box_ends, boxes = _box_tops(fs, gs)
    cells = np.flatnonzero((re != 0.0) | (im != 0.0))
    re, im = re[cells], im[cells]
    ends = np.searchsorted(cells, box_ends).tolist()  # each pair's range of cells

    def owners(at: np.ndarray) -> set[int]:
        return set((np.searchsorted(ends, at, side="right") - 1).tolist())

    refused = {k for k, box in enumerate(boxes) if box is None}
    refused |= owners(np.flatnonzero(~(np.isfinite(re) & np.isfinite(im))))
    tops = {k: convolve(fs[k], gs[k]) for k in sorted(refused)}  # a top that is not finite raises
    with np.errstate(over="ignore", invalid="ignore"):
        if omega is not None and len(cells):
            pts = _cell_points(cells, box_ends, boxes)
            if pts.min() == -(2**63):  # whose |x| int64 does not hold: read as Python ints
                pts = list(map(tuple, pts.tolist()))
            w = omega.at_points(pts, fs[0].dim)
            re, im = re * w, im * w
        mags = np.hypot(re, im)
        spoilt = ~(np.isfinite(re) & np.isfinite(im))
    if spoilt.any():  # a weighted product that is not finite: its pair takes the reference
        refused |= owners(np.flatnonzero(spoilt))
        mags[spoilt] = 0.0
    keep = mags != 0.0  # a weighted product that underflows to 0 leaves the support
    ends = np.concatenate(([0], np.cumsum(keep)))[ends].tolist()
    with np.errstate(over="ignore"):
        mags_list, exponents = _split_at_scale(re[keep], im[keep], mags[keep], ends)
        for k in sorted(refused):  # the weightings in pair order
            top = tops[k] if k in tops else convolve(fs[k], gs[k])
            if omega is None:
                mags_list[k], exponents[k] = top._scaled_magnitudes()
            else:
                (mags_list[k],), (exponents[k],) = _weighted_magnitudes(omega, [top])
    return _scaled_back(phi, _luxemburg_norms(phi, mags_list), exponents)


def _cell_points(cells: np.ndarray, box_ends: list[int], boxes: list) -> np.ndarray:
    """The lattice points of ``cells``, ascending indices into the buffers
    of :func:`_box_tops` (its ``box_ends`` and ``boxes``), as an int64
    (n, dim) array: each box is row-major from its corner and lies in
    int64."""
    live = [k for k, box in enumerate(boxes) if box is not None]
    corner = np.array([boxes[k][0] for k in live], np.int64)
    extent = np.array([boxes[k][1] for k in live], np.int64)
    owner = np.searchsorted([box_ends[k] for k in live], cells, side="right") - 1
    local = cells - np.array(box_ends)[live][owner]
    pts = np.empty((len(cells), corner.shape[1]), np.int64)
    for axis in range(corner.shape[1] - 1, 0, -1):
        rest = local // extent[owner, axis]
        pts[:, axis] = local - rest * extent[owner, axis] + corner[owner, axis]
        local = rest
    pts[:, 0] = local + corner[owner, 0]
    return pts


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
