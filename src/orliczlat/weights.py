"""Lattice geometry of Z^d and the weight families.

The generating set is the box {-1, 0, 1}^d, whose word length is the
sup-norm max_i |x_i|; the closed ball of radius n therefore has exactly
(2n+1)^d points and the shell at radius n has (2n+1)^d - (2n-1)^d.

A weight is a positive function omega with omega(0) = 1, 1/omega bounded,
and omega(s+t) <= C * omega(s) * omega(t). The built-in families are all
radial functions exp(nu(|x|)) of the word length with nu subadditive, so
they satisfy the inequality with C = 1:

    polynomial   omega_beta(x) = (1 + |x|)^beta,          beta >= 0
    subexp_alpha sigma(x)      = exp(C |x|^alpha),        0 < alpha <= 1
    subexp_log   rho(x)        = exp(C |x| / ln(1+|x|)^gamma),  gamma > 0

Summability of 1/omega in an Orlicz space drives the algebra and
weak-amenability criteria; :func:`reciprocal_summability` renders a
three-way verdict (converges / diverges / inconclusive) because only the
power-function cases have an exact test: beta*q > d for the polynomial
weight, and convergence in every d for the two subexponential weights.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, ResourceLimitError, from_spec
from .finsupp import Point, _int64_points, as_point
from .young import YoungFunction, _guarded

__all__ = [
    "word_length",
    "ball",
    "ball_size",
    "shell_count",
    "Weight",
    "Homomorphism",
    "DampedHomomorphism",
    "weight_from_spec",
    "polynomial_weight",
    "subexp_alpha_weight",
    "subexp_log_weight",
    "generic_weight",
    "submult_constant",
    "uv_decomposition_check",
    "reciprocal_summability",
    "shell_series_verdict",
    "slope_verdict",
    "SeriesReport",
]

MAX_BALL_POINTS = 2_000_000
# the conjugate command's log-spaced y grid
MAX_GRID_POINTS = 100_000
MAX_PAIR_OPS = 20_000_000


def word_length(x: Iterable[int] | int) -> int:
    """Word length of a lattice point over the box generating set: max|x_i|."""
    pt = as_point(x)
    return max(abs(c) for c in pt)


def ball_size(n: int, dim: int) -> int:
    return (2 * n + 1) ** dim


def ball(n: int, dim: int) -> list[Point]:
    """All points with word length <= n, in lexicographic order."""
    if n < 0 or dim < 1:
        raise InvalidInputError(f"need n >= 0 and dim >= 1, got n={n!r}, dim={dim!r}")
    if ball_size(n, dim) > MAX_BALL_POINTS:
        raise ResourceLimitError(
            f"ball({n}, dim={dim}) has {2 * n + 1}^{dim} points, budget {MAX_BALL_POINTS}"
        )
    return list(itertools.product(range(-n, n + 1), repeat=dim))


def shell_count(n: int, dim: int) -> int:
    """Number of points with word length exactly n."""
    if n < 0:
        raise InvalidInputError(f"need n >= 0, got {n!r}")
    if n == 0:
        return 1
    return ball_size(n, dim) - ball_size(n - 1, dim)


@dataclass(frozen=True, eq=False)
class Weight:
    """Radial weight on Z^d: value at x is ``radial(word_length(x))``.

    ``radial`` maps overflow to +inf, so very distant points simply damp
    everything they multiply to zero instead of raising.
    """

    family: str
    params: Mapping[str, float]
    radial: Callable[[int], float]
    submult_C: float = 1.0
    # radial values by word length, filled by at_points
    _table: dict[int, float] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "radial", functools.partial(_guarded, self.radial))

    def __call__(self, x: Iterable[int] | int) -> float:
        return self.radial(word_length(x))

    def at_points(self, points: Collection[Point] | np.ndarray, dim: int) -> np.ndarray:
        """The weight at each point (int tuples of length dim, or their int64
        view as an (n, dim) array), in order: ``radial`` read from a table
        memoised per word length, so each value is the float ``self(p)``
        returns. Points with no int64 view
        (:func:`~orliczlat.finsupp._int64_points`) are measured as Python ints."""
        coords = points if isinstance(points, np.ndarray) else _int64_points(points, dim)
        if coords is None:
            coords = np.array(list(points), dtype=object).reshape(len(points), dim)
        lengths, at = np.unique(np.abs(coords).max(axis=1), return_inverse=True)
        table, ks = self._table, lengths.tolist()
        for k in ks:
            if k not in table:
                table[k] = self.radial(k)
        return np.array([table[k] for k in ks], dtype=float)[at]

    def describe(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})" if inner else self.family

    def spec(self) -> dict:
        return {"family": self.family, **{k: float(v) for k, v in self.params.items()}}


@dataclass(frozen=True)
class Homomorphism:
    """Additive map Z^d -> C given by coefficients: x -> sum c_i x_i."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise InvalidInputError("a homomorphism needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        for c in self.coeffs:
            if not cmath.isfinite(c):
                raise InvalidInputError(f"homomorphism coefficient {c!r} is not finite")

    @classmethod
    def basis(cls, dim: int, axis: int = 0) -> "Homomorphism":
        if not 0 <= axis < dim:
            raise InvalidInputError(f"axis {axis} out of range for dim {dim}")
        return cls(tuple(1.0 if i == axis else 0.0 for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __call__(self, x: Point | Sequence[int]) -> complex:
        return sum(c * xi for c, xi in zip(self.coeffs, x))

    def corner_vertex(self) -> tuple[int, ...]:
        """The first sign pattern s, from (1, ..., 1), maximising |xi(s)|;
        |xi| on the shell of radius n attains its maximum at n * s."""
        return max(itertools.product((1, -1), repeat=self.dim), key=lambda s: abs(self(s)))

    def corner_amplitude(self) -> float:
        """max over sign patterns of |sum +-c_i|, the maximum of |xi| on
        the shell of radius 1 (n times it on the shell of radius n)."""
        return abs(self(self.corner_vertex()))


@dataclass(frozen=True, eq=False)
class DampedHomomorphism:
    """The damped form xi(s) / (omega(s) * omega(-s)), the one place the
    package forms it. Every weight here is radial in max|x_i|, so
    omega(-s) = omega(s) exactly and the damping is omega(s)**2: this is
    the only code that assumes it."""

    xi: Homomorphism
    omega: Weight
    _amplitude: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_amplitude", self.xi.corner_amplitude())

    def values(self, points: Sequence[Point]) -> list[complex]:
        """The damped form at each point of Z^(xi.dim), in order, omega read
        by :meth:`Weight.at_points`; raises :class:`NumericalFailureError`
        naming the first point where it is not finite."""
        ws = self.omega.at_points(points, self.xi.dim).tolist()
        out = [self.xi(p) / (w * w) for p, w in zip(points, ws)]
        for p, v in zip(points, out):
            if not cmath.isfinite(v):
                raise NumericalFailureError(f"damped form value {v!r} at {p!r} is not finite")
        return out

    def __call__(self, s: Point | Sequence[int]) -> complex:
        pt = as_point(s)
        if len(pt) != self.xi.dim:
            raise InvalidInputError(f"point {pt!r} has dimension {len(pt)}, not {self.xi.dim}")
        return self.values([pt])[0]

    def shell_max(self, n: int) -> float:
        """Exact max of the damped magnitude over the shell of radius n."""
        r = self.omega.radial(n)
        return n * self._amplitude / (r * r)

    def peak_point(self, radius: int) -> Point:
        """Where the damped magnitude peaks on the ball of this radius:
        n * xi.corner_vertex() for the first n in 1..radius of largest
        :meth:`shell_max`, the origin for radius 0. A ray longer than
        ``MAX_BALL_POINTS`` raises :class:`ResourceLimitError`."""
        if radius > MAX_BALL_POINTS:
            raise ResourceLimitError(
                f"damped-peak ray to radius {radius}: {radius} points, budget {MAX_BALL_POINTS}"
            )
        n = max(range(1, radius + 1), key=self.shell_max, default=0)
        return tuple(n * c for c in self.xi.corner_vertex())


def _validate_radial(w: Weight) -> None:
    """Check the weight axioms on the radii 0..40."""
    radius = 40
    if w.radial(0) != 1.0:
        raise InvalidInputError(f"{w.describe()}: weight must be 1 at the origin")
    vals = [w.radial(n) for n in range(radius + 1)]
    for n, v in enumerate(vals):
        if math.isinf(v):
            raise NumericalFailureError(f"weight {w.describe()} overflows at radius {n}")
        if not v > 0.0:
            raise InvalidInputError(f"{w.describe()}: non-positive value at radius {n}")
        if v < 1.0 - 1e-12:
            raise InvalidInputError(f"{w.describe()}: 1/weight exceeds 1 at radius {n}")
    c = w.submult_C
    for a in range(radius + 1):
        for b in range(a, radius + 1):
            if vals[a] * vals[b] * c * (1.0 + 1e-9) < w.radial(a + b):
                raise InvalidInputError(
                    f"{w.describe()}: submultiplicativity fails at radii ({a},{b})"
                )


def polynomial_weight(beta: float) -> Weight:
    if not 0 <= beta < math.inf:
        raise InvalidInputError(f"polynomial weight needs finite beta >= 0, got {beta!r}")
    # beta = 0 is 1 at every point, also where 1 + n passes the float range
    w = Weight("polynomial", {"beta": beta}, lambda n: (1.0 + n) ** beta if beta else 1.0)
    _validate_radial(w)
    return w


def subexp_alpha_weight(alpha: float, C: float) -> Weight:
    if not 0 < alpha <= 1:
        raise InvalidInputError(f"subexp_alpha needs 0 < alpha <= 1, got {alpha!r}")
    if not 0 < C < math.inf:
        raise InvalidInputError(f"subexp_alpha needs finite C > 0, got {C!r}")
    w = Weight(
        "subexp_alpha", {"alpha": alpha, "C": C}, lambda n: math.exp(C * n ** alpha)
    )
    _validate_radial(w)
    return w


def subexp_log_weight(gamma: float, C: float) -> Weight:
    if not 0 < gamma < math.inf:
        raise InvalidInputError(f"subexp_log needs finite gamma > 0, got {gamma!r}")
    if not 0 < C < math.inf:
        raise InvalidInputError(f"subexp_log needs finite C > 0, got {C!r}")

    def radial(n: int) -> float:
        if n == 0:
            return 1.0
        return math.exp(C * n / math.log1p(n) ** gamma)

    # The rate n / ln(1+n)^gamma dips below its value at 1 before growing
    # again once gamma > 1, so the weight is only weakly submultiplicative:
    # scan radii past the dip for the constant (1.0 when the rate is
    # monotone, e.g. gamma <= 1).
    horizon = 60 if gamma <= 1.0 else min(1200, int(3.0 * math.exp(gamma)) + 60)
    vals = [radial(n) for n in range(2 * horizon + 1)]
    prefix_max = list(itertools.accumulate(vals, max))
    c_emp = 1.0
    for a in range(horizon + 1):
        fa = vals[a]
        for b in range(a, horizon + 1):
            c_emp = max(c_emp, prefix_max[a + b] / (fa * vals[b]))
    w = Weight(
        "subexp_log", {"gamma": gamma, "C": C}, radial, submult_C=c_emp * (1.0 + 1e-12)
    )
    _validate_radial(w)
    return w


def generic_weight(nu: Callable[[float], float], label: str = "generic") -> Weight:
    """Weight exp(nu(|x|)) from a rate function nu.

    ``nu`` must be increasing and subadditive with nu(0) = 0 and
    nu(n) -> inf; these are spot-checked on a grid.
    """
    if nu(0) != 0.0:
        raise InvalidInputError("rate function must vanish at 0")
    probe = list(range(0, 61))
    vals = [float(nu(n)) for n in probe]
    for a, va, vb in zip(probe, vals, vals[1:]):
        if vb < va - 1e-12:
            raise InvalidInputError(f"rate function decreases near {a}")
    for a in range(0, 41, 4):
        for b in range(a, 41, 4):
            if nu(a + b) > vals[a] + vals[b] + 1e-9 * (1.0 + vals[a] + vals[b]):
                raise InvalidInputError(f"rate function not subadditive at ({a},{b})")
    if not nu(10_000) > nu(10) + 1.0:
        raise InvalidInputError("rate function does not grow")
    w = Weight(label, {}, lambda n: math.exp(nu(n)))
    _validate_radial(w)
    return w


_WEIGHT_FAMILIES: dict[str, Callable[..., Weight]] = {
    "polynomial": polynomial_weight,
    "subexp_alpha": subexp_alpha_weight,
    "subexp_log": subexp_log_weight,
}


def weight_from_spec(spec: Mapping[str, object]) -> Weight:
    """Construct a weight from {"family": id, <params>} (CLI-shared naming)."""
    return from_spec("weight", _WEIGHT_FAMILIES, spec)


def _ball_ratios(
    omega: Weight, n: int, dim: int
) -> tuple[list[Point], Iterator[tuple[Point, Point, float]]]:
    """ball(n) and a scan of (s, t, omega(s+t) / (omega(s) * omega(t))) over
    its pairs. The pair budget is checked and omega evaluated on the ball
    here, before the caller evaluates anything of its own."""
    pts = ball(n, dim)
    if len(pts) ** 2 > MAX_PAIR_OPS:
        raise ResourceLimitError(f"{len(pts)}^2 pair evaluations exceed budget")
    vals = {p: omega(p) for p in pts}
    return pts, (
        (s, t, omega(tuple(a + b for a, b in zip(s, t))) / (vals[s] * vals[t]))
        for s in pts
        for t in pts
    )


def submult_constant(omega: Weight, n: int, dim: int = 1) -> float:
    """Exhaustive max of omega(s+t) / (omega(s) * omega(t)) over ball(n)^2."""
    best = 0.0
    for _, _, ratio in _ball_ratios(omega, n, dim)[1]:
        best = max(best, ratio)
    return best


def _as_evaluator(u: Callable[[Point], float]) -> Callable[[Point], float]:
    def ev(p: Point) -> float:
        v = float(u(p))
        if v < 0.0:
            raise InvalidInputError(f"decomposition term not nonnegative at {p!r}")
        return v

    return ev


def uv_decomposition_check(
    omega: Weight,
    u: Callable[[Point], float],
    v: Callable[[Point], float],
    n: int,
    dim: int = 1,
) -> bool:
    """True iff omega(s+t)/(omega(s)omega(t)) <= u(s) + v(t) on ball(n)^2."""
    ue, ve = _as_evaluator(u), _as_evaluator(v)
    pts, ratios = _ball_ratios(omega, n, dim)
    uvals = {p: ue(p) for p in pts}
    vvals = {p: ve(p) for p in pts}
    for s, t, ratio in ratios:
        if ratio > uvals[s] + vvals[t] + 1e-12 * (1.0 + ratio):
            return False
    return True


# --------------------------------------------------------------------------
# Shell series verdicts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of a shell-sum convergence probe.

    ``verdict`` is one of "converges", "diverges", "inconclusive";
    ``estimate`` is a tail-completed sum when geometric decay justified
    one, otherwise None; ``partial_sum`` is the plain truncated sum.
    """

    verdict: str
    partial_sum: float
    estimate: float | None
    method: str
    detail: str = ""


# Ratio below which the tail is treated as geometric, and the log-log slope
# margin around the p-series boundary -1.
RATIO_MARGIN = 1e-3
SLOPE_MARGIN = 0.15


def slope_verdict(slope: float) -> str:
    """Series verdict from the log-log slope of its terms against the
    p-series boundary -1: "converges" at -1 - SLOPE_MARGIN or below,
    "diverges" at -1 + SLOPE_MARGIN or above, "inconclusive" between."""
    if slope <= -1.0 - SLOPE_MARGIN:
        return "converges"
    if slope >= -1.0 + SLOPE_MARGIN:
        return "diverges"
    return "inconclusive"


def loglog_slope(points: Iterable[tuple[float, float]]) -> float | None:
    """Least-squares slope of log v against log n over the points (n, v)
    with v > 0; None when fewer than four such points remain."""
    pos = [(n, v) for n, v in points if v > 0]
    if len(pos) < 4:
        return None
    return float(np.polyfit([math.log(n) for n, _ in pos], [math.log(v) for _, v in pos], 1)[0])


def shell_series_verdict(terms: Sequence[float]) -> SeriesReport:
    """Heuristic convergence verdict for a positive shell series.

    ``terms[i]`` is the shell term at radius i+1. Geometric decay in the
    tail window (the last 10 ratios) gives "converges" with a completed
    estimate; a sustained non-decaying tail gives "diverges"; otherwise a
    log-log slope fit over the last decade decides through
    :func:`slope_verdict`. Finite terms that sum past the float range
    raise :class:`NumericalFailureError`.
    """
    ts = [float(t) for t in terms]
    if any(t < 0 or math.isnan(t) for t in ts):
        raise InvalidInputError("shell terms must be nonnegative numbers")
    if any(math.isinf(t) for t in ts):
        return SeriesReport("diverges", math.inf, None, "infinite-term")
    try:
        partial = math.fsum(ts)
    except OverflowError:  # finite terms whose partial sums pass the float range
        raise NumericalFailureError("shell terms sum past the float range") from None
    if ts and ts[-1] == 0.0:
        # the tail underflowed to exact zero: the float sum is complete
        return SeriesReport("converges", partial, partial, "zero-tail")
    if len(ts) < 11:
        return SeriesReport("inconclusive", partial, None, "too-few-terms")
    tail = ts[-11:]
    ratios = [b / a for a, b in zip(tail, tail[1:])] if all(t > 0 for t in tail) else []
    if ratios and all(r >= 1.0 - 1e-12 for r in ratios):
        return SeriesReport("diverges", partial, None, "non-decaying-tail")
    n_hi = len(ts)
    n_lo = max(1, n_hi // 10)
    slope = loglog_slope((i + 1, ts[i]) for i in range(n_lo - 1, n_hi))
    if slope is None:
        return SeriesReport("inconclusive", partial, None, "sparse-tail")
    verdict = slope_verdict(slope)
    est = None
    # geometric-tail completion only when the decay is clearly faster than
    # any power law in the window
    if (verdict == "converges" and ratios and max(ratios) <= 1.0 - RATIO_MARGIN
            and max(ratios) <= 0.9):
        r = max(ratios)
        est = partial + ts[-1] * r / (1.0 - r)
    return SeriesReport(verdict, partial, est, f"slope-test:{slope:.3f}")


def reciprocal_summability(
    omega: Weight,
    psi: YoungFunction,
    alpha: float,
    n_max: int,
    dim: int = 1,
) -> SeriesReport:
    """Verdict on sum over Z^d of Psi(alpha / omega(s)) via shell partial sums.

    Against the power scale two exact rules override the heuristics: the
    criterion beta*q > d for the polynomial weight, and convergence in
    every d for the subexponential weights, which outgrow every polynomial
    (|shell(n)| (alpha / omega(n))^q / q is n^(d-1) times a factor that
    decays faster than any power of n). Everything else is decided by
    :func:`shell_series_verdict` on the shell terms
    |shell(n)| * Psi(alpha / omega_radial(n)).

    Raises :class:`NumericalFailureError` naming d where a shell count or
    the terms' sum passes the float range. The largest count, at n_max, is
    at least 2 (2 n_max + 1)^(d-1), so that is decided before any count is built.
    """
    if alpha <= 0:
        raise InvalidInputError(f"alpha must be positive, got {alpha!r}")
    if n_max < 1:
        raise InvalidInputError(f"n_max must be >= 1, got {n_max!r}")
    too_many = f"shell counts of Z^d up to radius {n_max} pass the float range at d = {dim}"
    if math.log(2.0) + (dim - 1) * math.log(2 * n_max + 1) > math.log(sys.float_info.max):
        raise NumericalFailureError(too_many)
    try:
        counts = [float(shell_count(n, dim)) for n in range(0, n_max + 1)]
    except OverflowError:
        raise NumericalFailureError(too_many) from None
    terms = [c * psi(alpha / omega.radial(n)) for n, c in enumerate(counts)]
    try:
        partial = math.fsum(terms)
    except OverflowError:  # partial sums past the float range; an infinite term reads inf
        if not any(map(math.isinf, terms)):
            raise NumericalFailureError(f"shell terms sum past the float range at d = {dim}") from None
        partial = math.inf
    if omega.family == "polynomial" and psi.label == "power":
        beta = float(omega.params["beta"])
        q = float(psi.params["p"])
        if beta * q > dim:
            report = shell_series_verdict(terms[1:])
            return SeriesReport(
                "converges",
                partial,
                report.estimate,
                "exact-power-polynomial",
                detail=f"beta*q={beta * q:g} > d={dim}",
            )
        return SeriesReport(
            "diverges",
            partial,
            None,
            "exact-power-polynomial",
            detail=f"beta*q={beta * q:g} <= d={dim}",
        )
    report = shell_series_verdict(terms[1:])
    if omega.family in ("subexp_alpha", "subexp_log") and psi.label == "power":
        return SeriesReport(
            "converges",
            partial,
            report.estimate,
            "exact-power-subexponential",
            detail=f"{omega.describe()} outgrows every polynomial",
        )
    return SeriesReport(report.verdict, partial, report.estimate, report.method, report.detail)
