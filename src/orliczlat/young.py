"""Young functions, convex conjugation, and the named catalog.

A Young function is a convex Phi: [0, inf) -> [0, inf) with Phi(0) = 0 and
Phi(x) -> inf. Throughout the package we work with the continuous strictly
increasing kind, so inverses exist and the complementary (convex conjugate)
function

    Psi(y) = sup{ x*y - Phi(x) : x >= 0 }

is again of that kind whenever Phi grows superlinearly. Complementary pairs
satisfy the product inequality x*y <= Phi(x) + Psi(y) and the inverse
sandwich x <= Phi^{-1}(x) * Psi^{-1}(x) <= 2x, both of which are enforced on
a sampled grid when a pair is built.

All grid validations use log-spaced abscissae on [1e-6, 1e3]; inequalities
stated for all x >= 0 are checked on that working range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Generator, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConjugateInfiniteError,
    ConvexityError,
    InvalidInputError,
    NumericalFailureError,
    from_spec,
)

__all__ = [
    "YoungFunction",
    "ComplementaryPair",
    "conjugate",
    "conjugate_with_argmax",
    "inverse",
    "young_inequality_margin",
    "make_pair",
    "numeric_conjugate",
    "from_density",
    "find_strong_equiv_constants",
    "sqrt_transform",
    "catalog",
    "catalog_ids",
    "young_from_spec",
    "pair_from_spec",
    "default_grid",
]

# Working range for grid validations.
GRID_MIN = 1e-6
GRID_MAX = 1e3


def default_grid(n: int = 61, lo: float = GRID_MIN, hi: float = GRID_MAX) -> list[float]:
    """Log-spaced validation abscissae on the working range."""
    return [float(x) for x in np.geomspace(lo, hi, n)]


def _guarded(fn: Callable[[float], float], x: float) -> float:
    """Evaluate fn(x), mapping float overflow to +inf."""
    try:
        v = fn(x)
    except OverflowError:
        return math.inf
    return float(v)


def _reaches(fn: Callable[[float], float], x: float, y: float) -> bool:
    """fn(x) >= y, where :func:`expand` may look past its answer: there an
    overflow, a NaN (inf - inf) and an infinite numeric conjugate reach y."""
    try:
        return not fn(x) < y
    except (OverflowError, ConjugateInfiniteError):
        return True


@dataclass(frozen=True, eq=False)
class YoungFunction:
    """Evaluator for a convex function on [0, inf) and its derivative.

    ``fn`` and ``derivative`` must accept a nonnegative float; a Young
    function is always built with its derivative, which :meth:`d` returns
    and the numeric conjugate solves for. ``array_fn``, when given,
    evaluates ``fn`` elementwise on a float64 array with numpy, so overflow
    yields +inf as ``fn`` does; :meth:`values` uses it.
    """

    fn: Callable[[float], float]
    derivative: Callable[[float], float]
    label: str = "custom"
    params: Mapping[str, float] = field(default_factory=dict)
    array_fn: Callable[[np.ndarray], np.ndarray] | None = None
    _inverses: dict[float, float] = field(default_factory=dict, init=False, repr=False)

    def __call__(self, x: float) -> float:
        if x < 0:
            raise InvalidInputError(f"Young function evaluated at negative x={x!r}")
        return _guarded(self.fn, x)

    def d(self, x: float) -> float:
        """Derivative at x."""
        if x < 0:
            raise InvalidInputError(f"derivative requested at negative x={x!r}")
        return _guarded(self.derivative, x)

    def values(self, xs: Iterable[float] | np.ndarray) -> list[float]:
        """Phi at each abscissa: one pass of ``array_fn`` if there is one.

        Without an array form every element goes through :meth:`__call__`
        as a Python float. Callers that may overflow the array form wrap
        the call in ``np.errstate(over="ignore")``.
        """
        if self.array_fn is None:
            return [self(x) for x in (xs.tolist() if isinstance(xs, np.ndarray) else xs)]
        arr = np.asarray(xs, dtype=float)
        if arr.size and arr.min() < 0:
            raise InvalidInputError(f"Young function evaluated at negative x={arr.min()!r}")
        return self.array_fn(arr).tolist()

    def _fsums(self, xs: np.ndarray, ends: Sequence[int]) -> list[float]:
        """``math.fsum`` of Phi over each slice of a float64 array the caller
        knows to be nonnegative, the slices ending at ``ends``: the values
        of :meth:`values` from one pass over the whole array, listed a slice
        at a time."""
        starts = [0, *ends[:-1]]
        if self.array_fn is None:
            vals = self.values(xs)
            return [math.fsum(vals[a:b]) for a, b in zip(starts, ends)]
        arr = self.array_fn(xs)
        return [math.fsum(arr[a:b].tolist()) for a, b in zip(starts, ends)]

    def inverse(self, y: float) -> float:
        """Memoised :func:`inverse` of this function at ``y``."""
        x = self._inverses.get(y)
        if x is None:
            x = self._inverses[y] = inverse(self, y)
        return x

    def describe(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
            return f"{self.label}({inner})"
        return self.label

    def validate(self, grid: Sequence[float] | None = None) -> None:
        """Check the Young-function invariants on a grid; raise on violation.

        Checks: value 0 at 0, strict monotonicity, convexity at interior
        ratios {0.25, 0.5, 0.75}, and eventual growth. Convexity plus
        positivity forces divergence, so growth reduces to positivity at
        the top of the range.
        """
        xs = list(grid) if grid is not None else default_grid()
        v0 = self(0.0)
        if v0 != 0.0:
            raise InvalidInputError(f"{self.describe()}: value at 0 is {v0!r}, expected 0")
        with np.errstate(over="ignore"):
            vals = self.values(xs)
        if not vals[0] > 0.0:
            raise InvalidInputError(f"{self.describe()}: not positive at x={xs[0]:g}")
        for a, b, va, vb in zip(xs, xs[1:], vals, vals[1:]):
            if math.isinf(va):
                continue
            if not vb > va:
                raise InvalidInputError(
                    f"{self.describe()}: not strictly increasing between {a:g} and {b:g}"
                )
        if not vals[-1] > 0.0:
            raise InvalidInputError(f"{self.describe()}: not positive at top of range")
        # Convexity on grid pairs several decades apart and adjacent.
        idx = range(0, len(xs), 4)
        for i in idx:
            for j in range(i + 1, len(xs), 7):
                x, y = xs[i], xs[j]
                fx, fy = vals[i], vals[j]
                if math.isinf(fy):
                    continue
                for t in (0.25, 0.5, 0.75):
                    m = t * x + (1.0 - t) * y
                    bound = t * fx + (1.0 - t) * fy
                    if self(m) > bound + 1e-9 * (1.0 + abs(bound)):
                        raise ConvexityError(
                            f"{self.describe()}: convexity fails", m
                        )


def conjugate_with_argmax(phi: YoungFunction, y: float) -> tuple[float, float]:
    """Conjugate value sup{x*y - Phi(x)} and its maximiser.

    The maximiser is the root of Phi'(x) = y. :func:`expand` doubles x from
    1 until Phi'(x) >= y, and halves from half that end until Phi' < y,
    taking x = 0 as below y unevaluated. The octave [lo, 2 lo] goes to
    :func:`_derivative_root`; if lo is 0, Phi'(0+) >= y and the maximiser
    is 0. Phi is evaluated once, for max(0, x*y - Phi(x)), which reads inf
    where x*y alone passes the float range. The sup is reported infinite
    where no finite x has Phi'(x) >= y, or where that difference is
    inf - inf, which max(0, .) would read as 0.
    """
    if not y >= 0:  # also refuses NaN
        raise InvalidInputError(f"conjugate requested at negative or NaN y={y!r}")
    if y == 0.0:
        return 0.0, 0.0
    dphi = phi.derivative
    hi = expand(lambda x: _reaches(dphi, x, y), 1.0, 2.0)
    if hi in (None, math.inf):
        raise ConjugateInfiniteError(y)
    lo = expand(lambda x: x == 0.0 or not _reaches(dphi, x, y), 0.5 * hi, 0.5)
    x = 0.0
    if lo > 0.0:
        x = _derivative_root(dphi, y, lo)
    value = x * y - phi(x)
    if value != value:  # inf - inf
        raise ConjugateInfiniteError(y)
    return max(0.0, value), x


def _derivative_root(dphi: Callable[[float], float], y: float, lo: float) -> float:
    """The root of Phi'(x) = y in the octave [lo, 2 lo], to about an ulp.

    Phi' < y at lo and Phi' >= y at 2 lo. A secant on (log x, log Phi'(x))
    through the last two iterates (exact in one step for a power) picks
    each point. A step that leaves the bracket, or that follows two steps
    which together failed to halve it, is a halving step instead. A secant
    point closer than 2e-16 relative to an end (at least an ulp), or past
    it by less, moves that far inside, so once the secant has converged
    from one side the next point lands on the other and the bracket
    closes. The search stops at adjacent floats or a relative width of
    2e-16 and returns the bracket end where Phi' is closer to y: the root
    to about an ulp, where the best value of the flat objective only gives
    it to about 1e-8.
    """
    log, exp, log1p = math.log, math.exp, math.log1p
    inf, nan = math.inf, math.nan

    def residual(d: float) -> float:
        """log(Phi'/y), taken through the exact difference Phi' - y near
        the root; NaN where it is no use to a secant."""
        q = (d - y) / y
        return log1p(q) if -1.0 < q < inf else nan

    hi = 2.0 * lo
    d_lo, d_hi = _guarded(dphi, lo), _guarded(dphi, hi)
    x0, r0, x1, r1 = hi, residual(d_hi), lo, residual(d_lo)
    width, steps = hi - lo, 0
    for _ in range(200):
        if hi - lo <= 2e-16 * hi:
            break
        x = 0.5 * lo + 0.5 * hi
        if x == lo or x == hi:
            break  # adjacent floats
        if steps < 2 and r1 != r0:
            step = -r1 * log(x1 / x0) / (r1 - r0)
            if -1.0 < step < 1.0:  # False for NaN; the ends are a factor <= 2 apart
                t = x1 * exp(step)
                tol = 2e-16 * hi
                if lo - tol < t < hi + tol:
                    if t < lo + tol:
                        t = lo + tol
                    elif t > hi - tol:
                        t = hi - tol
                    if lo < t < hi:
                        x = t
        d = _guarded(dphi, x)
        if d == y:
            return x
        if d > y:
            hi, d_hi = x, d
        else:
            lo, d_lo = x, d
        x0, r0, x1, r1 = x1, r1, x, residual(d)
        steps += 1
        if hi - lo <= 0.5 * width:
            width, steps = hi - lo, 0
    return lo if y - d_lo < d_hi - y else hi


def conjugate(phi: YoungFunction, y: float) -> float:
    """Convex conjugate of ``phi`` at ``y``; see :func:`conjugate_with_argmax`."""
    return conjugate_with_argmax(phi, y)[0]


def numeric_conjugate(phi: YoungFunction) -> YoungFunction:
    """Conjugate of ``phi`` as an evaluator.

    Values come from :func:`conjugate_with_argmax`; the derivative is the
    maximiser itself (the envelope rule for the conjugate of a strictly
    convex function), which falls out of the same computation: the root of
    Phi'(x) = y to about an ulp. Results, infinite ones too, are memoised
    per abscissa since downstream solvers revisit points.
    """
    cache: dict[float, tuple[float, float] | None] = {}  # None: infinite there

    def solve(y: float) -> tuple[float, float]:
        if y not in cache:
            if len(cache) > 100_000:
                cache.clear()
            try:
                cache[y] = conjugate_with_argmax(phi, y)
            except ConjugateInfiniteError:
                cache[y] = None
        if (got := cache[y]) is None:  # a fresh error, so tracebacks do not pile up
            raise ConjugateInfiniteError(y)
        return got

    return YoungFunction(
        fn=lambda y: solve(y)[0],
        derivative=lambda y: solve(y)[1],
        label=f"conj[{phi.describe()}]",
    )


def expand(pred: Callable[[float], bool], start: float, factor: float) -> float | None:
    """The first point x_k = start * factor**k (``factor`` 2 or 1/2, taken
    as ``ldexp(start, ±k)``) where ``pred`` holds, trying k = 0, 1, 2, ...
    up to the first point off the positive floats (inf or 0.0), or None.

    The count k gallops (0, 1, 2, 4, ...) until ``pred`` holds and is then
    bisected between the last two counts, so for a monotone ``pred`` the
    result is that of the plain loop, found in O(log k) calls. The gallop
    looks at counts up to twice that result, so ``pred`` must be monotone
    there and must not raise (see :func:`_reaches`); it looks past the
    positive floats only once the last positive point fails, as the loop
    would. This is the one bracket search of the package: the conjugate,
    inverses, the density inverse and the Orlicz multiplier.
    """
    sign = 1 if factor > 1.0 else -1
    m, e = math.frexp(start)
    # the last count whose point is a positive float, where the gallop
    # stops first: halving m * 2**e (0.5 <= m < 1) reaches 2**-1074 at count
    # e + 1073, and only m = 0.5 rounds to 0.0 (a tie, to even) one later
    last = 1024 - e if sign > 0 else e + 1073 + (m > 0.5)
    # pred fails at count below and holds at count above, which stays one
    # past the end until a point is found
    below, above, found = -1, last + 2, None
    while above - below > 1:
        if found is not None:
            k = (below + above) // 2
        elif below > 1:
            k = min(2 * below, max(last, below + 1))
        else:
            k = below + 1
        x = math.ldexp(start, sign * k) if k <= last else (math.inf if sign > 0 else 0.0)
        if pred(x):
            above, found = k, x
        elif k > last:
            break  # and so does every later point
        else:
            below = k
    return found


def bisect(
    pred: Callable[[float], bool],
    lo: float,
    hi: float,
    rtol: float,
    floor: float = 0.0,
) -> tuple[float, float]:
    """Halve [lo, hi] around the point where ``pred`` turns true.

    ``pred`` must be false at ``lo`` and true at ``hi`` (monotone between);
    a midpoint where it holds becomes the new ``hi``. Stops once
    ``hi - lo <= rtol * max(floor, hi)``, after 200 halvings, or when
    ``lo`` and ``hi`` are adjacent floats, where every further halving
    would leave them as they are; so ``rtol=0`` returns what all 200
    halvings would. This is the one bisection of the package: inverses,
    the Luxemburg norm and the Orlicz multiplier. The halvings are
    :func:`_halvings`, which a caller that decides many bisections in
    lockstep steps itself.
    """
    return _drive(_halvings(lo, hi, rtol, floor), pred)


def _halvings(
    lo: float, hi: float, rtol: float, floor: float = 0.0
) -> Generator[float, bool, tuple[float, float]]:
    """The halving loop of :func:`bisect`: yields each midpoint, receives
    the decision there, and returns the final (lo, hi)."""
    for _ in range(200):
        if hi - lo <= rtol * (hi if hi > floor else floor):
            break
        mid = 0.5 * lo + 0.5 * hi  # lo + hi would overflow near the top of the range
        if mid == lo or mid == hi:
            break  # adjacent floats: every further halving repeats this one
        if (yield mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _drive(steps: Generator, answer: Callable):
    """Run a search generator to its end, sending ``answer(x)`` for each x
    it yields; returns what the generator returns."""
    send = steps.send
    try:
        x = next(steps)
        while True:
            x = send(answer(x))
    except StopIteration as stop:
        return stop.value


def inverse(phi: YoungFunction, y: float) -> float:
    """Solve Phi(x) = y for x by bracketed bisection.

    Requires strictly increasing continuous ``phi``; the residual satisfies
    |Phi(x) - y| <= 1e-10 * max(1, y).
    """
    if not y >= 0:  # also refuses NaN
        raise InvalidInputError(f"inverse requested below Phi(0)=0 or at NaN, y={y!r}")
    if y == 0.0:
        return 0.0

    def reaches(x: float) -> bool:
        return _reaches(phi.fn, x, y)

    hi = expand(reaches, 1.0, 2.0)
    if hi is None:
        raise NumericalFailureError(f"no bracket for inverse at y={y!r}")
    lo, hi = bisect(reaches, 0.0, hi, 1e-15, floor=1.0)
    x = 0.5 * (lo + hi)
    if abs(phi(x) - y) <= 1e-10 * max(1.0, y):
        return x
    raise NumericalFailureError(f"inverse bisection stalled at y={y!r}")


# Product-inequality grid of the invariant battery.
YOUNG_GRID = default_grid(50, 1e-4, 1e2)


def _young_inequality_worst(
    pair: "ComplementaryPair", grid: Sequence[float]
) -> tuple[float, float, float]:
    """Worst of (xy - Phi(x) - Psi(y)) / (1 + xy) over the grid, and its (x, y)."""
    worst, wx, wy = -math.inf, math.nan, math.nan
    psi_vals = [pair.psi(y) for y in grid]
    for x in grid:
        px = pair.phi(x)
        for y, py in zip(grid, psi_vals):
            m = (x * y - px - py) / (1.0 + x * y)
            if m > worst:
                worst, wx, wy = m, x, y
    return worst, wx, wy


def young_inequality_margin(pair: "ComplementaryPair") -> float:
    """Worst of (xy - Phi(x) - Psi(y)) / (1 + xy) over ``YOUNG_GRID``."""
    return _young_inequality_worst(pair, YOUNG_GRID)[0]


@dataclass(frozen=True, eq=False)
class ComplementaryPair:
    """A Young function together with its convex conjugate.

    ``conjugation_mode`` records how psi was obtained: "closed_form" for
    catalog members with a known conjugate, "numerical" for the optimiser
    based conjugate, "quadrature" for pairs built from a density.
    """

    phi: YoungFunction
    psi: YoungFunction
    conjugation_mode: str = "numerical"

    def describe(self) -> str:
        return f"({self.phi.describe()}, {self.psi.describe()})"

    def swap(self) -> "ComplementaryPair":
        """The same pair with the roles of phi and psi exchanged."""
        return ComplementaryPair(self.psi, self.phi, self.conjugation_mode)

    def validate(self, grid: Sequence[float] | None = None) -> None:
        """Product inequality and inverse sandwich on a sampled grid."""
        xs = list(grid) if grid is not None else default_grid(13)
        margin, x, y = _young_inequality_worst(self, xs)
        if margin > 1e-9:
            raise InvalidInputError(
                f"pair {self.describe()}: product inequality fails at "
                f"({x:g},{y:g}): {x * y:g} > {self.phi(x) + self.psi(y):g}"
            )
        for x in xs:
            prod = self.phi.inverse(x) * self.psi.inverse(x)
            if not (x <= prod * (1.0 + 1e-8) and prod <= 2.0 * x + 1e-8):
                raise InvalidInputError(
                    f"pair {self.describe()}: inverse sandwich fails at {x:g}: "
                    f"product {prod:g} outside [{x:g}, {2 * x:g}]"
                )


def make_pair(phi: YoungFunction, *, validate: bool = True) -> ComplementaryPair:
    """Pair ``phi`` with its conjugate.

    A catalog member with a known conjugate gets the closed form, anything
    else the numerical conjugate. The pair invariants are checked on the
    validation grid unless disabled.
    """
    phi.validate()
    psi, mode = _closed_form_conjugate(phi), "closed_form"
    if psi is None:
        psi, mode = numeric_conjugate(phi), "numerical"
    pair = ComplementaryPair(phi, psi, mode)
    if validate:
        if mode == "closed_form":
            psi.validate()
        pair.validate()
    return pair


def from_density(
    varphi: Callable[[float], float],
    *,
    label: str = "density",
    validate: bool = True,
) -> ComplementaryPair:
    """Build the pair Phi(x) = int_0^x varphi, Psi(y) = int_0^y varphi^{-1}.

    ``varphi`` must be continuous, strictly increasing, 0 at 0 and
    unbounded; monotonicity is probed on a grid before any quadrature.
    Integrals use adaptive quadrature at 1e-9 relative accuracy.
    """
    # scipy.integrate is most of the package's import time and only this
    # constructor needs it.
    from scipy.integrate import quad

    probe = [0.0] + default_grid(41)
    vals = [_guarded(varphi, x) for x in probe]
    if vals[0] != 0.0:
        raise InvalidInputError(f"density must vanish at 0, got {vals[0]!r}")
    for a, b, va, vb in zip(probe, probe[1:], vals, vals[1:]):
        if math.isinf(va):
            continue
        if not vb > va:
            raise InvalidInputError(f"density not strictly increasing on [{a:g},{b:g}]")

    def varphi_inv(t: float) -> float:
        if t <= 0.0:
            return 0.0

        def reaches(x: float) -> bool:
            # NaN, as a bounded density may read at inf, is not reached
            return _guarded(varphi, x) >= t

        hi = expand(reaches, 1.0, 2.0)
        if hi is None:
            raise NumericalFailureError(f"density never reaches {t!r}: no bracket for its inverse")
        lo, hi = bisect(reaches, 0.0, hi, 0.0)
        return 0.5 * (lo + hi)

    def phi_fn(x: float) -> float:
        if x == 0.0:
            return 0.0
        return quad(varphi, 0.0, x, epsabs=0.0, epsrel=1e-9, limit=200)[0]

    def psi_fn(y: float) -> float:
        if y == 0.0:
            return 0.0
        return quad(varphi_inv, 0.0, y, epsabs=0.0, epsrel=1e-9, limit=200)[0]

    phi = YoungFunction(fn=phi_fn, derivative=varphi, label=f"{label}:integral")
    psi = YoungFunction(fn=psi_fn, derivative=varphi_inv, label=f"{label}:integral-inv")
    pair = ComplementaryPair(phi, psi, "quadrature")
    if validate:
        phi.validate(default_grid(21))
        pair.validate(default_grid(9, 1e-3, 1e2))
    return pair


def _below(phi1: YoungFunction, phi2: YoungFunction, c: float, xs: Sequence[float]) -> bool:
    """Phi1(c*x) <= Phi2(x) for every grid x, up to a relative 1e-12."""
    return all(phi1(c * x) <= phi2(x) * (1.0 + 1e-12) + 1e-300 for x in xs)


def _above(phi1: YoungFunction, phi2: YoungFunction, c: float, xs: Sequence[float]) -> bool:
    """Phi2(x) <= Phi1(c*x) for every grid x, up to a relative 1e-12."""
    return all(phi2(x) <= phi1(c * x) * (1.0 + 1e-12) + 1e-300 for x in xs)


def find_strong_equiv_constants(
    phi1: YoungFunction,
    phi2: YoungFunction,
    grid: Sequence[float] | None = None,
) -> tuple[float, float] | None:
    """Powers of two a <= b in [2^-24, 2^8], a the largest and b the smallest with
    Phi1(a*x) <= Phi2(x) <= Phi1(b*x) on every grid x, or None. An empty grid
    would witness any pair, so it is refused."""
    xs = list(grid) if grid is not None else default_grid(41)
    if not xs:
        raise InvalidInputError("empty grid")
    candidates = [2.0 ** k for k in range(-24, 9)]
    for a in reversed(candidates):
        if _below(phi1, phi2, a, xs):
            break
    else:
        return None
    for b in candidates:
        if b >= a and _above(phi1, phi2, b, xs):
            return a, b
    return None


def sqrt_transform(psi: YoungFunction) -> YoungFunction:
    """The function x -> Psi(sqrt(x)), verified to be a Young function.

    Convexity of the transform is equivalent to Psi'(x)/x being
    nondecreasing; that ratio is probed on a log grid and a violation
    raises :class:`ConvexityError` carrying the abscissa. For the power
    scale x^q/q this accepts exactly q >= 2.
    """
    prev_ratio = None
    prev_x = None
    for x in default_grid(41):
        dv = psi.d(x)
        if not math.isfinite(dv):
            break
        ratio = dv / x
        if prev_ratio is not None and ratio < prev_ratio * (1.0 - 1e-6):
            raise ConvexityError(
                f"sqrt transform of {psi.describe()} is not convex: "
                f"Psi'(x)/x decreases from {prev_x:g}",
                x,
            )
        prev_ratio, prev_x = ratio, x
    return YoungFunction(
        fn=lambda x: psi(math.sqrt(x)),
        derivative=lambda x: psi.derivative(math.sqrt(x)) / (2.0 * math.sqrt(x)) if x > 0 else 0.0,
        label=f"sqrt[{psi.describe()}]",
        array_fn=(
            (lambda xs: psi.array_fn(np.sqrt(xs))) if psi.array_fn is not None else None
        ),
    )


# --------------------------------------------------------------------------
# Named catalog
# --------------------------------------------------------------------------
#
# The entropy-type formulas cancel catastrophically near 0 in their naive
# forms ((1+x)ln(1+x)-x and e^x-x-1 are both ~ x^2/2 there), so tiny
# arguments take a series branch; cosh x - 1 is 2 sinh^2(x/2) exactly.


def _entropy_fn(x: float) -> float:
    if x < 1e-4:
        return x * x * (0.5 + x * (-1.0 / 6.0 + x * (1.0 / 12.0 - x / 20.0)))
    return (1.0 + x) * math.log1p(x) - x


def _expm1mx(x: float) -> float:
    if x < 1e-4:
        return x * x * (0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x / 120.0)))
    return math.expm1(x) - x


def _coshm1(x: float) -> float:
    s = math.sinh(0.5 * x)
    return 2.0 * s * s


def _power(p: float) -> YoungFunction:
    if p <= 1:
        raise InvalidInputError(f"power family needs p > 1, got {p!r}")
    # x**p overflows before the division by p where x**p / p may still be
    # a float; there, and only there, the value is (x * p**(-1/p))**p
    shrink = p ** (-1.0 / p)

    def fn(x: float) -> float:
        try:
            return x ** p / p
        except OverflowError:
            return (x * shrink) ** p

    def array_fn(xs: np.ndarray) -> np.ndarray:
        out = xs ** p / p
        if out.max(initial=0.0) == math.inf:
            out = np.where(out == math.inf, (xs * shrink) ** p, out)
        return out

    return YoungFunction(
        fn=fn,
        derivative=lambda x: x ** (p - 1.0),
        label="power",
        params={"p": p},
        array_fn=array_fn,
    )


def _raised(
    label: str, base: Callable[[float], float], dbase: Callable[[float], float], p: float
) -> YoungFunction:
    """The family member base(x)**p with derivative p base**(p-1) dbase;
    at p = 1 it is ``base`` itself, so the base member costs no power."""
    if p < 1:
        raise InvalidInputError(f"{label} family needs p >= 1, got {p!r}")
    if p == 1.0:
        return YoungFunction(fn=base, derivative=dbase, label=label, params={"p": 1.0})
    return YoungFunction(
        fn=lambda x: base(x) ** p,
        derivative=lambda x: p * base(x) ** (p - 1.0) * dbase(x),
        label=label,
        params={"p": p},
    )


def _cosh_pow(p: float) -> YoungFunction:
    return _raised("cosh", _coshm1, math.sinh, p)


def _cosh_conjugate_fn(y: float) -> float:
    # sup x*y - (cosh x - 1) is attained at x = asinh(y); sqrt(1+y^2) - 1
    # is written as y^2/(1 + sqrt(1+y^2)) to stay accurate near 0, and as
    # y/(1/y + sqrt(1/y^2 + 1)) where y^2 overflows (y above ~1.34e154).
    yy = y * y
    if yy == math.inf:
        r = 1.0 / y
        return y * math.asinh(y) - y / (r + math.sqrt(r * r + 1.0))
    return y * math.asinh(y) - yy / (1.0 + math.sqrt(1.0 + yy))


def _cosh_conjugate() -> YoungFunction:
    return YoungFunction(
        fn=_cosh_conjugate_fn,
        derivative=math.asinh,
        label="cosh-conj",
        params={},
    )


def _entropy() -> YoungFunction:
    return YoungFunction(
        fn=_entropy_fn,
        derivative=math.log1p,
        label="entropy",
        params={},
    )


def _exp_taylor(p: float) -> YoungFunction:
    return _raised("exp_taylor", _expm1mx, math.expm1, p)


def _square_log(p: float) -> YoungFunction:
    def base(x: float) -> float:
        return x * x * math.log1p(x)

    def dbase(x: float) -> float:
        # x * x overflows from about 1.34e154, where x**2/(1+x) is still a
        # float: there, and only there, it is x * (x/(1+x))
        xx = x * x
        tail = xx / (1.0 + x) if xx != math.inf else x * (x / (1.0 + x))
        return 2.0 * x * math.log1p(x) + tail

    return _raised("square_log", base, dbase, p)


def _exp_power(p: float) -> YoungFunction:
    if p <= 1:
        raise InvalidInputError(f"exp_power family needs p > 1, got {p!r}")
    return YoungFunction(
        fn=lambda x: math.expm1(x ** p),
        derivative=lambda x: p * x ** (p - 1.0) * math.exp(x ** p) if x > 0 else 0.0,
        label="exp_power",
        params={"p": p},
    )


_FAMILIES: dict[str, Callable[..., YoungFunction]] = {
    "power": _power,
    "cosh": _cosh_pow,
    "entropy": _entropy,
    "exp_taylor": _exp_taylor,
    "square_log": _square_log,
    "exp_power": _exp_power,
}


def catalog_ids() -> list[str]:
    return sorted(_FAMILIES)


def young_from_spec(spec: Mapping[str, object]) -> YoungFunction:
    """Construct a catalog Young function from {"family": id, <params>}."""
    return from_spec("young", _FAMILIES, spec)


def _closed_form_conjugate(phi: YoungFunction) -> YoungFunction | None:
    if phi.label == "power":
        p = float(phi.params["p"])
        q = p / (p - 1.0)
        return _power(q)
    if phi.label == "cosh" and float(phi.params.get("p", 1.0)) == 1.0:
        return _cosh_conjugate()
    if phi.label == "entropy":
        return _exp_taylor(1.0)
    if phi.label == "exp_taylor" and float(phi.params.get("p", 1.0)) == 1.0:
        return _entropy()
    return None


def pair_from_spec(spec: Mapping[str, object], *, validate: bool = True) -> ComplementaryPair:
    """Construct a complementary pair from a family spec (CLI-shared naming)."""
    return make_pair(young_from_spec(spec), validate=validate)


_CATALOG_SPECS: tuple[dict[str, object], ...] = (
    {"family": "power", "p": 1.5},
    {"family": "power", "p": 2.0},
    {"family": "power", "p": 3.0},
    {"family": "cosh", "p": 1.0},
    {"family": "entropy"},
    {"family": "exp_taylor", "p": 1.0},
    {"family": "cosh", "p": 2.0},
    {"family": "exp_taylor", "p": 2.0},
    {"family": "square_log", "p": 1.0},
    {"family": "exp_power", "p": 2.0},
)


@lru_cache(maxsize=1)
def _catalog_cached() -> tuple[ComplementaryPair, ...]:
    return tuple(pair_from_spec(spec) for spec in _CATALOG_SPECS)


def catalog() -> list[ComplementaryPair]:
    """Default instantiation of the named families as validated pairs.

    Power appears at p in {1.5, 2, 3}; the cosh, entropy and exp_taylor
    families carry closed-form conjugates at p=1; the remaining entries
    ((cosh x - 1)^2, (e^x - x - 1)^2, x^2 ln(1+x), e^{x^2} - 1) use the
    numerical conjugate.
    """
    return list(_catalog_cached())
