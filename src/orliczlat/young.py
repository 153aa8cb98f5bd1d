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

The inverse here and the Luxemburg norm and Orlicz multiplier of ``norms``
find their roots by one windowed bisection (:func:`_windowed_root`): a
window around an estimate, as narrow as the rounding error of the searched
value allows, decides the midpoints outside it unevaluated. The margins
are derived per family in the comment above MARGIN.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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


def _slope(dphi: Callable[[float], float], x: float) -> float:
    """Phi'(x), inf where it overflows or is an infinite numeric conjugate,
    as both reach every y."""
    try:
        return float(dphi(x))
    except (OverflowError, ConjugateInfiniteError):
        return math.inf


class _Octaves:
    """Phi' at the powers of two that the conjugate's octave searches of one
    Phi have evaluated: exponents in ascending order, each with
    :func:`_slope` at 2**e. The table stays sorted by value as long as
    Phi' is non-decreasing at the powers of two; a value that would break
    that order (a NaN among them) is not stored, and from then on the
    table stores nothing and answers only where it holds the value."""

    __slots__ = ("exps", "vals", "ordered")

    def __init__(self) -> None:
        self.exps: list[int] = []
        self.vals: list[float] = []
        self.ordered = True

    def reaches(self, dphi: Callable[[float], float], x: float, y: float) -> bool:
        """Phi'(x) >= y at a power of two x or at inf, a NaN reaching y as
        :func:`expand` needs. The answer is a stored value where there is
        one, or, while the table is in order, that of a stored neighbour:
        one below that reaches y, or one above that does not. Otherwise
        :func:`_slope` is evaluated and, at a power of two, stored."""
        if x == math.inf:
            return not _slope(dphi, x) < y
        e = math.frexp(x)[1] - 1
        exps, vals = self.exps, self.vals
        j = bisect_left(exps, e)
        above = j < len(exps)
        if above and exps[j] == e:
            return not vals[j] < y
        if self.ordered:
            if j and not vals[j - 1] < y:
                return True
            if above and vals[j] < y:
                return False
        v = _slope(dphi, x)
        if self.ordered:
            if v != v or (j and vals[j - 1] > v) or (above and v > vals[j]):
                self.ordered = False
            else:
                exps.insert(j, e)
                vals.insert(j, v)
        return not v < y

    def find(
        self, dphi: Callable[[float], float], y: float
    ) -> tuple[float, float | None, float | None]:
        """(lo, Phi'(lo), Phi'(2 lo)) for the octave [lo, 2 lo] = [2**(k-1),
        2**k] of the first exponent k with Phi'(2**k) >= y, each value None
        where the table does not hold it or holds inf (the root finder
        evaluates it, and so raises where the conjugate is infinite); lo is
        0 where Phi' reaches y already at 2**-1074, and the sup is reported
        infinite where Phi' does not reach y at 2**1023.

        Where the stored exponents next below and next reaching y are
        adjacent, that is the octave. Otherwise :func:`expand` doubles x
        from the nearest stored power of two (from 1 on an empty or
        out-of-order table) until Phi'(x) >= y, then halves from half that
        end until Phi' < y, each step read by :meth:`reaches`, and the
        octave's ends are read back from the table.
        """
        octave = self._stored(y)
        if octave is not None:
            return octave
        start = 1.0
        if self.ordered and self.exps:
            i = bisect_left(self.vals, y)
            start = math.ldexp(1.0, self.exps[max(i - 1, 0)])
        reaches = self.reaches
        hi = expand(lambda x: reaches(dphi, x, y), start, 2.0)
        if hi in (None, math.inf):
            raise ConjugateInfiniteError(y)
        lo = expand(lambda x: x == 0.0 or not reaches(dphi, x, y), 0.5 * hi, 0.5)
        return self._stored(y) or (lo, None, None)

    def _stored(self, y: float) -> tuple[float, float, float | None] | None:
        """The octave of y where the table is in order and holds both its
        ends, else None."""
        if not self.ordered:
            return None
        exps, vals = self.exps, self.vals
        i = bisect_left(vals, y)  # Phi' < y at exps[:i], >= y from there
        if not (0 < i < len(exps) and exps[i] - exps[i - 1] == 1):
            return None
        d_hi = vals[i]
        return math.ldexp(1.0, exps[i - 1]), vals[i - 1], (d_hi if d_hi < math.inf else None)


@dataclass(frozen=True, eq=False)
class YoungFunction:
    """Evaluator for a convex function on [0, inf) and its derivative.

    ``fn`` and ``derivative`` must accept a nonnegative float; a Young
    function is always built with its derivative, which :meth:`d` returns
    and the numeric conjugate solves for. ``array_fn``, when given,
    evaluates ``fn`` elementwise on a float64 array with numpy, so overflow
    yields +inf as ``fn`` does; :meth:`values` uses it. ``origin`` is
    ("conj", Phi) for :func:`numeric_conjugate` of Phi and ("sqrt", Psi)
    for :func:`sqrt_transform` of Psi: the root windows key their margins
    on it (:func:`_family`), and it stays out of ``repr``, equality and
    :meth:`describe`.
    """

    fn: Callable[[float], float]
    derivative: Callable[[float], float]
    label: str = "custom"
    params: Mapping[str, float] = field(default_factory=dict)
    array_fn: Callable[[np.ndarray], np.ndarray] | None = None
    origin: tuple[str, "YoungFunction"] | None = field(default=None, repr=False, compare=False)
    _inverses: dict[float, float] = field(default_factory=dict, init=False, repr=False)
    _octaves: _Octaves = field(default_factory=_Octaves, init=False, repr=False)

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

        Without an array form each element is ``fn`` of it as a Python
        float, inf where ``fn`` overflows, as :meth:`__call__` reads it; a
        negative abscissa raises as there. Callers that may overflow the
        array form wrap the call in ``np.errstate(over="ignore")``.
        """
        if self.array_fn is None:
            fn, out = self.fn, []
            for x in xs.tolist() if isinstance(xs, np.ndarray) else xs:
                if x < 0:
                    raise InvalidInputError(f"Young function evaluated at negative x={x!r}")
                try:
                    out.append(float(fn(x)))
                except OverflowError:
                    out.append(math.inf)
            return out
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

    The maximiser is the root of Phi'(x) = y, found by
    :func:`_derivative_root` in the octave [lo, 2 lo] = [2**(k-1), 2**k] of
    the first power of two 2**k where Phi' >= y, which Phi's octave table
    gives (:meth:`_Octaves.find`); the maximiser is 0 where that octave
    starts at 0. Phi is evaluated once, for max(0, x*y - Phi(x)), which
    reads inf where x*y alone passes the float range. The sup is reported
    infinite where no finite x has Phi'(x) >= y, or where that difference
    is inf - inf, which max(0, .) would read as 0.
    """
    if not y >= 0:  # also refuses NaN
        raise InvalidInputError(f"conjugate requested at negative or NaN y={y!r}")
    if y == 0.0:
        return 0.0, 0.0
    dphi = phi.derivative
    lo, d_lo, d_hi = phi._octaves.find(dphi, y)
    x = 0.0
    if lo > 0.0:
        x = _derivative_root(dphi, y, lo, d_lo, d_hi)
    value = x * y - phi(x)
    if value != value:  # inf - inf
        raise ConjugateInfiniteError(y)
    return max(0.0, value), x


def _derivative_root(
    dphi: Callable[[float], float],
    y: float,
    lo: float,
    d_lo: float | None = None,
    d_hi: float | None = None,
) -> float:
    """The root of Phi'(x) = y in the octave [lo, 2 lo], to about an ulp.

    Phi' < y at lo and Phi' >= y at 2 lo; ``d_lo`` and ``d_hi`` are Phi'
    there where the caller has them, and are evaluated where None. Phi'
    is called directly, an overflow read as inf. A secant on (log x, log Phi'(x))
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
    if d_lo is None:
        d_lo = _guarded(dphi, lo)
    if d_hi is None:
        d_hi = _guarded(dphi, hi)
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
        try:
            d = float(dphi(x))
        except OverflowError:
            d = inf
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
    per abscissa since downstream solvers revisit points; every solve
    shares phi's octave table of Phi' at the powers of two, so a solve at
    a new abscissa whose octave the table holds asks for no Phi' there.
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
        origin=("conj", phi),
    )


def expand(pred: Callable[[float], bool], start: float, factor: float) -> float | None:
    """The first point x_k = start * factor**k (``factor`` 2 or 1/2, taken
    as ``ldexp(start, ±k)``) where ``pred`` holds, trying k = 0, 1, 2, ...
    up to the first point off the positive floats (inf or 0.0), or None.

    The count k gallops (0, 1, 2, 4, ...) until ``pred`` holds and is then
    bisected between the last two counts, so for a monotone ``pred`` the
    result is that of the plain loop, found in O(log k) calls. The gallop
    looks at counts up to twice that result, so ``pred`` must be monotone
    there and must not raise (see :meth:`_Octaves.reaches`); it looks past
    the positive floats only once the last positive point fails, as the
    loop would. This is the one bracket search of the package: inverses,
    the Orlicz multiplier and the conjugate's octaves that its table does
    not yet hold. The inverse and the multiplier keep the values ``pred``
    computed, so their root estimates start from the bracket's ends at no
    cost; the conjugate's predicate stores each Phi' it evaluates in Phi's
    octave table (:class:`_Octaves`).
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


def _windowed_root(
    lo: float,
    hi: float,
    f_lo: float | None,
    margin: float,
    rtol: float = 1e-13,
    floor: float = 0.0,
    est: float | None = None,
    target: float = 1.0,
    rises: bool = False,
) -> Generator[float, float, tuple[float, float]]:
    """The bisection of [lo, hi] on a computed value F that falls through
    ``target`` (with ``rises``, that rises through it), skipping the
    decisions a window around an estimate of the root certifies: the one
    halving loop of the package. A generator: it yields each point where
    it needs F, receives F there and returns the final (lo, hi), so one
    caller can drive it with a function (:func:`_drive`) and another can
    step many roots in lockstep.

    A midpoint k = lo/2 + hi/2 decides ``F(k) <= target`` (rising: ``not
    F(k) < target``), and where that holds it becomes the new hi. The
    halving stops once ``hi - lo <= rtol * max(floor, hi)``, after 200
    halvings, or when lo and hi are adjacent floats, where every further
    halving would leave them as they are. ``margin`` exceeds twice the
    relative error of the computed F near the target (see the comment
    above MARGIN). F at a = est (1 - 10 margin) and b =
    est (1 + 10 margin) certifies each side that clears the target by
    margin: every midpoint at or below a then decides False and every
    one at or above b True, without asking for F, so the bisection visits
    the same midpoints and returns the same floats as with no window. The
    certificate holds for any est; a poor one certifies less, a value at a
    or b that is not finite and positive certifies nothing, and no
    estimate (or a margin of 0.1 or more) asks for no window at all.

    The inverse brings its own ``est``. The Luxemburg norm and the Orlicz
    multiplier (F falling through 1) pass ``f_lo`` > 1, F at lo, instead:
    at most 8 secant steps on (log k, log F(k)) from the bracket ends
    (exact to rounding after the first for a homogeneous Phi) give est; a
    step that leaves the bracket ends them at the end it passed, where the
    root lies when F(hi) rounds to about 1 (a constant support); a step
    ends them once log F(est) is within margin / 10 of 0, and a flat secant
    ends them at the last estimate (near the root, F rounds to the same
    value at neighbouring estimates). A value of F met on the way that is
    not finite and positive leaves no estimate.
    """
    if f_lo is not None:
        f_hi = yield hi
        if f_lo < math.inf and 0.0 < f_hi < math.inf:
            x_lo, x_hi = math.log(lo), math.log(hi)
            x0, y0, x1, y1 = x_lo, math.log(f_lo), x_hi, math.log(f_hi)
            for _ in range(8):
                if y1 == y0:  # no slope to step on: the last estimate stands
                    break
                x = x1 - y1 * (x1 - x0) / (y1 - y0)
                if not x_lo < x < x_hi:  # the root is at that end or the step is wild
                    est = lo if x <= x_lo else hi
                    break
                est = math.exp(x)
                f_est = yield est
                if not 0.0 < f_est < math.inf:
                    est = None
                    break
                x0, y0, x1, y1 = x1, y1, x, math.log(f_est)
                if abs(y1) < 0.1 * margin:
                    break
    below, above = 0.0, math.inf  # nothing certified
    if est is not None and margin < 0.1:
        a, b = est * (1.0 - 10.0 * margin), est * (1.0 + 10.0 * margin)
        f_a = yield a
        f_b = yield b
        if 0.0 < f_a < math.inf and 0.0 < f_b < math.inf:
            low, high = target * (1.0 - margin), target * (1.0 + margin)
            if rises:
                below = a if f_a < low else 0.0
                above = b if f_b > high else math.inf
            else:
                below = a if f_a > high else 0.0
                above = b if f_b < low else math.inf
    for _ in range(200):
        if hi - lo <= rtol * (hi if hi > floor else floor):
            break
        k = 0.5 * lo + 0.5 * hi  # lo + hi would overflow near the top of the range
        if k == lo or k == hi:
            break  # adjacent floats: every further halving repeats this one
        if k >= above:
            hi = k
        elif k <= below:
            lo = k
        else:
            f = yield k
            if (not f < target) if rises else f <= target:
                hi = k
            else:
                lo = k
    return lo, hi


# The root window. Three searches bisect for the point where a computed
# monotone F crosses a target: the Luxemburg norm (the modular sum
# Phi(|f(s)|/k), falling in k through 1), the Orlicz multiplier (the
# constraint sum Psi(Phi'(|f(s)|/t)), falling in t through 1) and the inverse
# (one value Phi(x), rising in x through y). Suppose the computed F at every
# float k where it reads near the target (rounded quotients, each term,
# fsum) is within relative eps of the exact F at that k; where F is far from
# the target, no error short of a factor 2 (and no overflow to inf) changes
# the test. Take F falling through 1: if the computed F(a) > 1 + margin, then
# for k <= a the exact F(k) >= F(a) > (1 + margin)/(1 + eps), so the computed
# F(k) > (1 + margin)(1 - eps)/(1 + eps) > 1 as margin > 2 eps: the
# bisection's test F(k) <= 1 reads False there, and need not be evaluated.
# The mirror argument covers k >= b once the computed F(b) < 1 - margin, and
# a rising F mirrors both. Along log k, |log F| moves with slope at least 1
# for the modular and for Phi itself (x Phi'(x) >= Phi(x) for convex Phi with
# Phi(0) = 0) and for the constraints of the catalog (the index j below), so
# with a window of 10 margin both sides certify once the estimate is within
# about 9 margin of the root.
#
# The margin is 4 eps, twice what the argument needs; each eps is pinned
# against 60-digit values (tests/test_mpmath_oracle.py). Take u = 2**-53,
# every libm call (pow, sinh, asinh, log1p, expm1, exp) within 1 ulp (2 u) and
# + - * / sqrt within u. Near the root of a sum every term is at most 1: x <=
# X with Phi(X) = 1 for the modular, x <= Xc with Psi(Phi'(Xc)) = 1 for the
# constraint. So no overflow branch runs, and subnormal quotients add at most
# n 2**-1074, nothing next to F near 1. On that range i = x Phi'/Phi is the
# index of Phi, j that of a constraint term T = x Phi' - Phi (T = (i - 1)
# Phi), k that of Phi', and e, e' are the errors of the scalar Phi and Phi'
# in u.
# - The modular, eps/u = i + e + 1: the rounded quotient moves a term by i u,
#   and fsum rounds once. x^p/p (:func:`_modular_margin`): p + 4 (numpy's
#   pow, /p). cosh 1: 8.3 (i <= 2.29; 2 sinh(x/2)^2, e = 5); cosh 2: 17.6 (i
#   <= 4.57, e = 12); cosh-conj: 15 (i <= 2; y asinh y - y^2/(1 + sqrt(1 +
#   y^2)), e = 3 i + 5 (i - 1) + 1 <= 12); square_log 1: 8 (i <= 3, e = 4);
#   exp_power 2: 8.6 (i <= 2.78; expm1 amplifies the 2 u of x^2 by 1.39, e =
#   4.78).
# - A numeric conjugate Psi(y) = x y - Phi(x) at the maximiser x, so an error
#   of x moves it only to second order: eps/u = (2 i + e)/(i - 1) + 2 at the
#   smallest i of the base Phi (the product x y, Phi, the subtraction, the
#   quotient through Psi's index i/(i - 1), fsum). conj[cosh 2]: 8.7 (i >= 4);
#   conj[square_log 1]: 7.5 (i >= 2.73); conj[exp_power 2]: 10.8 (i >= 2).
# - The constraint, eps/u = j + ((e' + 1) i + e)/(i - 1) + 2: x Phi' and Phi
#   cancel to T. x^p/p (:func:`_constraint_margin`): p + 2 + 3 (p + 1)/(p - 1)
#   (j = i = p, e' = 2, e = 3). cosh 1: 15.7 (j <= 2.61, i >= 2, e' = 2);
#   cosh 2: 22.6 (j <= 4.53, i >= 4, e' = 8); square_log 1: 15.2 (j <= 3, i >=
#   2.73, e' = 4); exp_power 2: 20.1 (j <= 3.3, i >= 2, e' = 4). Where Phi
#   computes x Phi' itself, the term subtracts the same product twice and
#   cancels exactly but for one rounding: cosh-conj, T = y^2/(1 + sqrt(1 +
#   y^2)) (e = 5) plus a rounding of Psi, 10.3 (j <= 2, i >= 1.78); a numeric
#   conjugate, T = Phi(x) at the solver's maximiser, which lies within 2 u
#   plus (e' + 1)/k u of the exact one (its bracket width, the noise of Phi',
#   the quotient): e + i + 1 + i (2 + (e' + 1)/k), with i, k and the errors of
#   the base Phi. conj[square_log 1]: 23 (i <= 3, k >= 1.67); conj[cosh 2]:
#   40.4 (i <= 4.57, k >= 3, e = 12, e' = 8); conj[exp_power 2]: 29.1 (i <=
#   2.78, k >= 1, e = 4.78, e' = 4.4). These bounds read 3.3 (conj[square_log
#   1]) to 5.5 (conj[exp_power 2]) times what the oracle sees, conj[exp_taylor
#   2]'s below too: their windows are wider than need be, not unsound.
# - Cancelling forms. entropy's (1 + x) log1p(x) - x and exp_taylor's
#   expm1(x) - x lose a term's digits near 0: its error is about u x, not u
#   Phi(x), so eps grows with the support (n equal entries make every term's
#   error alike): eps/u = A + B n**(1/r) with, on n terms summing to about
#   1, sum x <= sqrt(n sum x^2) (r = 2) or sum x^3 <= n**(1/4) (sum
#   x^4)**(3/4) (r = 4). The subtractions of x are exact (Sterbenz), and
#   below x = 1e-4 a series of relative error 6 u takes over. entropy
#   modular: 7 + 6.9 sqrt(n) (error 4 u (Phi + x), Phi >= (x/(e - 1))^2);
#   constraint: 11.4 + 8.6 sqrt(n) (T = x - log1p x shares log1p: error u (4
#   log1p x + 3 x log1p x + T), x log1p x <= 2.46 T, T >= (x/2.15)^2).
#   exp_taylor 1 modular: 5.5 + 2.9 sqrt(n) (error 2 u (Phi + x), Phi >=
#   x^2/2); constraint: 8.8 + 2.9 sqrt(n) (x expm1 x <= 2 T, T >= x^2/2).
#   exp_taylor 2, b = expm1(x) - x: modular 12 + 5.7 n**(1/4) (i <= 4.93,
#   error u (6 Phi + 4 x b), b >= x^2/2); constraint 22 + 2.5 n**(1/4) (j <=
#   4.88, i >= 4; expm1's error moves T by 4 u expm1(x) (x expm1 x + x b - b)
#   <= u x^3 (2 + 8.8 x), T >= 0.75 x^4); conj[exp_taylor 2] modular 6.7 +
#   0.83 n**(1/4) (Phi's 4 u x b over i - 1 >= 3, sum Phi <= 1/3); constraint
#   31.6 + 10.3 n**(1/4) (the numeric conjugate's rule with e = 6 + 4 x/b, e'
#   = 5 + 2 x/b, i <= 4.92, k >= 3: the parts in x/b add (4 + 2 i/k) u x b <=
#   7.3 sqrt(2) u T**(3/4) to a term, and sum T**(3/4) <= n**(1/4)).
# - The square-root transform T = sqrt[x^q/q], computed as Psi(sqrt(x)) for
#   Psi = x^q/q: its index is q/2 and its error q + 3 (sqrt's u moves Psi by
#   q u, pow, /q). Its modular: 1.5 q + 4; its numeric conjugate's modular:
#   2 (2 q + 3)/(q - 2) + 2, 20 at q = 3 (:func:`_modular_margin`). The
#   transform accepts q >= 2; its conjugate's bound needs q > 2, as at q = 2
#   T = x/2 and its conjugate is infinite past 1/2.
# - The inverse (:func:`_inverse_margin`): one value of Phi at a float x, no
#   quotient and no sum, so eps/u = e, but on the whole range where Phi is
#   near y, not only where it is at most 1. For y below 2**-1000 values near
#   y may be subnormal, and the inverse keeps no window. A computed Phi that
#   composes increasing operations is, at x >= b, at least its value at b
#   with every rounding taken down, so the error near y is the one that
#   matters on either side. x^p/p: 3 (pow, /p), and 3.4 p + 2 where y p >=
#   2**1023, as values near y take the branch (x p**(-1/p))**p there; the
#   transform T: q + 3, 4.4 q + 2 there. cosh 1: 5; cosh 2: 12; cosh-conj: 12
#   (i in (1, 2] everywhere); square_log 1: 4; exp_power 2: 2 g + 2, where g =
#   z e^z/expm1(z), the amplification of the 2 u of z = x^2 by expm1, grows
#   with x and is taken at z = log1p(2 y). A numeric conjugate: 2 + (1 +
#   e)/(i - 1) at the smallest i of the base over the whole range (the
#   product x y, Phi, the subtraction): conj[cosh 2] 6.4 (i >= 4, e = 12);
#   conj[square_log 1] 7 (i >= 2, e = 4); conj[exp_power 2] 7 (i = 2 g, e =
#   2 g + 2, (2 g + 3)/(2 g - 1) <= 5); conj[T] 2 + 2 (q + 4)/(q - 2).
#   Cancelling forms are read through their absolute error E(x) = u (A Phi +
#   B x Phi**(1 - 1/r)), which grows with x: for x <= a, the computed Phi(x)
#   <= Phi(a) + E(a) <= computed Phi(a) + 2 E(a), with Phi(a) < y, so eps/u
#   = A + B a/y**(1/r) at the window end a nearer 0; for x >= b the relative
#   error A + B x/Phi**(1/r) falls with x (Phi(x)/x rises), so it is at most
#   its value at the root. The inverse reads both at the estimate, x = est:
#   the window's ends and the root lie within a factor 1 +- 10 margin of it,
#   which the factor 2 the margin spares covers. entropy: A 5, B 4, r 1 (the
#   product's 4 u (Phi + x), u Phi where the subtraction of x is no longer
#   exact, past x = 2.5; the series' 6 u Phi lies inside), up to 33,368 u
#   at x = 1.3e-4 where the closed form takes over; exp_taylor 1: A 3, B 2,
#   r 1; exp_taylor 2: A 8, B 4, r 2 (b = expm1(x) - x errs by u (3 b + 2
#   x), and Phi = b^2). conj[exp_taylor 2] at t: u (5 Psi + 4 x b) at the
#   maximiser x = Psi'(t) (the product, Phi's u (8 Phi + 4 x b), the
#   subtraction, Phi <= Psi/3), with x <= 4 Psi/(3 t) and b <= (Psi/3)**(1/2),
#   so eps/u = 5 + 3.1 sqrt(y)/est; this absolute error grows with t as well,
#   and the relative one falls.
# - Every other Phi keeps MARGIN, which covers eps up to 5e-12: from_density,
#   a custom Phi and a catalog family at another p have no pin.
MARGIN = 1e-11

_U = 2.0**-53

# eps/u of the modular and of the constraint of the catalog members other
# than x^p/p, keyed on :func:`_family` as the comment above derives it: (A, B,
# r) stands for A + B n**(1/r) on n terms.
_MODULAR_EPS: dict[tuple, tuple[float, float, int]] = {
    ("cosh", 1.0): (8.3, 0.0, 2),
    ("cosh", 2.0): (17.6, 0.0, 2),
    ("cosh-conj", None): (15.0, 0.0, 2),
    ("entropy", None): (7.0, 6.9, 2),
    ("exp_taylor", 1.0): (5.5, 2.9, 2),
    ("exp_taylor", 2.0): (12.0, 5.7, 4),
    ("square_log", 1.0): (8.0, 0.0, 2),
    ("exp_power", 2.0): (8.6, 0.0, 2),
    ("conj", ("cosh", 2.0)): (8.7, 0.0, 2),
    ("conj", ("exp_taylor", 2.0)): (6.7, 0.83, 4),
    ("conj", ("square_log", 1.0)): (7.5, 0.0, 2),
    ("conj", ("exp_power", 2.0)): (10.8, 0.0, 2),
}
_CONSTRAINT_EPS: dict[tuple, tuple[float, float, int]] = {
    ("cosh", 1.0): (15.7, 0.0, 2),
    ("cosh", 2.0): (22.6, 0.0, 2),
    ("cosh-conj", None): (10.3, 0.0, 2),
    ("entropy", None): (11.4, 8.6, 2),
    ("exp_taylor", 1.0): (8.8, 2.9, 2),
    ("exp_taylor", 2.0): (22.0, 2.5, 4),
    ("square_log", 1.0): (15.2, 0.0, 2),
    ("exp_power", 2.0): (20.1, 0.0, 2),
    ("conj", ("cosh", 2.0)): (40.4, 0.0, 2),
    ("conj", ("exp_taylor", 2.0)): (31.6, 10.3, 4),
    ("conj", ("square_log", 1.0)): (23.0, 0.0, 2),
    ("conj", ("exp_power", 2.0)): (29.1, 0.0, 2),
}
# eps/u of one value near y of the catalog members other than x^p/p, at the
# estimated root x.
_INVERSE_EPS: dict[tuple, Callable[[float, float], float]] = {
    ("cosh", 1.0): lambda x, y: 5.0,
    ("cosh", 2.0): lambda x, y: 12.0,
    ("cosh-conj", None): lambda x, y: 12.0,
    ("entropy", None): lambda x, y: 5.0 + 4.0 * x / y,
    ("exp_taylor", 1.0): lambda x, y: 3.0 + 2.0 * x / y,
    ("exp_taylor", 2.0): lambda x, y: 8.0 + 4.0 * x / math.sqrt(y),
    ("square_log", 1.0): lambda x, y: 4.0,
    ("exp_power", 2.0): lambda x, y: 2.0 + 2.0 * math.log1p(2.0 * y) * (1.0 + 0.5 / y),
    ("conj", ("cosh", 2.0)): lambda x, y: 6.4,
    ("conj", ("exp_taylor", 2.0)): lambda x, y: 5.0 + 3.1 * math.sqrt(y) / x,
    ("conj", ("square_log", 1.0)): lambda x, y: 7.0,
    ("conj", ("exp_power", 2.0)): lambda x, y: 7.0,
}


def _family(phi: YoungFunction) -> tuple:
    """The key of phi's margins: (label, p), or (how, key of the base) for a
    function built by :func:`numeric_conjugate` or :func:`sqrt_transform`
    from another, as its ``origin`` records. The power family is keyed on
    its label and p, as ``_closed_form_conjugate`` knows it."""
    if phi.origin is None:
        return phi.label, phi.params.get("p")
    how, base = phi.origin
    return how, _family(base)


def _margin(eps: dict, key: tuple, n: int) -> float | None:
    """4 eps for the entry of ``key`` in ``eps`` on n terms, None without one."""
    entry = eps.get(key)
    if entry is None:
        return None
    a, b, r = entry
    return 4.0 * (a + b * n ** (1.0 / r) if b else a) * _U


def _modular_margin(phi: YoungFunction, n: int) -> float:
    """The margin that certifies a side of the Luxemburg root window under
    phi on a support of n terms: 4 eps from the table for the catalog
    members, 4 (p + 4) u for the power family, formulas in q for the
    square-root transform of x^q/q and its numeric conjugate, MARGIN for
    every other Phi."""
    if phi.label == "power":
        return 4.0 * (float(phi.params["p"]) + 4.0) * _U
    key = _family(phi)
    margin = _margin(_MODULAR_EPS, key, n)
    if margin is not None:
        return margin
    match key:
        case ("sqrt", ("power", q)):
            eps = 1.5 * q + 4.0
        case ("conj", ("sqrt", ("power", q))) if q > 2.0:
            eps = 2.0 * (2.0 * q + 3.0) / (q - 2.0) + 2.0
        case _:
            return MARGIN
    return 4.0 * eps * _U


def _constraint_margin(phi: YoungFunction, n: int) -> float:
    """The margin of the Orlicz multiplier's window under phi on n terms:
    4 eps from the table for the catalog members, 4 (p + 2 + 3 (p + 1)/(p
    - 1)) u for the power family, MARGIN for every other Phi."""
    if phi.label == "power":
        p = float(phi.params["p"])
        return 4.0 * (p + 2.0 + 3.0 * (p + 1.0) / (p - 1.0)) * _U
    margin = _margin(_CONSTRAINT_EPS, _family(phi), n)
    return MARGIN if margin is None else margin


def _inverse_margin(phi: YoungFunction, x: float, y: float) -> float:
    """The margin of the inverse's window where phi(x) is near y: 4 eps of
    one value of phi, from the table for the catalog members, by formula
    for the power family, the square-root transform of x^q/q and its
    numeric conjugate; MARGIN for every other Phi."""
    if phi.label == "power":
        p = float(phi.params["p"])
        return 4.0 * (3.0 if y * p < 2.0**1023 else 3.4 * p + 2.0) * _U
    key = _family(phi)
    rule = _INVERSE_EPS.get(key)
    if rule is not None:
        return 4.0 * rule(x, y) * _U
    match key:
        case ("sqrt", ("power", q)):
            eps = q + 3.0 if y * q < 2.0**1023 else 4.4 * q + 2.0
        case ("conj", ("sqrt", ("power", q))) if q > 2.0:
            eps = 2.0 + 2.0 * (q + 4.0) / (q - 2.0)
        case _:
            return MARGIN
    return 4.0 * eps * _U


def inverse(phi: YoungFunction, y: float) -> float:
    """Solve Phi(x) = y for x by bracketed bisection.

    :func:`expand` doubles x from 1 until Phi(x) >= y, and the bisection
    halves [0, x] to relative width 1e-15 (floor 1), deciding each
    midpoint by ``not Phi(x) < y``, where an overflow or an infinite
    numeric conjugate reaches y; the result is the midpoint of the last
    bracket. Requires strictly increasing continuous ``phi``; the residual
    satisfies |Phi(x) - y| <= 1e-10 * max(1, y).

    The bisection goes through :func:`_windowed_root`. Newton steps on
    log Phi against log x from the bracket's top (:func:`_inverse_estimate`)
    estimate the root, and the window around it is sized by
    :func:`_inverse_margin` to the rounding error of one value of Phi, so
    the bisection evaluates only the midpoints inside it and returns the
    float a plain bisection returns. Phi is evaluated once per point:
    the bracket search, the estimate, the window and the bisection share
    the values. Over the catalog battery (``verify.run_battery``) an
    inverse takes 12.5 values of Phi on average, where the plain bisection
    takes 53.
    """
    if not y >= 0:  # also refuses NaN
        raise InvalidInputError(f"inverse requested below Phi(0)=0 or at NaN, y={y!r}")
    if y == 0.0:
        return 0.0
    values: dict[float, float] = {}

    def value(x: float) -> float:
        v = values.get(x)
        if v is None:
            try:
                v = phi.fn(x)
            except (OverflowError, ConjugateInfiniteError):  # these reach y
                v = math.inf
            values[x] = v
        return v

    hi = expand(lambda x: not value(x) < y, 1.0, 2.0)
    if hi is None:
        raise NumericalFailureError(f"no bracket for inverse at y={y!r}")
    est = _inverse_estimate(phi, y, hi, value) if y >= 2.0**-1000 and hi < math.inf else None
    margin = MARGIN if est is None else _inverse_margin(phi, est, y)
    steps = _windowed_root(0.0, hi, None, margin, 1e-15, floor=1.0, est=est, target=y, rises=True)
    lo, hi = _drive(steps, value)
    x = 0.5 * (lo + hi)
    if abs(phi(x) - y) <= 1e-10 * max(1.0, y):
        return x
    raise NumericalFailureError(f"inverse bisection stalled at y={y!r}")


def _inverse_estimate(
    phi: YoungFunction, y: float, hi: float, value: Callable[[float], float]
) -> float | None:
    """An estimate of the root of Phi(x) = y in (0, hi], or None.

    At most 8 Newton steps on log Phi against log x, from hi, where Phi >=
    y (from hi/2 where Phi(hi) overflows): each takes Phi from ``value``
    and its slope x Phi'/Phi from :meth:`YoungFunction.d` (for a numeric
    conjugate, the maximiser of the solve ``value`` made, so the slope
    costs nothing). A step of at most 2**-26 ends them at the point it
    reaches, unevaluated: Newton's error there is about the square of the
    step, below the rounding of Phi. A step that leaves the bracket [lo,
    hi] the values have shown (lo is hi/2 when ``expand`` doubled at least
    once) goes to its geometric middle instead. A value or slope that is
    not finite and positive ends the steps without an estimate; after 8
    steps the last point stands.
    """
    lo = 0.5 * hi if hi > 1.0 else 0.0
    x = hi if lo == 0.0 or value(hi) < math.inf else lo
    for _ in range(8):
        v = value(x)
        ratio = v / y
        if not 0.0 < ratio < math.inf:
            return None
        try:
            slope = x * (phi.d(x) / v)
        except ConjugateInfiniteError:
            return None
        if not 0.0 < slope < math.inf:
            return None
        step = -math.log(ratio) / slope
        t = x * math.exp(step) if step < 700.0 else math.inf
        if abs(step) <= 2.0**-26:
            return t
        if v < y:
            lo = x
        else:
            hi = x
        if not lo < t < hi:
            t = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else 0.5 * hi
        x = t
    return x


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
    catalog members with a known conjugate, "numerical" for
    :func:`numeric_conjugate`.
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
    """The pair of Phi(x) = int_0^x varphi and its numeric conjugate.

    ``varphi`` must be continuous, strictly increasing, 0 at 0 and
    unbounded; monotonicity is probed on a grid before any quadrature.
    Phi is adaptive quadrature at 1e-9 relative accuracy, with derivative
    varphi, and :func:`make_pair` pairs it: Psi, labelled
    ``conj[<label>:integral]``, is :func:`numeric_conjugate` of Phi, so
    Psi' = varphi^{-1} is the conjugate's maximiser.
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

    def phi_fn(x: float) -> float:
        if x == 0.0:
            return 0.0
        return quad(varphi, 0.0, x, epsabs=0.0, epsrel=1e-9, limit=200)[0]

    phi = YoungFunction(fn=phi_fn, derivative=varphi, label=f"{label}:integral")
    return make_pair(phi, validate=validate)


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
        origin=("sqrt", psi),
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
