"""Modulars, Luxemburg and Orlicz norms on the lattice, and Hölder checks.

On Z^d the Haar measure is counting measure, so every integral below is a
finite sum over the support. The Luxemburg norm is

    N_Phi(f) = inf{ k > 0 : sum Phi(|f(s)|/k) <= 1 },

computed by bisection in k (the modular is monotone in k and the bracket
endpoints are available in closed form from the largest entry). The modular is one array pass over the support
(:meth:`YoungFunction.values`), or, for a Phi without an array form, one
loop calling Phi itself on each quotient, an overflow read as inf. The
magnitudes are taken once (:meth:`FinSuppFn.magnitudes`, ``np.hypot``)
and the terms are added with ``math.fsum``: these match Python's ``abs(complex)`` and exact summation
bit for bit, so the norm does not depend on the order of the support. An
array form of Phi may differ from its scalar form in the last ulp; the
bisection stays because its fixed grid of midpoints absorbs that noise,
which can only flip the decision at a midpoint lying within an ulp of the
root. Before bisecting, an estimate locates the root and two more values
certify a narrow window around it; the bisection then answers every
midpoint outside that window without evaluating, and evaluates the rest
as before, so it visits the same midpoints and returns the same float.
Under a homogeneous Phi of degree r (x^p/p, the square-root transform of
x^q/q and its numeric conjugate, ``young._degree``) the modular scales as
k**-r, so the estimate is read off the value at the bracket's lower end;
under any other Phi a few secant steps find it. That windowed bisection
is ``young._windowed_root``, which the inverse of a Young function runs
too, from an estimate of its own.
The window is as narrow as the rounding error of the modular allows
(``young._modular_margin``): for every catalog member, and for the
square-root transform of x^q/q and its numeric conjugate, a few ulps
times its index (and, where a closed form cancels near 0, a factor
growing with the support), so the bisection is left with a few midpoints
to evaluate; any other Phi (``from_density``, a custom Phi, a catalog
family at another p) keeps the wider margin ``young.MARGIN``.
The body measures a batch of supports in lockstep
(:func:`_luxemburg_norms`): each round evaluates Phi once, on
the quotients of every support still searching, and sums each support's
own slice with ``math.fsum``, so every norm is the float its support gets
alone while the scans and the ``verify`` battery pay one Phi pass per
round instead of one per modular. The norm is memoised on the immutable
f, keyed by Phi, so a caller that needs N_Phi(f) twice computes it once.
The Orlicz norm is the dual expression

    ||f||_Phi = sup{ sum |f v| : sum Psi(|v|) <= 1 },

solved through its first-order conditions: the maximiser is v = Phi'(|f|/t)
for the multiplier t at which the constraint binds, and the constraint
value needs no Psi evaluations because Psi(Phi'(u)) = u*Phi'(u) - Phi(u)
at conjugate points: one loop calling Phi and Phi' themselves on each
quotient, an overflow read as inf. The constraint falls in t as the
modular falls in k, and the multiplier is found by the same windowed bisection, its window
sized to the rounding error of the constraint (``young._constraint_margin``),
for every catalog member, its numeric conjugates included.

Both searches run on one normalisation: with (m, e) = frexp(max |f|),
they search over |f| / 2**e, whose largest entry m lies in [0.5, 1), and
the k or t found for it stands for k * 2**e or t * 2**e. The division is
exact in the normal range, so it changes no quotient |f|/k there, and it
keeps every bracket end and quotient inside the float range from the
subnormals up to the largest float. Where a magnitude |f(s)| passes the
float range though its parts do not, the support's magnitudes are taken
at half scale and the norm found is doubled back
(:meth:`FinSuppFn._scaled_magnitudes`). A norm beyond the float range
raises :class:`NumericalFailureError` instead of reading inf. Every
Orlicz-norm result is gated by the equivalence N_Phi <= ||.||_Phi <= 2 N_Phi; a
violation raises instead of returning a silently wrong value.

Weighted norms are norms of the pointwise product f*omega under a
:class:`~orliczlat.weights.Weight`. The scans' reader is
:func:`weighted_norm` of the Luxemburg kind, which ``AlgebraContext``
calls: it reads omega from :meth:`Weight.at_points`, forms the magnitudes
of f*omega in arrays (:func:`_weighted_magnitudes`), runs the Luxemburg
body on them, and memoises the norm on f keyed by (Phi, omega). The scans
pass every function of a radius at once: omega, the products and the
magnitudes are then one array pass over all their points, and the norms
one batch. Its bits are those of
``luxemburg_norm(Phi, apply_weight(f, omega))``, and an overflowing
product raises the error :func:`apply_weight` raises. The Orlicz kind
goes through :func:`apply_weight`. The scans' convolution tops are never
built as functions: ``algebra._convolution_norms`` reads every distinct
top of a radius off one box kernel call, weights its cells as
:func:`_weighted_magnitudes` does, and measures them in one
:func:`_luxemburg_norms` batch, unmemoised since each top is measured
once; each norm is the float this module gives on the function
``algebra.convolve`` returns. The weighted L1 norm sums
|f(s)| omega(s) with ``math.fsum`` and raises where that passes the
float range; so does the Hölder check's sum |f g|.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .finsupp import FinSuppFn, _at_scale
from .weights import Weight
from .young import (
    ComplementaryPair,
    YoungFunction,
    _constraint_margin,
    _degree,
    _drive,
    _modular_margin,
    _windowed_root,
    expand,
)

__all__ = [
    "modular",
    "luxemburg_norm",
    "orlicz_norm",
    "weighted_norm",
    "holder_check",
    "HolderReport",
    "weighted_l1_norm",
    "apply_weight",
]


def _modular(phi: YoungFunction, mags: np.ndarray) -> float:
    """sum of Phi over the magnitudes; callers ignore numpy overflow, so it reads as inf."""
    return math.fsum(phi.values(mags))


def modular(phi: YoungFunction, f: FinSuppFn) -> float:
    """sum of Phi(|f(s)|) over the support; inf past the float range."""
    with np.errstate(over="ignore"):
        try:
            return _modular(phi, f.magnitudes())
        except OverflowError:  # finite terms whose sum passes the float range
            return math.inf


def _finite_sum(terms: list[float], message: Callable[[], str]) -> float:
    """``math.fsum`` of nonnegative terms; raises :class:`NumericalFailureError`
    with ``message()`` where a term or the sum passes the float range (the
    message is built only then)."""
    try:
        total = math.fsum(terms)
    except OverflowError:  # the partial sums pass the float range
        total = math.inf
    if total == math.inf:
        raise NumericalFailureError(message())
    return total


def _unscaled(k: float, e: int, phi: YoungFunction) -> float:
    """The norm k found for |f| / 2**e, times 2**e: exact in the normal
    range and rounded up among the subnormals, so a nonzero function keeps
    a positive norm. Raises :class:`NumericalFailureError` above the float
    range."""
    try:
        y = math.ldexp(k, e)
    except OverflowError:
        raise NumericalFailureError(
            f"Luxemburg norm overflows the float range under {phi.describe()}"
        ) from None
    return y if math.ldexp(y, -e) >= k else math.nextafter(y, math.inf)


def _luxemburg_lane(
    phi: YoungFunction, m: float, e: int, n: int
) -> Generator[float, float, float]:
    """The Luxemburg body on one support of n magnitudes, the largest
    m * 2**e: yields each k at which it needs the modular of |f| / 2**e
    divided by k, receives it and returns the norm. The bracket's lower
    end m / Phi^-1(1) is the norm of one entry, so a one-entry support
    asks for nothing."""
    k = m / phi.inverse(1.0)
    if n > 1:
        f_lo = yield k
        if not f_lo <= 1.0:
            hi = m / phi.inverse(1.0 / n)
            _, k = yield from _root_from(k, hi, f_lo, _modular_margin(phi, n), _degree(phi))
    return _unscaled(k, e, phi)


def _root_from(
    lo: float, hi: float, f_lo: float, margin: float, degree: float | None
) -> Generator[float, float, tuple[float, float]]:
    """``young._windowed_root`` on [lo, hi] for a sum F falling through 1,
    F(lo) = f_lo above 1: from the estimate lo f_lo**(1/r) where F is
    homogeneous of degree r = ``degree`` in 1/k and f_lo is finite, else
    from f_lo by secant steps."""
    if degree is not None and f_lo < math.inf:
        return _windowed_root(lo, hi, None, margin, est=lo * f_lo ** (1.0 / degree))
    return _windowed_root(lo, hi, f_lo, margin)


def _luxemburg_norms(phi: YoungFunction, mags_list: Sequence[np.ndarray]) -> list[float]:
    """The Luxemburg norm on the magnitudes of each support (all positive;
    none for the zero function), one :func:`_luxemburg_lane` per support
    stepped in lockstep.

    The scaled magnitudes of the lanes still searching are stacked in one
    array, again only when a lane finishes. Each round divides them by
    their lane's k, evaluates Phi once on the quotients and gives each
    lane ``math.fsum`` of its own slice: the quotients, the
    values and the sum are those of the lane measured alone, so each norm
    is the float :func:`luxemburg_norm` returns for it. An error raised on
    the way is one that some lane raises alone, not necessarily the first
    lane's. Every caller comes through here, a single f as a batch of one.
    A batch of one has no round to share, so its lane is driven by
    :func:`~orliczlat.young._drive`, on the modular :func:`modular`
    takes: the round bookkeeping made conjugate-battery's median op 9%
    slower (``BENCH_21.json``) while its norms were all single. The
    battery's norm sandwich and pairing bound pass each check's functions
    as one batch per Young function (``verify._measure_ahead``), 50 or 25
    lanes, and their single calls read the memo.
    """
    norms = [0.0] * len(mags_list)
    lanes = []
    with np.errstate(over="ignore"):
        for i, mags in enumerate(mags_list):
            if len(mags):
                m, e = math.frexp(float(mags.max()))
                lanes.append((i, np.ldexp(mags, -e), _luxemburg_lane(phi, m, e, len(mags))))
        if len(lanes) == 1:
            i, scaled, lane = lanes[0]
            norms[i] = _drive(lane, lambda k: _modular(phi, scaled / k))
            return norms
        answers, restack = [None] * len(lanes), True
        while True:
            ks, live = [], []
            for lane, answer in zip(lanes, answers):
                try:
                    ks.append(lane[2].send(answer))
                except StopIteration as stop:
                    norms[lane[0]] = stop.value
                    restack = True
                else:
                    live.append(lane)
            if not live:
                return norms
            if restack:  # the first round, or a lane has finished
                sizes = [len(scaled) for _, scaled, _ in live]
                stacked = np.concatenate([scaled for _, scaled, _ in live])
                owner = np.repeat(np.arange(len(live)), sizes)
                ends = list(itertools.accumulate(sizes))
                restack = False
            answers = phi._fsums(stacked / np.array(ks)[owner], ends)
            lanes = live


def _memoised(
    key: object, fs: Sequence[FinSuppFn], measure: Callable[[list[FinSuppFn]], list[float]]
) -> list[float]:
    """The norm of each f under ``key``, from its memo ``f._luxemburg``:
    the distinct fs not yet memoised are measured in one batch by
    ``measure`` and memoised, so a batch that raises memoises nothing."""
    todo = list({id(f): f for f in fs if key not in f._luxemburg}.values())
    if todo:
        for f, norm in zip(todo, measure(todo)):
            f._luxemburg[key] = norm
    return [f._luxemburg[key] for f in fs]


def _luxemburg_of(phi: YoungFunction, fs: Sequence[FinSuppFn]) -> list[float]:
    """:func:`luxemburg_norm` of each f, the distinct unmemoised fs in one batch."""
    def measure(todo: list[FinSuppFn]) -> list[float]:
        mags_list, exponents = _magnitudes_of(todo)
        return _scaled_back(phi, _luxemburg_norms(phi, mags_list), exponents)

    return _memoised(phi, fs, measure)


def _magnitudes_of(fs: Sequence[FinSuppFn]) -> tuple[list[np.ndarray], list[int]]:
    """:meth:`FinSuppFn._scaled_magnitudes` of each f bit for bit, in one pass
    over all their values: the magnitudes at scale 2**-s, and the exponents
    s."""
    ends = [0, *itertools.accumulate(len(f) for f in fs)]
    values = itertools.chain.from_iterable(f.entries.values() for f in fs)
    vals = np.fromiter(values, dtype=complex, count=ends[-1])
    with np.errstate(over="ignore"):
        return _split_at_scale(vals.real, vals.imag, np.hypot(vals.real, vals.imag), ends)


def _split_at_scale(
    re: np.ndarray, im: np.ndarray, mags: np.ndarray, ends: list[int]
) -> tuple[list[np.ndarray], list[int]]:
    """The magnitudes ``mags`` = ``np.hypot(re, im)`` cut into the supports
    between consecutive ``ends``, each with its exponent: 0 for all where
    none passes the float range, else each support at the scale
    :func:`~orliczlat.finsupp._at_scale` picks for it."""
    cuts = list(zip(ends, ends[1:]))
    if mags.max(initial=0.0) < math.inf:
        return [mags[a:b] for a, b in cuts], [0] * len(cuts)
    scaled = [_at_scale(re[a:b], im[a:b], mags[a:b]) for a, b in cuts]
    return [m for m, _ in scaled], [s for _, s in scaled]


def _scaled_back(phi: YoungFunction, norms: list[float], exponents: list[int]) -> list[float]:
    """Each norm measured on magnitudes at the scale 2**-s, times 2**s: exact,
    such a norm being far above the subnormals, and
    :class:`NumericalFailureError` past the float range (:func:`_unscaled`)."""
    return [_unscaled(n, s, phi) if s else n for n, s in zip(norms, exponents)]


def luxemburg_norm(phi: YoungFunction, f: FinSuppFn) -> float:
    """Luxemburg norm by bisection; 0 for the zero function.

    The bisection runs on |f| / 2**e (see the module docstring) and
    narrows the bracket [m/Phi^-1(1), m/Phi^-1(1/n)] (n the support size)
    to relative width 1e-13; its upper end k, times 2**e, is the norm N.
    That product is exact in the normal range and rounded up among the
    subnormals, so a nonzero function keeps a positive norm; a norm beyond
    the float range raises :class:`NumericalFailureError`.
    modular(f/N) <= 1 holds up to the 1e-10 residual of
    :func:`~orliczlat.young.inverse`, which the bracket ends carry, and
    rounding: a one-entry support returns |f|/Phi^-1(1) unchecked, with no
    modular evaluation, and its modular reads 1.0000000000000004 for x^2/2.

    The bisection goes through ``young._windowed_root``, whose certified
    window skips the modular at every midpoint outside it; the comment
    above ``young.MARGIN`` shows that each skipped decision equals the
    computed one, so the norm is the float a plain bisection returns. The
    window is sized to the rounding error of the modular
    (``young._modular_margin``), and under a homogeneous Phi it starts at
    the root read off the modular at the bracket's lower end
    (``young._degree``): in the scans a norm under x^p/p takes about 3.7
    modular values, that one included (5.9 from secant steps), under the
    inclusion scans' T = sqrt[x^3/3] about 3.9 and under its numeric
    conjugate about 5.0, and over the catalog battery
    (``verify.run_battery``) the window asks for 7.5 on average. The body is
    :func:`_luxemburg_norms` on a batch of one: the scans pass it every
    distinct function of a radius at once, and the battery's norm sandwich
    and pairing bound every function of a check, so their lanes share one
    evaluation of Phi per round.

    The result is memoised on f, keyed by phi (both are immutable), so a
    second norm of the same f under the same phi costs a dict lookup.
    """
    return _luxemburg_of(phi, [f])[0]


def _dual_constraint(phi: YoungFunction, mags: list[float], t: float) -> float:
    """sum Psi(Phi'(a/t)) over the magnitudes a, each term by the conjugacy
    identity u*Phi'(u) - Phi(u) at u = a/t, and inf where Phi(u) is;
    decreasing in t. Phi and Phi' are called directly, an overflow read as
    inf as :meth:`YoungFunction.__call__` and :meth:`YoungFunction.d` read it."""
    fn, dfn, inf, terms = phi.fn, phi.derivative, math.inf, []
    for a in mags:
        u = a / t
        try:
            fu = float(fn(u))
        except OverflowError:
            fu = inf
        if fu == inf or fu == -inf:
            terms.append(inf)
            continue
        try:
            du = float(dfn(u))
        except OverflowError:
            du = inf
        terms.append(u * du - fu)
    return math.fsum(terms)


def _multiplier(phi: YoungFunction, quotients: list[float], start: float) -> float:
    """The multiplier t at which the constraint sum Psi(Phi'(q/t)) over the
    quotients falls to 1, as :func:`orlicz_norm` describes: bracketed from
    ``start``, then narrowed by ``young._windowed_root`` (:func:`_root_from`;
    the constraint is homogeneous of Phi's degree in 1/t, as
    Psi(Phi'(u)) = u Phi'(u) - Phi(u) is in u)."""
    values: dict[float, float] = {}

    def constraint(t: float) -> float:
        c = values.get(t)
        if c is None:
            c = values[t] = _dual_constraint(phi, quotients, t)
        return c

    hi = expand(lambda t: constraint(t) <= 1.0, start, 2.0)
    if hi in (None, math.inf):
        raise NumericalFailureError("dual multiplier bracket failed to expand")
    lo = expand(lambda t: t == 0.0 or constraint(t) >= 1.0, hi * 0.5, 0.5)
    if lo == 0.0:
        raise NumericalFailureError("dual multiplier bracket failed to shrink")
    margin = _constraint_margin(phi, len(quotients))
    return _drive(_root_from(lo, hi, constraint(lo), margin, _degree(phi)), constraint)[1]


def orlicz_norm(pair: ComplementaryPair, f: FinSuppFn) -> float:
    """Orlicz norm of f under the pair (Phi, Psi); see the module docstring.

    The multiplier is sought for |f| / 2**e, so it is t / 2**e for the
    multiplier t of f: the quotients |f|/t are the same, and the search
    stays finite where t would pass the top of the float range. ``expand``
    doubles it from max(m, 1e-300 / 2**e) until the constraint sum
    Psi(Phi'(|f|/t)) <= 1 holds and then halves it until the constraint is
    >= 1 (either search ending off the positive floats raises);
    ``young._windowed_root`` narrows that bracket to relative width 1e-13,
    reusing the constraint values at its two ends, in a window sized to the
    constraint's rounding error (``young._constraint_margin``). The window
    skips only decisions it has certified, so the multiplier is the one a
    plain bisection finds; over the catalog battery a call asks the window
    for 8.3 constraint values on average, where a plain bisection takes
    about 46. Under x^p/p the constraint is homogeneous of degree p in 1/t,
    so the window starts at the root read off the value at the bracket's
    lower end, with no secant step (:func:`_root_from`). The value sum |f|
    Phi'(|f|/t) is then summed over the magnitudes as given, so a term
    that the division by 2**e takes below the normal range still counts.

    Raises :class:`NumericalFailureError` if the norm exceeds the float
    range, or if the optimiser output falls outside the [N_Phi, 2 N_Phi]
    equivalence window. N_Phi comes from :func:`luxemburg_norm`, so its
    memo serves a caller that takes the Luxemburg norm of f as well.
    """
    if f.is_zero:
        return 0.0
    phi = pair.phi
    try:  # |f| / 2**s, as FinSuppFn._scaled_magnitudes takes it
        mags, s = [abs(v) for v in f.entries.values()], 0
    except OverflowError:  # some |f(s)| passes the float range
        mags, s = [abs(v * 0.5) for v in f.entries.values()], 1
    m, e = math.frexp(max(mags))
    quotients = [math.ldexp(a, -e) for a in mags]  # by t / 2**(e+s), |f| / t
    hi = _multiplier(phi, quotients, max(m, math.ldexp(1e-300, -e - s)))

    def overflow() -> str:
        return f"Orlicz norm overflows the float range for pair {pair.describe()}"

    value = _finite_sum([a * phi.d(b / hi) for a, b in zip(mags, quotients)], overflow)
    value *= 2.0**s
    if value == math.inf:
        raise NumericalFailureError(overflow())

    n_phi = luxemburg_norm(phi, f)
    if not (n_phi * (1.0 - 1e-9) <= value <= 2.0 * n_phi * (1.0 + 1e-9)):
        raise NumericalFailureError(
            f"Orlicz norm {value!r} escaped the window [{n_phi!r}, {2 * n_phi!r}] "
            f"for pair {pair.describe()}"
        )
    return value


def apply_weight(f: FinSuppFn, omega: Weight) -> FinSuppFn:
    """Pointwise product f(s) * omega(s).

    Raises :class:`NumericalFailureError` naming the point where the
    product overflows (a finite weight times a large value, or a weight
    that is itself not finite): the product is then no finite function.
    """
    out = {}
    for p, v in f:
        w = omega(p)
        vw = v * w
        if not cmath.isfinite(vw):
            raise NumericalFailureError(
                f"weighted value {vw!r} at {p!r} (weight {w!r}) is not finite"
            )
        out[p] = vw
    return FinSuppFn._computed(f.dim, out, "weighted")


def _weights_at(omega: Weight, fs: Sequence[FinSuppFn]) -> np.ndarray:
    """omega at every point of the fs (nonempty, of one dimension), f by f
    in key order: one :meth:`Weight.at_points` on their kept int64 views,
    or on their points where one f has no view."""
    views = [f._int64_view() for f in fs]
    if any(view is None for view in views):
        return omega.at_points([p for f in fs for p in f.entries], fs[0].dim)
    return omega.at_points(np.concatenate(views), fs[0].dim)


def _weighted_magnitudes(
    omega: Weight, fs: Sequence[FinSuppFn]
) -> tuple[list[np.ndarray], list[int]]:
    """:func:`_magnitudes_of` the ``apply_weight(f, omega)`` bit for bit,
    without building them, for fs of one dimension: omega from one
    :func:`_weights_at` over all their points, and the products re*w and
    im*w, which equal CPython's complex times float up to signed zeros
    that ``np.hypot`` ignores. Products that underflow to 0 leave the
    support. Where a product is not finite, the whole batch goes through
    ``apply_weight`` in order, which raises the first such f's error."""
    if not fs:
        return [], []
    w = _weights_at(omega, fs)
    values = itertools.chain.from_iterable(f.entries.values() for f in fs)
    vals = np.fromiter(values, dtype=complex, count=len(w))
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = vals.real * w, vals.imag * w
        mags = np.hypot(re, im)
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        return _magnitudes_of([apply_weight(f, omega) for f in fs])
    keep = mags != 0.0
    ends = [0, *itertools.accumulate(len(f) for f in fs)]
    # per f, its range among the kept magnitudes
    kept_at = np.concatenate(([0], np.cumsum(keep)))[ends].tolist()
    return _split_at_scale(re[keep], im[keep], mags[keep], kept_at)


def _weighted_luxemburg_of(
    phi: YoungFunction, omega: Weight, fs: Sequence[FinSuppFn]
) -> list[float]:
    """``weighted_norm(phi, omega, f)`` of the Luxemburg kind for each f of
    one dimension: the distinct fs not yet memoised under (phi, omega)
    are weighted and measured in one batch."""
    def measure(todo: list[FinSuppFn]) -> list[float]:
        mags_list, exponents = _weighted_magnitudes(omega, todo)
        return _scaled_back(phi, _luxemburg_norms(phi, mags_list), exponents)

    return _memoised((phi, omega), fs, measure)


def weighted_norm(
    young: YoungFunction | ComplementaryPair,
    omega: Weight,
    f: FinSuppFn,
    kind: str = "luxemburg",
) -> float:
    """Norm of the pointwise product f*omega, of the requested kind; the
    Luxemburg kind is the scans' weighted reader (see the module
    docstring), memoised on f keyed by (Phi, omega)."""
    if kind == "luxemburg":
        phi = young.phi if isinstance(young, ComplementaryPair) else young
        return _weighted_luxemburg_of(phi, omega, [f])[0]
    if kind == "orlicz":
        if not isinstance(young, ComplementaryPair):
            raise InvalidInputError("the orlicz kind needs a complementary pair")
        return orlicz_norm(young, apply_weight(f, omega))
    raise InvalidInputError(f"unknown norm kind {kind!r}")


def weighted_l1_norm(omega: Weight, f: FinSuppFn) -> float:
    """sum |f(s)| * omega(s), with omega read by :func:`_weights_at`.
    Raises :class:`NumericalFailureError` where a term or the sum passes
    the float range."""
    with np.errstate(over="ignore"):
        terms = (f.magnitudes() * _weights_at(omega, [f])).tolist()
    return _finite_sum(
        terms, lambda: f"weighted L1 norm overflows the float range under {omega.describe()}"
    )


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    ok: bool


def holder_check(pair: ComplementaryPair, f: FinSuppFn, g: FinSuppFn) -> HolderReport:
    """Pairing bound sum|fg| <= min(N_Phi(f)*||g||_Psi, ||f||_Phi*N_Psi(g)).
    The left-hand side sums the magnitudes of fg as :func:`weighted_l1_norm`
    does, raising :class:`NumericalFailureError` where it passes the float
    range."""
    with np.errstate(over="ignore"):
        terms = f.pointwise_mul(g).magnitudes().tolist()
    lhs = _finite_sum(terms, lambda: "Hölder sum |fg| overflows the float range")
    swapped = pair.swap()
    rhs = min(
        luxemburg_norm(pair.phi, f) * orlicz_norm(swapped, g),
        orlicz_norm(pair, f) * luxemburg_norm(pair.psi, g),
    )
    return HolderReport(lhs=lhs, rhs=rhs, ok=lhs <= rhs + 1e-8)
