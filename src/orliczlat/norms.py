"""Modulars, Luxemburg and Orlicz norms on the lattice, and Hölder checks.

On Z^d the Haar measure is counting measure, so every integral below is a
finite sum over the support. The Luxemburg norm is

    N_Phi(f) = inf{ k > 0 : sum Phi(|f(s)|/k) <= 1 },

computed by bisection in k (:func:`~orliczlat.young.bisect`; the modular
is monotone in k and the bracket endpoints are available in closed form
from the largest entry). The modular is one array pass over the support
(:meth:`YoungFunction.values`). The magnitudes are taken once
(:meth:`FinSuppFn.magnitudes`, ``np.hypot``) and the terms are added with
``math.fsum``: these match Python's ``abs(complex)`` and exact summation
bit for bit, so the norm does not depend on the order of the support. An
array form of Phi may differ from its scalar form in the last ulp; the
bisection stays because its fixed grid of midpoints absorbs that noise,
which can only flip the decision at a midpoint lying within an ulp of the
root. Before bisecting, a few secant steps locate the root and two more
values certify a narrow window around it; the bisection then answers
every midpoint outside that window without evaluating, and evaluates the
rest as before, so it visits the same midpoints and returns the same
float (:func:`_root_window`). The norm is memoised on the immutable f,
keyed by Phi, so a caller that needs N_Phi(f) twice computes it once.
The Orlicz norm is the dual expression

    ||f||_Phi = sup{ sum |f v| : sum Psi(|v|) <= 1 },

solved through its first-order conditions: the maximiser is v = Phi'(|f|/t)
for the multiplier t at which the constraint binds, and the constraint
value needs no Psi evaluations because Psi(Phi'(u)) = u*Phi'(u) - Phi(u)
at conjugate points. The constraint falls in t as the modular falls in k,
and the multiplier bisection goes through the same root window. Both
searches run on the magnitudes divided by a power of two, which is exact
and keeps their brackets inside the float range. Every Orlicz-norm result
is gated by the equivalence N_Phi <= ||.||_Phi <= 2 N_Phi; a violation
raises instead of returning a silently wrong value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .finsupp import FinSuppFn, Point
from .young import ComplementaryPair, YoungFunction, bisect, expand

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
    """sum of Phi(|f(s)|) over the support."""
    with np.errstate(over="ignore"):
        return _modular(phi, f.magnitudes())


# The root window. Let F(k) be a strictly decreasing function of k, computed
# as a sum of terms: the modular sum Phi(|f(s)|/k) of the Luxemburg norm, or
# the constraint sum Psi(Phi'(|f(s)|/t)) of the Orlicz multiplier. Suppose
# the computed F at every float k (rounded quotients, each term, fsum) is
# within relative eps of the exact one. For the modular, eps is a few ulps
# times the index x Phi'(x)/Phi(x) for the closed and array forms (which
# agree to 4e-16 per term), and at most 1e-12 for the numeric conjugates
# (their mpmath oracle). A constraint term u Phi'(u) - Phi(u) amplifies the
# errors of Phi and Phi' by its cancellation, (i + 1)/(i - 1) for the index
# i of Phi at u: at most 30 on the catalog over [1e-4, 1e4]. Phi' of a
# numeric conjugate is the root of the Young derivative, accurate to about
# 1e-16, and its terms are within 2.4e-15 of the 50-digit oracle over
# [1e-3, 1e4]. If the computed F(a) > 1 + MARGIN, then for k <= a the exact
# F(k) >= F(a) > (1 + MARGIN)/(1 + eps), so the computed
# F(k) > (1 + MARGIN)(1 - eps)/(1 + eps) > 1 as MARGIN > 2 eps: the
# bisection's test F(k) <= 1 reads False there, and need not be evaluated.
# The mirror argument covers k >= b once the computed F(b) < 1 - MARGIN.
# Along log k, log F falls with slope at least 1 for the modular (x Phi'(x)
# >= Phi(x) for convex Phi with Phi(0) = 0) and p for the constraint of
# x^p/p, so with WINDOW = 10 MARGIN both sides certify once the estimate is
# within about 9e-11 of the root.
WINDOW = 1e-10
MARGIN = 1e-11
_NO_WINDOW = (0.0, math.inf)


def _root_window(
    value_at: Callable[[float], float], lo: float, hi: float, f_lo: float
) -> tuple[float, float]:
    """(below, above) with the computed F > 1 at every k <= below and <= 1
    at every k >= above; (0, inf) when nothing is certified. F is
    ``value_at``, a decreasing function of k (see the comment above
    WINDOW), and f_lo its value at lo.

    At most 4 secant steps on (log k, log F(k)) from the bracket ends
    (exact to rounding after the first for a homogeneous Phi) give the
    estimate est; a step that leaves the bracket ends them at the end it
    passed, where the root lies when F(hi) rounds to about 1 (a constant
    support). F at est*(1 -+ WINDOW) then certifies each side that clears
    1 by MARGIN. The certificate holds for any est; a poor one certifies less.
    """
    f_hi = value_at(hi)
    if not (f_lo < math.inf and 0.0 < f_hi < math.inf):
        return _NO_WINDOW
    x_lo, x_hi = math.log(lo), math.log(hi)
    x0, y0, x1, y1 = x_lo, math.log(f_lo), x_hi, math.log(f_hi)
    for _ in range(4):
        if y1 == y0:
            return _NO_WINDOW
        x = x1 - y1 * (x1 - x0) / (y1 - y0)
        if not x_lo < x < x_hi:  # the root is at that end or the step is wild
            est = lo if x <= x_lo else hi
            break
        est = math.exp(x)
        f_est = value_at(est)
        if not 0.0 < f_est < math.inf:
            return _NO_WINDOW
        x0, y0, x1, y1 = x1, y1, x, math.log(f_est)
        if abs(y1) < 1e-12:
            break
    a, b = est * (1.0 - WINDOW), est * (1.0 + WINDOW)
    f_a, f_b = value_at(a), value_at(b)
    if not (0.0 < f_a < math.inf and 0.0 < f_b < math.inf):
        return _NO_WINDOW
    return (a if f_a > 1.0 + MARGIN else 0.0), (b if f_b < 1.0 - MARGIN else math.inf)


def _ldexp_up(x: float, e: int) -> float:
    """x * 2**e for e <= 0: exact in the normal range, rounded up among the
    subnormals, so a nonzero function keeps a positive norm."""
    y = math.ldexp(x, e)
    return y if math.ldexp(y, -e) >= x else math.nextafter(y, math.inf)


def _luxemburg_norm(phi: YoungFunction, f: FinSuppFn) -> float:
    """The body of :func:`luxemburg_norm`, without its memo."""
    if f.is_zero:
        return 0.0
    mags = f.magnitudes()
    m = float(mags.max())
    e = 0
    if m < 0.5:  # scaled up exactly, so no bracket end or quotient underflows
        m, e = math.frexp(m)
        mags = np.ldexp(mags, -e)
    n = len(mags)
    lo = m / phi.inverse(1.0)
    if n == 1:  # the bracket [lo, lo] is already closed
        return _ldexp_up(lo, e)
    hi = m / phi.inverse(1.0 / n)

    def modular_at(k: float) -> float:
        return _modular(phi, mags / k)

    with np.errstate(over="ignore"):
        f_lo = modular_at(lo)
        if f_lo <= 1.0:
            return _ldexp_up(lo, e)
        below, above = _root_window(modular_at, lo, hi, f_lo)
        _, hi = bisect(
            lambda k: k >= above or (k > below and modular_at(k) <= 1.0), lo, hi, 1e-13
        )
    return _ldexp_up(hi, e)


def luxemburg_norm(phi: YoungFunction, f: FinSuppFn) -> float:
    """Luxemburg norm by bisection; 0 for the zero function.

    When the largest magnitude m is below 0.5, the magnitudes are first
    multiplied by the power of two that puts m in [0.5, 1), and the norm
    found is divided by it. Both steps
    are exact in the normal range, so they change no bit there; they keep
    the bracket ends and the quotients nonzero for subnormal magnitudes,
    and a norm among the subnormals is rounded up.

    The bisection narrows the bracket [m/Phi^-1(1), m/Phi^-1(1/n)] (n the
    support size) to relative width 1e-13 and returns its upper end k.
    modular(f/k) <= 1 holds up to the 1e-10 residual of
    :func:`~orliczlat.young.inverse`, which the bracket ends carry, and
    rounding: a one-entry support returns m/Phi^-1(1) unchecked, and its
    modular reads 1.0000000000000004 for x^2/2.

    Before bisecting, :func:`_root_window` estimates the root by secant
    steps on (log k, log F) and certifies a window (below, above) around
    it with two more modular values; the predicate then reads False for
    k <= below and True for k >= above without evaluating. The comment
    above WINDOW shows that each skipped decision equals the computed one,
    so the bisection visits the same midpoints and returns the same float
    as with no window. A side that does not clear MARGIN stays open, and a
    modular value met on the way that is not finite and positive drops the
    window: the bisection then evaluates there as it would without one.
    On the scan pools this takes 13-19 modular evaluations per call
    instead of 35.

    The result is memoised on f, keyed by phi (both are immutable), so a
    second norm of the same f under the same phi costs a dict lookup.
    """
    norm = f._luxemburg.get(phi)
    if norm is None:
        norm = f._luxemburg[phi] = _luxemburg_norm(phi, f)
    return norm


def _dual_constraint_term(phi: YoungFunction, u: float) -> float:
    """Psi(Phi'(u)) via the conjugacy identity u*Phi'(u) - Phi(u)."""
    fu = phi(u)
    if math.isinf(fu):
        return math.inf
    return u * phi.d(u) - fu


def _dual_constraint(phi: YoungFunction, mags: list[float], t: float) -> float:
    """sum Psi(Phi'(a/t)) over the magnitudes a; decreasing in t."""
    return math.fsum(_dual_constraint_term(phi, a / t) for a in mags)


def orlicz_norm(pair: ComplementaryPair, f: FinSuppFn) -> float:
    """Orlicz norm of f under the pair (Phi, Psi); see the module docstring.

    The multiplier t is sought for the magnitudes divided by the power of
    two 2**e that puts the largest, m, in [0.5, 1): t / 2**e in place of t
    gives the same quotients |f|/t, and it stays finite where t would pass
    the top of the float range. The division is exact except for entries
    that it takes below the normal range, about 1e-308 times m, whose
    constraint terms are negligible beside 1. ``expand``
    doubles t from max(m, 1e-300) until the constraint
    sum Psi(Phi'(|f|/t)) <= 1 holds and then halves it until the
    constraint is >= 1; from that bracket :func:`bisect` narrows t to
    relative width 1e-13 through the same :func:`_root_window` as the
    Luxemburg norm, which reuses the constraint values at the two bracket
    ends. The window skips only decisions it has certified, so the
    multiplier is the one a plain bisection finds; on the norm-sandwich
    functions a call takes a median of 23 constraint evaluations instead
    of 46. The value sum |f| Phi'(|f|/t) is then summed over the
    magnitudes as given, so a term far below the largest still counts.

    Raises :class:`NumericalFailureError` if the norm exceeds the float
    range, or if the optimiser output falls outside the [N_Phi, 2 N_Phi]
    equivalence window. N_Phi comes from :func:`luxemburg_norm`, so its
    memo serves a caller that takes the Luxemburg norm of f as well.
    """
    if f.is_zero:
        return 0.0
    phi = pair.phi
    mags = f.magnitudes()
    m, e = math.frexp(float(mags.max()))
    quotients = np.ldexp(mags, -e).tolist()  # their quotients by t / 2**e are |f| / t
    values: dict[float, float] = {}

    def constraint(t: float) -> float:
        c = values.get(t)
        if c is None:
            c = values[t] = _dual_constraint(phi, quotients, t)
        return c

    start = max(m, math.ldexp(1e-300, -e))
    hi = expand(lambda t: constraint(t) <= 1.0, start, 2.0, 400)
    if hi is None:
        raise NumericalFailureError("dual multiplier bracket failed to expand")
    lo = expand(lambda t: constraint(t) >= 1.0, hi * 0.5, 0.5, 400)
    if lo is None:
        raise NumericalFailureError("dual multiplier bracket failed to shrink")
    below, above = _root_window(constraint, lo, hi, constraint(lo))
    _, hi = bisect(
        lambda t: t >= above or (t > below and constraint(t) <= 1.0), lo, hi, 1e-13
    )
    try:
        value = math.fsum(a * phi.d(b / hi) for a, b in zip(mags.tolist(), quotients))
    except OverflowError:  # the partial sums pass the float range
        value = math.inf
    if value == math.inf:
        raise NumericalFailureError(
            f"Orlicz norm overflows the float range for pair {pair.describe()}"
        )

    n_phi = luxemburg_norm(phi, f)
    if not (n_phi * (1.0 - 1e-9) <= value <= 2.0 * n_phi * (1.0 + 1e-9)):
        raise NumericalFailureError(
            f"Orlicz norm {value!r} escaped the window [{n_phi!r}, {2 * n_phi!r}] "
            f"for pair {pair.describe()}"
        )
    return value


def apply_weight(f: FinSuppFn, omega: Callable[[Point], float]) -> FinSuppFn:
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
    return FinSuppFn(f.dim, out)


def weighted_norm(
    young: YoungFunction | ComplementaryPair,
    omega: Callable[[Point], float],
    f: FinSuppFn,
    kind: str = "luxemburg",
) -> float:
    """Norm of the pointwise product f*omega, of the requested kind."""
    fw = apply_weight(f, omega)
    if kind == "luxemburg":
        phi = young.phi if isinstance(young, ComplementaryPair) else young
        return luxemburg_norm(phi, fw)
    if kind == "orlicz":
        if not isinstance(young, ComplementaryPair):
            raise InvalidInputError("the orlicz kind needs a complementary pair")
        return orlicz_norm(young, fw)
    raise InvalidInputError(f"unknown norm kind {kind!r}")


def weighted_l1_norm(omega: Callable[[Point], float], f: FinSuppFn) -> float:
    """sum |f(s)| * omega(s)."""
    return math.fsum(abs(v) * omega(p) for p, v in f)


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    ok: bool


def holder_check(pair: ComplementaryPair, f: FinSuppFn, g: FinSuppFn) -> HolderReport:
    """Pairing bound sum|fg| <= min(N_Phi(f)*||g||_Psi, ||f||_Phi*N_Psi(g))."""
    lhs = math.fsum(abs(v) for _, v in f.pointwise_mul(g))
    swapped = pair.swap()
    rhs = min(
        luxemburg_norm(pair.phi, f) * orlicz_norm(swapped, g),
        orlicz_norm(pair, f) * luxemburg_norm(pair.psi, g),
    )
    return HolderReport(lhs=lhs, rhs=rhs, ok=lhs <= rhs + 1e-8)
