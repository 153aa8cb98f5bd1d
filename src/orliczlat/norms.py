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
float (:func:`_windowed_root`). The norm is memoised on the immutable f,
keyed by Phi, so a caller that needs N_Phi(f) twice computes it once.
The Orlicz norm is the dual expression

    ||f||_Phi = sup{ sum |f v| : sum Psi(|v|) <= 1 },

solved through its first-order conditions: the maximiser is v = Phi'(|f|/t)
for the multiplier t at which the constraint binds, and the constraint
value needs no Psi evaluations because Psi(Phi'(u)) = u*Phi'(u) - Phi(u)
at conjugate points. The constraint falls in t as the modular falls in k,
and the multiplier is found by the same windowed bisection.

Both searches run on one normalisation: with (m, e) = frexp(max |f|),
they search over |f| / 2**e, whose largest entry m lies in [0.5, 1), and
the k or t found for it stands for k * 2**e or t * 2**e. The division is
exact in the normal range, so it changes no quotient |f|/k there, and it
keeps every bracket end and quotient inside the float range from the
subnormals up to the largest float. A norm beyond the float range raises
:class:`NumericalFailureError` instead of reading inf. Every Orlicz-norm
result is gated by the equivalence N_Phi <= ||.||_Phi <= 2 N_Phi; a
violation raises instead of returning a silently wrong value.

Weighted norms are norms of the pointwise product f*omega under a
:class:`~orliczlat.weights.Weight`. The scans' reader is
:func:`weighted_norm` of the Luxemburg kind, which ``AlgebraContext``
calls: it reads omega from :meth:`Weight.at_points`, forms the magnitudes
of f*omega in arrays (:func:`_weighted_magnitudes`), runs the Luxemburg
body on them, and memoises the norm on f keyed by (Phi, omega). Its bits
are those of ``luxemburg_norm(Phi, apply_weight(f, omega))``, and an
overflowing product raises the error :func:`apply_weight` raises. The
Orlicz kind goes through :func:`apply_weight`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .finsupp import FinSuppFn
from .weights import Weight
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


def _windowed_root(F: Callable[[float], float], lo: float, hi: float, f_lo: float) -> float:
    """The root of F(k) = 1 on [lo, hi] as :func:`bisect` finds it: the
    upper end of the bracket narrowed to relative width 1e-13. F is a
    decreasing function of k (see the comment above WINDOW) and f_lo > 1
    its value at lo.

    Before bisecting, at most 4 secant steps on (log k, log F(k)) from the
    bracket ends (exact to rounding after the first for a homogeneous Phi)
    give the estimate est; a step that leaves the bracket ends them at the
    end it passed, where the root lies when F(hi) rounds to about 1 (a
    constant support). F at est*(1 -+ WINDOW) then certifies each side
    that clears 1 by MARGIN: the window (below, above) with F > 1 at every
    k <= below and F <= 1 at every k >= above. The bisection answers every
    midpoint outside it without evaluating F, so it visits the same
    midpoints and returns the same float as with no window. The
    certificate holds for any est; a poor one certifies less, and a value
    of F met on the way that is not finite and positive drops the window.
    """
    below, above = 0.0, math.inf  # nothing certified
    est = None
    f_hi = F(hi)
    if f_lo < math.inf and 0.0 < f_hi < math.inf:
        x_lo, x_hi = math.log(lo), math.log(hi)
        x0, y0, x1, y1 = x_lo, math.log(f_lo), x_hi, math.log(f_hi)
        for _ in range(4):
            if y1 == y0:
                est = None
                break
            x = x1 - y1 * (x1 - x0) / (y1 - y0)
            if not x_lo < x < x_hi:  # the root is at that end or the step is wild
                est = lo if x <= x_lo else hi
                break
            est = math.exp(x)
            f_est = F(est)
            if not 0.0 < f_est < math.inf:
                est = None
                break
            x0, y0, x1, y1 = x1, y1, x, math.log(f_est)
            if abs(y1) < 1e-12:
                break
    if est is not None:
        a, b = est * (1.0 - WINDOW), est * (1.0 + WINDOW)
        f_a, f_b = F(a), F(b)
        if 0.0 < f_a < math.inf and 0.0 < f_b < math.inf:
            below = a if f_a > 1.0 + MARGIN else 0.0
            above = b if f_b < 1.0 - MARGIN else math.inf
    _, hi = bisect(lambda k: k >= above or (k > below and F(k) <= 1.0), lo, hi, 1e-13)
    return hi


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


def _luxemburg_norm(phi: YoungFunction, mags: np.ndarray) -> float:
    """The body of :func:`luxemburg_norm`, without its memo, on the
    magnitudes of a support (all positive; none for the zero function)."""
    n = len(mags)
    if not n:
        return 0.0
    m, e = math.frexp(float(mags.max()))
    k = m / phi.inverse(1.0)  # the bracket's lower end; closed for one entry
    if n > 1:
        scaled = np.ldexp(mags, -e)

        def modular_at(k: float) -> float:
            return _modular(phi, scaled / k)

        with np.errstate(over="ignore"):
            f_lo = modular_at(k)
            if not f_lo <= 1.0:
                k = _windowed_root(modular_at, k, m / phi.inverse(1.0 / n), f_lo)
    return _unscaled(k, e, phi)


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

    The bisection goes through :func:`_windowed_root`, whose certified
    window skips the modular at every midpoint outside it; the comment
    above WINDOW shows that each skipped decision equals the computed one,
    so the norm is the float a plain bisection returns. On the scan pools
    this takes 13-19 modular evaluations per call instead of 35.

    The result is memoised on f, keyed by phi (both are immutable), so a
    second norm of the same f under the same phi costs a dict lookup.
    """
    norm = f._luxemburg.get(phi)
    if norm is None:
        norm = f._luxemburg[phi] = _luxemburg_norm(phi, f.magnitudes())
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

    The multiplier is sought for |f| / 2**e, so it is t / 2**e for the
    multiplier t of f: the quotients |f|/t are the same, and the search
    stays finite where t would pass the top of the float range. ``expand``
    doubles it from max(m, 1e-300 / 2**e) until the constraint
    sum Psi(Phi'(|f|/t)) <= 1 holds and then halves it until the
    constraint is >= 1; from that bracket :func:`_windowed_root` narrows it
    to relative width 1e-13, reusing the constraint values at the two
    bracket ends. The window skips only decisions it has certified, so the
    multiplier is the one a plain bisection finds; on the norm-sandwich
    functions (every catalog pair both ways) a call takes a median of 20
    constraint evaluations (quartiles 18 and 21, range 15-50) instead of
    46. The value sum |f| Phi'(|f|/t) is then summed over the
    magnitudes as given, so a term that the division by 2**e takes below
    the normal range still counts.

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
    hi = _windowed_root(constraint, lo, hi, constraint(lo))
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


def _weighted_magnitudes(omega: Weight, f: FinSuppFn) -> np.ndarray:
    """The magnitudes of ``apply_weight(f, omega)`` bit for bit, without
    building it: omega from :meth:`Weight.at_points`, and the products
    re*w and im*w, which equal CPython's complex times float up to signed
    zeros that ``np.hypot`` ignores. Products that underflow to 0 leave
    the support. Where a product or a magnitude is not finite, this is
    ``apply_weight`` itself, which raises as before."""
    w = omega.at_points(f.entries, f.dim)
    vals = np.fromiter(f.entries.values(), dtype=complex, count=len(f))
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.hypot(vals.real * w, vals.imag * w)
    if np.isfinite(mags).all():
        return mags[mags != 0.0]
    return apply_weight(f, omega).magnitudes()


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
        key = (phi, omega)
        norm = f._luxemburg.get(key)
        if norm is None:
            norm = f._luxemburg[key] = _luxemburg_norm(phi, _weighted_magnitudes(omega, f))
        return norm
    if kind == "orlicz":
        if not isinstance(young, ComplementaryPair):
            raise InvalidInputError("the orlicz kind needs a complementary pair")
        return orlicz_norm(young, apply_weight(f, omega))
    raise InvalidInputError(f"unknown norm kind {kind!r}")


def weighted_l1_norm(omega: Weight, f: FinSuppFn) -> float:
    """sum |f(s)| * omega(s), with omega read from :meth:`Weight.at_points`."""
    with np.errstate(over="ignore"):
        return math.fsum((f.magnitudes() * omega.at_points(f.entries, f.dim)).tolist())


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
