"""Homomorphism obstructions, windowed derivations, and the classifier.

Every additive map Z^d -> C is a linear form xi(x) = sum c_i x_i. Its
weight-damped version

    xi_w(s) = xi(s) / (omega(s) * omega(-s))

is the pivot of the weak-amenability theory for weighted convolution
algebras on abelian groups: if some nonzero form stays bounded after
damping, the windowed operator

    D(f) = window * (flip(f) . flip(xi))

extends to a bounded derivation into the dual and kills weak amenability;
if no nonzero form survives the damping, the space (on the power scale,
where simple functions are dense) is weakly amenable. The classifier
:func:`classify` encodes the resulting thresholds for the built-in weight
families; the scan and diagnostic functions in this module produce the
numerical evidence behind the same dichotomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import algebra
from .algebra import AlgebraContext, ScanReport, _ratio_scan, convolve
from .errors import InvalidInputError, NumericalFailureError, PreconditionError
from .finsupp import FinSuppFn
from .weights import (
    RATIO_MARGIN,
    DampedHomomorphism,
    Homomorphism,
    SeriesReport,
    Weight,
    ball,
    loglog_slope,
    reciprocal_summability,
    shell_count,
    slope_verdict,
    weight_from_spec,
)
from .young import YoungFunction

__all__ = [
    "Derivation",
    "apply_derivation",
    "leibniz_check",
    "LeibnizReport",
    "BoundednessReport",
    "damped_form_bounded",
    "MembershipReport",
    "damped_form_in_orlicz",
    "derivation_norm_scan",
    "ChainReport",
    "decay_chain_check",
    "Verdict",
    "ClassificationResult",
    "classify",
]


@dataclass(frozen=True, eq=False)
class Derivation:
    """Windowed derivation f -> window * (flip(f) . flip(xi))."""

    window: FinSuppFn
    form: Homomorphism

    @classmethod
    def with_ball_window(cls, form: Homomorphism, dim: int, r: int = 1) -> "Derivation":
        if form.dim != dim:
            raise InvalidInputError(f"form has dim {form.dim}, lattice has {dim}")
        return cls(FinSuppFn._computed(dim, dict.fromkeys(ball(r, dim), 1 + 0j), "window"), form)


def apply_derivation(d: Derivation, f: FinSuppFn) -> FinSuppFn:
    """D(f) = window * h with h(x) = f(-x) * xi(-x); linear in f.

    Raises :class:`NumericalFailureError` naming the point x where h(x)
    overflows: D(f) is then no finite function.
    """
    if f.dim != d.window.dim:
        raise InvalidInputError(f"dimension mismatch: {f.dim} vs {d.window.dim}")
    h = {tuple(-c for c in p): v * d.form(p) for p, v in f}
    return convolve(d.window, FinSuppFn._computed(f.dim, h, "derivation"))


def pairing(u: FinSuppFn, w: FinSuppFn) -> complex:
    """Bilinear pairing <u, w> = sum u(s) w(s) (no conjugation), summed
    exactly (:func:`_exact_sum`): the same bits in any order of u and w."""
    u._check_dim(w)
    small, big = (u, w) if len(u) <= len(w) else (w, u)
    return _exact_sum([v * big.entries[p] for p, v in small if p in big.entries])


def _exact_sum(terms: list[complex]) -> complex:
    """The sum of the terms, each part by ``math.fsum``: correctly rounded,
    so the same bits in any order.

    Where the largest |part| times the number of terms reaches 2**1023,
    fsum's partial sums could pass the float range, and whether they do
    depends on the order. Every part is then scaled by 2**-k first, with k
    the bit length of that number, and the sum scaled back. Raises
    :class:`NumericalFailureError` where a term or the sum is not finite.
    """
    n, parts = len(terms), []
    for part in ([z.real for z in terms], [z.imag for z in terms]):
        if not all(map(math.isfinite, part)):
            raise NumericalFailureError("pairing value is not finite: a product overflows")
        k = n.bit_length() if max(map(abs, part), default=0.0) * n >= 2.0**1023 else 0
        total = math.fsum([math.ldexp(t, -k) for t in part] if k else part)
        if k and abs(total) >= math.ldexp(1.0, 1024 - k):
            raise NumericalFailureError("pairing value is not finite: the sum overflows")
        parts.append(math.ldexp(total, k))
    return complex(*parts)


def _derivation_pairing(d: Derivation, f: FinSuppFn, g: FinSuppFn) -> complex:
    """``pairing(apply_derivation(d, f), g)`` bit for bit, without building
    h or D(f) as sparse functions.

    Each step repeats the reference's float operations on arrays:

    - xi(p) over supp f is read off f's int64 view
      (``Homomorphism._on_view``, CPython's complex-times-int order); then
      h = f(p) * xi(p) at -p in complex-multiply order, less its exact
      zeros.
    - D(f) = window * h goes through :func:`~orliczlat.algebra.convolve`'s
      box kernel (``algebra._box_convolve``), and g's points are indexed
      into the box.
    - The products with g, at the points where D(f) is nonzero, are summed
      exactly (:func:`_exact_sum`), so their order does not matter.

    The reference itself runs where ``convolve`` takes its loop (window * h
    fails ``algebra._takes_box``, asked of f and of h less its exact zeros,
    or ``_box_convolve`` refuses it), where a point of f or g has no int64
    view, and where h or D(f) is not finite (it raises the same errors).
    """
    fused = _fused_pairing(d, f, g)
    return pairing(apply_derivation(d, f), g) if fused is None else fused


def _fused_pairing(d: Derivation, f: FinSuppFn, g: FinSuppFn) -> complex | None:
    """The array path of :func:`_derivation_pairing`; None where it falls back."""
    window = d.window
    nw, nf, dim = len(window), len(f), f.dim
    if dim != window.dim or g.dim != dim or not algebra._takes_box(nw * nf):  # |h| <= |f|
        return None
    pts, w_pts, g_pts = f._int64_view(), window._int64_view(), g._int64_view()
    if pts is None or w_pts is None or g_pts is None:
        return None
    vals = np.fromiter(f.entries.values(), complex, nf)
    xr, xi = d.form._on_view(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        vr, vi = vals.real, vals.imag
        hr, hi = vr * xr - vi * xi, vr * xi + vi * xr
    if not (np.isfinite(hr).all() and np.isfinite(hi).all()):
        return None
    keep = (hr != 0.0) | (hi != 0.0)
    hr, hi = hr[keep], hi[keep]
    if not algebra._takes_box(nw * len(hr)):  # the zero form leaves no h
        return None
    box = algebra._box_convolve(w_pts, window.entries.values(), -pts[keep], hr, hi)
    if box is None:
        return None
    re, im, corner, extent = box
    if not (np.isfinite(re).all() and np.isfinite(im).all()):  # a cell nothing lands in holds 0
        return None
    top = [c + n - 1 for c, n in zip(corner, extent)]
    inside = ((g_pts >= corner) & (g_pts <= top)).all(axis=1)
    g_at = np.ravel_multi_index(tuple((g_pts[inside] - corner).T), extent)
    found = (re[g_at] != 0.0) | (im[g_at] != 0.0)
    gv = np.fromiter(g.entries.values(), complex, len(g))[inside][found]
    ar, ai = re[g_at[found]], im[g_at[found]]
    prods = np.empty(len(gv), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        prods.real, prods.imag = ar * gv.real - ai * gv.imag, ar * gv.imag + ai * gv.real
    return _exact_sum(prods.tolist())


@dataclass(frozen=True)
class LeibnizReport:
    lhs: complex
    rhs: complex
    ok: bool


def leibniz_check(d: Derivation, f: FinSuppFn, g: FinSuppFn, h: FinSuppFn) -> LeibnizReport:
    """Derivation identity against the dual module action.

    lhs = <D(f*g), h>, rhs = <D(g), h*f> + <D(f), h*g>; for a commutative
    convolution algebra acting on its dual by <a.phi, b> = <phi, b*a> this
    is the Leibniz rule tested in weak form.
    """
    lhs = _derivation_pairing(d, convolve(f, g), h)
    rhs = _derivation_pairing(d, g, convolve(h, f)) + _derivation_pairing(d, f, convolve(h, g))
    ok = abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))
    return LeibnizReport(lhs=lhs, rhs=rhs, ok=ok)


# --------------------------------------------------------------------------
# Boundedness and membership verdicts for the damped form
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundednessReport:
    verdict: str  # "bounded" | "unbounded" | "inconclusive"
    sup_estimate: float | None
    growth_exponent: float | None
    method: str


# Radius horizons: the shell maxima of _slope_bounded and the shell
# series of damped_form_in_orlicz are read up to these radii.
_BOUNDED_N_MAX = 10**6
_MEMBERSHIP_N_MAX = 10**4


def _log_sampled_ints(n_max: int, count: int = 240) -> list[int]:
    return [int(v) for v in np.unique(np.geomspace(1, n_max, count).astype(np.int64))]


def damped_form_bounded(dh: DampedHomomorphism) -> BoundednessReport:
    """Is the damped form essentially bounded on the lattice?

    The weight family picks the method. For the polynomial weight of
    order beta the shell maximum amp * n/(1+n)^(2beta) behaves like
    n^(1-2beta): bounded iff 2*beta >= 1, with its sup at an integer
    neighbour of n = 1/(2beta-1), or the limit amp when 2*beta = 1. Both
    subexponential families damp any linear form to zero; their shell
    maxima are searched until they have decayed. Other families take the
    slope fit of :func:`_slope_bounded`.
    """
    if dh.xi.is_zero:
        raise InvalidInputError("the zero form is always bounded; need a nonzero one")
    family = dh.omega.family
    if family == "polynomial":
        beta = float(dh.omega.params["beta"])
        exponent = 1.0 - 2.0 * beta
        if 2.0 * beta > 1.0:
            peak = 1.0 / (2.0 * beta - 1.0)
            sup = max(dh.shell_max(n) for n in (math.floor(peak), math.ceil(peak)))
        elif 2.0 * beta == 1.0:
            sup = dh.xi.corner_amplitude()
        else:
            return BoundednessReport("unbounded", None, exponent, "analytic:polynomial")
        return BoundednessReport("bounded", sup, exponent, "analytic:polynomial")
    if family in ("subexp_alpha", "subexp_log"):
        # no closed form: for subexp_log, gamma > 1, shell_max need not be unimodal
        sup = 0.0
        prev = -1.0
        for n in range(1, 200_001):
            v = dh.shell_max(n)
            sup = max(sup, v)
            if n > 1000 and v < prev and v < sup * 1e-6:
                break
            prev = v
        return BoundednessReport("bounded", sup, None, f"analytic:{family}")
    return _slope_bounded(dh)


def _slope_bounded(dh: DampedHomomorphism) -> BoundednessReport:
    """Fit a log-log slope to the exact shell maxima up to ``_BOUNDED_N_MAX``:
    slope > 0.05 reads unbounded, slope < -0.05 (or a sup attained away
    from the horizon) reads bounded, the rest inconclusive."""
    ns = _log_sampled_ints(_BOUNDED_N_MAX)
    vals = [dh.shell_max(n) for n in ns]
    sup = max(vals)
    cut = math.sqrt(_BOUNDED_N_MAX)
    slope = loglog_slope((n, v) for n, v in zip(ns, vals) if n >= cut)
    if slope is None:
        return BoundednessReport("inconclusive", sup, None, "numeric:sparse")
    if slope > 0.05:
        return BoundednessReport("unbounded", None, slope, "numeric:slope")
    if slope < -0.05:
        return BoundednessReport("bounded", sup, slope, "numeric:slope")
    argmax = vals.index(sup)
    if argmax < 0.6 * len(vals) and vals[-1] <= 0.9 * sup:
        return BoundednessReport("bounded", sup, slope, "numeric:stabilised")
    return BoundednessReport("inconclusive", sup, slope, "numeric:slope")


@dataclass(frozen=True)
class MembershipReport:
    verdict: str  # "yes" | "no" | "inconclusive"
    alpha: float | None
    method: str


def _sampled_tail_behaviour(term: Callable[[int], float]) -> tuple[str, float]:
    """Verdict for sum(term(n)) from log-sampled anchors.

    Returns (verdict, fitted slope) with verdict one of "converges",
    "diverges", "inconclusive", or "resolution-floor" when every sampled
    term is already a float zero (nothing can be said at this scale).
    Geometric decay is detected from anchor-local ratios, polynomial decay
    from a log-log slope through :func:`~orliczlat.weights.slope_verdict`.
    """
    anchors = _log_sampled_ints(_MEMBERSHIP_N_MAX, 90)
    all_vals = [(n, term(n)) for n in anchors]
    if any(math.isinf(v) for _, v in all_vals):
        return "diverges", math.inf
    if all(v == 0.0 for _, v in all_vals):
        return "resolution-floor", 0.0
    tail = [(n, v) for n, v in all_vals if n >= math.sqrt(_MEMBERSHIP_N_MAX)]
    if all(v == 0.0 for _, v in tail):
        # positive head decayed to exact zero: the float sum terminates
        return "converges", -math.inf
    local = [(term(n + 1), v) for n, v in tail]
    if all(v > 0 and nxt / v <= 1.0 - RATIO_MARGIN for nxt, v in local):
        return "converges", -math.inf
    slope = loglog_slope(tail)
    if slope is None:
        return "inconclusive", 0.0
    return slope_verdict(slope), slope


def damped_form_in_orlicz(dh: DampedHomomorphism, psi_tilde: YoungFunction) -> MembershipReport:
    """Does the damped form lie in the Orlicz space of ``psi_tilde``?

    Membership asks for SOME alpha > 0 with sum psi_tilde(alpha |xi_w|)
    finite, so alphas are swept downward geometrically; shell sums are
    bounded through the exact shell maxima. A "no" additionally requires
    the smallest alpha to diverge with a non-vanishing tail, which rules
    out every other alpha for regularly decaying profiles.
    """
    if dh.xi.is_zero:
        raise InvalidInputError("membership is trivial for the zero form")
    d = dh.xi.dim

    def term_for(alpha: float) -> Callable[[int], float]:
        return lambda n: shell_count(n, d) * psi_tilde(alpha * dh.shell_max(n))

    anchors = _log_sampled_ints(_MEMBERSHIP_N_MAX, 90)
    profile = [dh.shell_max(n) for n in anchors]
    tail = profile[len(profile) // 2:]
    tail_nondecaying = all(
        b >= a * (1.0 - 1e-12) for a, b in zip(tail, tail[1:])
    ) and tail[-1] > 0.0

    alphas = [2.0 ** (-k) for k in range(0, 41, 4)]
    divergent_seen = False
    for alpha in alphas:
        verdict, _ = _sampled_tail_behaviour(term_for(alpha))
        if verdict == "converges":
            return MembershipReport("yes", alpha, "shell-upper-bound")
        if verdict == "diverges":
            divergent_seen = True
    if divergent_seen and tail_nondecaying:
        # the damped profile does not vanish at infinity, so scaling alpha
        # down cannot make the series summable
        return MembershipReport("no", None, "non-vanishing-damped-profile")
    return MembershipReport("inconclusive", None, "alpha-sweep-exhausted")


def derivation_norm_scan(
    ctx: AlgebraContext,
    d: Derivation,
    radii: Sequence[int],
    trials: int,
    seed: int,
) -> ScanReport:
    """Scan |<D(f), g>| / (||f||_{Phi,w} ||g||_{Phi,w}) over seeded pairs.

    In the regime where a bounded damped form exists the ratio is capped
    by the derivation bound and the scan plateaus; in the weakly amenable
    regime no bounded extension exists and atoms pushed to the boundary of
    the ball make the worst case grow with the radius.

    Each <D(f), g> is read by :func:`_derivation_pairing`, bit for bit the
    ``pairing(apply_derivation(d, f), g)`` it replaces, without building
    D(f), and each distinct pair once (``algebra._ratios``): the /flipped
    pair of a candidate that is even or odd under the reflection (the ball
    indicators, the 1/omega and damped-form profiles) is its /same pair,
    (f, f).
    """
    return _ratio_scan(
        "derivation_norm_scan",
        {
            "context": ctx.describe(),
            "window_size": len(d.window),
            "radii": list(radii),
            "trials": trials,
            "seed": seed,
        },
        list(radii),
        lambda fs, gs: [abs(_derivation_pairing(d, f, g)) for f, g in zip(fs, gs)],
        ctx.weighted_luxemburg_norms,
        ctx.weighted_luxemburg_norms,
        ctx.dim, trials, seed, omega=ctx.omega, xi=d.form,
    )


# --------------------------------------------------------------------------
# Decay-chain diagnostic
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainReport:
    monotone_ok: bool
    chain_ok: bool
    shell_series: SeriesReport
    witness_sup: float
    witness_argmax: int
    ok: bool


def decay_chain_check(
    omega: Weight,
    psi: YoungFunction,
    xi: Homomorphism,
    alpha: float,
    n_max: int,
    dim: int = 1,
) -> ChainReport:
    """Check the chain behind the summability route to non-amenability.

    With a_n = Psi(alpha / omega_radial(n)): (a) a_n is non-increasing,
    (b) n * a_n <= a_1 + ... + a_n (an exact consequence of (a)),
    (c) the shell-weighted series sum |shell(n)| a_n converges, and the
    witness sup_n |xi| * a_n over shell maxima is attained well before the
    horizon. Requires the reciprocal weight to be summable in Psi; invoked
    outside that regime it raises :class:`PreconditionError`.
    """
    summability = reciprocal_summability(omega, psi, alpha, n_max, dim)
    if summability.verdict != "converges":
        raise PreconditionError(
            f"reciprocal summability verdict is {summability.verdict!r}; "
            "the decay chain needs the convergent regime"
        )
    a = [psi(alpha / omega.radial(n)) for n in range(1, n_max + 1)]
    monotone_ok = all(
        nxt <= prev * (1.0 + 1e-9) + 1e-300 for prev, nxt in zip(a, a[1:])
    )
    chain_ok = True
    running = 0.0
    for n, an in enumerate(a, start=1):
        running += an
        if n * an > running * (1.0 + 1e-12) + 1e-300:
            chain_ok = False
            break
    amp = xi.corner_amplitude()
    witness = [n * amp * an for n, an in enumerate(a, start=1)]
    witness_sup = max(witness)
    witness_argmax = witness.index(witness_sup) + 1
    witness_ok = witness_argmax <= max(1, int(0.9 * n_max))
    return ChainReport(
        monotone_ok=monotone_ok,
        chain_ok=chain_ok,
        shell_series=summability,
        witness_sup=witness_sup,
        witness_argmax=witness_argmax,
        # the shell series converges: any other verdict raised above
        ok=monotone_ok and chain_ok and witness_ok,
    )


# --------------------------------------------------------------------------
# Classifier
# --------------------------------------------------------------------------


class Verdict:
    NOT_BANACH_ALGEBRA = "NotBanachAlgebra"
    WEAKLY_AMENABLE = "WeaklyAmenable"
    NOT_WEAKLY_AMENABLE = "NotWeaklyAmenable"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str
    thresholds: dict
    evidence: list[str]
    params: dict = field(default_factory=dict)
    reason: str = ""

    def to_json_obj(self) -> dict:
        obj = {
            "verdict": self.verdict,
            "thresholds": self.thresholds,
            "evidence": self.evidence,
            "params": self.params,
        }
        if self.reason:
            obj["reason"] = self.reason
        return obj


def classify(
    p: float,
    weight: Weight | Mapping[str, object],
    dim: int = 1,
) -> ClassificationResult:
    """Classify the weighted p-scale convolution algebra on Z^dim.

    Verdicts: "NotBanachAlgebra" when the reciprocal weight fails the
    conjugate-exponent summability needed for convolution to be bounded;
    otherwise "WeaklyAmenable" or "NotWeaklyAmenable" according to whether
    a nonzero linear form survives the weight damping, each by a rule with
    nothing computed; "Undecided" only for a weight family without a rule.
    """
    if not p > 1.0 or math.isinf(p):
        raise InvalidInputError(f"need 1 < p < inf, got {p!r}")
    if dim < 1:
        raise InvalidInputError(f"need dim >= 1, got {dim!r}")
    omega = weight if isinstance(weight, Weight) else weight_from_spec(weight)
    q = p / (p - 1.0)
    thresholds = {"d_over_q": dim / q, "half": 0.5}
    params = {"p": p, "q": q, "dim": dim, "weight": omega.spec()}
    sqrt_extends = (
        f"q = {q:g} >= 2 so the square-root transform of the conjugate is "
        "convex; the windowed derivation extends boundedly"
    )

    if omega.family == "polynomial":
        beta = float(omega.params["beta"])
        thresholds["beta"] = beta
        if beta * q <= dim:
            return ClassificationResult(
                Verdict.NOT_BANACH_ALGEBRA,
                thresholds,
                [
                    f"reciprocal weight not q-summable: sum n^(d-1) (1+n)^(-beta*q) "
                    f"diverges since beta*q = {beta * q:g} <= d = {dim} (integral test)",
                    "the weighted p-space is a convolution algebra exactly when the "
                    "reciprocal weight is q-summable",
                ],
                params,
            )
        evidence = [
            f"convolution algebra: beta*q = {beta * q:g} > d = {dim}, so the "
            "reciprocal weight is q-summable",
        ]
        if p > 2.0:
            evidence.append(
                f"p = {p:g} > 2: the square-root transform of the base function is "
                "convex and the q-summable reciprocal weight feeds the decay chain, "
                "so a bounded derivation witness exists"
            )
        elif beta < 0.5:
            evidence.append(
                f"every nonzero linear form damps to ~ n^(1-2*beta) = "
                f"n^{1 - 2 * beta:g}, unbounded since beta < 1/2"
            )
            evidence.append(
                "no bounded damped homomorphism exists, which forces weak "
                "amenability on the power scale (simple functions are dense)"
            )
            return ClassificationResult(
                Verdict.WEAKLY_AMENABLE, thresholds, evidence, params
            )
        else:
            evidence.append(
                f"the coordinate form damps to n/(1+n)^{2 * beta:g}, bounded since "
                "beta >= 1/2"
            )
            evidence.append(sqrt_extends)
    elif omega.family in ("subexp_alpha", "subexp_log"):
        evidence = [
            f"subexponential weight {omega.describe()}: convolution algebra for "
            "every choice of parameters",
            "every nonzero linear form damps to zero (linear growth against "
            "super-polynomial weight decay), so a bounded damped form exists",
        ]
        if p <= 2.0:
            evidence.append(sqrt_extends)
        else:
            evidence.append(
                "reciprocal weight q-summable in every d, since the weight "
                "outgrows every polynomial, so the decay chain applies for p > 2"
            )
    else:
        return ClassificationResult(
            Verdict.UNDECIDED,
            thresholds,
            [],
            params,
            reason=f"no analytic rule for weight family {omega.family!r}",
        )
    return ClassificationResult(Verdict.NOT_WEAKLY_AMENABLE, thresholds, evidence, params)
