"""High-precision oracle for the catalog members without a closed-form
conjugate: (cosh x - 1)^2, (e^x - x - 1)^2, x^2 ln(1+x) and e^{x^2} - 1.

The oracle conjugate solves Phi'(x) = y for the maximiser (the oracle
Psi'(y)) in 50-digit arithmetic and returns x y - Phi(x); the oracle
Luxemburg norm solves sum Phi(|f(s)| / k) = 1 for k the same way, under
Phi and under the oracle conjugate. The modular and the Orlicz constraint of
every catalog member, and single values of each, are taken in 60-digit
arithmetic to pin the rounding bounds that size their root windows (the
comment above ``young.MARGIN``), as are the modular and single values of the
square-root transform T = sqrt[x^3/3] and its numeric conjugate.
"""

from __future__ import annotations

import inspect
import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from conftest import extreme_functions, inclusion_sqrt_pair, inverse_targets, scan_pool
from orliczlat import norms, young as young_module
from orliczlat.finsupp import FinSuppFn
from orliczlat.norms import luxemburg_norm
from orliczlat.sampling import random_finsupp, rng_for
from orliczlat.verify import BATTERY_SEED
from orliczlat.young import (
    MARGIN,
    _constraint_margin,
    _inverse_margin,
    _modular_margin,
    catalog,
    inverse,
    pair_from_spec,
    young_from_spec,
)


def _series(x, coef):
    """sum coef(k) x^k for k >= 2: the forms below near 0, where the closed
    ones cancel (x < 0.01, so 46 terms pass 60 digits)."""
    return mp.fsum(coef(k) * x**k for k in range(2, 48))


def coshm1(x):
    return 2 * mp.sinh(x / 2) ** 2


def expm1mx(x):
    if x < mp.mpf("0.01"):
        return _series(x, lambda k: 1 / mp.factorial(k))
    return mp.expm1(x) - x


def entropy(x):
    if x < mp.mpf("0.01"):
        return _series(x, lambda k: (-1) ** k / (k * (k - 1)))
    return (1 + x) * mp.log1p(x) - x


# (family, p) -> (Phi, Phi') in mpmath arithmetic.
MEMBERS = {
    ("cosh", 2.0): (
        lambda x: coshm1(x) ** 2,
        lambda x: 2 * coshm1(x) * mp.sinh(x),
    ),
    ("exp_taylor", 2.0): (
        lambda x: expm1mx(x) ** 2,
        lambda x: 2 * expm1mx(x) * mp.expm1(x),
    ),
    ("square_log", 1.0): (
        lambda x: x * x * mp.log1p(x),
        lambda x: 2 * x * mp.log1p(x) + x * x / (1 + x),
    ),
    ("exp_power", 2.0): (
        lambda x: mp.expm1(x * x),
        lambda x: 2 * x * mp.exp(x * x),
    ),
}

YS = [10.0 ** (k / 2) for k in range(-6, 9)]  # 1e-3 ... 1e4

ENTRIES = {(0,): 0.3 + 0.4j, (1,): -1.2, (3,): 2j, (-2,): 0.05 - 0.07j, (7,): 3.5 + 1.0j}


def numeric_pairs():
    return {
        (pair.phi.label, float(pair.phi.params["p"])): pair
        for pair in catalog()
        if pair.conjugation_mode == "numerical"
    }


def increasing_root(fn, target, hi):
    """The x > 0 with fn(x) = target, for fn increasing from fn(0) <= target:
    hi doubles until fn(hi) >= target, then the bracket halves until its
    width is below 1e-20 of hi. The test is relative, so a root near 1e100
    comes out as exact as one near 1 (``mp.findroot``'s residual test is
    absolute and fails there); at 50 digits the bracket ends far inside
    double precision."""
    lo = mp.mpf(0)
    while fn(hi) < target:
        lo, hi = hi, 2 * hi
    while hi - lo > mp.mpf("1e-20") * hi:
        mid = (lo + hi) / 2
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def mp_argmax(dphi, y):
    """The maximiser of x y - Phi(x): the root of Phi'(x) = y."""
    return increasing_root(dphi, mp.mpf(y), mp.mpf(1))


def mp_conjugate(phi, dphi, y):
    x = mp_argmax(dphi, y)
    return x * y - phi(x)


def mp_luxemburg(phi, mags):
    """The k with sum Phi(m / k) = 1, found as 1/k."""

    def modular(t):
        return mp.fsum(phi(m * t) for m in mags)

    return 1 / increasing_root(modular, 1, 1 / max(mags))


def test_oracle_covers_every_numeric_catalog_member():
    assert set(numeric_pairs()) == set(MEMBERS)


@pytest.mark.parametrize("key", sorted(MEMBERS))
def test_numeric_conjugate_matches_mpmath(key):
    pair = numeric_pairs()[key]
    phi, dphi = MEMBERS[key]
    with mp.workdps(50):
        for y in YS:
            exact = mp_conjugate(phi, dphi, y)
            assert abs(pair.psi(y) - exact) <= 1e-12 * exact, (key, y)


@pytest.mark.parametrize("key", sorted(MEMBERS))
def test_numeric_conjugate_maximiser_matches_mpmath(key):
    # Psi'(y) is the maximiser of x y - Phi(x), the root of Phi'(x) = y
    pair = numeric_pairs()[key]
    _, dphi = MEMBERS[key]
    with mp.workdps(50):
        for y in YS:
            exact = mp_argmax(dphi, y)
            assert abs(pair.psi.d(y) - exact) <= 1e-14 * exact, (key, y)


@pytest.mark.parametrize("key", sorted(MEMBERS))
def test_luxemburg_norms_match_mpmath(key):
    pair = numeric_pairs()[key]
    phi, dphi = MEMBERS[key]
    f = FinSuppFn(1, ENTRIES)
    with mp.workdps(50):
        mags = [mp.sqrt(mp.mpf(v.real) ** 2 + mp.mpf(v.imag) ** 2) for v in ENTRIES.values()]
        for young, oracle in (
            (pair.phi, phi),
            (pair.psi, lambda y: mp_conjugate(phi, dphi, y)),
        ):
            exact = mp_luxemburg(oracle, mags)
            assert abs(luxemburg_norm(young, f) - exact) <= 1e-12 * exact, (key, young.label)


def test_power_modular_within_its_error_bound():
    # the Luxemburg root window certifies a side once the computed modular
    # clears 1 by young._modular_margin(Phi, n) = 4 eps, where for x^p/p the
    # relative error against the exact sum at the same float k is claimed
    # below eps = (p + 4) 2**-53 (the comment above young.MARGIN). Checked at
    # the root k of each support (the search runs on |f| / 2**e) and at the
    # window's ends, against the sum over the exact quotients, so the
    # rounding of each quotient counts too.
    subnormal = [
        FinSuppFn(1, {(0,): 5e-324, (1,): 5e-324, (4,): 1e-310j}),
        FinSuppFn(1, {(0,): 1.0, (1,): 3e-310, (2,): 0.5 - 2e-320j}),
        FinSuppFn(1, {(0,): 2.2e-308, (1,): 1e-308, (2,): 4e-309, (3,): 7e-315}),
    ]
    pool = scan_pool(1, 48, 8, 101) + scan_pool(2, 8, 2, 101) + extreme_functions() + subnormal
    scaled = []
    for f in pool:
        if len(f) > 1:  # an atom has no windowed root
            mags = f.magnitudes()
            scaled.append(np.ldexp(mags, -math.frexp(float(mags.max()))[1]))
    with mp.workdps(60):
        exact_mags = [[mp.mpf(a) for a in mags.tolist()] for mags in scaled]
        for p in (1.0625, 1.5, 2.0, 3.0, 7.0, 30.0, 40.0):
            phi = young_from_spec({"family": "power", "p": p})
            for mags, exact_m, k in zip(scaled, exact_mags, norms._luxemburg_norms(phi, scaled)):
                margin = _modular_margin(phi, len(mags))
                for t in (k, k * (1.0 - 10.0 * margin), k * (1.0 + 10.0 * margin)):
                    got = norms._modular(phi, mags / t)
                    exact = mp.fsum((a / t) ** p for a in exact_m) / p
                    err = abs(got - exact) / exact
                    assert err <= margin / 4, (p, mags.tolist(), t, float(err / (margin / 4)))


# (label, p) -> (Phi, Phi') of the closed-form catalog members besides x^p/p
CLOSED = {
    ("cosh", 1.0): (coshm1, mp.sinh),
    ("cosh-conj", None): (lambda y: y * mp.asinh(y) - y * y / (1 + mp.sqrt(1 + y * y)), mp.asinh),
    ("entropy", None): (entropy, mp.log1p),
    ("exp_taylor", 1.0): (expm1mx, mp.expm1),
    **MEMBERS,
}


def mp_closed(young):
    """(Phi, Phi') in mpmath of a closed-form member: x^p/p, the square-root
    transform of x^q/q (x^(q/2)/q) or a member of CLOSED."""
    key = (young.label, young.params.get("p"))
    if young.origin is not None:  # the square-root transform
        q = mp.mpf(young.origin[1].params["p"])
        return (lambda x: x ** (q / 2) / q), (lambda x: x ** (q / 2 - 1) / 2)
    if young.label == "power":
        p = mp.mpf(key[1])
        return (lambda x: x**p / p), (lambda x: x ** (p - 1))
    return CLOSED[key]


def mp_argmax_near(dphi, y, x0):
    """The root of Phi'(x) = y from the float maximiser x0: a bracket of
    x0 (1 -+ 1e-6), widened until it holds the root, closed by regula falsi
    (Illinois) to 1e-45 relative."""
    lo, hi = x0 * (1 - mp.mpf("1e-6")), x0 * (1 + mp.mpf("1e-6"))
    while dphi(lo) > y:
        lo /= 2
    while dphi(hi) < y:
        hi *= 2
    while hi > 2 * lo:
        mid = mp.sqrt(lo * hi)
        lo, hi = (mid, hi) if dphi(mid) < y else (lo, mid)
    f_lo, f_hi, side = dphi(lo) - y, dphi(hi) - y, 0
    while hi - lo > mp.mpf("1e-45") * hi:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:  # a step that stalls on an end halves instead
            x = (lo + hi) / 2
        fx = dphi(x) - y
        if fx == 0:
            return x
        if fx < 0:
            lo, f_lo, f_hi, side = x, fx, f_hi / 2 if side < 0 else f_hi, -1
        else:
            hi, f_hi, f_lo, side = x, fx, f_lo / 2 if side > 0 else f_lo, 1
    return (lo + hi) / 2


def oracle_terms(young):
    """(modular term, constraint term) of a catalog member in mpmath: Phi(x)
    and x Phi'(x) - Phi(x); for a numeric conjugate Psi(y) = x y - Phi(x)
    and Phi(x) at the maximiser x, found from the float one."""
    if young.origin is not None and young.origin[0] == "conj":
        phi, dphi = mp_closed(young.origin[1])

        def argmax(y):
            return mp_argmax_near(dphi, y, mp.mpf(young.d(float(y)) or 1e-300))

        def conjugate(y):
            x = argmax(y)
            return x * y - phi(x)

        return conjugate, (lambda y: phi(argmax(y)))
    phi, dphi = mp_closed(young)
    return phi, (lambda x: x * dphi(x) - phi(x))


def battery_functions():
    """The random functions of verify's norm-sandwich and Hölder checks."""
    fs = [
        random_finsupp(dim=1 + t % 2, radius=6, rng=rng_for(BATTERY_SEED, 1, t), max_support=12)
        for t in range(50)
    ]
    for t in range(25):
        rng = rng_for(BATTERY_SEED, 2, t)
        fs += [random_finsupp(dim=1, radius=5, rng=rng, max_support=10) for _ in range(2)]
    return fs


SUBNORMAL = [
    FinSuppFn(1, {(0,): 5e-324, (1,): 5e-324, (4,): 1e-310j}),
    FinSuppFn(1, {(0,): 1.0, (1,): 3e-310, (2,): 0.5 - 2e-320j}),
    FinSuppFn(1, {(0,): 2.2e-308, (1,): 1e-308, (2,): 4e-309, (3,): 7e-315}),
]


def scaled_supports(numeric: bool) -> list[np.ndarray]:
    """|f| / 2**e, as the searches see it, for every f with two entries or
    more of the battery, a scan pool (smaller where each term is an
    optimiser solve), the extremes, the subnormals and constant supports of
    2 to 399 entries: n equal terms err alike, which shows a cancelling
    form's growth with n and each form's worst rounding at many abscissae."""
    scans = scan_pool(1, 16, 2, 101) + scan_pool(2, 4, 2, 101) if numeric else (
        scan_pool(1, 48, 8, 101) + scan_pool(2, 8, 2, 101)
    )
    pool = battery_functions() + scans + extreme_functions() + SUBNORMAL
    pool += [FinSuppFn(1, {(i,): 1.5 for i in range(n)}) for n in range(2, 400)]
    scaled = []
    for f in pool:
        if len(f) > 1:  # an atom has no windowed root
            mags = f.magnitudes()
            scaled.append(np.ldexp(mags, -math.frexp(float(mags.max()))[1]))
    return scaled


def relative_error(got, term, mags, t):
    """|got - exact| / exact for the exact sum of term(a / t) over the
    magnitudes, each distinct one evaluated once; a magnitude that the
    scaling took to 0 adds term(0) = 0."""
    counts = Counter(mags.tolist())
    exact = mp.fsum(c * term(mp.mpf(a) / t) for a, c in counts.items() if a)
    return abs(got - exact) / exact


def catalog_members():
    """Every Young function of the catalog pairs, once each."""
    return list({y.describe(): y for pair in catalog() for y in (pair.phi, pair.psi)}.values())


def ids(members):
    return [y.describe() for y in members]


SQRT_PAIR = inclusion_sqrt_pair()
# x^p/p's modular has its own pin, test_power_modular_within_its_error_bound
MODULAR_PINNED = [
    y for y in catalog_members() + SQRT_PAIR
    if y.label != "power" and _modular_margin(y, 2) < MARGIN
]
CONSTRAINT_PINNED = [y for y in catalog_members() if _constraint_margin(y, 2) < MARGIN] + [
    young_from_spec({"family": "power", "p": p}) for p in (1.0625, 7.0, 40.0)
]
INVERSE_PINNED = catalog_members() + SQRT_PAIR


def test_margins_cover_the_catalog():
    # every catalog member has a derived margin for each of its windows, the
    # Luxemburg norm's, the Orlicz multiplier's and the inverse's, and so do
    # the inclusion scans' T and its conjugate for theirs: none keeps MARGIN
    members = catalog_members()
    assert set(ids(members + SQRT_PAIR)) - set(ids(MODULAR_PINNED)) == {
        "power(p=1.5)", "power(p=2)", "power(p=3)"
    }
    assert set(ids(members)) - set(ids(CONSTRAINT_PINNED)) == set()
    for y in members + SQRT_PAIR:
        assert _modular_margin(y, 2) < MARGIN, y.describe()
        assert _inverse_margin(y, 1.0, 1.0) < MARGIN, y.describe()


@pytest.mark.parametrize("young", MODULAR_PINNED, ids=ids(MODULAR_PINNED))
def test_modular_within_its_error_bound(young):
    # the window's margin young._modular_margin(Phi, n) = 4 eps, with the eps
    # of the comment above young.MARGIN: checked at the root k of each
    # support and at the window's ends, as the power modular's is
    term = oracle_terms(young)[0]
    scaled = scaled_supports(young.label.startswith("conj["))
    with mp.workdps(60):
        for mags, k in zip(scaled, norms._luxemburg_norms(young, scaled)):
            margin = _modular_margin(young, len(mags))
            for t in (k, k * (1.0 - 10.0 * margin), k * (1.0 + 10.0 * margin)):
                err = relative_error(norms._modular(young, mags / t), term, mags, t)
                assert err <= margin / 4, (len(mags), mags[:4].tolist(), t, float(err / margin))


@pytest.mark.parametrize("young", CONSTRAINT_PINNED, ids=ids(CONSTRAINT_PINNED))
def test_constraint_within_its_error_bound(young):
    # the Orlicz multiplier's margin young._constraint_margin(Phi, n) = 4 eps,
    # checked at the multiplier t of each support and at the window's ends
    # against the exact sum of x Phi'(x) - Phi(x), x = |f| / t
    term = oracle_terms(young)[1]
    with mp.workdps(60):
        for mags in scaled_supports(young.label.startswith("conj[")):
            quotients = mags.tolist()
            t = norms._multiplier(young, quotients, max(quotients))
            margin = _constraint_margin(young, len(mags))
            for s in (t, t * (1.0 - 10.0 * margin), t * (1.0 + 10.0 * margin)):
                got = norms._dual_constraint(young, quotients, s)
                err = relative_error(got, term, mags, s)
                assert err <= margin / 4, (len(mags), quotients[:4], s, float(err / margin))


@pytest.mark.parametrize("young", INVERSE_PINNED, ids=ids(INVERSE_PINNED))
def test_inverse_within_its_error_bound(young, monkeypatch):
    # the inverse's margin young._inverse_margin(Phi, est, y) = 4 eps, for
    # one value of Phi: checked at the root, at the estimate and at the
    # window's ends, each window of inverse_targets (the cancelling region
    # near x = 1.3e-4 included), through the absolute error against eps y
    # where Phi < y, as the comment above young.MARGIN reads it there
    windows = []
    window = young_module._windowed_root
    signature = inspect.signature(window)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        windows.append((bound["est"], bound["margin"]))
        return window(*args, **kwargs)

    monkeypatch.setattr(young_module, "_windowed_root", recording)
    term = oracle_terms(young)[0]
    with mp.workdps(60):
        for y in inverse_targets(young):
            x = inverse(young, y)
            est, margin = windows.pop()
            assert est is not None, y
            for t in (x, est, est * (1.0 - 10.0 * margin), est * (1.0 + 10.0 * margin)):
                exact = term(mp.mpf(t))
                err = abs(young(t) - exact) / max(exact, mp.mpf(y))
                assert err <= margin / 4, (y, t, float(err / margin))


def test_cosh_conjugate_matches_mpmath_past_the_square_overflow():
    # the closed form y asinh(y) - (sqrt(1 + y^2) - 1) of the conjugate of
    # cosh x - 1, on both sides of 1.34e154, where y^2 overflows
    psi = pair_from_spec({"family": "cosh", "p": 1.0}).psi
    with mp.workdps(50):
        for y in (1e-3, 1.0, 1e100, 1e154, 1.34e154, 1.35e154, 1e155, 1e200, 1e300):
            v = mp.mpf(y)
            exact = v * mp.asinh(v) - (mp.sqrt(1 + v * v) - 1)
            assert abs(psi(y) - exact) <= 1e-15 * exact, y


def test_square_log_derivative_matches_mpmath_past_the_square_overflow():
    # Phi'(x) = 2x ln(1+x) + x^2/(1+x) of x^2 ln(1+x) is a float up to
    # about 1.2e305, but x*x overflows from about 1.34e154
    phi = pair_from_spec({"family": "square_log", "p": 1.0}).phi
    _, dphi = MEMBERS[("square_log", 1.0)]
    with mp.workdps(50):
        for x in (1e-3, 1.0, 1e100, 1e154, 1.4e154, 1e200, 1e300):
            exact = dphi(mp.mpf(x))
            assert abs(phi.d(x) - exact) <= 1e-15 * exact, x


def test_square_log_conjugate_and_its_inverse_match_mpmath_at_1e100():
    # Psi(1e100) is about 1.1153e197, at a maximiser near 2.2e97. Psi^{-1}
    # at 1e100 is Phi'(x) for the x with x Phi'(x) - Phi(x) = 1e100.
    psi = pair_from_spec({"family": "square_log", "p": 1.0}).psi
    phi, dphi = MEMBERS[("square_log", 1.0)]
    with mp.workdps(50):
        exact = mp_conjugate(phi, dphi, 1e100)
        assert abs(psi(1e100) - exact) <= 1e-12 * exact
        x = increasing_root(lambda x: x * dphi(x) - phi(x), mp.mpf(1e100), mp.mpf(1))
        exact = dphi(x)
        assert abs(psi.inverse(1e100) - exact) <= 1e-12 * exact
