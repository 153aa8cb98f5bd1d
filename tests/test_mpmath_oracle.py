"""High-precision oracle for the catalog members without a closed-form
conjugate: (cosh x - 1)^2, (e^x - x - 1)^2, x^2 ln(1+x) and e^{x^2} - 1.

The oracle conjugate solves Phi'(x) = y for the maximiser (the oracle
Psi'(y)) in 50-digit arithmetic and returns x y - Phi(x); the oracle
Luxemburg norm solves sum Phi(|f(s)| / k) = 1 for k the same way, under
Phi and under the oracle conjugate. The power modular is summed in 60-digit
arithmetic to pin the rounding bound that sizes its Luxemburg root window.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from conftest import extreme_functions, scan_pool
from orliczlat import norms
from orliczlat.finsupp import FinSuppFn
from orliczlat.norms import luxemburg_norm
from orliczlat.young import catalog, pair_from_spec, young_from_spec

# (family, p) -> (Phi, Phi') in mpmath arithmetic.
MEMBERS = {
    ("cosh", 2.0): (
        lambda x: (mp.cosh(x) - 1) ** 2,
        lambda x: 2 * (mp.cosh(x) - 1) * mp.sinh(x),
    ),
    ("exp_taylor", 2.0): (
        lambda x: (mp.exp(x) - x - 1) ** 2,
        lambda x: 2 * (mp.exp(x) - x - 1) * (mp.exp(x) - 1),
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
    # clears 1 by norms._modular_margin(Phi) = 4 eps, where for x^p/p the
    # relative error against the exact sum at the same float k is claimed
    # below eps = (p + 4) 2**-53 (the comment above norms.MARGIN). Checked at
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
            margin = norms._modular_margin(phi)
            for mags, exact_m, k in zip(scaled, exact_mags, norms._luxemburg_norms(phi, scaled)):
                for t in (k, k * (1.0 - 10.0 * margin), k * (1.0 + 10.0 * margin)):
                    got = norms._modular(phi, mags / t)
                    exact = mp.fsum((a / t) ** p for a in exact_m) / p
                    err = abs(got - exact) / exact
                    assert err <= margin / 4, (p, mags.tolist(), t, float(err / (margin / 4)))


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
