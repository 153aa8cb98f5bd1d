from __future__ import annotations

import dataclasses
import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded_rng
from orliczlat import norms
from orliczlat.algebra import _radius_ladder, flip
from orliczlat.errors import InvalidInputError, NumericalFailureError
from orliczlat.finsupp import FinSuppFn
from orliczlat.norms import (
    holder_check,
    luxemburg_norm,
    modular,
    orlicz_norm,
    weighted_l1_norm,
    weighted_norm,
)
from orliczlat.sampling import random_finsupp, rng_for, scan_pairs
from orliczlat.verify import BATTERY_SEED, norm_sandwich_margin
from orliczlat.weights import polynomial_weight
from orliczlat.young import (
    ComplementaryPair,
    YoungFunction,
    bisect,
    expand,
    inverse,
    numeric_conjugate,
    pair_from_spec,
    sqrt_transform,
    young_from_spec,
)


def power_lux_closed_form(p: float, f: FinSuppFn) -> float:
    """Oracle: for Phi = x^p/p the Luxemburg norm is p^(-1/p) ||f||_p."""
    return (sum(abs(v) ** p for _, v in f)) ** (1.0 / p) * p ** (-1.0 / p)


def naive_luxemburg(phi, f: FinSuppFn, iters: int = 120) -> float:
    """Independent coarse bisection straight from the definition."""
    if f.is_zero:
        return 0.0
    lo, hi = 1e-9, 1.0
    while modular(phi, f.scale(1.0 / hi)) > 1.0:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if modular(phi, f.scale(1.0 / mid)) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


# -- modular -------------------------------------------------------------------


def test_modular_examples():
    p2 = young_from_spec({"family": "power", "p": 2})
    assert modular(p2, FinSuppFn.zero(1)) == 0.0
    f = FinSuppFn(1, {(0,): 3.0, (1,): 4.0})
    assert modular(p2, f) == pytest.approx(12.5, rel=1e-15)
    et = young_from_spec({"family": "exp_taylor", "p": 1})
    assert modular(et, FinSuppFn.delta(0)) == pytest.approx(math.e - 2.0, rel=1e-12)


# -- luxemburg -------------------------------------------------------------------


def test_luxemburg_zero():
    p2 = young_from_spec({"family": "power", "p": 2})
    assert luxemburg_norm(p2, FinSuppFn.zero(1)) == 0.0


def test_luxemburg_single_atom_closed_form():
    for p in (1.5, 2.0, 3.0):
        phi = young_from_spec({"family": "power", "p": p})
        for c in (0.25, 1.0, 7.5):
            f = FinSuppFn.delta(0, c)
            expected = c / inverse(phi, 1.0)
            assert luxemburg_norm(phi, f) == pytest.approx(expected, rel=1e-10)
            assert expected == pytest.approx(c * p ** (-1.0 / p), rel=1e-10)


def test_luxemburg_matches_p_norm_identity_and_naive_bisection():
    for p in (1.5, 2.0, 3.0):
        phi = young_from_spec({"family": "power", "p": p})
        for t in range(20):
            f = random_finsupp(1, 8, seeded_rng(1, t), max_support=12)
            got = luxemburg_norm(phi, f)
            assert got == pytest.approx(power_lux_closed_form(p, f), rel=1e-8)
            assert got == pytest.approx(naive_luxemburg(phi, f), rel=1e-8)


def test_luxemburg_unit_modular_characterisation(catalog_pairs):
    for pair in catalog_pairs[:6]:
        for t in range(10):
            f = random_finsupp(1, 6, seeded_rng(2, t), max_support=8)
            n = luxemburg_norm(pair.phi, f)
            m = modular(pair.phi, f.scale(1.0 / n))
            assert m <= 1.0 + 1e-12
            assert m >= 1.0 - 1e-6


def test_luxemburg_norm_axioms(power_pair_15, catalog_pairs):
    phi = power_pair_15.phi
    for t in range(50):
        rng = seeded_rng(3, t)
        f = random_finsupp(1, 6, rng, max_support=10)
        g = random_finsupp(1, 6, rng, max_support=10)
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert luxemburg_norm(phi, f.scale(c)) == pytest.approx(
            abs(c) * luxemburg_norm(phi, f), rel=1e-9
        )
        assert luxemburg_norm(phi, f + g) <= (
            luxemburg_norm(phi, f) + luxemburg_norm(phi, g)
        ) * (1.0 + 1e-9)
    # every catalog pair, the Luxemburg norm under Phi and under Psi and the
    # Orlicz norm: homogeneity, and translation invariance bit for bit (the
    # norms see only the multiset of |f|, so neither the shift nor the
    # insertion order may move the result)
    for i, pair in enumerate(catalog_pairs):
        norms = {
            "luxemburg(phi)": lambda h: luxemburg_norm(pair.phi, h),
            "luxemburg(psi)": lambda h: luxemburg_norm(pair.psi, h),
            "orlicz": lambda h: orlicz_norm(pair, h),
        }
        for t in range(20):
            rng = seeded_rng(4, i, t)
            dim = 1 + t % 2
            f = random_finsupp(dim, 6, rng, max_support=10)
            c = complex(rng.standard_normal(), rng.standard_normal())
            shift = [int(s) for s in rng.integers(-50, 51, size=dim)]
            moved = FinSuppFn(dim, {tuple(a + s for a, s in zip(x, shift)): v
                                    for x, v in reversed(list(f))})
            for name, norm in norms.items():
                n = norm(f)
                assert norm(f.scale(c)) == pytest.approx(abs(c) * n, rel=1e-12), (
                    pair.phi.describe(), name, t)
                assert norm(moved) == n, (pair.phi.describe(), name, t)


# -- array modular ---------------------------------------------------------------


def scalar_luxemburg(phi, f: FinSuppFn) -> float:
    """The Luxemburg bisection evaluated one entry at a time through phi(x)."""
    if f.is_zero:
        return 0.0
    mags = [abs(v) for _, v in f]
    m, n = max(mags), len(mags)

    def mod_at(k: float) -> float:
        return math.fsum(phi(a / k) for a in mags)

    lo = m / inverse(phi, 1.0)
    hi = m / inverse(phi, 1.0 / n) if n > 1 else lo
    if mod_at(lo) <= 1.0:
        return lo
    for _ in range(200):
        if hi - lo <= 1e-13 * hi:
            break
        mid = 0.5 * (lo + hi)
        if mod_at(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def scalar_only(phi: YoungFunction) -> YoungFunction:
    return dataclasses.replace(phi, array_fn=None)


def complex_finsupp(n: int, rng: np.random.Generator, distinct: int | None = None) -> FinSuppFn:
    """n entries at random points of Z^1.

    With ``distinct`` the magnitudes repeat ``distinct`` random values on
    random axes and signs, which keeps numeric conjugates (one optimiser
    solve per distinct abscissa) affordable at large n.
    """
    pts = rng.choice(10 * n, size=n, replace=False) - 5 * n
    if distinct is None:
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        mags = rng.uniform(0.1, 3.0, size=distinct)[rng.integers(0, distinct, size=n)]
        vals = mags * np.array([1, -1, 1j, -1j])[rng.integers(0, 4, size=n)]
    return FinSuppFn(1, {(int(p),): complex(v) for p, v in zip(pts, vals)})


def test_luxemburg_bit_identical_under_reordering(catalog_pairs):
    numeric = next(p.psi for p in catalog_pairs if p.conjugation_mode == "numerical")
    phis = [young_from_spec({"family": "power", "p": p}) for p in (1.5, 2.0, 3.0)]
    for phi in phis + [numeric]:
        for t in range(5):
            f = complex_finsupp(30, seeded_rng(8, t))
            reversed_f = FinSuppFn(1, dict(reversed(list(f.entries.items()))))
            got = luxemburg_norm(phi, f)
            assert luxemburg_norm(phi, flip(f)) == got, phi.describe()
            assert luxemburg_norm(phi, reversed_f) == got, phi.describe()


def test_luxemburg_matches_scalar_bisection(catalog_pairs):
    phis = [pair.phi for pair in catalog_pairs] + [pair.psi for pair in catalog_pairs]
    for size in (1, 6, 40, 1000):
        f = complex_finsupp(size, seeded_rng(9, size), distinct=50 if size > 40 else None)
        for phi in phis:
            got = luxemburg_norm(phi, f)
            ref = scalar_luxemburg(phi, f)
            assert abs(got - ref) <= 1e-13 * ref, (phi.describe(), size, got, ref)
            # a single entry returns m / Phi^-1(1), whose modular is 1 up to rounding
            assert modular(phi, f.scale(1.0 / got)) <= 1.0 + 1e-12, (phi.describe(), size)


def test_array_forms_match_scalar_forms():
    xs = np.concatenate([np.geomspace(1e-8, 1e4, 400), seeded_rng(10).uniform(0.0, 3.0, 400)])
    powers = [young_from_spec({"family": "power", "p": p}) for p in (1.5, 2.0, 3.0)]
    transforms = [sqrt_transform(young_from_spec({"family": "power", "p": q})) for q in (2.0, 3.0)]
    for phi in powers + transforms:
        assert phi.array_fn is not None, phi.describe()
        got = phi.values(xs)
        ref = [phi(float(x)) for x in xs]
        for g, r, x in zip(got, ref, xs):
            assert abs(g - r) <= 4e-16 * r, (phi.describe(), x, g, r)
        with pytest.raises(InvalidInputError):
            phi.values(np.array([1.0, -1e-3]))


def test_power_overflow_reads_inf_on_both_paths():
    # x**3 overflows at x > 5.6e102, so the modular of f and the first steps
    # of the coarse bisection below (which starts from k = 1) are infinite.
    # luxemburg_norm's own bracket keeps every abscissa below Phi^-1(1).
    phi = young_from_spec({"family": "power", "p": 3.0})
    f = FinSuppFn(1, {(0,): 1e200, (1,): 3.0, (2,): -1e150j})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert modular(phi, f) == modular(scalar_only(phi), f) == math.inf
        assert naive_luxemburg(phi, f) == naive_luxemburg(scalar_only(phi), f)
        got = luxemburg_norm(phi, f)
    assert got == luxemburg_norm(scalar_only(phi), f)
    assert got == pytest.approx(1e200 * power_lux_closed_form(3.0, f.scale(1e-200)), rel=1e-10)


def test_luxemburg_near_float_max_stays_finite():
    # Two entries v under x^2/2 have norm exactly v. The bracket
    # [v/sqrt(2), v] then sits near the top of the float range, where
    # lo + hi overflows, so the bisection midpoint must not add them.
    phi = young_from_spec({"family": "power", "p": 2.0})
    for v in (1e308, 1.7e308):
        got = luxemburg_norm(phi, FinSuppFn(1, {(0,): v, (1,): v}))
        assert math.isfinite(got), v
        assert abs(got - v) <= 1e-12 * v, (v, got)


def plain_luxemburg(phi: YoungFunction, f: FinSuppFn) -> float:
    """Oracle: the Luxemburg norm with no root window, the array modular at
    every bisection midpoint (``norms._modular`` is looked up per call, so
    a test can count these evaluations)."""
    if f.is_zero:
        return 0.0
    mags = f.magnitudes()
    m, e = math.frexp(float(mags.max()))
    mags = np.ldexp(mags, -e)
    n = len(mags)
    lo = m / phi.inverse(1.0)
    hi = m / phi.inverse(1.0 / n) if n > 1 else lo
    with np.errstate(over="ignore"):
        if norms._modular(phi, mags / lo) <= 1.0:
            return norms._unscaled(lo, e, phi)
        _, hi = bisect(lambda k: norms._modular(phi, mags / k) <= 1.0, lo, hi, 1e-13)
    return norms._unscaled(hi, e, phi)


def outcome(norm, phi, f) -> str:
    """The exact bits of the norm, or the name of the error it raised."""
    try:
        return norm(phi, f).hex()
    except Exception as exc:  # both paths must raise the same error
        return type(exc).__name__


def scan_pool(dim: int, radius: int, trials: int, seed: int) -> list[FinSuppFn]:
    """Every function that the scans at this radius draw, once each."""
    pool = []
    for r in _radius_ladder(radius):
        for _, f, g in scan_pairs(dim, r, trials, seed):
            pool += [f] if g is f else [f, g]
    return pool


def test_luxemburg_bit_identical_to_plain_bisection(catalog_pairs):
    transforms = [sqrt_transform(young_from_spec({"family": "power", "p": q})) for q in (2.0, 3.0)]
    closed = [pair.phi for pair in catalog_pairs] + transforms + [
        pair.psi for pair in catalog_pairs if pair.conjugation_mode != "numerical"
    ]
    numeric = [pair.psi for pair in catalog_pairs if pair.conjugation_mode == "numerical"]
    numeric += [numeric_conjugate(t) for t in transforms]
    extremes = extreme_functions()
    # numeric conjugates solve an optimiser per abscissa: smaller pools
    cases = [
        (closed, scan_pool(1, 16, 2, 101) + scan_pool(2, 4, 2, 101) + extremes),
        (numeric, scan_pool(1, 8, 1, 101) + scan_pool(2, 2, 1, 101) + extremes),
    ]
    for phis, fs in cases:
        for phi in phis:
            for f in fs:
                want = outcome(plain_luxemburg, phi, f)
                assert outcome(luxemburg_norm, phi, f) == want, (phi.describe(), dict(f.entries))


@settings(max_examples=60)
@given(
    p=st.floats(1.05, 40.0),
    values=st.lists(
        st.floats(1e-6, 1e6) | st.sampled_from([1e-300, 1.0, 4e307]), min_size=1, max_size=25
    ),
)
def test_luxemburg_bit_identical_to_plain_bisection_drawn(p, values):
    phi = young_from_spec({"family": "power", "p": p})
    f = FinSuppFn(1, {(i,): v for i, v in enumerate(values)})
    assert outcome(luxemburg_norm, phi, f) == outcome(plain_luxemburg, phi, f)


# F at hi, at most 4 secant steps and the two certification points
WINDOW_COST = 7


def test_luxemburg_modular_evaluation_count(monkeypatch):
    calls = [0]
    counted = norms._modular

    def counting(phi, mags):
        calls[0] += 1
        return counted(phi, mags)

    monkeypatch.setattr(norms, "_modular", counting)
    phi = young_from_spec({"family": "power", "p": 1.5})
    pool = scan_pool(1, 48, 8, 101)
    windowed = 0
    for f in pool:
        start = calls[0]
        want = plain_luxemburg(phi, f)
        plain = calls[0] - start
        start = calls[0]
        assert luxemburg_norm(phi, f) == want
        used = calls[0] - start
        assert used <= plain + WINDOW_COST, (plain, used, len(f))
        windowed += used
    # 35.4 per call with no window, 13.3 with it
    assert windowed / len(pool) <= 15.0, windowed / len(pool)


def test_luxemburg_atom_evaluates_no_modular(monkeypatch):
    # the bracket of a one-entry support is [lo, lo]: a numeric conjugate
    # would pay an optimiser solve for a modular value that decides nothing
    calls = [0]
    counted = norms._modular

    def counting(phi, mags):
        calls[0] += 1
        return counted(phi, mags)

    monkeypatch.setattr(norms, "_modular", counting)
    phi = numeric_conjugate(young_from_spec({"family": "power", "p": 3.0}))
    for value in (1e-300, 0.37, 2.5 - 1j, 4e307):
        f = FinSuppFn.delta((3,), value)
        want = plain_luxemburg(phi, f)
        calls[0] = 0
        assert luxemburg_norm(phi, f).hex() == want.hex()
        assert calls[0] == 0, value


# -- orlicz ----------------------------------------------------------------------


def test_orlicz_zero_and_single_atom(power_pair_2):
    assert orlicz_norm(power_pair_2, FinSuppFn.zero(1)) == 0.0
    got = orlicz_norm(power_pair_2, FinSuppFn.delta(0))
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_orlicz_single_atom_duality_closed_form(catalog_pairs):
    # sup over one coordinate: ||c d0||_Phi = c * inv(Psi)(1)
    for pair in catalog_pairs:
        expected = 2.5 * inverse(pair.psi, 1.0)
        got = orlicz_norm(pair, FinSuppFn.delta(0, 2.5))
        assert got == pytest.approx(expected, rel=1e-8), pair.describe()


def test_orlicz_sandwich_on_random_inputs(catalog_pairs):
    for pair in catalog_pairs:
        for t in range(50):
            f = random_finsupp(1, 6, seeded_rng(4, t), max_support=10)
            n = luxemburg_norm(pair.phi, f)
            o = orlicz_norm(pair, f)
            assert n * (1 - 1e-9) <= o <= 2 * n * (1 + 1e-9), pair.describe()


def test_orlicz_gate_catches_wrong_derivative(power_pair_2):
    # A deliberately wrong closed-form derivative must trip the sandwich
    # gate rather than return silently.
    broken_phi = YoungFunction(
        fn=lambda x: x * x / 2.0, derivative=lambda x: 0.2 * x, label="broken"
    )
    broken_pair = type(power_pair_2)(broken_phi, power_pair_2.psi, "closed_form")
    f = FinSuppFn(1, {(0,): 1.0, (1,): 2.0})
    with pytest.raises(NumericalFailureError):
        orlicz_norm(broken_pair, f)


def plain_orlicz(pair: ComplementaryPair, f: FinSuppFn) -> float:
    """Oracle: the Orlicz norm with no root window and no normalisation, the
    constraint evaluated at every expand step and bisection midpoint
    (``norms._dual_constraint`` is looked up per call, so a test can count
    these evaluations)."""
    if f.is_zero:
        return 0.0
    phi = pair.phi
    mags = f.magnitudes().tolist()

    def constraint(t: float) -> float:
        return norms._dual_constraint(phi, mags, t)

    hi = expand(lambda t: constraint(t) <= 1.0, max(max(mags), 1e-300), 2.0, 400)
    if hi is None:
        raise NumericalFailureError("dual multiplier bracket failed to expand")
    lo = expand(lambda t: constraint(t) >= 1.0, hi * 0.5, 0.5, 400)
    if lo is None:
        raise NumericalFailureError("dual multiplier bracket failed to shrink")
    _, hi = bisect(lambda t: constraint(t) <= 1.0, lo, hi, 1e-13)
    value = math.fsum(a * phi.d(a / hi) for a in mags)
    n_phi = plain_luxemburg(phi, f)
    if not (n_phi * (1.0 - 1e-9) <= value <= 2.0 * n_phi * (1.0 + 1e-9)):
        raise NumericalFailureError("escaped the window")
    return value


def orlicz_outcome_matches_plain(pair: ComplementaryPair, f: FinSuppFn) -> bool:
    """The bits of orlicz_norm, or the name of its error, equal the plain
    search's; where the plain search's final sum overflows (a raw
    OverflowError from fsum), orlicz_norm names the overflow instead."""
    got, want = outcome(orlicz_norm, pair, f), outcome(plain_orlicz, pair, f)
    return got == ("NumericalFailureError" if want == "OverflowError" else want)


def extreme_functions() -> list[FinSuppFn]:
    """Magnitudes from the subnormals to the top of the float range: the
    extremes of both plain-bisection oracle tests."""
    rng = seeded_rng(11)
    extremes = [
        FinSuppFn(1, {(i,): float(v) for i, v in enumerate(rng.uniform(0.1, 1.0, n) * scale)})
        for scale in (1e-300, 1e-150, 1.0, 1e150, 4e307)
        for n in (1, 2, 9)
    ]
    return extremes + [
        FinSuppFn(1, {(i,): 1.5 for i in range(300)}),
        FinSuppFn(1, {(0,): 1e200, (1,): 3.0, (2,): -1e150j}),
        FinSuppFn(1, {(0,): 1e-300, (5,): 4e307}),
        FinSuppFn(1, {(i,): v for i, v in enumerate([1.0, 1.0, 1.0, 1.0, 4e307, 4e307])}),
    ]


def test_orlicz_bit_identical_to_plain_bisection(catalog_pairs):
    extremes = extreme_functions()
    closed_pool = scan_pool(1, 16, 2, 101) + scan_pool(2, 4, 2, 101) + extremes
    # a numeric Phi solves an optimiser per constraint term: a smaller pool
    numeric_pool = scan_pool(1, 8, 1, 101) + scan_pool(2, 2, 1, 101) + extremes
    for pair in catalog_pairs:
        for oriented in (pair, pair.swap()):
            numeric = oriented is not pair and pair.conjugation_mode == "numerical"
            for f in numeric_pool if numeric else closed_pool:
                assert orlicz_outcome_matches_plain(oriented, f), (
                    oriented.describe(), dict(f.entries)
                )


@settings(max_examples=60)
@given(
    p=st.floats(1.05, 40.0),
    values=st.lists(
        st.floats(1e-6, 1e6) | st.sampled_from([1e-300, 1.0, 4e307]), min_size=1, max_size=25
    ),
)
def test_orlicz_bit_identical_to_plain_bisection_drawn(p, values):
    pair = pair_from_spec({"family": "power", "p": p})
    f = FinSuppFn(1, {(i,): v for i, v in enumerate(values)})
    assert orlicz_outcome_matches_plain(pair, f)


def norm_sandwich_functions() -> list[FinSuppFn]:
    """The 50 functions of verify.norm_sandwich_margin."""
    return [
        random_finsupp(dim=1 + t % 2, radius=6, rng=rng_for(BATTERY_SEED, 1, t), max_support=12)
        for t in range(50)
    ]


def test_orlicz_constraint_evaluation_count(monkeypatch, catalog_pairs):
    calls = [0]
    counted = norms._dual_constraint

    def counting(phi, mags, t):
        calls[0] += 1
        return counted(phi, mags, t)

    monkeypatch.setattr(norms, "_dual_constraint", counting)
    used = []
    for pair in catalog_pairs:
        for oriented in (pair, pair.swap()):
            for f in norm_sandwich_functions():
                start = calls[0]
                want = plain_orlicz(oriented, f)
                plain = calls[0] - start
                start = calls[0]
                assert orlicz_norm(oriented, f) == want
                used.append(calls[0] - start)
                assert used[-1] <= plain + WINDOW_COST, (oriented.describe(), plain, used[-1])
    # a median of 46 with no window
    assert statistics.median(used) <= 25, statistics.median(used)


def test_orlicz_norm_near_float_max():
    # the multiplier search used to double t from 1e308 to inf and fail to
    # shrink its bracket; the norm of an atom c d0 is c Psi^-1(1)
    for spec, want in (({"family": "exp_taylor", "p": 2}, 1.4565e308),
                       ({"family": "square_log", "p": 1}, 1.6867e308)):
        pair = pair_from_spec(spec)
        got = orlicz_norm(pair, FinSuppFn.delta(0, 1e308))
        assert got == pytest.approx(1e308 * inverse(pair.psi, 1.0), rel=1e-8), spec
        assert got == pytest.approx(want, rel=1e-4), spec


def test_orlicz_norm_above_float_max_names_the_overflow():
    # 2.33e308 is no float: the gate would accept inf <= 2 N (1 + 1e-9) = inf
    with pytest.raises(NumericalFailureError, match="overflows"):
        orlicz_norm(pair_from_spec({"family": "exp_power", "p": 2}), FinSuppFn.delta(0, 1e308))
    # this used to escape as a raw "intermediate overflow in fsum"
    with pytest.raises(NumericalFailureError, match="overflows"):
        orlicz_norm(
            pair_from_spec({"family": "power", "p": 1.5}), FinSuppFn(1, {(0,): 1e308, (1,): 1e308})
        )


def test_norms_near_float_max_are_finite_or_raise():
    # the bracket end m / Phi^-1(1/6) of this f overflowed: its Luxemburg
    # norm read inf, and the Orlicz norm's gate refused [inf, inf]
    pair = pair_from_spec({"family": "power", "p": 1.0625})
    f = FinSuppFn(1, {(i,): v for i, v in enumerate([1.0, 1.0, 1.0, 1.0, 4e307, 4e307])})
    got = luxemburg_norm(pair.phi, f)
    assert got == math.ldexp(luxemburg_norm(pair.phi, f.scale(2.0**-64)), 64)
    assert got == pytest.approx(7.2544e307, rel=1e-4)
    assert orlicz_norm(pair, f) == pytest.approx(9.0732e307, rel=1e-4)
    # its Luxemburg norm 1.7e308 (3/p)^(1/p) is no float
    g = FinSuppFn(1, {(i,): 1.7e308 for i in range(3)})
    with pytest.raises(NumericalFailureError, match="overflows"):
        luxemburg_norm(pair.phi, g)
    with pytest.raises(NumericalFailureError, match="overflows"):
        orlicz_norm(pair, g)


# -- Luxemburg memo ------------------------------------------------------------------


def count_luxemburg_bodies(monkeypatch) -> list[int]:
    """Count the runs of the Luxemburg norm's body behind its memo."""
    calls = [0]
    counted = norms._luxemburg_norm

    def counting(phi, f):
        calls[0] += 1
        return counted(phi, f)

    monkeypatch.setattr(norms, "_luxemburg_norm", counting)
    return calls


def test_holder_check_takes_each_luxemburg_norm_once(monkeypatch, power_pair_15):
    calls = count_luxemburg_bodies(monkeypatch)
    for t in range(5):
        rng = seeded_rng(8, t)
        f = random_finsupp(1, 4, rng, max_support=6)
        g = random_finsupp(1, 4, rng, max_support=6)
        calls[0] = 0
        holder_check(power_pair_15, f, g)
        assert calls[0] == 2, t  # N_Phi(f) and N_Psi(g); 4 without the memo


def test_norm_sandwich_takes_one_luxemburg_norm_per_sample(monkeypatch, power_pair_15):
    calls = count_luxemburg_bodies(monkeypatch)
    norm_sandwich_margin(power_pair_15)
    assert calls[0] == 50  # 100 without the memo


def test_luxemburg_memo_leaves_equality_and_repr(power_pair_15):
    f = FinSuppFn(1, {(0,): 1.0, (3,): -2.5j})
    g = FinSuppFn(1, {(0,): 1.0, (3,): -2.5j})
    before = repr(g)
    norm = luxemburg_norm(power_pair_15.phi, f)
    assert f == g and repr(f) == repr(g) == before
    assert luxemburg_norm(power_pair_15.phi, g) == norm


def test_luxemburg_norm_of_subnormals_is_positive():
    # the bracket end m / Psi^-1(1) used to underflow to 0, so the norm read
    # 0.0 after numpy's "divide by zero" warning
    psi = pair_from_spec({"family": "exp_power", "p": 2}).psi
    f = FinSuppFn(1, {(0,): 5e-324, (1,): 5e-324})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert luxemburg_norm(psi, f) > 0.0


# -- weighted ---------------------------------------------------------------------


def test_weighted_norm_trivial_weight_matches_unweighted(power_pair_15):
    one = polynomial_weight(0.0)
    for t in range(10):
        f = random_finsupp(1, 5, seeded_rng(5, t), max_support=8)
        assert weighted_norm(power_pair_15.phi, one, f) == pytest.approx(
            luxemburg_norm(power_pair_15.phi, f), rel=1e-12
        )


def test_weighted_norm_single_atom_with_polynomial_weight():
    # f = delta_3, weight (1+|x|)^1: the weighted function is 4*delta_3, so
    # the norm is 4 / inv(Phi)(1) = 2*sqrt(2) for Phi = x^2/2.
    p2 = young_from_spec({"family": "power", "p": 2})
    w = polynomial_weight(1.0)
    got = weighted_norm(p2, w, FinSuppFn.delta(3))
    assert got == pytest.approx(4.0 / math.sqrt(2.0), rel=1e-10)
    assert got == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-10)


def test_weighted_norm_monotone_in_magnitude(power_pair_15):
    w = polynomial_weight(0.7)
    phi = power_pair_15.phi
    for t in range(20):
        rng = seeded_rng(6, t)
        f = random_finsupp(1, 6, rng, max_support=10)
        # |g| >= |f| pointwise, same support plus one extra atom
        entries = {p: v * (1.0 + float(rng.uniform(0.0, 2.0))) for p, v in f}
        entries[(9,)] = entries.get((9,), 0) + 1.0
        g = FinSuppFn(1, entries)
        assert weighted_norm(phi, w, f) <= weighted_norm(phi, w, g) * (1 + 1e-12)


def test_weighted_l1_norm():
    w = polynomial_weight(1.0)
    f = FinSuppFn(1, {(0,): 1.0, (2,): -2.0})
    assert weighted_l1_norm(w, f) == pytest.approx(1.0 + 2.0 * 3.0, rel=1e-15)


# -- holder ------------------------------------------------------------------------


def test_holder_zero_input(power_pair_2):
    rep = holder_check(power_pair_2, FinSuppFn.zero(1), FinSuppFn.delta(0))
    assert rep.lhs == 0.0 and rep.ok


def test_holder_single_atoms(power_pair_2):
    rep = holder_check(power_pair_2, FinSuppFn.delta(0), FinSuppFn.delta(0))
    assert rep.lhs == pytest.approx(1.0, rel=1e-12)
    assert rep.rhs >= 1.0 - 1e-9
    assert rep.ok


def test_holder_property_suite(catalog_pairs):
    for pair in catalog_pairs:
        for t in range(100):
            rng = seeded_rng(7, t)
            f = random_finsupp(1, 4, rng, max_support=6)
            g = random_finsupp(1, 4, rng, max_support=6)
            rep = holder_check(pair, f, g)
            assert rep.ok, (pair.describe(), t, rep)
