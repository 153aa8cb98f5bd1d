from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import extreme_functions, inclusion_sqrt_pair, plain_bisect, scan_pool, seeded_rng
from orliczlat import norms, young
from orliczlat.algebra import conv_inclusion_check, pointwise_inclusion_check
from orliczlat.errors import ConjugateInfiniteError, InvalidInputError, NumericalFailureError
from orliczlat.finsupp import FinSuppFn
from orliczlat.norms import (
    holder_check,
    luxemburg_norm,
    modular,
    orlicz_norm,
    weighted_l1_norm,
    weighted_norm,
)
from orliczlat.sampling import random_finsupp, rng_for
from orliczlat.verify import BATTERY_SEED, norm_sandwich_margin, run_battery
from orliczlat.weights import polynomial_weight
from orliczlat.young import (
    ComplementaryPair,
    YoungFunction,
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


def test_modular_of_finite_terms_past_the_float_range_reads_inf():
    # each term 1.3e154^2 / 2 is finite and their sum is not: once a raw
    # OverflowError out of math.fsum, now inf as one overflowing term reads
    p2 = young_from_spec({"family": "power", "p": 2})
    f = FinSuppFn(1, {(0,): 1.3e154, (1,): 1.3e154, (2,): 1.3e154})
    assert math.isfinite(p2(1.3e154))
    assert modular(p2, f) == math.inf
    assert modular(p2, FinSuppFn(1, {(0,): 1e155})) == math.inf


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
            assert luxemburg_norm(phi, f.flip()) == got, phi.describe()
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
        _, hi = plain_bisect(lambda k: norms._modular(phi, mags / k) <= 1.0, lo, hi, 1e-13)
    return norms._unscaled(hi, e, phi)


def outcome(norm, phi, f) -> str:
    """The exact bits of the norm, or the name of the error it raised."""
    try:
        return norm(phi, f).hex()
    except Exception as exc:  # both paths must raise the same error
        return type(exc).__name__


def luxemburg_cases(catalog_pairs) -> list[tuple[list[YoungFunction], list[FinSuppFn]]]:
    """The closed-form and the numeric Phi of the Luxemburg pins, each with
    its pool: the scan pools plus the extremes."""
    transforms = [sqrt_transform(young_from_spec({"family": "power", "p": q})) for q in (2.0, 3.0)]
    closed = [pair.phi for pair in catalog_pairs] + transforms + [
        pair.psi for pair in catalog_pairs if pair.conjugation_mode != "numerical"
    ]
    numeric = [pair.psi for pair in catalog_pairs if pair.conjugation_mode == "numerical"]
    numeric += [numeric_conjugate(t) for t in transforms]
    extremes = extreme_functions()
    # numeric conjugates solve an optimiser per abscissa: smaller pools
    return [
        (closed, scan_pool(1, 16, 2, 101) + scan_pool(2, 4, 2, 101) + extremes),
        (numeric, scan_pool(1, 8, 1, 101) + scan_pool(2, 2, 1, 101) + extremes),
    ]


def test_luxemburg_bit_identical_to_plain_bisection(catalog_pairs):
    for phis, fs in luxemburg_cases(catalog_pairs):
        for phi in phis:
            for f in fs:
                want = outcome(plain_luxemburg, phi, f)
                assert outcome(luxemburg_norm, phi, f) == want, (phi.describe(), dict(f.entries))


def batch_outcome(phi: YoungFunction, fs: list[FinSuppFn]) -> list[str] | str:
    """The bits of each norm of one lockstep batch, or the name of the
    error the batch raised."""
    try:
        return [v.hex() for v in norms._luxemburg_norms(phi, [f.magnitudes() for f in fs])]
    except Exception as exc:
        return type(exc).__name__


def test_luxemburg_norms_batch_bit_identical_to_one_at_a_time(catalog_pairs):
    # the zero function, subnormal entries and a norm past the float range
    # join each pool; the extremes bring atoms, a constant support and
    # near-float-max entries
    extra = [
        FinSuppFn.zero(1),
        FinSuppFn(1, {(0,): 5e-324, (1,): 5e-324, (4,): 1e-310j}),
        FinSuppFn(1, {(i,): 1.7e308 for i in range(3)}),
    ]
    rng = seeded_rng(13)
    for phis, pool in luxemburg_cases(catalog_pairs):
        fs = pool + extra
        for phi in phis:
            want = [outcome(plain_luxemburg, phi, f) for f in fs]
            quiet = [i for i, w in enumerate(want) if w.startswith("0x")]
            # shuffled batches of 1 to 60, each longer one holding its first
            # f twice: first of the functions with a norm, then of all of them
            for indices in (quiet, range(len(fs))):
                order = rng.permutation(indices).tolist()
                while order:
                    size = int(rng.integers(1, 61))
                    batch, order = order[:size], order[size:]
                    batch += batch[:1] if size > 1 else []
                    got = batch_outcome(phi, [fs[i] for i in batch])
                    expected = [want[i] for i in batch]
                    names = {w for w in expected if not w.startswith("0x")}
                    if names:  # an error some f of the batch raises alone
                        assert got in names, (phi.describe(), got, names)
                    else:
                        assert got == expected, (phi.describe(), batch)


def test_fsums_sum_each_slice_exactly(catalog_pairs):
    # abscissae over 17 decades make a float sum of Phi drift from the
    # exact one, which the bisection would absorb unless a midpoint lay
    # within an ulp of the root; so each slice's sum is pinned to math.fsum
    xs = np.exp(seeded_rng(14).uniform(-20.0, 20.0, 1000))
    ends = list(range(25, 1001, 25))
    starts = [0, *ends[:-1]]
    numeric = next(p.psi for p in catalog_pairs if p.conjugation_mode == "numerical")
    for phi in (young_from_spec({"family": "power", "p": 1.5}), numeric):
        values = phi.values(xs)
        # the pin can fail: a plain float sum differs on some slice
        assert any(float(np.sum(values[a:b])) != math.fsum(values[a:b])
                   for a, b in zip(starts, ends)), phi.describe()
        got = [s.hex() for s in phi._fsums(xs, ends)]
        want = [math.fsum(phi.values(xs[a:b])).hex() for a, b in zip(starts, ends)]
        assert got == want, phi.describe()


def _wrapped_values(phi, xs):
    """Phi at each abscissa through ``YoungFunction.__call__``, one at a time."""
    return [phi(x) for x in xs]


def _wrapped_constraint(phi, mags, t):
    """The Orlicz constraint through ``YoungFunction.__call__`` and ``d``:
    each term u Phi'(u) - Phi(u), inf where Phi(u) is."""
    terms = []
    for a in mags:
        u = a / t
        fu = phi(u)
        terms.append(math.inf if math.isinf(fu) else u * phi.d(u) - fu)
    return math.fsum(terms)


def _overflowing_functions():
    """Scalar-only Phi whose values or derivatives overflow: cosh (sinh
    raises past 710), (cosh - 1)^2, a numeric conjugate, and a custom Phi
    whose derivative alone raises OverflowError on (709.8, 1e6] and whose
    value alone raises past 1e6, returning a numpy float where it does not."""
    def fn(x):
        if x > 1e6:
            raise OverflowError("value past the float range")
        return np.float64(x ** 3 / 3.0)

    def dfn(x):
        return math.exp(x) if 700.0 < x <= 1e6 else np.float64(x * x)

    return [
        young_from_spec({"family": "cosh", "p": 1}),
        young_from_spec({"family": "cosh", "p": 2}),
        pair_from_spec({"family": "exp_power", "p": 2}).psi,
        YoungFunction(fn=fn, derivative=dfn, label="numpy-valued"),
    ]


@pytest.mark.parametrize("phi", _overflowing_functions(), ids=YoungFunction.describe)
def test_scalar_loops_read_overflow_as_inf_per_term(phi):
    # values, _fsums and the Orlicz constraint call Phi and Phi' without
    # the per-value wrappers: each term is the wrapped one, Python floats
    # included, and one that overflows reads inf in its own term and slice
    assert phi.array_fn is None
    xs = [0.0, 1e-3, 0.5, 2.0, 30.0, 705.0, 800.0, 2e6, 1e103, 1e200, 1.7e308]
    got = phi.values(np.array(xs))
    want = _wrapped_values(phi, xs)
    assert [(type(v), v.hex()) for v in got] == [(float, v.hex()) for v in want]
    assert math.inf in got, phi.describe()
    lanes = [[0.5, 2.0], [2.0, 1.7e308, 1e-3], [30.0]]
    ends = list(itertools.accumulate(map(len, lanes)))
    sums = phi._fsums(np.array([x for lane in lanes for x in lane]), ends)
    assert [type(s) for s in sums] == [float] * 3
    assert [s.hex() for s in sums] == [math.fsum(_wrapped_values(phi, lane)).hex() for lane in lanes]
    assert sums[0] < math.inf and sums[1] == math.inf and sums[2] < math.inf
    f = FinSuppFn(1, {(0,): 1.0, (1,): 1.7e308})
    assert modular(phi, f) == math.inf
    for mags in ([0.5, 2.0, 30.0], [0.5, 705.0], [1.0, 800.0, 2e6], [1e103], [1e200, 1e300]):
        for t in (1e-3, 0.7, 1.0, 3.0):
            got = norms._dual_constraint(phi, mags, t)
            assert type(got) is float
            assert got.hex() == _wrapped_constraint(phi, mags, t).hex(), (phi.describe(), mags, t)


def test_scalar_loops_raise_as_the_wrappers_do():
    # a negative abscissa still raises from values, and an infinite numeric
    # conjugate from values, _fsums and the constraint alike
    cosh = young_from_spec({"family": "cosh", "p": 1})
    with pytest.raises(InvalidInputError, match="negative x=-0.001"):
        cosh.values([1.0, -1e-3])
    with pytest.raises(InvalidInputError, match="negative x=-0.001"):
        cosh.values(np.array([1.0, -1e-3]))
    # conj[x/2] is infinite past 1/2
    capped = numeric_conjugate(sqrt_transform(young_from_spec({"family": "power", "p": 2})))
    assert capped.values([0.25, 0.5]) == [0.0, 0.0]
    for evaluate in (
        lambda: capped.values([0.25, 1.0]),
        lambda: capped._fsums(np.array([0.25, 1.0, 0.5]), [1, 3]),
        lambda: norms._dual_constraint(capped, [0.25, 1.0], 1.0),
    ):
        with pytest.raises(ConjugateInfiniteError):
            evaluate()


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


# the most values a windowed root may ask for beyond a plain bisection's:
# F at hi, the secant steps and the two certification points, less the
# midpoints they spare (the structural worst, with 8 steps, is 11)
WINDOW_COST = 7


def count_lane_modulars(monkeypatch) -> list[int]:
    """Count the modular values the Luxemburg lanes receive: one per
    modular evaluation of a lane, whichever batch it runs in."""
    calls = [0]
    lane = norms._luxemburg_lane

    def counting(*args):
        search, answer = lane(*args), None
        while True:
            try:
                k = search.send(answer)
            except StopIteration as stop:
                return stop.value
            answer = yield k
            calls[0] += 1

    monkeypatch.setattr(norms, "_luxemburg_lane", counting)
    return calls


def test_luxemburg_modular_evaluation_count(monkeypatch):
    # the plain oracle calls norms._modular once per evaluation
    plain_calls = [0]
    counted = norms._modular

    def counting(phi, mags):
        plain_calls[0] += 1
        return counted(phi, mags)

    monkeypatch.setattr(norms, "_modular", counting)
    calls = count_lane_modulars(monkeypatch)
    phi = young_from_spec({"family": "power", "p": 1.5})
    pool = scan_pool(1, 48, 8, 101)
    windowed = 0
    for f in pool:
        plain_calls[0] = 0
        want = plain_luxemburg(phi, f)
        plain = plain_calls[0]
        calls[0] = 0
        assert luxemburg_norm(phi, f) == want
        assert calls[0] <= plain + WINDOW_COST, (plain, calls[0], len(f))
        windowed += calls[0]
    # 35.4 per call with no window; 11.71 with a window of 1e-10 for every
    # Phi, 3.81 with one sized to the power modular's rounding
    assert windowed / len(pool) <= 4.25, windowed / len(pool)


def test_luxemburg_modular_evaluation_count_of_a_numeric_phi(monkeypatch):
    # a numeric conjugate of the catalog has a margin sized to its rounding:
    # its lanes receive 458 modular values, 1,049 with the margin MARGIN
    calls = count_lane_modulars(monkeypatch)
    psi = pair_from_spec({"family": "cosh", "p": 2.0}).psi
    assert psi.label.startswith("conj[")
    for f in scan_pool(1, 48, 8, 101):
        luxemburg_norm(psi, f)
    assert calls[0] == 458


def test_luxemburg_atom_evaluates_no_modular(monkeypatch):
    # the bracket of a one-entry support is [lo, lo]: a numeric conjugate
    # would pay an optimiser solve for a modular value that decides nothing
    calls = count_lane_modulars(monkeypatch)
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

    hi = expand(lambda t: constraint(t) <= 1.0, max(max(mags), 1e-300), 2.0)
    if hi in (None, math.inf):
        raise NumericalFailureError("dual multiplier bracket failed to expand")
    lo = expand(lambda t: t == 0.0 or constraint(t) >= 1.0, hi * 0.5, 0.5)
    if lo == 0.0:
        raise NumericalFailureError("dual multiplier bracket failed to shrink")
    _, hi = plain_bisect(lambda t: constraint(t) <= 1.0, lo, hi, 1e-13)
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
    # a median of 46 with no window, 20 with the margin MARGIN for every Phi,
    # 11 with the margins sized to each constraint's rounding
    assert statistics.median(used) <= 11, statistics.median(used)


def recorder(search, log: list):
    """``search`` with each call logged as (its arguments bound to its
    signature, [(k, F(k)) asked for])."""
    signature = inspect.signature(search)

    def recording(*args, **kwargs):
        steps, answer, asked = search(*args, **kwargs), None, []
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        log.append((bound.arguments, asked))
        while True:
            try:
                k = steps.send(answer)
            except StopIteration as stop:
                return stop.value
            answer = yield k
            asked.append((k, answer))

    return recording


def test_battery_roots_certify_both_sides(monkeypatch):
    # every windowed root of the catalog battery and of the inclusion scans
    # on power(1.5) (Luxemburg norms under T = sqrt[x^3/3] and its numeric
    # conjugate), Luxemburg, Orlicz and inverse, certifies both sides: F
    # clears the target by margin on the far side at est (1 - 10 margin)
    # and at est (1 + 10 margin), for the estimate est its secant or Newton
    # steps reached. With at most 4 secant steps e^{x^2} - 1's estimates
    # stayed about 2e-9 off and 125 of its 189 roots bisected one side in
    # full (30 to 45 values). The pairs are built here, so that no inverse
    # is memoised from elsewhere.
    windows = []  # (arguments, [(k, F(k)) asked for]) of each root, and group tags
    multiplier = norms._multiplier
    certify = recorder(young._windowed_root, windows)
    monkeypatch.setattr(young, "_windowed_root", certify)
    monkeypatch.setattr(norms, "_windowed_root", certify)

    def flagged(phi, *args):
        # the multiplier's root, tagged with its Phi
        windows.append(phi.describe())
        try:
            return multiplier(phi, *args)
        finally:
            windows.append(None)

    monkeypatch.setattr(norms, "_multiplier", flagged)
    run_battery([pair_from_spec(spec) for spec in young._CATALOG_SPECS])
    windows.append("scan")
    for check in (conv_inclusion_check, pointwise_inclusion_check):
        check(pair_from_spec({"family": "power", "p": 1.5}), radius=16, trials=8, seed=7)
    sqrt_margins = {young._modular_margin(t, 2) for t in inclusion_sqrt_pair()}
    counts: dict[str, list[int]] = {}  # values asked per root, per group
    group = "luxemburg"
    for entry in windows:
        if not isinstance(entry, tuple):
            group = entry or "luxemburg"
            continue
        args, asked = entry
        margin, target = args["margin"], args["target"]
        ests = {args["lo"], args["hi"], args["est"]} - {None} | {k for k, _ in asked}
        ends = [
            (f_b, f_a) if args["rises"] else (f_a, f_b)
            for (a, f_a), (b, f_b) in zip(asked, asked[1:])
            if any((a, b) == (e * (1.0 - 10.0 * margin), e * (1.0 + 10.0 * margin)) for e in ests)
        ]
        assert any(
            f_a > target * (1.0 + margin) and f_b < target * (1.0 - margin) for f_a, f_b in ends
        ), (group, args, asked)
        assert len(asked) <= 15, (group, args, len(asked))
        if args["rises"]:
            counts.setdefault("inverse", []).append(len(asked))
        elif group != "scan" or margin in sqrt_margins:
            counts.setdefault(group, []).append(len(asked))
    orlicz = [n for g, ns in counts.items() if g not in ("luxemburg", "scan", "inverse")
              for n in ns]
    assert (len(counts["luxemburg"]), len(orlicz), len(counts["scan"])) == (890, 1000, 60)
    assert len(counts["inverse"]) == 826, len(counts["inverse"])
    # 8.16 and 8.88 values per root; 15.86 and 20.32 with the margin MARGIN
    # for every Phi but x^p/p and at most 4 secant steps, and 9.53 (Orlicz)
    # with MARGIN for the three numeric conjugates' constraints below
    assert statistics.mean(counts["luxemburg"]) <= 8.2, statistics.mean(counts["luxemburg"])
    assert statistics.mean(orlicz) <= 8.9, statistics.mean(orlicz)
    # 10.7 to 11.3 values per root; 18.4 to 19.2 with MARGIN
    for psi in ("conj[cosh(p=2)]", "conj[exp_taylor(p=2)]", "conj[exp_power(p=2)]"):
        assert statistics.mean(counts[psi]) <= 12, (psi, statistics.mean(counts[psi]))
    # 5.33 values per root; 16.0 with MARGIN
    assert statistics.mean(counts["scan"]) <= 8, statistics.mean(counts["scan"])


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
    """Count the supports the Luxemburg norm's body measures behind its memo."""
    calls = [0]
    counted = norms._luxemburg_norms

    def counting(phi, mags_list):
        calls[0] += len(mags_list)
        return counted(phi, mags_list)

    monkeypatch.setattr(norms, "_luxemburg_norms", counting)
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


@pytest.mark.parametrize("entries", [
    {(0,): 1e308, (1,): 1e308},  # fsum's partial sums overflow
    {(5,): 1e308},  # the one term is inf
])
def test_weighted_l1_norm_past_the_float_range_raises(entries):
    w = polynomial_weight(0.7)
    with pytest.raises(NumericalFailureError, match="weighted L1 norm overflows the float range"):
        weighted_l1_norm(w, FinSuppFn(1, entries))


# -- holder ------------------------------------------------------------------------


def test_holder_zero_input(power_pair_2):
    rep = holder_check(power_pair_2, FinSuppFn.zero(1), FinSuppFn.delta(0))
    assert rep.lhs == 0.0 and rep.ok


def test_holder_single_atoms(power_pair_2):
    rep = holder_check(power_pair_2, FinSuppFn.delta(0), FinSuppFn.delta(0))
    assert rep.lhs == pytest.approx(1.0, rel=1e-12)
    assert rep.rhs >= 1.0 - 1e-9
    assert rep.ok


@pytest.mark.parametrize("f, g", [
    # abs(complex) of the product raised a raw OverflowError
    (FinSuppFn.delta(0, 1.5e308 + 1.5e308j), FinSuppFn.delta(0)),
    # fsum of the magnitudes raised "intermediate overflow in fsum"
    (FinSuppFn(1, {(0,): 1e308, (1,): 1e308}), FinSuppFn.indicator([0, 1])),
])
def test_holder_lhs_past_the_float_range_raises(power_pair_2, f, g):
    with pytest.raises(NumericalFailureError, match=r"Hölder sum \|fg\| overflows"):
        holder_check(power_pair_2, f, g)


def test_holder_property_suite(catalog_pairs):
    for pair in catalog_pairs:
        for t in range(100):
            rng = seeded_rng(7, t)
            f = random_finsupp(1, 4, rng, max_support=6)
            g = random_finsupp(1, 4, rng, max_support=6)
            rep = holder_check(pair, f, g)
            assert rep.ok, (pair.describe(), t, rep)
