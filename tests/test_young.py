from __future__ import annotations

import dataclasses
import math
import statistics

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import inclusion_sqrt_pair, inverse_targets, plain_bisect
from orliczlat import young
from orliczlat.errors import (
    ConjugateInfiniteError,
    ConvexityError,
    InvalidInputError,
)
from orliczlat.verify import run_battery
from orliczlat.young import (
    YoungFunction,
    catalog,
    catalog_ids,
    conjugate,
    conjugate_with_argmax,
    default_grid,
    find_strong_equiv_constants,
    from_density,
    inverse,
    make_pair,
    numeric_conjugate,
    pair_from_spec,
    sqrt_transform,
    young_from_spec,
)


def scalar_bisection_inverse(fn, y, *, halvings=200, rtol=1e-15):
    """Independent bracket-and-halve solve of fn(x) = y, written out here so
    the package's shared bisection is pinned against it bit for bit."""
    hi = 1.0
    while fn(hi) < y:
        hi *= 2.0
    lo = 0.0
    for _ in range(halvings):
        if hi - lo <= rtol * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if fn(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_conjugate(phi, y, x_hi, n=200_001):
    """Independent oracle: max of x*y - phi(x) over a dense grid."""
    xs = np.linspace(0.0, x_hi, n)
    return max(float(x) * y - phi(float(x)) for x in xs)


# -- conjugate ---------------------------------------------------------------


def test_conjugate_power_closed_form():
    phi = young_from_spec({"family": "power", "p": 2})
    assert conjugate(phi, 3.0) == pytest.approx(4.5, rel=1e-8)


def test_conjugate_at_zero_is_zero(catalog_pairs):
    for pair in catalog_pairs:
        assert conjugate(pair.phi, 0.0) == 0.0


def test_conjugate_entropy_against_brute_force_and_closed_form():
    phi = young_from_spec({"family": "entropy"})
    oracle = brute_conjugate(phi, 1.0, 10.0)
    expected = math.e - 2.0
    assert oracle == pytest.approx(expected, rel=1e-6)
    assert conjugate(phi, 1.0) == pytest.approx(expected, rel=1e-8)
    # closed form e^y - y - 1 on a few more points
    for y in (0.25, 1.5, 3.0):
        assert conjugate(phi, y) == pytest.approx(math.exp(y) - y - 1.0, rel=1e-8)


def test_conjugate_matches_refined_grid_on_catalog(catalog_pairs):
    for pair in catalog_pairs[:5]:
        phi = pair.phi
        for y in (0.5, 2.0, 7.0):
            v = conjugate(phi, y)
            # refine around the reported maximiser
            from orliczlat.young import conjugate_with_argmax

            _, xstar = conjugate_with_argmax(phi, y)
            hi = max(2.0 * xstar, 1.0)
            oracle = brute_conjugate(phi, y, hi)
            assert v == pytest.approx(oracle, rel=1e-8, abs=1e-12)


def test_conjugate_infinite_for_linear_growth():
    lin = YoungFunction(fn=lambda x: x, derivative=lambda x: 1.0, label="linear")
    with pytest.raises(ConjugateInfiniteError):
        conjugate(lin, 2.0)
    # below the asymptotic slope the sup is finite (and 0 for exactly-linear)
    assert conjugate(lin, 0.5) == 0.0
    assert conjugate(lin, 1.0) == 0.0


@given(
    index=st.integers(0, len(catalog()) - 1),
    log_y=st.floats(-3.0, 1.3, allow_nan=False),
)
def test_conjugate_maximiser_is_the_root_of_the_derivative(index, log_y):
    # Phi' crosses y within a few ulps of the returned maximiser (8 ulps
    # covers the rounding of the closed-form derivatives)
    phi = catalog()[index].phi
    y = 10.0 ** log_y
    value, x = conjugate_with_argmax(phi, y)
    step = 8 * math.ulp(x)
    assert phi.d(x - step) <= y <= phi.d(x + step), (phi.describe(), y, x)
    assert value == max(0.0, x * y - phi(x))


_EXP_POWER_2 = young_from_spec({"family": "exp_power", "p": 2})


@pytest.mark.parametrize(
    "fn, dfn, y, argmax",
    [
        # about 1000 halvings below the upper bracket end 1
        (_EXP_POWER_2.fn, _EXP_POWER_2.derivative, 1e-300, 5e-301),
        # Phi'(0+) >= y: halves from the upper bracket end 1 down to 0
        (lambda x: x, lambda x: 1.0, 1.0, 0.0),
    ],
)
def test_conjugate_far_below_the_bracket_costs_few_evaluations(fn, dfn, y, argmax):
    # the galloping bracket search reaches a maximiser a thousand halvings
    # or more below the upper bracket end in O(log) evaluations
    calls = []

    def counted(f):
        return lambda x: calls.append(x) or f(x)

    phi = YoungFunction(fn=counted(fn), derivative=counted(dfn))
    value, x = conjugate_with_argmax(phi, y)
    assert (value, x) == conjugate_with_argmax(YoungFunction(fn=fn, derivative=dfn), y)
    assert x == pytest.approx(argmax, rel=1e-15, abs=0.0)
    assert len(calls) < 100, len(calls)


@pytest.mark.parametrize(
    "spec, swap, y",
    [
        ({"family": "power", "p": 2}, False, 1e12),
        ({"family": "power", "p": 1.5}, False, 1e6),
        ({"family": "power", "p": 1.3}, False, 3727.6),
        # the conjugate of Psi = conj[square_log] is Phi, attained at 9.3e11
        ({"family": "square_log", "p": 1}, True, 1.93e10),
    ],
)
def test_conjugate_finite_with_its_maximiser_near_the_cap(spec, swap, y):
    # sup{x*y - Phi(x)} = Psi(y) is attained at x = Psi'(y), about 1e12
    # here, so it is finite although the objective climbs that far
    pair = pair_from_spec(spec, validate=False)
    if swap:
        pair = pair.swap()
    value, x = conjugate_with_argmax(pair.phi, y)
    assert x <= 1e12
    assert x == pytest.approx(pair.psi.d(y), rel=1e-12)
    assert value == pytest.approx(pair.psi(y), rel=1e-12)


def plain_conjugate(phi, y):
    """The conjugate as its chord-slope bracket found it, written out here so
    the galloping bracket search is pinned against it bit for bit.

    x doubles from 1 until the chord slope Phi(x)/x exceeds y (the sup is
    infinite if it never does below inf), then halves one octave at a time
    until Phi' < y; that octave goes to the package's root finder. The sup
    is infinite too where x*y - Phi(x) is inf - inf."""
    if y == 0.0:
        return 0.0, 0.0
    top = 1.0
    while not phi(top) / top > y:  # inf / inf is NaN
        if top == math.inf:
            raise ConjugateInfiniteError(y)
        top *= 2.0
    k, lo = 1, 0.5 * top
    while lo > 0.0 and phi.d(lo) >= y:
        k += 1
        lo = math.ldexp(top, -k)
    x = 0.0
    if lo > 0.0:
        x = young._derivative_root(phi.derivative, y, lo)
    value = x * y - phi(x)
    if value != value:
        raise ConjugateInfiniteError(y)
    return max(0.0, value), x


def _bits(phi, y):
    """(value, maximiser) of both solvers as hex, or None where the sup is
    infinite, which must then be the chord-slope bracket's verdict too."""
    try:
        got = conjugate_with_argmax(phi, y)
    except ConjugateInfiniteError:
        with pytest.raises(ConjugateInfiniteError):
            plain_conjugate(phi, y)
        return None
    return [v.hex() for v in got], [v.hex() for v in plain_conjugate(phi, y)]


def _oracle_functions() -> list[YoungFunction]:
    """Every catalog Phi and Psi once, four more powers and two sqrt transforms."""
    members = {f.describe(): f for pair in catalog() for f in (pair.phi, pair.psi)}
    for p in (1.0625, 1.3, 7, 30):
        members.setdefault(f"power(p={p:g})", young_from_spec({"family": "power", "p": p}))
    return list(members.values()) + [
        sqrt_transform(young_from_spec({"family": "power", "p": q})) for q in (2, 3)
    ]


@pytest.mark.parametrize("phi", _oracle_functions(), ids=YoungFunction.describe)
def test_conjugate_bit_identical_to_the_chord_slope_bracket(phi):
    ys = [0.0] + [10.0 ** (k / 7) for k in range(-2100, 85)]
    compared = 0
    for y in ys:
        pair = _bits(phi, y)
        if pair is not None:
            assert pair[0] == pair[1], (phi.describe(), y)
            compared += 1
    assert compared >= 2000


@pytest.mark.parametrize("phi", _oracle_functions(), ids=YoungFunction.describe)
def test_conjugate_is_finite_or_raises_over_the_whole_float_range(phi):
    # a finite maximiser and value, or the sup reported infinite: never NaN,
    # never the 0.0 that max(0, inf - inf) reads, and inf only where x*y
    # alone passes the float range, as an overflowing Phi reads inf
    for y in np.geomspace(5e-324, 1.7e308, 12).tolist():
        try:
            value, x = conjugate_with_argmax(phi, y)
        except ConjugateInfiniteError:
            continue
        diff = x * y - phi(x)
        assert math.isfinite(x) and (value < math.inf or x * y == math.inf), (phi.describe(), y)
        assert diff == diff and value == max(0.0, diff), (phi.describe(), y)


def test_square_log_conjugate_raises_where_its_difference_overflows():
    # the maximiser of x*1e200 - x^2 ln(1+x) is about 1.1e197, where both
    # terms pass the float range: inf - inf is reported, not read as 0.0
    psi = pair_from_spec({"family": "square_log", "p": 1}).psi
    with pytest.raises(ConjugateInfiniteError):
        psi(1e200)


# on a cold table the octave is [2**-7, 2**-6] while the upward search
# stops at 1: the root finder must get Phi' at the octave's two ends
@example(p=1.5, log_y=-1.0)
@given(
    p=st.floats(1.01, 40.0, allow_nan=False),
    log_y=st.floats(-300.0, 300.0, allow_nan=False),
)
def test_power_conjugate_bit_identical_to_the_chord_slope_bracket(p, log_y):
    pair = _bits(young_from_spec({"family": "power", "p": p}), 10.0 ** log_y)
    if pair is not None:
        assert pair[0] == pair[1]


def fn_reaches(fn, x, y):
    """fn(x) >= y, an overflow, a NaN and an infinite numeric conjugate
    reaching every y."""
    try:
        return not fn(x) < y
    except (OverflowError, ConjugateInfiniteError):
        return True


def expand_conjugate(phi, y):
    """The conjugate with its octave found by the two galloping bracket
    searches from 1, written out here so that the octave table is pinned
    against them bit for bit: ``young.expand`` doubles x from 1 until
    Phi'(x) >= y, then halves from half that end until Phi' < y; the octave
    goes to the package's root finder, which evaluates both its ends
    itself."""
    if y == 0.0:
        return 0.0, 0.0
    dphi = phi.derivative
    hi = young.expand(lambda x: fn_reaches(dphi, x, y), 1.0, 2.0)
    if hi in (None, math.inf):
        raise ConjugateInfiniteError(y)
    lo = young.expand(lambda x: x == 0.0 or not fn_reaches(dphi, x, y), 0.5 * hi, 0.5)
    x = young._derivative_root(dphi, y, lo) if lo > 0.0 else 0.0
    value = x * y - phi(x)
    if value != value:
        raise ConjugateInfiniteError(y)
    return max(0.0, value), x


def _solved(solve, phi, y):
    """(value, maximiser) as hex with their types, or None where the sup is infinite."""
    try:
        got = solve(phi, y)
    except ConjugateInfiniteError:
        return None
    return [(type(v), v.hex()) for v in got]


def _octave_functions() -> list[YoungFunction]:
    """Every catalog Phi and Psi once, both sqrt transforms and their
    numeric conjugates, and a Phi built from a density."""
    members = {f.describe(): f for pair in catalog() for f in (pair.phi, pair.psi)}
    transforms = [sqrt_transform(young_from_spec({"family": "power", "p": q})) for q in (2, 3)]
    density = from_density(lambda t: t * t, validate=False).phi
    return [*members.values(), *transforms, *map(numeric_conjugate, transforms), density]


def _derivative_or_inf(phi, e):
    """Phi'(2**e), inf where it overflows or the conjugate is infinite."""
    try:
        return float(phi.derivative(math.ldexp(1.0, e)))
    except (OverflowError, ConjugateInfiniteError):
        return math.inf


# y from the least subnormal to near the largest float, a third of a decade apart
_OCTAVE_YS = [5e-324, *(10.0 ** (k / 3) for k in range(-969, 925)), 1.7e308]


# quad warns where the density's Phi passes the float range; both solvers
# read the same value there
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("phi", _octave_functions(), ids=YoungFunction.describe)
def test_conjugate_octave_table_bit_identical_to_the_expand_bracket(phi):
    # the table's state depends on the solves before: each order of the
    # same queries starts from a fresh copy of phi, with an empty table
    want = {y: _solved(expand_conjugate, phi, y) for y in _OCTAVE_YS}
    shuffled = _OCTAVE_YS.copy()
    np.random.default_rng(34).shuffle(shuffled)
    for ys in (_OCTAVE_YS, _OCTAVE_YS[::-1], shuffled):
        fresh = dataclasses.replace(phi)
        for y in ys:
            assert _solved(conjugate_with_argmax, fresh, y) == want[y], (phi.describe(), y)
        table = fresh._octaves
        assert table.ordered, phi.describe()
        # exponents strictly ascending, each value Phi'(2**e) read again
        assert all(a < b for a, b in zip(table.exps, table.exps[1:])), phi.describe()
        assert table.vals == [_derivative_or_inf(fresh, e) for e in table.exps], phi.describe()
    finite = [y for y in _OCTAVE_YS if want[y] is not None]
    assert all(t is float for y in finite for t, _ in want[y])
    # conj[x/2] is 0 up to 1/2 and infinite past it, where its Phi' raises:
    # every octave's upper end raises, so each sup reads infinite
    assert len(finite) >= 300 or phi.describe() == "conj[sqrt[power(p=2)]]", len(finite)


def test_constant_slope_conjugate_is_zero_up_to_its_slope_and_infinite_past_it():
    # sqrt[x^2/2] = x/2: Phi' reaches y <= 1/2 already at 2**-1074, so the
    # maximiser is 0, and y > 1/2 not yet at 2**1023, so the sup is infinite
    phi = sqrt_transform(young_from_spec({"family": "power", "p": 2}))
    for y in (5e-324, 0.25, 0.5):
        assert conjugate_with_argmax(phi, y) == expand_conjugate(phi, y) == (0.0, 0.0)
    for y in (0.5000000000000001, 1.0, 1e300):
        with pytest.raises(ConjugateInfiniteError):
            conjugate_with_argmax(phi, y)
    assert phi._octaves.ordered


@pytest.mark.parametrize("bad", [0.1, math.nan], ids=["dip", "nan"])
def test_derivative_out_of_order_at_the_powers_of_two_gives_the_expand_answer(bad):
    # Phi'(4) reads below Phi'(2) (or NaN): the first solve whose search
    # evaluates it finds the order broken, and every solve, in any order,
    # is the one the two searches from 1 find
    def dphi(x):
        return bad if x == 4.0 else x

    phi = YoungFunction(fn=lambda x: 0.5 * x * x, derivative=dphi, label="out-of-order")
    ys = [0.3, 1.5, 3.0, 5.0, 7.5, 1e3, 0.7, 2.5]
    want = {y: _solved(expand_conjugate, phi, y) for y in ys}
    for order in (ys, sorted(ys), sorted(ys, reverse=True)):
        fresh = dataclasses.replace(phi)
        assert [_solved(conjugate_with_argmax, fresh, y) for y in order] == [want[y] for y in order]
        assert not fresh._octaves.ordered
    if bad == 0.1:
        # at y = 3 the octave expand finds is [4, 8], past the dip, where
        # the root of x = 3 in [2, 4] is 3
        assert float.fromhex(want[3.0][1][1]) >= 4.0


def test_conjugate_infinite_past_the_octave_table_propagates():
    # Psi' of Phi = x^1.5/1.5 is x^2 below 2**512 and raises from there: the
    # table keeps inf at those powers of two, and the root finder evaluates
    # the octave's upper end again, so the error of the numeric Psi'
    # surfaces where Psi' first reaches y at 2**512
    psi = make_pair(
        YoungFunction(fn=lambda x: x ** 1.5 / 1.5, derivative=math.sqrt), validate=False
    ).psi
    for y in (1e4, 1e160, 1e300, 1e308):
        assert _solved(conjugate_with_argmax, psi, y) == _solved(expand_conjugate, psi, y), y
    with pytest.raises(ConjugateInfiniteError):
        conjugate_with_argmax(psi, 1e308)
    assert math.inf in psi._octaves.vals and psi._octaves.ordered


def test_conjugate_solves_ask_few_derivative_values(monkeypatch):
    # Phi' values asked inside the solves of the numeric conjugates that
    # run_battery makes, on fresh copies of the four numerically conjugated
    # catalog Phi, whose octave tables start empty: 6.66 per solve, 11.70
    # when each solve galloped its octave from 1 with expand
    solve = young.conjugate_with_argmax
    tallies: dict[int, list[int]] = {}  # id(phi) -> [solves, values of Phi']
    active: list[list[int] | None] = []

    def counting_solve(phi, y):
        tally = tallies.get(id(phi))
        if tally is not None:
            tally[0] += 1
        active.append(tally)
        try:
            return solve(phi, y)
        finally:
            active.pop()

    def counted(phi):
        def dphi(x):
            if active and active[-1] is tally:
                tally[1] += 1
            return phi.derivative(x)

        tally = [0, 0]
        fresh = dataclasses.replace(phi, derivative=dphi)
        tallies[id(fresh)] = tally
        return fresh

    monkeypatch.setattr(young, "conjugate_with_argmax", counting_solve)
    numeric = [pair.phi for pair in catalog() if pair.conjugation_mode == "numerical"]
    assert len(numeric) == 4
    run_battery([make_pair(counted(phi), validate=False) for phi in numeric])
    solves = sum(s for s, _ in tallies.values())
    values = sum(v for _, v in tallies.values())
    assert solves > 8000, solves
    assert values / solves <= 8.5, values / solves


def linear_expand(pred, start, factor):
    """The bracket search as a plain loop over start * factor**k, k = 0, 1,
    ..., up to the first point off the positive floats (inf or 0.0)."""
    x = start
    while not pred(x):
        if x in (0.0, math.inf):
            return None
        x *= factor
    return x


@example(k0=1100, factor=2.0, exponent=0, mantissa=1.5)  # reads inf
@example(k0=600, factor=2.0, exponent=0, mantissa=1.5)  # 2**1024 unread
@example(k0=1100, factor=0.5, exponent=0, mantissa=1.0)  # reads 0
@example(k0=1074, factor=0.5, exponent=0, mantissa=1.0)  # 2**-1074, 0 unread
@given(
    k0=st.integers(0, 1200),
    factor=st.sampled_from([2.0, 0.5]),
    exponent=st.integers(-60, 60),
    mantissa=st.floats(1.0, 2.0, exclude_max=True),
)
def test_expand_gallops_to_the_linear_result(k0, factor, exponent, mantissa):
    # a halving into the subnormals rounds at every step of the loop but
    # once in ldexp, so halvings start from a power of two
    start = math.ldexp(mantissa if factor == 2.0 else 1.0, exponent)
    threshold = start
    for _ in range(k0):
        threshold *= factor  # inf or 0 once past the float range

    def pred(x):
        calls.append(x)
        return x >= threshold if factor == 2.0 else x <= threshold

    calls = []
    got = young.expand(pred, start, factor)
    gallop, calls = calls, []
    assert len(gallop) <= 2 * (k0 + 1).bit_length() + 1
    assert got == linear_expand(pred, start, factor) == threshold
    # it looks past the positive floats only where the loop does
    for end in (math.inf, 0.0):
        assert end not in gallop or end in calls


def test_expand_stops_once_past_the_float_range():
    # every later point is inf (or 0.0) too, where pred has already failed
    for factor, end in ((2.0, math.inf), (0.5, 0.0)):
        calls = []
        assert young.expand(lambda x: calls.append(x) or False, 1.0, factor) is None
        assert calls[-1] == end and len(calls) < 30


def test_expand_halves_through_the_subnormals_to_zero():
    # each point is ldexp(start, -k), rounded once: from a start that is not
    # a power of two, 2**-1074 comes one count later than from a power of two
    for start in (1.0, 1.25, 1.5, 1.75, 2.0 - 2.0 ** -52):
        points = [math.ldexp(start, -k) for k in range(1080)]
        for target in (5e-324, 0.0):
            want = next(x for x in points if x <= target)
            assert young.expand(lambda x: x <= target, start, 0.5) == want, (start, target)


def test_conjugate_of_a_numeric_conjugate_past_its_cap():
    # Psi' of Phi = x^1.5/1.5 is x^2 below 2**512 and infinite from there,
    # where the galloping search looks past the octave of y = 1e160
    psi = make_pair(
        YoungFunction(fn=lambda x: x ** 1.5 / 1.5, derivative=math.sqrt), validate=False
    ).psi
    for y in (1e4, 1e8, 1e10, 1e160):
        assert conjugate_with_argmax(psi, y) == plain_conjugate(psi, y), y
    # finite here, where the chord-slope bracket met Psi past its cap
    value, x = conjugate_with_argmax(psi, 1e11)
    assert x == pytest.approx(math.sqrt(1e11), rel=1e-12)
    assert value == pytest.approx(1e11 ** 1.5 / 1.5, rel=1e-12)


def test_numeric_conjugate_remembers_where_it_raised():
    # Psi' of the numeric Psi of (cosh x - 1)^2 grows like log y, so the
    # conjugate of Psi at 400 is infinite, found where Psi'(inf) raises;
    # no later solve goes back to a point that raised
    phi = young_from_spec({"family": "cosh", "p": 2.0})
    calls = []
    psi = numeric_conjugate(YoungFunction(
        fn=phi.fn, derivative=lambda x: calls.append(x) or phi.derivative(x)))
    counts = []
    for z in (400.0, 400.0, 500.0, 450.0):
        calls.clear()
        with pytest.raises(ConjugateInfiniteError):
            conjugate_with_argmax(psi, z)
        counts.append(len(calls))
    assert counts[0] > 0 and counts[1:] == [0, 0, 0]
    # each call raises an error of its own, so tracebacks do not pile up
    errors = []
    for _ in range(2):
        with pytest.raises(ConjugateInfiniteError) as err:
            psi.d(math.inf)
        errors.append(err.value)
    assert not calls and errors[0] is not errors[1]
    assert [e.y for e in errors] == [math.inf, math.inf]


def test_conjugate_evaluates_phi_once_per_solve(catalog_pairs):
    for pair in catalog_pairs:
        for f in (pair.phi, pair.psi):
            calls = []
            counted = YoungFunction(
                fn=lambda x, fn=f.fn: calls.append(x) or fn(x), derivative=f.derivative
            )
            for y in (1e-3, 0.5, 2.0):
                calls.clear()
                assert conjugate_with_argmax(counted, y) == conjugate_with_argmax(f, y)
                assert len(calls) == 1, (f.describe(), y)


def test_conjugate_negative_argument_rejected():
    phi = young_from_spec({"family": "power", "p": 2})
    with pytest.raises(InvalidInputError):
        conjugate(phi, -1.0)
    with pytest.raises(InvalidInputError):
        conjugate(phi, math.nan)


# -- make_pair ---------------------------------------------------------------


def test_make_pair_power_p3():
    pair = make_pair(young_from_spec({"family": "power", "p": 3}))
    assert pair.conjugation_mode == "closed_form"
    q = 1.5
    for y in (0.5, 1.0, 4.0):
        assert pair.psi(y) == pytest.approx(y ** q / q, rel=1e-12)


def test_make_pair_cosh_strongly_equivalent_to_x_log():
    pair = pair_from_spec({"family": "cosh", "p": 1})
    xlog = YoungFunction(
        fn=lambda x: x * math.log1p(x),
        derivative=lambda x: math.log1p(x) + x / (1.0 + x),
        label="xlog1p",
    )
    assert find_strong_equiv_constants(pair.psi, xlog) is not None


def test_make_pair_entropy_closed_form():
    pair = pair_from_spec({"family": "entropy"})
    assert pair.conjugation_mode == "closed_form"
    for y in (0.1, 1.0, 5.0):
        assert pair.psi(y) == pytest.approx(math.exp(y) - y - 1.0, rel=1e-12)


def test_make_pair_rejects_invalid_young_function():
    bad = YoungFunction(fn=math.sqrt, derivative=lambda x: 0.5 / math.sqrt(x), label="concave")
    with pytest.raises(InvalidInputError):
        make_pair(bad)


# -- inverse -----------------------------------------------------------------


def test_inverse_examples():
    sq = YoungFunction(fn=lambda x: x * x, derivative=lambda x: 2 * x, label="square")
    assert inverse(sq, 4.0) == pytest.approx(2.0, rel=1e-12)
    p2 = young_from_spec({"family": "power", "p": 2})
    assert inverse(p2, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert inverse(p2, 0.0) == 0.0
    with pytest.raises(InvalidInputError):
        inverse(p2, -0.5)
    with pytest.raises(InvalidInputError):
        inverse(p2, math.nan)


def test_inverse_against_closed_form_grid():
    for p in (1.25, 1.5, 2.0, 3.0, 4.0):
        phi = young_from_spec({"family": "power", "p": p})
        for y in np.geomspace(1e-4, 1e3, 15):
            x = inverse(phi, float(y))
            assert x == pytest.approx((p * y) ** (1.0 / p), rel=1e-10)
            assert abs(phi(x) - y) <= 1e-10 * max(1.0, y)


def test_inverse_method_memoises_bit_identical_values():
    calls = []

    def square(x: float) -> float:
        calls.append(x)
        return x * x

    sq = YoungFunction(fn=square, derivative=lambda x: 2.0 * x, label="square")
    for y in (1.0, 1.0 / 7.0):
        expected = inverse(sq, y)
        calls.clear()
        assert sq.inverse(y) == expected
        assert calls
        calls.clear()
        assert sq.inverse(y) == expected
        assert not calls


def test_inverse_matches_scalar_bisection_bit_for_bit(catalog_pairs):
    # the windowed inverse against a plain bisection written out here, on
    # every catalog member and the inclusion scans' square-root pair
    members = [phi for pair in catalog_pairs for phi in (pair.phi, pair.psi)]
    for phi in members + inclusion_sqrt_pair():
        for y in inverse_targets(phi):
            got = inverse(phi, y)
            assert got == scalar_bisection_inverse(phi, y), (phi.describe(), y)
            assert phi.inverse(y) == got, (phi.describe(), y)


@pytest.mark.parametrize(
    "phi, y, expected",
    [
        # expand looks at 2**1024 = inf, where entropy reads inf - inf = NaN
        (young_from_spec({"family": "entropy"}), 1e200, 2.205556822529634e197),
        # and at 2**512, where cosh-conj reads inf / inf = NaN
        (young._cosh_conjugate(), 1e100, 4.4535968185917655e97),
        (young._cosh_conjugate(), 2e156, 5.654172806937875e153),
        # and at 2**64, where Psi = conj[square_log] is past its cap
        (pair_from_spec({"family": "square_log", "p": 1}, validate=False).psi,
         1e20, 92694965699.08096),
    ],
    ids=["entropy", "cosh-conj", "cosh-conj-top", "conj-square_log"],
)
def test_inverse_far_up_matches_the_doubling_bracket(phi, y, expected):
    assert inverse(phi, y) == scalar_bisection_inverse(phi, y) == expected


def counted(phi: YoungFunction) -> tuple[YoungFunction, list[int]]:
    """A copy of phi (``origin`` too, so the same margins) that counts the
    values of Phi asked of it."""
    calls, fn = [0], phi.fn

    def counting(x: float) -> float:
        calls[0] += 1
        return fn(x)

    return dataclasses.replace(phi, fn=counting), calls


def plain_inverse(phi: YoungFunction, y: float) -> float:
    """Oracle: the inverse with no window, the bracket search and every
    bisection midpoint deciding ``not Phi(x) < y``, then the residual."""
    def reaches(x: float) -> bool:
        return fn_reaches(phi.fn, x, y)

    lo, hi = plain_bisect(reaches, 0.0, young.expand(reaches, 1.0, 2.0), 1e-15, floor=1.0)
    x = 0.5 * (lo + hi)
    assert abs(phi(x) - y) <= 1e-10 * max(1.0, y)
    return x


# Newton's at most 8 values and the window's two
INVERSE_WINDOW_COST = 10


def test_inverse_evaluation_count(monkeypatch):
    # the inverses that run_battery asks for, on fresh pairs (the cached
    # catalog has memoised them): each the plain bisection's float, at no
    # more values of Phi than it plus the window's, and few on average
    pairs = [pair_from_spec(spec) for spec in young._CATALOG_SPECS]
    asked = []
    solve = young.inverse

    def recording(phi, y):
        asked.append((phi, y))
        return solve(phi, y)

    monkeypatch.setattr(young, "inverse", recording)
    run_battery(pairs)
    monkeypatch.undo()
    windowed = []
    for phi, y in asked:
        plain_phi, plain = counted(phi)
        want = plain_inverse(plain_phi, y)
        phi, calls = counted(phi)
        assert inverse(phi, y) == want, (phi.describe(), y)
        assert calls[0] <= plain[0] + INVERSE_WINDOW_COST, (phi.describe(), y, plain[0], calls[0])
        windowed.append(calls[0])
    # 12.48 values per inverse; 52.93 with no window
    assert len(windowed) == 410, len(windowed)
    assert statistics.mean(windowed) <= 13, statistics.mean(windowed)


# -- from_density ------------------------------------------------------------


def test_from_density_identity_density():
    pair = from_density(lambda y: y, label="id")
    for x in (0.5, 1.0, 3.0):
        assert pair.phi(x) == pytest.approx(x * x / 2.0, rel=1e-9)
        assert pair.psi(x) == pytest.approx(x * x / 2.0, rel=1e-9)


def test_from_density_power_density():
    pair = from_density(lambda y: y * y, label="square")
    for x in (0.5, 2.0, 5.0):
        assert pair.phi(x) == pytest.approx(x ** 3 / 3.0, rel=1e-8)


def test_from_density_exponential_density():
    pair = from_density(lambda y: math.expm1(y), label="expm1")
    for x in (0.25, 1.0, 3.0):
        assert pair.phi(x) == pytest.approx(math.exp(x) - x - 1.0, rel=1e-8)
        # conjugate of e^x - x - 1 is (1+y)ln(1+y) - y
        assert pair.psi(x) == pytest.approx((1 + x) * math.log1p(x) - x, rel=1e-8)


# (varphi, its inverse and the integral of its inverse, at 40 digits)
_DENSITY_ORACLES = [
    (
        lambda y: y ** 1.5,
        lambda t: t ** (mpmath.mpf(2) / 3),
        lambda t: mpmath.mpf(3) / 5 * t ** (mpmath.mpf(5) / 3),
    ),
    (math.sinh, mpmath.asinh, lambda t: t * mpmath.asinh(t) - mpmath.sqrt(1 + t * t) + 1),
]


def test_from_density_conjugate_matches_the_40_digit_inverse():
    # Psi' is the maximiser of the numeric conjugate: within 1.5 u of
    # varphi^{-1}; Psi within 1e-14 of its integral
    u = 2.0 ** -53
    with mpmath.workdps(40):
        for varphi, varphi_inv, integral in _DENSITY_ORACLES:
            pair = from_density(varphi, label="pin")
            for t in [1e-3, 0.5, 2.0, 40.0, *default_grid(41, 1e-3, 1e2)]:
                exact = varphi_inv(mpmath.mpf(t))
                assert abs(pair.psi.d(t) - exact) <= 1.5 * u * exact, t
                exact = integral(mpmath.mpf(t))
                assert abs(pair.psi(t) - exact) <= 1e-14 * exact, t


# the quadrature of Phi up to entropy's maximiser at 1e200 overflows, and
# scipy warns that it ran out of subdivisions
@pytest.mark.filterwarnings("ignore:The maximum number of subdivisions")
def test_from_density_inverse_far_up():
    # the octave search looks at 2**16, where expm1 overflows: that counts as reached
    expm1 = from_density(math.expm1, label="expm1", validate=False)
    with mpmath.workdps(40):
        assert expm1.psi.d(1e112) == float(mpmath.log1p(mpmath.mpf(1e112)))
    assert expm1.psi.d(1e300) == pytest.approx(math.log(1e300), rel=1e-15)
    # at the maximiser x y and Phi(x) both overflow: inf - inf, as for the
    # catalog's numeric conjugate of square_log
    entropy = from_density(young._entropy_fn, label="entropy", validate=False)
    with pytest.raises(ConjugateInfiniteError):
        entropy.psi.d(1e200)
    square_log = next(p.psi for p in catalog() if p.psi.describe() == "conj[square_log(p=1)]")
    with pytest.raises(ConjugateInfiniteError):
        square_log.d(1e200)


def test_from_density_inverse_without_bracket_raises():
    # x/(1+x) passes the monotonicity probe but never reaches 1: the
    # conjugate is infinite past it
    pair = from_density(lambda y: y / (1.0 + y), label="bounded", validate=False)
    assert pair.psi.d(0.5) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ConjugateInfiniteError):
        pair.psi.d(2.0)


def test_from_density_rejects_non_monotone():
    with pytest.raises(InvalidInputError):
        from_density(lambda y: math.sin(y) + y * 1e-3)


# -- strong equivalence -------------------------------------------------------


def test_strong_equiv_identity(entropy_pair):
    psi = entropy_pair.psi
    assert find_strong_equiv_constants(psi, psi, default_grid(31)) == (1.0, 1.0)


def test_strong_equiv_half_scaling(entropy_pair):
    psi = entropy_pair.psi
    half = YoungFunction(
        fn=lambda x: psi(x / 2.0), derivative=lambda x: psi.d(x / 2.0) / 2.0, label="half"
    )
    assert find_strong_equiv_constants(psi, half, default_grid(31)) == (0.5, 0.5)


def test_strong_equiv_fails_for_different_powers():
    p2 = young_from_spec({"family": "power", "p": 2})
    p3 = young_from_spec({"family": "power", "p": 3})
    # x^2-type vs x^3-type cannot be strongly equivalent: a finite grid can
    # always be sandwiched, but only by constants far apart. The finder's a
    # is the largest and b the smallest that hold, so no pair with b/a below
    # 2^11, such as (0.5, 2), (1, 1) or (0.1, 10), sandwiches this grid.
    grid = [float(x) for x in np.geomspace(1e-3, 1e3, 41)]
    assert find_strong_equiv_constants(p2, p3, grid) == (2.0 ** -6, 2.0 ** 5)


def test_strong_equiv_slack_is_relative_near_zero():
    # both functions stay below 1e-12 on this grid: an absolute slack there
    # would accept x^2/2 ~ x^3/3 with a = b = 1
    p2 = young_from_spec({"family": "power", "p": 2})
    p3 = young_from_spec({"family": "power", "p": 3})
    grid = [float(x) for x in np.geomspace(1e-9, 1e-7, 21)]
    assert find_strong_equiv_constants(p2, p3, grid) == (2.0 ** -16, 2.0 ** -11)


def test_strong_equiv_empty_grid_rejected(entropy_pair):
    # every sandwich holds on no points at all: (256, 256) once read as a
    # witness that x^2/2 and x^3/3 are strongly equivalent
    p2 = young_from_spec({"family": "power", "p": 2})
    p3 = young_from_spec({"family": "power", "p": 3})
    for phi1, phi2 in ((p2, p3), (entropy_pair.phi, entropy_pair.psi)):
        with pytest.raises(InvalidInputError, match="empty grid"):
            find_strong_equiv_constants(phi1, phi2, [])


# -- sqrt transform ----------------------------------------------------------


def test_sqrt_transform_power_q3():
    t = sqrt_transform(young_from_spec({"family": "power", "p": 3}))
    for x in (0.25, 1.0, 4.0):
        assert t(x) == pytest.approx(x ** 1.5 / 3.0, rel=1e-12)


def test_sqrt_transform_rejects_q_below_2():
    with pytest.raises(ConvexityError) as err:
        sqrt_transform(young_from_spec({"family": "power", "p": 1.5}))
    assert err.value.abscissa > 0


def test_sqrt_transform_catalog_acceptance_pattern(catalog_pairs):
    # the conjugate member passes the ratio probe exactly for these pairs
    expected_accept = {
        "(power(p=1.5), power(p=3))": True,
        "(power(p=2), power(p=2))": True,
        "(power(p=3), power(p=1.5))": False,
        "(cosh(p=1), cosh-conj)": False,
        "(entropy, exp_taylor(p=1))": True,
        "(exp_taylor(p=1), entropy)": False,
        "(cosh(p=2), conj[cosh(p=2)])": False,
        "(exp_taylor(p=2), conj[exp_taylor(p=2)])": False,
        "(square_log(p=1), conj[square_log(p=1)])": False,
        "(exp_power(p=2), conj[exp_power(p=2)])": False,
    }
    for pair in catalog_pairs:
        accepted = True
        try:
            sqrt_transform(pair.psi)
        except ConvexityError:
            accepted = False
        assert accepted == expected_accept[pair.describe()], pair.describe()


def test_sqrt_transform_linear_boundary_conjugate():
    # q = 2: the transform is x/2; its conjugate is 0 up to slope 1/2 and
    # infinite past it.
    t = sqrt_transform(young_from_spec({"family": "power", "p": 2}))
    tc = numeric_conjugate(t)
    assert tc(0.2) == 0.0
    assert tc(0.5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ConjugateInfiniteError):
        tc(0.6)


# -- catalog ------------------------------------------------------------------


def test_catalog_ids_and_lookup():
    assert set(catalog_ids()) == {
        "power",
        "cosh",
        "entropy",
        "exp_taylor",
        "square_log",
        "exp_power",
    }
    pair = pair_from_spec({"family": "power", "p": 2})
    assert pair.phi.label == "power" and pair.psi.label == "power"
    ent = pair_from_spec({"family": "entropy"})
    assert ent.psi(1.0) == pytest.approx(math.e - 2.0, rel=1e-12)


def test_catalog_pairs_pass_invariants(catalog_pairs):
    assert len(catalog_pairs) == 10
    for pair in catalog_pairs:
        pair.validate()  # raises on violation


def test_catalog_unknown_family_rejected():
    with pytest.raises(InvalidInputError):
        young_from_spec({"family": "does-not-exist"})
    with pytest.raises(InvalidInputError):
        young_from_spec({"p": 2})
    with pytest.raises(InvalidInputError):
        young_from_spec({"family": "power", "p": 10**400})  # beyond the float range


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_power_near_float_max_is_finite_where_its_value_is(p):
    phi = young_from_spec({"family": "power", "p": p})
    # below the overflow of x**p both forms are x**p / p, bit for bit
    edge = math.nextafter(1.7976931348623157e308 ** (1.0 / p), 0.0)
    below = [float(x) for x in np.geomspace(1e-3, edge, 40)]
    assert [phi(x) for x in below] == [x ** p / p for x in below]
    assert phi.values(below) == (np.array(below) ** p / p).tolist()
    # x**p / p = 1e308 is a float; at p = 2 and 3, x**p is not, and it read inf
    with mpmath.workdps(30):
        x = float((p * mpmath.mpf(1e308)) ** (1 / mpmath.mpf(p)))
        exact = mpmath.mpf(x) ** p / p
    with np.errstate(over="ignore"):
        values = [phi(x), *phi.values([x])]
    for v in values:
        assert abs(v - exact) <= 1e-15 * exact, (p, v)
    # a value above the float range still reads inf
    assert phi(1.7976931348623157e308) == math.inf
    with np.errstate(over="ignore"):
        assert phi.values([1.7976931348623157e308]) == [math.inf]
    # the inverse used to stall below its target
    x = inverse(phi, 1e308)
    assert phi(x) == pytest.approx(1e308, rel=1e-10)


def test_cosh_conjugate_past_the_square_overflow():
    psi = pair_from_spec({"family": "cosh", "p": 1.0}).psi
    assert psi.label == "cosh-conj"

    def squared(y):
        return y * math.asinh(y) - y * y / (1.0 + math.sqrt(1.0 + y * y))

    # the same bits wherever y * y is finite
    ys = [float(y) for y in np.geomspace(1e-300, 1.3407807929942596e154, 200)]
    assert [psi(y) for y in ys] == [squared(y) for y in ys]
    # it read nan above 1.34e154; the inverse now answers far up
    assert math.isnan(squared(1e200))
    assert math.isfinite(psi(1e200)) and math.isfinite(psi(1e300))
    x = inverse(psi, 1e200)
    assert math.isfinite(x) and psi(x) == pytest.approx(1e200, rel=1e-10)


def test_exp_power_requires_p_above_one():
    with pytest.raises(InvalidInputError):
        young_from_spec({"family": "exp_power", "p": 1.0})


def test_young_function_requires_its_derivative():
    with pytest.raises(TypeError):
        YoungFunction(fn=lambda x: x * x)


def _catalog_members_and_sqrt_transforms() -> list[YoungFunction]:
    """Every catalog Phi and Psi, numeric conjugates included, and the sqrt
    transform of each one it accepts, once per description."""
    members: dict[str, YoungFunction] = {}
    for pair in catalog():
        for yf in (pair.phi, pair.psi):
            members.setdefault(yf.describe(), yf)
            try:
                t = sqrt_transform(yf)
            except ConvexityError:
                continue
            members.setdefault(t.describe(), t)
    return list(members.values())


@pytest.mark.parametrize("yf", _catalog_members_and_sqrt_transforms(), ids=YoungFunction.describe)
def test_derivative_matches_central_difference(yf):
    # the derivative a Young function is built with is the only source of
    # Phi', so of the conjugate maximiser, of Psi' and of the Orlicz
    # multiplier; check it against the function it belongs to
    checked = 0
    for x in default_grid(41):
        h = 1e-6 * x
        lo, hi, d = yf(x - h), yf(x + h), yf.d(x)
        if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(d)):
            continue
        assert d == pytest.approx((hi - lo) / (2.0 * h), rel=1e-5), (yf.describe(), x)
        checked += 1
    assert checked >= 30, checked


# -- module invariants --------------------------------------------------------


def test_young_inequality_on_grid(catalog_pairs):
    from orliczlat.verify import young_inequality_margin

    for pair in catalog_pairs:
        assert young_inequality_margin(pair) <= 1e-9, pair.describe()


def test_inverse_sandwich_on_grid(catalog_pairs):
    from orliczlat.verify import inverse_sandwich_margin

    for pair in catalog_pairs:
        assert inverse_sandwich_margin(pair) <= 1e-8, pair.describe()


def test_biconjugation_recovers_original():
    specs = [
        {"family": "power", "p": 2.5},
        {"family": "entropy"},
        {"family": "square_log", "p": 1},
    ]
    grid = [float(x) for x in np.geomspace(1e-2, 1e2, 17)]
    for spec in specs:
        phi = young_from_spec(spec)
        double = numeric_conjugate(numeric_conjugate(phi))
        for x in grid:
            assert double(x) == pytest.approx(phi(x), rel=1e-6), (spec, x)


def test_numeric_conjugate_matches_closed_forms(catalog_pairs):
    # up to y = 700: conjugating a function with logarithmic slope growth
    # (entropy) needs a bracket of size ~ e^y, about 1e304 there
    grid = [float(x) for x in np.geomspace(1e-2, 700.0, 17)]
    for pair in catalog_pairs:
        if pair.conjugation_mode != "closed_form":
            continue
        num = numeric_conjugate(pair.phi)
        for y in grid:
            assert num(y) == pytest.approx(pair.psi(y), rel=1e-8, abs=1e-12)
