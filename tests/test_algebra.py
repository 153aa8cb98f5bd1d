from __future__ import annotations

import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SCAN_WEIGHTS, seeded_rng
from orliczlat import algebra, amenability, norms
from orliczlat.algebra import (
    _sqrt_psi,
    AlgebraContext,
    classify_trend,
    conv_inclusion_check,
    convolve,
    l1_module_check,
    pointwise_inclusion_check,
    submult_estimate,
)
from orliczlat.amenability import (
    Derivation,
    Homomorphism,
    apply_derivation,
    derivation_norm_scan,
    pairing,
)
from orliczlat.errors import (
    ConjugateInfiniteError,
    InvalidInputError,
    NumericalFailureError,
    PreconditionError,
    ResourceLimitError,
)
from orliczlat.finsupp import FinSuppFn
from orliczlat.norms import apply_weight, luxemburg_norm, weighted_l1_norm
from orliczlat.sampling import random_finsupp, rng_for, scan_pairs
from orliczlat.verify import sqrt_pair_margin
from orliczlat.weights import Weight, ball, polynomial_weight, subexp_alpha_weight, weight_from_spec
from orliczlat.young import default_grid, inverse, numeric_conjugate, pair_from_spec


def conv_oracle(f: FinSuppFn, g: FinSuppFn) -> dict:
    """Independent double-sum convolution."""
    out: dict = {}
    for p, a in f:
        for q, b in g:
            key = tuple(map(operator.add, p, q))
            out[key] = out.get(key, 0j) + a * b
    return {k: v for k, v in out.items() if v != 0}


def bits(entries) -> list:
    """Every key with the exact bits of both parts of its value, keys sorted:
    the pins compare per key, not the order the keys are listed in."""
    return sorted((k, v.real.hex(), v.imag.hex()) for k, v in entries)


# -- convolution ----------------------------------------------------------------


def test_convolve_deltas():
    assert convolve(FinSuppFn.delta(2), FinSuppFn.delta(3)) == FinSuppFn.delta(5)
    a, b = FinSuppFn.delta((1, -2)), FinSuppFn.delta((3, 3))
    assert convolve(a, b) == FinSuppFn.delta((4, 1))


def test_convolve_box_example():
    box = FinSuppFn.indicator([(-1,), (0,), (1,)])
    c = convolve(box, box)
    assert c[(0,)] == pytest.approx(3.0)
    assert c.support() == [(-2,), (-1,), (0,), (1,), (2,)]


def test_convolve_matches_oracle_and_commutes():
    for t in range(50):
        rng = seeded_rng(20, t)
        d = 1 + t % 2
        f = random_finsupp(d, 5, rng, max_support=10)
        g = random_finsupp(d, 5, rng, max_support=10)
        got = convolve(f, g)
        assert dict(got.entries) == pytest.approx(conv_oracle(f, g))
        # commutative up to summation order (last-ulp reassociation)
        other = convolve(g, f)
        assert got.support() == other.support()
        for p, v in got:
            assert v == pytest.approx(other[p], rel=1e-12, abs=1e-15)


def test_convolve_associative():
    for t in range(20):
        rng = seeded_rng(21, t)
        f = random_finsupp(1, 4, rng, max_support=6)
        g = random_finsupp(1, 4, rng, max_support=6)
        h = random_finsupp(1, 4, rng, max_support=6)
        left = convolve(convolve(f, g), h)
        right = convolve(f, convolve(g, h))
        assert left.support() == right.support()
        for p, v in left:
            assert v == pytest.approx(right[p], rel=1e-9, abs=1e-12)


def test_convolve_identity_exact():
    for t in range(10):
        f = random_finsupp(2, 5, seeded_rng(22, t), max_support=12)
        assert convolve(FinSuppFn.delta((0, 0)), f) == f


def test_convolve_budget():
    big = FinSuppFn.indicator([(k,) for k in range(4000)])
    with pytest.raises(ResourceLimitError):
        convolve(big, big)


def test_convolve_overflow_is_numerical_failure_on_both_paths():
    big = FinSuppFn.indicator([(k,) for k in range(20)]).scale(1e200)
    atom = FinSuppFn.delta(0, 1e200)
    for f, g, loop in ((big, big, False), (atom, atom, True)):
        with mock.patch.object(algebra, "_convolve_loop", wraps=algebra._convolve_loop) as spy:
            with pytest.raises(NumericalFailureError, match=r"at \(0,\)"):
                convolve(f, g)
        assert spy.called == loop


def test_convolve_bit_identical_to_loop_at_int64_ends():
    # 20 x 20 products, so only the int64 view of the points and of the
    # box corners picks the path (array: the array path's side)
    def line(xs, dim=1, axis=0):
        return FinSuppFn(dim, {tuple(x if i == axis else k for i in range(dim)):
                               complex(0.5 + k, 0.25 - k) for k, x in enumerate(xs)})

    low, high = [-(2**63) + k for k in range(1, 21)], [2**63 - 1 - k for k in range(20)]
    cases = [
        (line(low), line(range(20)), True),
        (line(high), line(range(-19, 1)), True),
        (line([-(2**63) + k for k in range(20)]), line(range(20)), False),  # -2**63 itself
        (line([2**63 + k for k in range(20)]), line([-(2**63) - k for k in range(20)]), False),
        (line([2**70] + list(range(19))), line(range(20)), False),
        (line(low), line(range(-20, 0)), False),  # the lowest corner leaves int64
        (line(high), line(range(1, 21)), False),  # the highest corner leaves int64
        (line(low, 2, 1), line(range(20), 2), True),
        (line(low, 2, 1), line(range(-20, 0), 2, 1), False),
    ]
    for f, g, array in cases:
        with mock.patch.object(algebra, "_convolve_loop", wraps=algebra._convolve_loop) as spy:
            got = convolve(f, g)
        assert bits(got) == bits(algebra._convolve_loop(f, g)), (f.support()[0], g.support()[0])
        assert {type(c) for p in got.entries for c in p} == {int}
        assert spy.called != array, (f.support()[0], g.support()[0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_convolve_bit_identical_to_loop_on_scan_pools(dim):
    # every key and every bit of both parts, and the pairing of D(f*g)
    # with h too, for each distinct pair: a symmetric candidate's /flipped
    # pair is its /same pair, the same objects (drawn holds them alive, so
    # no id is reused)
    d = Derivation.with_ball_window(Homomorphism((1.0, -0.5, 0.25)[:dim]), dim, 1)
    for r in range(1, 21):
        h = random_finsupp(dim, r, seeded_rng(25, dim, r))
        drawn = list(scan_pairs(dim, r, 3, 26))
        distinct = {}
        for kind, f, g in drawn:
            distinct.setdefault((id(f), id(g)), (kind, f, g))
        for kind, f, g in distinct.values():
            if len(f) * len(g) > algebra.MAX_CONV_OPS:
                with pytest.raises(ResourceLimitError):
                    convolve(f, g)
                continue
            want = conv_oracle(f, g)
            got = convolve(f, g)
            assert bits(got) == bits(want.items()), (dim, r, kind)
            dh = {tuple(-c for c in p): v * d.form(p) for p, v in want.items()}
            want_dfg = FinSuppFn(dim, conv_oracle(d.window, FinSuppFn(dim, dh)))
            got_pair = pairing(apply_derivation(d, got), h)
            want_pair = pairing(want_dfg, h)
            assert got_pair.real.hex() == want_pair.real.hex(), (dim, r, kind)
            assert got_pair.imag.hex() == want_pair.imag.hex(), (dim, r, kind)


def _public_door_draw(dim: int, radius: int, rng, max_support: int = 40) -> FinSuppFn:
    """random_finsupp's draws in its order, built through the public constructor."""
    size = int(rng.integers(1, max_support + 1))
    pts = rng.integers(-radius, radius + 1, size=(size, dim))
    mags = np.abs(rng.standard_normal(size))
    phases = rng.uniform(0.0, 2.0 * math.pi, size)
    entries = {tuple(row): m * complex(math.cos(th), math.sin(th))
               for row, m, th in zip(pts, mags, phases) if m != 0.0}
    return FinSuppFn(dim, entries or {(0,) * dim: 1.0})


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_finsupp_bit_identical_to_the_public_door_on_scan_pools(dim):
    # keys and their coordinate types, order, value types and every bit,
    # for the draws of scan_pairs over the radii of the convolve pins
    def pins(f):
        return [(p, tuple(map(type, p)), type(v), v.real.hex(), v.imag.hex()) for p, v in f]

    for r in range(1, 21):
        for t in range(3):
            got, want = rng_for(26, r, t), rng_for(26, r, t)
            for _ in range(2):  # f and g of one random pair
                f = random_finsupp(dim, r, got)
                assert pins(f) == pins(_public_door_draw(dim, r, want)), (dim, r, t)
                assert {type(v) for _, v in f} == {complex}


def weighted_pins(ctx: AlgebraContext, f: FinSuppFn) -> tuple[str, str, str, str]:
    """(weighted Luxemburg norm, its per-point oracle, weighted L1 norm, its
    per-point oracle), as hex: the oracles build f*omega point by point."""
    lux = ctx.weighted_luxemburg_norms([f])[0]
    want = luxemburg_norm(ctx.pair.phi, apply_weight(f, ctx.omega))
    l1 = weighted_l1_norm(ctx.omega, f)
    want_l1 = math.fsum(abs(v) * ctx.omega(p) for p, v in f)
    return lux.hex(), want.hex(), l1.hex(), want_l1.hex()


@pytest.mark.parametrize("dim", [1, 2])
def test_weighted_norms_bit_identical_on_scan_pools(dim):
    xi = Homomorphism((1.0, -0.5)[:dim])
    radii = (1, 3, 8, 32, 128) if dim == 1 else (1, 3, 8, 16)
    for spec in SCAN_WEIGHTS:
        for p in (1.5, 3.0):
            ctx = AlgebraContext(pair_from_spec({"family": "power", "p": p}),
                                 weight_from_spec(spec), dim)
            for r in radii:
                for kind, f, g in scan_pairs(dim, r, 3, 27, omega=ctx.omega, xi=xi):
                    for h in (f, g):
                        lux, want, l1, want_l1 = weighted_pins(ctx, h)
                        assert lux == want and l1 == want_l1, (spec, p, r, kind)
                        # the memoised second read returns the same bits
                        assert ctx.weighted_luxemburg_norms([h])[0].hex() == lux


def test_weighted_norms_bit_identical_where_products_underflow():
    # omega < 1 off the origin (no catalog weight), so a product can round
    # to 0 and leave the support: the bracket then counts two entries, not three
    omega = Weight("halving", {}, lambda n: 0.5 ** n)
    ctx = AlgebraContext(pair_from_spec({"family": "power", "p": 1.5}), omega, 1)
    tiny = 5e-324
    for entries in (
        {(0,): 1.0, (1,): 2.0 - 1j, (3,): tiny},
        {(0,): 1.0, (-1,): 0.5j, (3,): complex(tiny, 1.0)},  # only the real part goes
        {(2,): tiny, (-3,): -tiny},  # every product goes: the norm is 0
    ):
        f = FinSuppFn(1, entries)
        lux, want, l1, want_l1 = weighted_pins(ctx, f)
        assert lux == want and l1 == want_l1, entries
    assert len(apply_weight(FinSuppFn(1, {(0,): 1.0, (1,): 2.0, (3,): tiny}), omega)) == 2
    assert ctx.weighted_luxemburg_norms([FinSuppFn(1, {(2,): tiny})]) == [0.0]


def test_weighted_norms_bit_identical_at_int64_ends():
    # word lengths beyond int64 are read as Python ints; -2**63 has |x| = 2**63
    ctx = AlgebraContext(pair_from_spec({"family": "power", "p": 1.5}), polynomial_weight(0.4), 1)
    for pts in ([-2**63, 2**63 - 1, 0], [2**70, 3], [-2**63]):
        f = FinSuppFn(1, {(x,): 1.0 + 0.5j * k for k, x in enumerate(pts)})
        lux, want, l1, want_l1 = weighted_pins(ctx, f)
        assert lux == want and l1 == want_l1, pts


def test_weighted_norm_overflow_raises_the_per_point_error():
    omega = subexp_alpha_weight(1.0, 1.0)
    ctx = AlgebraContext(pair_from_spec({"family": "power", "p": 2.0}), omega, 1)
    # e^700 * 1e300 overflows; e^800 is itself inf
    for entries in ({(0,): 1.0, (700,): 1e300}, {(1,): 1j, (-800,): 1.0}):
        f = FinSuppFn(1, entries)
        with pytest.raises(NumericalFailureError) as want:
            apply_weight(f, omega)
        with pytest.raises(NumericalFailureError) as got:
            ctx.weighted_luxemburg_norms([f])
        assert str(got.value) == str(want.value)
        assert not f._luxemburg
        # the per-point weighted L1 sum reads inf, and the weighted L1 norm raises
        assert math.fsum(abs(v) * omega(p) for p, v in f) == math.inf
        with pytest.raises(NumericalFailureError, match="weighted L1 norm overflows"):
            weighted_l1_norm(omega, f)


def weighted_batch_outcome(ctx: AlgebraContext, fs: list[FinSuppFn]) -> list[str] | str:
    """The bits of each weighted Luxemburg norm of one batch, or the class
    and message of the error it raised; the memos are cleared first, so
    the batch measures every f."""
    for f in fs:
        f._luxemburg.clear()
    try:
        return [v.hex() for v in ctx.weighted_luxemburg_norms(fs)]
    except NumericalFailureError as exc:
        return f"NumericalFailureError: {exc}"


@pytest.mark.parametrize("dim", [1, 2])
def test_weighted_norms_batch_bit_identical_to_one_at_a_time(dim):
    # 2**(n - 60) below word length 2**20, 1 past it: products underflow
    # near the origin, a product with 1e300 overflows at n = 1000, the
    # weight itself is inf from n = 1084, and points past int64 weigh 1, so
    # they send every point of their batch through the object-array reader
    # and still have a norm
    omega = Weight("zigzag", {}, lambda n: 2.0 ** (n - 60) if n < 2**20 else 1.0)
    ctx = AlgebraContext(pair_from_spec({"family": "power", "p": 1.5}), omega, dim)

    def fn(entries):
        return FinSuppFn(dim, {(x,) + (0,) * (dim - 1): v for x, v in entries.items()})

    tiny = 5e-324
    special = [
        FinSuppFn.zero(dim),
        fn({0: 1.0, 1: 2.0 - 1j, 3: tiny}),  # one product underflows
        fn({0: 1.0, -1: 0.5j, 3: complex(tiny, 1.0)}),  # only its real part does
        fn({2: tiny, -3: -tiny}),  # every product does: the norm is 0
        fn({-2**63: 1.0, 2**63 - 1: 0.5j, 0: 1.0}),  # past int64
        fn({2**70: 1.0 - 1j, 3: 2.0}),
        fn({0: 1.0, 1000: 1e300}),  # the product overflows
        fn({1: 1j, -1100: 1.0}),  # the weight itself is inf
        fn({2**21 + i: 1.7e308 for i in range(3)}),  # the norm passes the float range
    ]
    pool = []
    for r in (1, 3, 8):
        for _, f, g in scan_pairs(dim, r, 2, 29):
            pool += [f] if g is f else [f, g]
    fs = pool + special

    def one_at_a_time(f):
        try:
            return luxemburg_norm(ctx.pair.phi, apply_weight(f, omega)).hex()
        except NumericalFailureError as exc:
            return f"NumericalFailureError: {exc}"

    want = [one_at_a_time(f) for f in fs]
    assert sum(not w.startswith("0x") for w in want) == 3
    for i, f in enumerate(fs):
        assert weighted_batch_outcome(ctx, [f]) in ([want[i]], want[i])
    # each special function amid scan functions, one of them twice, then
    # shuffled batches of 2 to 20, each holding its first f twice
    n = len(pool)
    batches = [[0, 1, n + k, 2, 0] for k in range(len(special))]
    rng = seeded_rng(31)
    for _ in range(3):
        order = rng.permutation(len(fs)).tolist()
        while order:
            size = int(rng.integers(1, 20))
            batch, order = order[:size] + order[:1], order[size:]
            batches.append(batch)
    for batch in batches:
        got = weighted_batch_outcome(ctx, [fs[i] for i in batch])
        expected = [want[i] for i in batch]
        errors = [w for w in expected if not w.startswith("0x")]
        weighting = [w for w in errors if "weighted value" in w]
        if weighting:  # apply_weight raises for the first such f of the batch
            assert got == weighting[0], batch
        elif errors:  # a norm past the float range: the error some lane raises alone
            assert got in errors, batch
        else:
            assert got == expected, batch


_PARTS = st.sampled_from([1.0, -1.0, 0.5, -2.0, 0.0, -0.0, 3.0, 1e-300, 0.1])


def _line(n: int, dim: int, far: int, values: list[complex]) -> FinSuppFn:
    """n points on the first axis, 0..n-2 and far, carrying the given values."""
    xs = list(range(n - 1)) + [far]
    return FinSuppFn(dim, {(x,) + (0,) * (dim - 1): v for x, v in zip(xs, values)})


@given(
    dim=st.sampled_from([1, 2]),
    shape=st.sampled_from(["ops", "short-g", "box"]),
    array=st.booleans(),
    data=st.data(),
)
def test_convolve_bit_identical_to_loop_around_the_crossovers(dim, shape, array, data):
    # a pair on each side of each constant that picks the path (array: the
    # array path's side), with -0.0 parts and exact cancellations
    ops, per_op = algebra._ARRAY_MIN_OPS, algebra._ARRAY_MAX_BOX_PER_OP
    if shape != "box":  # products around their minimum, whatever len(g)
        ng = 16 if shape == "ops" else 4
        nf = -(-ops // ng) if array else (ops - 1) // ng
    else:  # box cells per product around their maximum
        nf, ng = 20, 20
    far_g, far_f = ng - 1, nf - 1
    if shape == "box":  # box = far_f + far_g + 1 cells on the first axis
        far_f = per_op * nf * ng - far_g - (1 if array else 0)
    vals = st.builds(complex, _PARTS, _PARTS).filter(lambda v: v != 0)
    f = _line(nf, dim, far_f, data.draw(st.lists(vals, min_size=nf, max_size=nf)))
    g = _line(ng, dim, far_g, data.draw(st.lists(vals, min_size=ng, max_size=ng)))
    with mock.patch.object(algebra, "_convolve_loop", wraps=algebra._convolve_loop) as spy:
        got = convolve(f, g)
    assert bits(got) == bits(conv_oracle(f, g).items())
    assert spy.called != array


def test_convolve_drops_exact_cancellations_like_the_loop():
    f = FinSuppFn.indicator([(k,) for k in range(20)])
    g = FinSuppFn(1, {(k,): (-1.0) ** k for k in range(16)})
    got = convolve(f, g)
    assert bits(got) == bits(conv_oracle(f, g).items())
    assert len(got) < 35  # alternating sums over a full window cancel to 0


def _grid(n: int, dim: int, width: int, values: np.ndarray) -> FinSuppFn:
    """n points filling rows of the given width (a line where dim is 1)."""
    pts = [(k,) if dim == 1 else (k % width, k // width) for k in range(n)]
    return FinSuppFn(dim, dict(zip(pts, values.tolist())))


_ROWS = algebra._CHUNK_PRODUCTS // 64  # rows of f per chunk against 64 entries of g


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("nf, ng", [
    (2 * _ROWS + 5, 64),  # f spans three chunks, the last one short
    (2 * _ROWS, 64),  # the last chunk ends exactly at |f|
    (3, algebra._CHUNK_PRODUCTS + 7),  # g alone is longer than a chunk: one row each
])
def test_convolve_bit_identical_to_loop_across_chunk_edges(dim, nf, ng):
    # the supports overlap, so most cells sum terms from rows of several
    # chunks; every key and both parts of its value by .hex()
    rng = seeded_rng(31, dim, nf, ng)

    def values(n):
        parts = rng.standard_normal((2, n)) * 2.0 ** rng.integers(-30, 30, (2, n))
        return parts[0] + 1j * parts[1]

    f, g = _grid(nf, dim, 7, values(nf)), _grid(ng, dim, 5, values(ng))
    with mock.patch.object(algebra, "_convolve_loop", wraps=algebra._convolve_loop) as spy:
        got = convolve(f, g)
    assert not spy.called
    assert bits(got) == bits(algebra._convolve_loop(f, g))


# -- flip --------------------------------------------------------------------------


def test_flip_examples():
    assert FinSuppFn.delta((3, -1)).flip() == FinSuppFn.delta((-3, 1))
    for t in range(10):
        f = random_finsupp(1, 5, seeded_rng(23, t), max_support=8)
        g = random_finsupp(1, 5, seeded_rng(24, t), max_support=8)
        assert f.flip().flip() == f
        assert convolve(f, g).flip() == convolve(f.flip(), g.flip())


# -- trend classifier ---------------------------------------------------------------


def test_classify_trend_thresholds():
    assert classify_trend(1.0, 1.1) == "plateau"
    assert classify_trend(1.0, 1.30) == "growth"
    assert classify_trend(1.0, 1.2) == "indeterminate"
    assert classify_trend(0.0, 1.0) == "indeterminate"


# -- submultiplicativity scans ---------------------------------------------------------


def test_submult_plateau_in_algebra_regime():
    pair = pair_from_spec({"family": "power", "p": 1.5})
    ctx = AlgebraContext(pair, polynomial_weight(0.7), 1)
    rep = submult_estimate(ctx, 64, trials=60, seed=11)
    assert rep.trend == "plateau", rep.per_radius
    assert rep.certificate == "empirical"


def test_submult_growth_without_weight():
    # the unweighted p=2 space is not a convolution algebra on the line;
    # ball indicators make the ratio grow like sqrt(radius)
    pair = pair_from_spec({"family": "power", "p": 2})
    ctx = AlgebraContext(pair, polynomial_weight(0.0), 1)
    rep = submult_estimate(ctx, 64, trials=60, seed=11)
    assert rep.trend == "growth", rep.per_radius
    first, last = rep.per_radius[0]["max_ratio"], rep.per_radius[-1]["max_ratio"]
    assert last >= 1.25 * first


def _holder_constant(omega: Weight, q: float, radius: int, dim: int) -> float:
    """K_r = sup_x (sum_y omega(x)^q / (omega(y) omega(x - y))^q)^(1/q) over
    y, x - y in ball(r): omega^q times the self-convolution of u = omega^-q."""
    u = FinSuppFn(dim, {x: omega(x) ** -q for x in ball(radius, dim)})
    return max(omega(x) ** q * v.real for x, v in convolve(u, u)) ** (1.0 / q)


@pytest.mark.parametrize("dim, beta, p", [
    (dim, beta, p)
    for dim, betas in ((1, (0.4, 0.7, 1.2)), (2, (0.7, 1.2, 2.0)))
    for beta in betas for p in (1.5, 2.0, 3.0)
])
def test_submult_rows_below_the_holder_bound(dim, beta, p):
    # Hoelder in y for each x: ||w(f*g)||_p <= K_r ||fw||_p ||gw||_p, and the
    # Luxemburg norm of x^p/p is p^(-1/p) ||.||_p, so every ratio of the scan
    # is at most p^(1/p) K_r; a row above it is a bug in the convolution or
    # the norms, not a finding
    ctx = AlgebraContext(pair_from_spec({"family": "power", "p": p}),
                         polynomial_weight(beta), dim)
    q = p / (p - 1.0)
    rep = submult_estimate(ctx, 256 if dim == 1 else 16, 8, 7)
    assert [row["radius"] for row in rep.per_radius] == ([64, 128, 256] if dim == 1 else [4, 8, 16])
    for row in rep.per_radius:
        bound = p ** (1.0 / p) * _holder_constant(ctx.omega, q, row["radius"], dim)
        assert row["max_ratio"] <= bound * (1.0 + 1e-12), (row, bound)


def test_submult_identity_atom_ratio_is_phi_inverse_of_one():
    # delta_0 is the convolution identity, so the ratio reduces to
    # 1/N(delta_0) = inv(Phi)(1); with the x^p/p normalisation this is
    # p^(1/p), not 1.
    pair = pair_from_spec({"family": "power", "p": 1.5})
    ctx = AlgebraContext(pair, polynomial_weight(0.7), 1)
    f = FinSuppFn.delta(0)
    n_ff, n_f = ctx.weighted_luxemburg_norms([convolve(f, f), f])
    ratio = n_ff / n_f ** 2
    assert ratio == pytest.approx(inverse(pair.phi, 1.0), rel=1e-9)


# -- module scan ------------------------------------------------------------------------


def test_l1_module_translate_bound():
    pair = pair_from_spec({"family": "power", "p": 1.5})
    w = polynomial_weight(0.7)
    ctx = AlgebraContext(pair, w, 1)
    for a in (-5, 0, 3, 17):
        da = FinSuppFn.delta(a)
        for t in range(5):
            g = random_finsupp(1, 6, seeded_rng(25, a % 7, t), max_support=8)
            num = ctx.weighted_luxemburg_norms([convolve(da, g)])[0]
            den = weighted_l1_norm(w, da) * ctx.weighted_luxemburg_norms([g])[0]
            assert num <= den * (1.0 + 1e-9)


def test_l1_module_plateau_unweighted_l2():
    pair = pair_from_spec({"family": "power", "p": 2})
    ctx = AlgebraContext(pair, polynomial_weight(0.0), 1)
    rep = l1_module_check(ctx, 64, trials=40, seed=12)
    assert rep.trend == "plateau"
    assert all(row["max_ratio"] <= 1.0 + 1e-9 for row in rep.per_radius)


# -- sqrt-pair machinery ------------------------------------------------------------------


def test_sqrt_pair_inequalities_power_and_entropy():
    # Phi(x) <= T(2x^2/Phi(x)) and T(x^2/(4 Phi(x))) <= Phi(x), T the conjugate
    # of Psi(sqrt(.)), each up to a relative 1e-6 at every grid point
    grid = [float(x) for x in default_grid(41, 1e-3, 1e3)]
    for spec in ({"family": "power", "p": 1.5}, {"family": "entropy"},
                 {"family": "power", "p": 2}):
        pair = pair_from_spec(spec)
        phi_tilde = numeric_conjugate(_sqrt_psi(pair))
        for x in grid:
            fx = pair.phi(x)
            try:
                upper = phi_tilde(2.0 * x * x / fx)
            except ConjugateInfiniteError:
                upper = math.inf  # an infinite upper bound holds trivially
            lower = phi_tilde(x * x / (4.0 * fx))
            assert fx <= upper * (1.0 + 1e-6), (spec, x, fx, upper)
            assert lower <= fx * (1.0 + 1e-6), (spec, x, fx, lower)


def test_sqrt_pair_rejection_raises_precondition():
    pair = pair_from_spec({"family": "power", "p": 3})  # psi is x^1.5/1.5
    # the comparison is vacuous when the sqrt transform is rejected ...
    assert sqrt_pair_margin(pair) is None
    # ... and the scans that need the transform refuse to run
    with pytest.raises(PreconditionError):
        conv_inclusion_check(pair, 8, 4, 1)


def test_conv_inclusion_single_atom_and_plateau():
    pair = pair_from_spec({"family": "power", "p": 1.5})
    rep = conv_inclusion_check(pair, 32, trials=40, seed=13)
    assert rep.trend == "plateau", rep.per_radius
    # closed-form single-atom ratio
    psi_tilde = _sqrt_psi(pair)
    d0 = FinSuppFn.delta(0)
    ratio = luxemburg_norm(pair.psi, d0) / (
        luxemburg_norm(psi_tilde, d0) * luxemburg_norm(pair.phi, d0)
    )
    expected = (1.0 / inverse(pair.psi, 1.0)) / (
        (1.0 / inverse(psi_tilde, 1.0)) * (1.0 / inverse(pair.phi, 1.0))
    )
    assert ratio == pytest.approx(expected, rel=1e-10)
    assert math.isfinite(ratio) and ratio > 0


def test_pointwise_inclusion_single_atom_and_plateau():
    pair = pair_from_spec({"family": "power", "p": 1.5})
    rep = pointwise_inclusion_check(pair, 16, trials=15, seed=13)
    assert rep.trend == "plateau", rep.per_radius
    assert rep.max_ratio > 0


def test_scan_report_serialises():
    pair = pair_from_spec({"family": "power", "p": 2})
    ctx = AlgebraContext(pair, polynomial_weight(0.0), 1)
    rep = l1_module_check(ctx, 8, trials=5, seed=3)
    obj = rep.to_json_obj()
    assert obj["certificate"] == "empirical"
    assert {"op", "params", "max_ratio", "per_radius", "trend"} <= set(obj)


# -- weighted algebra context across weights ------------------------------------------------


def test_submult_plateau_subexponential():
    pair = pair_from_spec({"family": "power", "p": 2})
    ctx = AlgebraContext(pair, subexp_alpha_weight(0.5, 1.0), 1)
    rep = submult_estimate(ctx, 48, trials=40, seed=14)
    assert rep.trend == "plateau", rep.per_radius


@pytest.mark.parametrize("max_support, radius", [(0, 3), (2**62, 3), (5, -1), (5, 2**62)])
def test_random_finsupp_rejects_out_of_range(max_support, radius):
    with pytest.raises(InvalidInputError):
        random_finsupp(1, radius, seeded_rng(26), max_support)


# -- the shared bilinear-bound scan ---------------------------------------------------------


def _loop_scan(radii, ratio, dim, trials, seed, omega=None, xi=None, draw=scan_pairs):
    """Worst ratio per radius, written out as a plain loop over scan_pairs
    (or ``draw``, which stands for it)."""
    rows = []
    for r in radii:
        best, best_kind = 0.0, ""
        for kind, f, g in draw(dim, r, trials, seed, omega=omega, xi=xi):
            value = ratio(f, g)
            if value is not None and value > best:
                best, best_kind = value, kind
        rows.append({"radius": r, "max_ratio": best, "argmax": best_kind})
    return rows


def algebra_scans(pair, omega, dim, radius, trials, seed, draw=scan_pairs):
    """Each algebra scan as (op, scan, loop): the scan's report, and the
    rows of a plain loop over the same pairs (``draw`` stands for
    scan_pairs) that builds each top, by convolve or pointwise_mul, and
    measures it alone, as the scans did before their tops were batched."""
    ctx = AlgebraContext(pair, omega, dim)
    psi_tilde = _sqrt_psi(pair)
    phi_tilde = numeric_conjugate(psi_tilde)
    radii = sorted(set(algebra._radius_ladder(radius)))

    def lux(f):
        return ctx.weighted_luxemburg_norms([f])[0]

    def ratio(top, nf, ng):  # the top is built only where both norms are nonzero
        return None if nf == 0.0 or ng == 0.0 else top() / (nf * ng)

    def loop(measure, weighted=True):
        w = omega if weighted else None
        return lambda: _loop_scan(radii, measure, dim, trials, seed, w, draw=draw)

    return [
        ("submult_estimate", lambda: submult_estimate(ctx, radius, trials, seed),
         loop(lambda f, g: ratio(lambda: lux(convolve(f, g)), lux(f), lux(g)))),
        ("l1_module_check", lambda: l1_module_check(ctx, radius, trials, seed),
         loop(lambda f, g: ratio(lambda: lux(convolve(f, g)),
                                 weighted_l1_norm(omega, f), lux(g)))),
        ("conv_inclusion_check", lambda: conv_inclusion_check(pair, radius, trials, seed, dim),
         loop(lambda u, f: ratio(lambda: luxemburg_norm(pair.psi, convolve(u, f)),
                                 luxemburg_norm(psi_tilde, u), luxemburg_norm(pair.phi, f)),
              weighted=False)),
        ("pointwise_inclusion_check",
         lambda: pointwise_inclusion_check(pair, radius, trials, seed, dim),
         loop(lambda u, g: ratio(lambda: luxemburg_norm(pair.phi, u.pointwise_mul(g)),
                                 luxemburg_norm(phi_tilde, u), luxemburg_norm(pair.psi, g)),
              weighted=False)),
    ]


def scan_outcome(run) -> str:
    """repr of a scan's rows (every float bit for bit), or the class and
    message of the error it raised."""
    try:
        rows = run()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(rows if isinstance(rows, list) else rows.per_radius)


@pytest.mark.parametrize("dim, radius", [(1, 4), (2, 2)])
def test_every_scan_matches_a_loop_over_scan_pairs(dim, radius):
    trials, seed = 3, 17
    pair = pair_from_spec({"family": "power", "p": 1.5})
    ctx = AlgebraContext(pair, polynomial_weight(0.7), dim)
    der = Derivation.with_ball_window(Homomorphism.basis(dim), dim)
    radii = sorted({max(1, radius // 4), max(1, radius // 2), radius})

    def lux(f):
        return ctx.weighted_luxemburg_norms([f])[0]

    def derivation(f, g):
        nf, ng = lux(f), lux(g)
        if nf == 0.0 or ng == 0.0:
            return None
        return abs(pairing(apply_derivation(der, f), g)) / (nf * ng)

    cases = [(scan(), loop())
             for _, scan, loop in algebra_scans(pair, ctx.omega, dim, radius, trials, seed)]
    cases.append((derivation_norm_scan(ctx, der, radii, trials, seed),
                  _loop_scan(radii, derivation, dim, trials, seed, ctx.omega, der.form)))
    for rep, expected in cases:
        # repr pins every float bit for bit
        assert repr(rep.per_radius) == repr(expected), rep.op
        assert rep.max_ratio == max(row["max_ratio"] for row in expected), rep.op


def top_outcome(measure) -> str:
    """The bits of one top, or the class and message of its error."""
    try:
        return measure().hex()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_convolution_tops_match(pair, omega, pairs):
    """Each convolution top, weighted by omega (submult, l1-module) and
    unweighted under Psi (conv-inclusion), against convolve and the
    single-function reader, by .hex() or by the error raised: each pair
    alone, and all pairs in one batch where none raises."""
    ctx = AlgebraContext(pair, omega, pairs[0][0].dim)
    readers = (
        (pair.phi, omega, lambda h: ctx.weighted_luxemburg_norms([h])[0]),
        (pair.psi, None, lambda h: luxemburg_norm(pair.psi, h)),
    )
    for phi, w, reader in readers:
        want = [top_outcome(lambda: reader(convolve(f, g))) for f, g in pairs]
        alone = [top_outcome(lambda: algebra._convolution_norms(phi, w, [f], [g])[0])
                 for f, g in pairs]
        assert alone == want, w
        if all(v.startswith("0x") for v in want):
            fs, gs = zip(*pairs)
            assert [v.hex() for v in algebra._convolution_norms(phi, w, fs, gs)] == want, w


# the scan pools of the benchmark's algebra scans: d = 1 to r = 48 and d = 2
# to r = 16, whose ball self-products are the largest convolution tops
@pytest.mark.parametrize("dim, radius, spec", [
    (1, 48, {"family": "polynomial", "beta": 0.7}),
    (1, 48, {"family": "subexp_alpha", "alpha": 0.5, "C": 1.0}),
    (2, 6, {"family": "polynomial", "beta": 0.4}),
    (2, 16, {"family": "polynomial", "beta": 0.7}),
])
def test_scan_tops_bit_identical_to_building_each_top(dim, radius, spec):
    pair, omega = pair_from_spec({"family": "power", "p": 1.5}), weight_from_spec(spec)
    for op, scan, loop in algebra_scans(pair, omega, dim, radius, 4, 23):
        assert scan_outcome(scan) == scan_outcome(loop), op
    for r in algebra._radius_ladder(radius):
        assert_convolution_tops_match(
            pair, omega, [(f, g) for _, f, g in scan_pairs(dim, r, 4, 23, omega=omega)])


def test_scan_tops_measure_each_distinct_pair_once():
    # the ball, half-ball and inverse-weight candidates equal their flip, so
    # their /flipped top is their /same top: a radius of the benchmark's
    # d = 1 submult scan convolves each distinct pair once,
    # and the rows, argmax labels included (/flipped, drawn first, wins a
    # tie), are those of building and measuring every top
    pair, omega = pair_from_spec({"family": "power", "p": 1.5}), polynomial_weight(0.7)
    ctx = AlgebraContext(pair, omega, 1)
    radius, trials, seed = 48, 8, 1007

    def distinct_pairs(omega):
        """Pairs of the scan's radii less the symmetric candidates' /same
        pairs, and those candidates."""
        count, symmetric = 0, set()
        for r in algebra._radius_ladder(radius):
            drawn = list(scan_pairs(1, r, trials, seed, omega=omega))
            same = {kind.split("/")[0] for kind, f, g in drawn
                    if kind.endswith("/flipped") and g.entries == f.entries}
            symmetric |= same
            count += len(drawn) - len(same)
        return count, symmetric

    distinct, symmetric = distinct_pairs(omega)
    assert symmetric == {"ball-indicator", "half-ball-indicator", "inverse-weight-profile"}
    tops = mock.Mock(wraps=algebra.convolve)
    with mock.patch.object(algebra, "convolve", tops):
        rep = submult_estimate(ctx, radius, trials, seed)
    assert tops.call_count == distinct
    (_, _, loop), = [s for s in algebra_scans(pair, omega, 1, radius, trials, seed)
                     if s[0] == "submult_estimate"]
    assert repr(rep.per_radius) == repr(loop())
    assert any(row["argmax"] == f"{kind}/flipped"
               for row in rep.per_radius for kind in symmetric)
    # the pointwise inclusion's top u.g is one product per distinct pair too
    products = []

    def pointwise_mul(u, g, real=FinSuppFn.pointwise_mul):
        products.append((u, g))
        return real(u, g)

    with mock.patch.object(FinSuppFn, "pointwise_mul", pointwise_mul):
        pointwise_inclusion_check(pair, radius, trials, seed)
    distinct, symmetric = distinct_pairs(None)
    assert symmetric and len(products) == distinct


@pytest.mark.parametrize("dim, radii, coeffs", [
    (1, [16, 64, 256], (1.0,)),
    (2, [2, 4, 8], (0.3 - 0.7j, 2 + 1j)),
])
def test_derivation_scan_pairs_each_distinct_pair_once(dim, radii, coeffs):
    # the pairing is an exact sum, so a symmetric candidate's /flipped pair
    # <D(f), flip f> is its /same pair <D(f), f>: the scan pairs each
    # distinct pair once, and its rows, argmax labels included, are those
    # of pairing every pair alone
    pair, omega = pair_from_spec({"family": "power", "p": 1.5}), polynomial_weight(0.4)
    ctx = AlgebraContext(pair, omega, dim)
    der = Derivation.with_ball_window(Homomorphism(coeffs), dim)
    trials, seed = 8, 1009
    distinct, symmetric = 0, set()
    for r in radii:
        drawn = list(scan_pairs(dim, r, trials, seed, omega=omega, xi=der.form))
        same = {kind.split("/")[0] for kind, f, g in drawn
                if kind.endswith("/flipped") and g.entries == f.entries}
        symmetric |= same
        distinct += len(drawn) - len(same)
    assert {"ball-indicator", "half-ball-indicator", "inverse-weight-profile"} <= symmetric
    pairings = mock.Mock(wraps=amenability._derivation_pairing)
    with mock.patch.object(amenability, "_derivation_pairing", pairings):
        rep = derivation_norm_scan(ctx, der, radii, trials, seed)
    assert pairings.call_count == distinct

    def ratio(f, g):
        nf, ng = ctx.weighted_luxemburg_norms([f])[0], ctx.weighted_luxemburg_norms([g])[0]
        return None if nf == 0.0 or ng == 0.0 else (
            abs(pairing(apply_derivation(der, f), g)) / (nf * ng))

    loop = _loop_scan(radii, ratio, dim, trials, seed, omega, der.form)
    assert repr(rep.per_radius) == repr(loop)


@pytest.mark.parametrize("dim, radius, coeffs", [
    (1, 8, (1.0,)),
    (2, 4, (0.3 - 0.7j, 2 + 1j)),
])
def test_symmetric_candidates_are_their_own_flip(dim, radius, coeffs):
    # scan_pairs decides from the values whether a candidate is even or odd
    # under the reflection: the ball indicators and the 1/omega profile
    # (even) and the damped-form profile (odd, xi is odd and omega radial)
    # are paired with themselves, the same object twice, and every other
    # candidate with its distinct flip
    pair, omega = pair_from_spec({"family": "power", "p": 1.5}), polynomial_weight(0.7)
    even = {"ball-indicator", "half-ball-indicator", "inverse-weight-profile"}
    symmetric = even | {"damped-form-profile"}
    trials, seed, xi = 4, 31, Homomorphism(coeffs)
    own_flips, other_flips = [], []
    for r in algebra._radius_ladder(radius):
        flipped = [(kind.split("/")[0], f, g)
                   for kind, f, g in scan_pairs(dim, r, trials, seed, omega=omega, xi=xi)
                   if kind.endswith("/flipped")]
        for kind, f, g in flipped:
            if g is f:
                own_flips.append(kind)
                sign = 1 if kind in even else -1
                assert f.flip().entries == f.scale(sign).entries, kind
            else:
                other_flips.append(kind)
                assert g.entries == f.flip().entries and g.entries != f.entries, kind
                assert g.entries != f.scale(-1).entries, kind
        assert {kind for kind, f, g in flipped if g is f} == {
            kind for kind, _, _ in flipped if kind in symmetric}, r
    assert set(own_flips) == symmetric and "damped-peak-atom" in other_flips
    # so the memo on f serves their right norms: a submult radius's right
    # batch has a lane for each other flip and each random g, none for f
    ctx = AlgebraContext(pair, omega, dim)
    body = mock.Mock(wraps=norms._luxemburg_norms)
    with mock.patch.object(norms, "_luxemburg_norms", body):
        submult_estimate(ctx, radius, trials, seed)
    rights = [len(call.args[1]) for call in body.call_args_list[1::2]]
    assert rights == [
        sum(kind.endswith("/flipped") and g is not f for kind, f, g in scan_pairs(
            dim, r, trials, seed, omega=omega)) + trials
        for r in algebra._radius_ladder(radius)]


def every_flip(dim, r, trials, seed, omega=None, xi=None):
    """The reference pools: scan_pairs with each /flipped partner built by
    ``f.flip()``, a distinct object whatever f's parity."""
    return [(kind, f, f.flip() if kind.endswith("/flipped") else g)
            for kind, f, g in scan_pairs(dim, r, trials, seed, omega=omega, xi=xi)]


@pytest.mark.parametrize("dim, radius, coeffs", [
    (1, 64, (1.0,)),
    (2, 8, (0.3 - 0.7j, 2 + 1j)),
])
def test_scans_match_pools_that_build_every_flip(dim, radius, coeffs):
    # pairing an even or odd candidate with itself in place of its flip
    # changes no row of any scan, argmax labels included
    pair, omega = pair_from_spec({"family": "power", "p": 1.5}), polynomial_weight(0.4)
    ctx = AlgebraContext(pair, omega, dim)
    der = Derivation.with_ball_window(Homomorphism(coeffs), dim)
    trials, seed = 4, 41
    scans = [lambda: derivation_norm_scan(ctx, der, algebra._radius_ladder(radius), trials, seed)]
    scans += [scan for _, scan, _ in algebra_scans(pair, omega, dim, radius, trials, seed)]
    with mock.patch.object(algebra, "scan_pairs", every_flip):
        want = [scan_outcome(scan) for scan in scans]
    assert all(rows.startswith("[{") for rows in want), want
    assert [scan_outcome(scan) for scan in scans] == want
    own = {kind for kind, f, g in scan_pairs(dim, radius, trials, seed, omega=omega, xi=der.form)
           if g is f and kind.endswith("/flipped")}
    assert "damped-form-profile/flipped" in own and "ball-indicator/flipped" in own


def test_each_convolution_top_makes_one_route_decision():
    # a top is one convolve call, which asks the route once
    # (algebra._takes_box), whether it takes the box or the loop
    pair, omega = pair_from_spec({"family": "power", "p": 1.5}), polynomial_weight(0.7)
    ctx = AlgebraContext(pair, omega, 1)
    spies = {name: mock.Mock(wraps=getattr(algebra, name))
             for name in ("_takes_box", "convolve", "_convolve_loop")}
    with mock.patch.multiple(algebra, **spies):
        submult_estimate(ctx, 48, 8, 1007)
    tops, loops = spies["convolve"].call_count, spies["_convolve_loop"].call_count
    assert 0 < loops < tops
    assert spies["_takes_box"].call_count == tops
    # convolve on the loop, the box, a box it refuses and a point past int64
    line = FinSuppFn.indicator(range(20))
    for f, g in ((line, FinSuppFn.delta(3)), (line, line),
                 (line, FinSuppFn.indicator([0, 10**6])),
                 (FinSuppFn.indicator([2**70] + list(range(19))), line)):
        with mock.patch.object(algebra, "_takes_box", wraps=algebra._takes_box) as decide:
            convolve(f, g)
        assert decide.call_count == 1


def test_scan_tops_bit_identical_where_weighted_products_underflow():
    # omega is 2**-1073 past word length 40, which only f*g reaches: there
    # the products of small values round to 0 and leave the top's support,
    # while f and g keep their norms
    omega = Weight("cliff", {}, lambda n: 1.0 if n <= 40 else 2.0 ** -1073)
    pair = pair_from_spec({"family": "power", "p": 1.5})
    drawn = [(f, g) for _, f, g in scan_pairs(1, 24, 4, 23, omega=omega)]
    assert any(len(apply_weight(convolve(f, g), omega)) < len(convolve(f, g)) for f, g in drawn)
    assert_convolution_tops_match(pair, omega, drawn)
    for op, scan, loop in algebra_scans(pair, omega, 1, 24, 4, 23):
        assert scan_outcome(scan) == scan_outcome(loop), op


def _end_line(xs, dim=1, axis=0, value=None) -> FinSuppFn:
    """An entry at each x on one axis, the other coordinates counting up."""
    return FinSuppFn(dim, {tuple(x if i == axis else k for i in range(dim)):
                           complex(0.5 + k, 0.25 - k) if value is None else value
                           for k, x in enumerate(xs)})


@pytest.mark.parametrize("dim", [1, 2])
def test_scan_tops_bit_identical_at_int64_ends(dim):
    # 20 x 20 products, so the int64 view picks each pair's path: cells near
    # both ends, a purely imaginary f*g (its real parts all 0), a corner at
    # -2**63 itself (a cell there has no int64 view), a point past int64
    # and box corners outside it
    low, high = [-(2**63) + k for k in range(1, 21)], [2**63 - 1 - k for k in range(20)]
    half = [-(2**62) + k for k in range(20)]
    axis = dim - 1
    pairs = [
        (_end_line(low, dim, axis), _end_line(range(20), dim)),
        (_end_line(high, dim, axis), _end_line(range(-19, 1), dim, axis)),
        (_end_line(high, dim, axis, 1j), _end_line(range(-19, 1), dim, axis, 2.0)),
        (_end_line(half, dim, axis), _end_line(half, dim, axis)),  # the corner is -2**63
        (_end_line([2**70] + list(range(19)), dim, axis), _end_line(range(20), dim)),
        (_end_line(low, dim, axis), _end_line(range(-20, 0), dim, axis)),
        (_end_line(high, dim, axis), _end_line(range(1, 21), dim, axis)),
    ]

    def draw(dim, r, trials, seed, omega=None, xi=None):
        return [(f"end[{i}]", f, g) for i, (f, g) in enumerate(pairs)]

    omega = polynomial_weight(0.4)
    pair = pair_from_spec({"family": "power", "p": 1.5})
    assert_convolution_tops_match(pair, omega, pairs)
    with mock.patch.object(algebra, "scan_pairs", draw):
        for op, scan, loop in algebra_scans(pair, omega, dim, 4, 1, 23, draw):
            want = scan_outcome(loop)
            assert want.startswith("[{"), (op, want)
            assert scan_outcome(scan) == want, op


def test_scan_tops_raise_the_per_pair_error_where_omega_overflows():
    # omega(48) = e^816 is inf, so the tops of the radius-24 pairs that
    # reach word length 48 overflow, the atoms' (the loop) and the balls'
    # (the box) alike; the scans raise the error the per-pair loop meets
    # first. A box top whose f*g itself overflows raises convolve's error.
    omega = subexp_alpha_weight(1.0, 17.0)
    pair = pair_from_spec({"family": "power", "p": 1.5})
    drawn = [(f, g) for _, f, g in scan_pairs(1, 24, 4, 0, omega=omega)]
    huge = _end_line(range(20), value=1e200)
    assert_convolution_tops_match(pair, omega, drawn + [(huge, huge)])
    for op, scan, loop in algebra_scans(pair, omega, 1, 24, 4, 0):
        assert scan_outcome(scan) == scan_outcome(loop), op
        if op == "submult_estimate":
            assert scan_outcome(scan) == ("NumericalFailureError: weighted value (inf+nanj) "
                                          "at (48,) (weight inf) is not finite")


def test_ratio_scan_reads_sorted_distinct_radii():
    ctx = AlgebraContext(pair_from_spec({"family": "power", "p": 1.5}), polynomial_weight(0.4), 1)
    der = Derivation.with_ball_window(Homomorphism.basis(1), 1)
    ascending = derivation_norm_scan(ctx, der, [2, 4, 8], 5, 17)
    for radii in ([8, 4, 2], [4, 8, 2, 8]):
        rep = derivation_norm_scan(ctx, der, radii, 5, 17)
        assert repr(rep.per_radius) == repr(ascending.per_radius)
        assert rep.trend == ascending.trend
    # one distinct radius has no trend; certify-algebra's ladder at radius 1 is [1, 1, 1]
    for rep in (derivation_norm_scan(ctx, der, [4], 5, 17),
                derivation_norm_scan(ctx, der, [4, 4], 5, 17),
                submult_estimate(ctx, 1, 5, 17)):
        assert len(rep.per_radius) == 1 and rep.trend == "indeterminate"
    with pytest.raises(InvalidInputError, match="at least one radius"):
        derivation_norm_scan(ctx, der, [], 5, 17)
    with pytest.raises(InvalidInputError, match="radius 0 is below 1"):
        derivation_norm_scan(ctx, der, [4, 0], 5, 17)
    # the radius asked for, not the ladder [1, 1, -3] built from it
    with pytest.raises(InvalidInputError, match="radius -3 is below 1"):
        submult_estimate(ctx, -3, 5, 17)


def test_ratio_scan_raises_the_error_the_pair_order_meets_first():
    # the measures see every pair of a radius at once; where that batch
    # raises, the radius is replayed a pair at a time, so an earlier pair's
    # top still wins over a later pair's norm, and the other way round, and
    # of two tops that raise, the earlier pair's wins though the batch
    # meets the later one first
    drawn = list(scan_pairs(1, 4, 3, 17))
    kinds = [kind for kind, _, _ in drawn]
    early, late = kinds.index("axis-atom/flipped"), kinds.index("random[1]")

    class TopError(Exception):
        pass

    class LateTopError(Exception):
        pass

    class NormError(Exception):
        pass

    def scan(top_at, norm_at, late_top_at=None):
        raising = [(at, error) for at, error in ((top_at, TopError), (late_top_at, LateTopError))
                   if at is not None]

        def top(fs, gs):
            for f, g in reversed(list(zip(fs, gs))):  # the later pair first
                for at, error in raising:
                    if (f, g) == drawn[at][1:]:
                        raise error
            return [1.0] * len(fs)

        def left(fs):
            if norm_at is not None and drawn[norm_at][1] in fs:
                raise NormError
            return [1.0] * len(fs)

        return algebra._ratio_scan("t", {}, [4], top, left, left, 1, 3, 17)

    with pytest.raises(TopError):
        scan(early, late)
    with pytest.raises(NormError):
        scan(late, early)
    with pytest.raises(TopError):  # no norm raises: the batch goes through
        scan(early, None)
    with pytest.raises(TopError):  # the batch raises LateTopError, the replay TopError
        scan(early, None, late)


def test_ratio_scan_norms_a_same_pair_once():
    ctx = AlgebraContext(pair_from_spec({"family": "power", "p": 1.5}), polynomial_weight(0.7), 1)
    radii, trials, seed = [2, 4], 3, 17
    expected, n_same, n_own_flip = [], 0, 0
    for r in radii:
        for kind, f, g in scan_pairs(1, r, trials, seed, omega=ctx.omega):
            n_same += kind.endswith("/same")
            n_own_flip += kind.endswith("/flipped") and g is f
            expected += [f] if kind.endswith("/same") else [f, g]
    assert n_same > 0 and n_own_flip > 0

    def ones(fs, gs):
        return [1.0] * len(fs)

    # through the bound method the memo on f computes one weighted norm per
    # distinct object: a candidate's /flipped and /same pairs share its f,
    # and a symmetric candidate's flip is f itself
    distinct = len({id(f) for f in expected})
    assert distinct == len(expected) - n_same - n_own_flip
    # the body runs one lane per support it measures, in batches; the
    # convolution tops call it by algebra's own name for it
    body = mock.Mock(wraps=norms._luxemburg_norms)
    with mock.patch.object(norms, "_luxemburg_norms", body), \
            mock.patch.object(algebra, "_luxemburg_norms", body):
        algebra._ratio_scan("count", {}, radii, ones, ctx.weighted_luxemburg_norms,
                            ctx.weighted_luxemburg_norms, 1, trials, seed, omega=ctx.omega)
        assert sum(len(call.args[1]) for call in body.call_args_list) == distinct
        # the memo is per context: with another weight on the left, f of a
        # candidate is normed once in each context and its flip once, unless
        # the flip is f, whose right norm its /same pair shares
        other = AlgebraContext(ctx.pair, polynomial_weight(0.4), 1)
        body.reset_mock()
        algebra._ratio_scan("count", {}, radii, ones, other.weighted_luxemburg_norms,
                            ctx.weighted_luxemburg_norms, 1, trials, seed, omega=ctx.omega)
        assert sum(len(call.args[1]) for call in body.call_args_list) == (
            len(expected) - n_own_flip)
        # each radius of a submult scan takes three batches: the lefts, the
        # rights and the tops
        body.reset_mock()
        rep = submult_estimate(ctx, 4, trials, seed)
        assert len(rep.per_radius) == 3
        assert body.call_count == 3 * len(rep.per_radius)
