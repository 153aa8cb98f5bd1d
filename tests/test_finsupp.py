from __future__ import annotations

import math

import numpy as np
import pytest

from orliczlat import finsupp
from orliczlat.algebra import convolve
from orliczlat.errors import InvalidInputError, NumericalFailureError
from orliczlat.finsupp import FinSuppFn, as_point
from orliczlat.norms import holder_check
from orliczlat.sampling import adversarial_candidates, random_finsupp
from orliczlat.weights import Homomorphism, polynomial_weight
from orliczlat.young import pair_from_spec


def test_zero_entries_are_dropped():
    f = FinSuppFn(1, {(0,): 1.0, (1,): 0.0, (2,): 0j})
    assert f.support() == [(0,)]
    assert len(f) == 1


def test_dimension_checked():
    with pytest.raises(InvalidInputError):
        FinSuppFn(2, {(0,): 1.0})
    with pytest.raises(InvalidInputError):
        FinSuppFn(0, {})


def test_non_finite_rejected():
    # values from outside, including a scale factor: a config error
    with pytest.raises(InvalidInputError):
        FinSuppFn(1, {(0,): math.inf})
    with pytest.raises(InvalidInputError):
        FinSuppFn(1, {(0,): complex(0, math.nan)})
    with pytest.raises(InvalidInputError, match=r"non-finite value \(nan\+0j\) at \(3,\)"):
        FinSuppFn(1, {(0,): 1.0, (3,): math.nan})
    for c in (math.nan, math.inf, complex(1.0, -math.inf)):
        with pytest.raises(InvalidInputError, match="scale factor .* is not finite"):
            FinSuppFn.delta(0, 2.0).scale(c)


def test_arithmetic_overflow_is_a_numerical_failure_naming_the_point():
    big = FinSuppFn(1, {(0,): 1.0, (2,): 1e200})
    huge = FinSuppFn.delta(2, 1.7e308)
    cases = [
        (lambda: big.scale(1e200), r"scaled value \(inf\+0j\)"),
        (lambda: huge + huge, r"sum value \(inf\+0j\)"),
        (lambda: huge - huge.scale(-1.0), r"sum value \(inf\+0j\)"),
        (lambda: big.pointwise_mul(big), r"product value \(inf\+0j\)"),
        # abs(complex) would raise OverflowError here
        (lambda: FinSuppFn.delta(2, complex(1.7e308, 1.7e308)).abs(), r"abs value \(inf\+0j\)"),
        (lambda: holder_check(pair_from_spec({"family": "power", "p": 2}), big, big),
         r"product value \(inf\+0j\)"),
    ]
    for op, message in cases:
        with pytest.raises(NumericalFailureError, match=message + r" at \(2,\) is not finite"):
            op()


def test_values_stay_python_complex():
    f = FinSuppFn(1, {(0,): 1, (1,): -2.5, (2,): 1j})
    for g in (f, f.scale(2), f + f, f - f.scale(0.5), f.pointwise_mul(f), f.abs(), f.flip(),
              FinSuppFn.delta(0), FinSuppFn.indicator([0, 1])):
        assert g.entries and {type(v) for _, v in g} == {complex}
    assert [v.real.hex() for _, v in f.abs()] == [abs(v).hex() for _, v in f]


def test_computed_door_keeps_the_producers_entries():
    # the internal door keeps a dict with no exact zero as it is handed
    # over (entries, order, Python complex values), drops 0j and -0.0+0j
    # wherever they stand, and names the first non-finite value
    src = {(3,): 1 + 2j, (-1,): -0.5 + 0j, (7,): 5e-324j, (0,): complex(2.0, -0.0)}
    f = FinSuppFn._computed(1, dict(src), "test")
    assert list(f.entries.items()) == list(src.items())
    assert {type(v) for _, v in f} == {complex}
    assert [v.imag.hex() for _, v in f] == [v.imag.hex() for v in src.values()]
    zeros = {(5,): 0j, **src, (6,): complex(-0.0, 0.0), (8,): complex(0.0, -0.0)}
    g = FinSuppFn._computed(1, zeros, "test")
    assert list(g.entries.items()) == list(src.items())
    bad = {(0,): 1 + 0j, (3,): complex(math.nan, 0.0), (4,): complex(math.inf, 0.0), (5,): 0j}
    with pytest.raises(NumericalFailureError, match=r"^test value \(nan\+0j\) at \(3,\) is not finite$"):
        FinSuppFn._computed(1, bad, "test")


def test_int64_view_of_every_producer_matches_a_fresh_read():
    # each function's kept int64 view, seeded by its producer or read on
    # first use, is _int64_points of its entries (None where a coordinate
    # leaves int64), read-only and read once
    omega, xi = polynomial_weight(0.4), Homomorphism((0.3 - 0.7j, 2 + 1j))
    cands = dict(adversarial_candidates(2, 4, omega, xi))
    half = [-(2**62) + k for k in range(20)]
    box = [convolve(FinSuppFn.indicator(range(20)), FinSuppFn.indicator(range(0, 40, 2))),
           convolve(FinSuppFn.indicator(half), FinSuppFn.indicator(half))]  # a cell at -2**63
    ends = [FinSuppFn(1, {(2**63 - 1,): 1.0, (1 - 2**63,): 2j}), FinSuppFn(1, {(2**63,): 1.0}),
            FinSuppFn(2, {(0, -(2**63)): 1.0}), FinSuppFn(2, {(0, 5): 1.0, (-2**70, 1): 3.0})]
    lazy = [*ends, random_finsupp(2, 9, np.random.default_rng(3)), FinSuppFn.zero(3)]
    assert all(f._view is finsupp._UNREAD for f in lazy)
    seeded = [cands[k] for k in ("ball-indicator", "inverse-weight-profile", "damped-form-profile")]
    assert len(seeded[2]) < len(seeded[0])  # xi's zeros left the damped profile's support
    seeded += box + [f.flip() for f in (*cands.values(), box[0], ends[0])]
    assert all(f._view is not finsupp._UNREAD for f in seeded)
    nones = 0
    for f in [*seeded, *cands.values(), *lazy, *(f.flip() for f in ends)]:
        want, got = finsupp._int64_points(f.entries, f.dim), f._int64_view()
        assert got is f._int64_view()
        if want is None:
            nones += 1
            assert got is None
        else:
            assert got.dtype == np.int64 and got.shape == (len(f), f.dim)
            assert np.array_equal(got, want) and not got.flags.writeable
    assert nones == 7  # the box with a cell at -2**63, and the last three ends and their flips


@pytest.mark.parametrize("raw, point", [
    ((3, -4), (3, -4)), (7, (7,)), ([2.0, -1], (2, -1)), (("5", 0), (5, 0)), (np.int64(4), (4,)),
    ("12", (12,)), ("-3", (-3,)),  # a string is one coordinate
])
def test_as_point_reads_integers_only(raw, point):
    assert as_point(raw) == point and {type(c) for c in as_point(raw)} == {int}


@pytest.mark.parametrize("raw", [(0.5,), (True,), True, (1, 2.5), ("1.5",), (None,), (), "ab", "1.5", ""])
def test_as_point_refuses_what_is_not_an_integer(raw):
    with pytest.raises(InvalidInputError):
        as_point(raw)


def test_delta_and_indicator():
    d = FinSuppFn.delta((2, -1), 3.0)
    assert d.dim == 2 and d[(2, -1)] == 3.0 and d[(0, 0)] == 0.0
    ind = FinSuppFn.indicator([(0,), (1,), (-1,)])
    assert ind.support() == [(-1,), (0,), (1,)]
    assert all(v == 1.0 for _, v in ind)


def test_arithmetic():
    f = FinSuppFn(1, {(0,): 1.0, (1,): 2.0})
    g = FinSuppFn(1, {(1,): -2.0, (2,): 1j})
    s = f + g
    assert s.support() == [(0,), (2,)]  # the (1,) entries cancel exactly
    assert (f - f).is_zero
    assert f.scale(2.0)[(1,)] == 4.0
    prod = f.pointwise_mul(g)
    assert prod.support() == [(1,)] and prod[(1,)] == -4.0
    assert f.abs()[(1,)] == 2.0


def test_dim_mismatch_rejected():
    f = FinSuppFn.delta((0,))
    g = FinSuppFn.delta((0, 0))
    with pytest.raises(InvalidInputError):
        _ = f + g


def test_json_round_trip():
    f = FinSuppFn(2, {(1, -2): complex(0.5, -1.5), (0, 0): 2.0})
    obj = f.to_json_obj()
    assert obj == {
        "dim": 2,
        "entries": [[[0, 0], [2.0, 0.0]], [[1, -2], [0.5, -1.5]]],
    }
    back = FinSuppFn.from_json_obj(obj)
    assert back == f


def test_json_malformed_rejected():
    with pytest.raises(InvalidInputError):
        FinSuppFn.from_json_obj({"dim": 1})
    with pytest.raises(InvalidInputError):
        FinSuppFn.from_json_obj({"dim": 1, "entries": [[[0], [1.0]]]})


@pytest.mark.parametrize("obj, message", [
    ({"dim": 1, "entries": [[[0], [3, 0]], [[0], [4, 0]]]}, r"point \(0,\) is repeated"),
    ({"dim": 1, "entries": [[[0], [3, 0]], [["0"], [4, 0]]]}, r"point \(0,\) is repeated"),
    ({"dim": 1, "entries": [[[0.5], [3, 0]]]}, r"lattice coordinate: cannot read 0\.5"),
    ({"dim": 1.7, "entries": [[[0], [3, 0]]]}, r"sparse-function dim: cannot read 1\.7"),
    ({"dim": True, "entries": [[[0], [3, 0]]]}, r"sparse-function dim: cannot read True"),
])
def test_json_read_changes_nothing_silently(obj, message):
    with pytest.raises(InvalidInputError, match=message):
        FinSuppFn.from_json_obj(obj)
    # integral floats and integer text are the same point
    f = FinSuppFn.from_json_obj({"dim": 2.0, "entries": [[[1.0, "-2"], [3, 0]]]})
    assert f == FinSuppFn.delta((1, -2), 3.0)


def test_entries_are_read_only():
    f = FinSuppFn.delta(0)
    with pytest.raises(TypeError):
        f.entries[(5,)] = 1.0  # type: ignore[index]
