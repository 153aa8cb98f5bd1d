from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SCAN_WEIGHTS, seeded_rng
from orliczlat import algebra, amenability
from orliczlat.algebra import AlgebraContext, convolve
from orliczlat.amenability import (
    ChainReport,
    Derivation,
    apply_derivation,
    classify,
    damped_form_bounded,
    damped_form_in_orlicz,
    decay_chain_check,
    derivation_norm_scan,
    leibniz_check,
)
from orliczlat.errors import (
    InvalidInputError,
    NumericalFailureError,
    PreconditionError,
    ResourceLimitError,
)
from orliczlat.finsupp import FinSuppFn, _int64_points
from orliczlat.sampling import (
    PROFILE_SUPPORT_CAP,
    adversarial_candidates,
    random_finsupp,
    scan_pairs,
)
from orliczlat.weights import (
    MAX_BALL_POINTS,
    DampedHomomorphism,
    Homomorphism,
    Weight,
    ball,
    ball_size,
    generic_weight,
    polynomial_weight,
    subexp_alpha_weight,
    subexp_log_weight,
    weight_from_spec,
)
from orliczlat.young import numeric_conjugate, pair_from_spec, sqrt_transform, young_from_spec


def derivation_oracle(window: FinSuppFn, xi: Homomorphism, f: FinSuppFn) -> dict:
    """Independent evaluation D(f)(x) = sum_y window(x-y) f(-y) xi(-y)."""
    candidates = {
        tuple(w - p_ for w, p_ in zip(wp, p))
        for wp in window.support()
        for p in f.support()
    }
    out: dict = {}
    for x in candidates:
        total = sum(
            window[tuple(a - b for a, b in zip(x, y))]
            * f[tuple(-c for c in y)]
            * xi(tuple(-c for c in y))
            for y in {tuple(-c for c in p) for p in f.support()}
        )
        if total != 0:
            out[x] = total
    return out


# -- homomorphisms ------------------------------------------------------------


def test_homomorphism_additivity_and_basis():
    xi = Homomorphism((1.5, -2j))
    rng = seeded_rng(30)
    for _ in range(50):
        x = tuple(int(v) for v in rng.integers(-20, 21, 2))
        y = tuple(int(v) for v in rng.integers(-20, 21, 2))
        s = tuple(a + b for a, b in zip(x, y))
        assert xi(s) == xi(x) + xi(y)
    e1 = Homomorphism.basis(3, 0)
    assert e1((5, 7, -1)) == 5
    assert not e1.is_zero
    assert Homomorphism((0.0, 0.0)).is_zero
    with pytest.raises(InvalidInputError):
        Homomorphism(())
    for bad in (math.nan, math.inf, complex(1.0, -math.inf)):
        with pytest.raises(InvalidInputError, match="coefficient .* is not finite"):
            Homomorphism((1.0, bad))


def test_corner_amplitude_matches_shell_enumeration():
    rng = seeded_rng(31)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        coeffs = tuple(complex(a, b) for a, b in rng.standard_normal((d, 2)))
        xi = Homomorphism(coeffs)
        for n in (1, 3, 6):
            shell = [p for p in ball(n, d) if max(abs(c) for c in p) == n]
            explicit = max(abs(xi(p)) for p in shell)
            assert explicit == pytest.approx(n * xi.corner_amplitude(), rel=1e-12)


def test_damped_form_batch_values_and_overflow():
    dh = DampedHomomorphism(Homomorphism((1.0, -0.5j)), subexp_alpha_weight(0.5, 1.0))
    pts = ball(3, 2) + [(2**70, 1), (-2**63, 0)]
    want = [dh.xi(p) / (dh.omega(p) * dh.omega(p)) for p in pts]
    assert dh.values(pts) == want and dh(pts[-1]) == want[-1]
    assert dh.values([]) == []
    # 1e308 * 4 overflows at the first ball point, however far it is damped
    big = DampedHomomorphism(Homomorphism((1e308,)), polynomial_weight(0.4))
    with pytest.raises(NumericalFailureError, match=r"at \(-4,\) is not finite"):
        big.values(ball(4, 1))


def _parts_hex(values) -> list[tuple[type, str, str]]:
    """Each value's type and the bits of both parts, signed zeros included."""
    return [(type(v), v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("coeffs, n", [
    ((1.0,), 8),
    ((-2.5j,), 8),
    ((complex(-0.0, 3.0),), 8),
    ((0.3 - 0.7j, 2 + 1j), 4),
    ((complex(-0.0, -1.0), complex(1.5, -0.0)), 4),
])
def test_damped_form_array_values_bit_identical_to_pointwise(coeffs, n):
    # the array path repeats xi(p) / (w*w) point by point, signed zeros
    # included: "steep" damps every point off the origin to a zero whose
    # sign is that of the quotient
    xi, dim = Homomorphism(coeffs), len(coeffs)
    steep = Weight("steep", {}, lambda k: 1e200 ** k)
    pts = ball(n, dim)
    zeros = set()
    for omega in (polynomial_weight(0.4), subexp_alpha_weight(0.5, 1.0), steep):
        dh = DampedHomomorphism(xi, omega)
        want = _parts_hex([xi(p) / (omega(p) * omega(p)) for p in pts])
        zeros |= {part for _, re, im in want for part in (re, im) if "0x0.0p" in part}
        with mock.patch.object(Homomorphism, "__call__", side_effect=AssertionError("per point")):
            got = [_parts_hex(dh.values(pts)), _parts_hex(dh.values(pts, _int64_points(pts, dim)))]
        assert got == [want, want], omega.describe()
    assert zeros == {"0x0.0p+0", "-0x0.0p+0"}


def test_damped_form_point_past_int64_takes_the_per_point_path():
    # (2**63,) has no int64 view, so the batch is formed point by point and
    # raises the per-point error; the same value at a viewed point raises it too
    big = DampedHomomorphism(Homomorphism((1e308,)), polynomial_weight(0.4))
    for far in (2**63, 2**62):
        w = big.omega((far,))
        v = big.xi((far,)) / (w * w)
        with pytest.raises(NumericalFailureError) as err:
            big.values([(0,), (far,)])
        assert str(err.value) == f"damped form value {v!r} at {(far,)!r} is not finite"


def test_damped_form_reads_its_point_as_a_lattice_point():
    dh = DampedHomomorphism(Homomorphism((1.0,)), polynomial_weight(0.4))
    assert dh([2]) == dh((2,)) == dh(2) == dh.values([(2,)])[0]
    for bad in ((1.9,), (0.5,), (1, 2), ()):
        with pytest.raises(InvalidInputError):
            dh(bad)


def test_damped_form_values_and_shell_max():
    xi = Homomorphism((1.0, 2.0))
    w = polynomial_weight(0.5)
    dh = DampedHomomorphism(xi, w)
    pt = (3, -4)
    expected = xi(pt) / (w(pt) * w((-3, 4)))
    assert dh(pt) == pytest.approx(expected, rel=1e-12)
    for n in (1, 4, 7):
        shell = [p for p in ball(n, 2) if max(abs(c) for c in p) == n]
        explicit = max(abs(dh(p)) for p in shell)
        assert explicit == pytest.approx(dh.shell_max(n), rel=1e-12)


# -- boundedness --------------------------------------------------------------


def test_damped_form_bounded_polynomial_both_modes():
    xi = Homomorphism((1.0,))
    for beta, want in ((0.4, "unbounded"), (0.45, "unbounded"), (0.55, "bounded"), (0.6, "bounded")):
        dh = DampedHomomorphism(xi, polynomial_weight(beta))
        a = damped_form_bounded(dh)
        n = amenability._slope_bounded(dh)
        assert a.verdict == want, (beta, a)
        assert n.verdict == want, (beta, n)


def test_damped_form_bounded_sup_value():
    # beta = 0.6: sup_n n/(1+n)^1.2 over the integers, attained near n = 5
    dh = DampedHomomorphism(Homomorphism((1.0,)), polynomial_weight(0.6))
    rep = damped_form_bounded(dh)
    explicit = max(n / (1.0 + n) ** 1.2 for n in range(1, 10**6))
    assert rep.sup_estimate == pytest.approx(explicit, rel=1e-12)
    # the l1 anchor (Bade-Curtis-Dales): n/(1+n)^(2 beta) peaks at
    # n = 1/(2 beta - 1), so its sup over the integers is at a neighbour
    for beta in (0.55, 0.75, 1.0, 2.0):
        dh = DampedHomomorphism(Homomorphism((1.0,)), polynomial_weight(beta))
        peak = 1.0 / (2.0 * beta - 1.0)
        closed = max(n / (1.0 + n) ** (2.0 * beta) for n in (math.floor(peak), math.ceil(peak)))
        rep = damped_form_bounded(dh)
        assert rep.verdict == "bounded"
        assert rep.sup_estimate == pytest.approx(closed, rel=1e-12), beta


DAMPED_FORMS = [(1.0,), (1.0, 0.0), (1.0, -1.0), (0.3 + 2j, -1.5, 0.25)]


@pytest.mark.parametrize("beta", [0.5 + 1e-4, 0.5 + 1e-3, 0.55, 0.6, 0.75, 1.0, 2.0])
def test_damped_form_bounded_closed_form_matches_horizon_search(beta):
    # the horizon search the closed form replaced, written out: every
    # shell maximum up to three times the peak (at least 1000 radii)
    peak = 1.0 / (2.0 * beta - 1.0)
    horizon = min(10**6, max(1000, int(3 * peak) + 1))
    for coeffs in DAMPED_FORMS:
        dh = DampedHomomorphism(Homomorphism(coeffs), polynomial_weight(beta))
        searched = max(dh.shell_max(n) for n in range(1, horizon + 1))
        with mock.patch.object(DampedHomomorphism, "shell_max", autospec=True,
                               side_effect=DampedHomomorphism.shell_max) as shell_max:
            rep = damped_form_bounded(dh)
        assert rep.sup_estimate == searched, (beta, coeffs)
        assert shell_max.call_count <= 2


def test_damped_form_bounded_at_half_is_the_corner_amplitude():
    for coeffs in DAMPED_FORMS:
        xi = Homomorphism(coeffs)
        rep = damped_form_bounded(DampedHomomorphism(xi, polynomial_weight(0.5)))
        assert (rep.verdict, rep.sup_estimate) == ("bounded", xi.corner_amplitude())


def test_damped_form_bounded_peak_beyond_a_million_radii():
    # peak 1/(2 beta - 1) = 2.5e6: a search stopped at 10^6 radii reads
    # 0.9999934738171723 and misses the supremum
    dh = DampedHomomorphism(Homomorphism((1.0,)), polynomial_weight(0.5 + 2e-7))
    t0 = time.perf_counter()
    rep = damped_form_bounded(dh)
    assert time.perf_counter() - t0 < 0.5
    assert rep.sup_estimate > 0.9999934738171723


def test_damped_form_bounded_generic_weight_takes_the_slope_fit():
    dh = DampedHomomorphism(Homomorphism((1.0,)), generic_weight(math.sqrt, label="sqrt-rate"))
    assert damped_form_bounded(dh).method.startswith("numeric:")


def test_damped_form_bounded_subexponential():
    dh = DampedHomomorphism(Homomorphism((1.0,)), subexp_alpha_weight(0.5, 1.0))
    assert damped_form_bounded(dh).verdict == "bounded"
    assert amenability._slope_bounded(dh).verdict == "bounded"
    dh2 = DampedHomomorphism(Homomorphism((1.0,)), subexp_log_weight(1.0, 1.0))
    assert damped_form_bounded(dh2).verdict == "bounded"


def test_damped_form_bounded_rejects_zero_form():
    dh = DampedHomomorphism(Homomorphism((0.0,)), polynomial_weight(1.0))
    with pytest.raises(InvalidInputError):
        damped_form_bounded(dh)


# -- orlicz membership ----------------------------------------------------------


def test_damped_form_membership_yes():
    # strong damping (beta = 2) against the sqrt-conjugate scale of p = 3
    phi = young_from_spec({"family": "power", "p": 3})
    psi_tilde = numeric_conjugate(sqrt_transform(phi))
    dh = DampedHomomorphism(Homomorphism((1.0,)), polynomial_weight(2.0))
    rep = damped_form_in_orlicz(dh, psi_tilde)
    assert rep.verdict == "yes"
    assert rep.alpha is not None and rep.alpha > 0


def test_damped_form_membership_no_for_trivial_weight():
    phi = young_from_spec({"family": "power", "p": 3})
    psi_tilde = numeric_conjugate(sqrt_transform(phi))
    dh = DampedHomomorphism(Homomorphism((1.0,)), polynomial_weight(0.0))
    rep = damped_form_in_orlicz(dh, psi_tilde)
    assert rep.verdict == "no"


# -- derivation operator ----------------------------------------------------------


def test_apply_derivation_hand_example():
    d = Derivation.with_ball_window(Homomorphism((1.0,)), 1, 1)
    out = apply_derivation(d, FinSuppFn.delta(1))
    assert out == FinSuppFn.indicator([(-2,), (-1,), (0,)])
    assert apply_derivation(d, FinSuppFn.delta(0)).is_zero


def test_apply_derivation_zero_form():
    d = Derivation.with_ball_window(Homomorphism((0.0,)), 1, 1)
    for t in range(5):
        f = random_finsupp(1, 5, seeded_rng(32, t), max_support=8)
        assert apply_derivation(d, f).is_zero


def test_apply_derivation_linear():
    d = Derivation.with_ball_window(Homomorphism((1.0, -2.0)), 2, 1)
    rng = seeded_rng(33)
    for _ in range(10):
        f = random_finsupp(2, 4, rng, max_support=8)
        g = random_finsupp(2, 4, rng, max_support=8)
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        left = apply_derivation(d, f.scale(a) + g.scale(b))
        right = apply_derivation(d, f).scale(a) + apply_derivation(d, g).scale(b)
        assert left.support() == right.support()
        for p, v in left:
            assert v == pytest.approx(right[p], rel=1e-12, abs=1e-12)


def test_apply_derivation_matches_brute_force():
    for t in range(10):
        d_dim = 1 + t % 2
        xi = Homomorphism(tuple(1.0 + k for k in range(d_dim)))
        d = Derivation.with_ball_window(xi, d_dim, 1)
        f = random_finsupp(d_dim, 4, seeded_rng(34, t), max_support=6)
        got = apply_derivation(d, f)
        oracle = derivation_oracle(d.window, xi, f)
        assert dict(got.entries) == pytest.approx(oracle)


def test_derivation_translation_covariance():
    # D(delta_a * f) = delta_{-a} * D(f) + xi(a) * (window * (delta_{-a} * flip f))
    xi = Homomorphism((1.0,))
    d = Derivation.with_ball_window(xi, 1, 1)
    rng = seeded_rng(35)
    for _ in range(10):
        a = int(rng.integers(-6, 7))
        f = random_finsupp(1, 4, rng, max_support=6)
        left = apply_derivation(d, convolve(FinSuppFn.delta(a), f))
        right = convolve(FinSuppFn.delta(-a), apply_derivation(d, f)) + convolve(
            d.window, convolve(FinSuppFn.delta(-a), f.flip())
        ).scale(xi((a,)))
        assert left.support() == right.support()
        for p, v in left:
            assert v == pytest.approx(right[p], rel=1e-9, abs=1e-12)


# -- leibniz ------------------------------------------------------------------------


def leibniz_oracle(window, xi, f, g, h):
    """Raw multi-sum expansion of both pairings."""
    lhs = 0j
    for x, hv in h:
        for u, fv in f:
            for v, gv in g:
                w = tuple(a + b + c for a, b, c in zip(x, u, v))
                lhs += window[w] * fv * gv * xi(tuple(a + b for a, b in zip(u, v))) * hv
    rhs = 0j
    for x, prod_v in convolve(h, f):
        for s, gv in g:
            w = tuple(a + b for a, b in zip(x, s))
            rhs += window[w] * gv * xi(s) * prod_v
    for x, prod_v in convolve(h, g):
        for s, fv in f:
            w = tuple(a + b for a, b in zip(x, s))
            rhs += window[w] * fv * xi(s) * prod_v
    return lhs, rhs


def test_leibniz_zero_cases():
    d = Derivation.with_ball_window(Homomorphism((1.0,)), 1, 1)
    d0 = FinSuppFn.delta(0)
    rep = leibniz_check(d, d0, d0, FinSuppFn.indicator([(0,), (1,)]))
    assert rep.lhs == 0 and rep.rhs == 0 and rep.ok


def test_leibniz_seeded_triples_both_dims_and_weights():
    # the identity is weight-independent; weights only set the context
    for d_dim in (1, 2):
        xi = Homomorphism((1.0,) + (0.5,) * (d_dim - 1))
        d = Derivation.with_ball_window(xi, d_dim, 1)
        for t in range(50):
            rng = seeded_rng(36, d_dim, t)
            f = random_finsupp(d_dim, 5, rng, max_support=8)
            g = random_finsupp(d_dim, 5, rng, max_support=8)
            h = random_finsupp(d_dim, 5, rng, max_support=8)
            rep = leibniz_check(d, f, g, h)
            assert rep.ok, (d_dim, t, rep)


_PART = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _leibniz_case(draw):
    dim = draw(st.sampled_from([1, 2]))
    point = st.tuples(*[st.integers(-3, 3)] * dim)
    value = st.builds(complex, _PART, _PART)
    fns = [FinSuppFn(dim, draw(st.dictionaries(point, value, min_size=1, max_size=8)))
           for _ in range(3)]
    form = Homomorphism(tuple(draw(st.lists(value, min_size=dim, max_size=dim))))
    return (Derivation.with_ball_window(form, dim, 1), *fns)


@given(_leibniz_case())
def test_leibniz_holds_on_drawn_triples(case):
    d, f, g, h = case
    rep = leibniz_check(d, f, g, h)
    assert rep.ok, rep


def test_leibniz_matches_raw_expansion_oracle():
    xi = Homomorphism((1.0,))
    d = Derivation.with_ball_window(xi, 1, 1)
    for t in range(10):
        rng = seeded_rng(37, t)
        f = random_finsupp(1, 3, rng, max_support=3)
        g = random_finsupp(1, 3, rng, max_support=3)
        h = random_finsupp(1, 3, rng, max_support=3)
        rep = leibniz_check(d, f, g, h)
        lhs_o, rhs_o = leibniz_oracle(d.window, xi, f, g, h)
        assert rep.lhs == pytest.approx(lhs_o, rel=1e-12, abs=1e-12)
        assert rep.rhs == pytest.approx(rhs_o, rel=1e-12, abs=1e-12)
        assert rep.ok


# -- the batched derivation pairing -------------------------------------------------


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _pin_pairing(d: Derivation, f: FinSuppFn, g: FinSuppFn) -> bool:
    """Assert that the batch of one gives pairing(apply_derivation(d, f), g)
    bit for bit; returns whether it took its array pass."""
    want = amenability.pairing(apply_derivation(d, f), g)
    with mock.patch.object(amenability, "apply_derivation", wraps=apply_derivation) as ref:
        got = amenability._derivation_pairing(d, f, g)
    assert type(got) is complex and _hex(got) == _hex(want)
    return not ref.called


def _same_error(d: Derivation, f: FinSuppFn, g: FinSuppFn) -> str:
    with pytest.raises(Exception) as want:
        amenability.pairing(apply_derivation(d, f), g)
    with pytest.raises(want.type) as got:
        amenability._derivation_pairing(d, f, g)
    assert str(got.value) == str(want.value)
    return str(got.value)


_PIN_RADII = {1: (1, 4, 16, 64, 256), 2: (1, 3, 8, 16), 3: (1, 2, 4)}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_derivation_pairing_bit_identical_to_apply_then_pair(dim):
    # the scan pools' pairs (f, flip f) and (f, f), and each f against its
    # pool's ball indicator, which covers more of D(f); real, mixed-sign
    # and complex forms, cycled to the dimension
    seen = set()
    for coeffs in ((1.0,), (1.0, -0.5), (0.3 - 0.7j, 2 + 1j)):
        xi = Homomorphism(tuple(itertools.islice(itertools.cycle(coeffs), dim)))
        for window_radius in (1, 2):
            d = Derivation.with_ball_window(xi, dim, window_radius)
            for spec, r in itertools.product(SCAN_WEIGHTS[::2], _PIN_RADII[dim]):
                pool = list(scan_pairs(dim, r, 3, 27, omega=weight_from_spec(spec), xi=xi))
                ball_ind = next(f for kind, f, _ in pool if kind.startswith("ball-indicator"))
                for _, f, g in pool:
                    seen.add(_pin_pairing(d, f, g))
                    seen.add(_pin_pairing(d, f, ball_ind))
            # points with no int64 view take the reference
            far = FinSuppFn.indicator([(2**63 + k,) * dim for k in range(5)])
            seen.add(_pin_pairing(d, far, far.flip()))
    # both sides of the fallback, which only points with no view reach
    assert seen == {True, False}


@pytest.mark.parametrize("dim", [1, 2])
def test_derivation_pairing_bit_identical_around_the_crossover(dim):
    # window * h on each side of algebra._ARRAY_MIN_OPS products, where
    # convolve changes route and h has dropped its exact zeros: the batch
    # takes its array pass on both sides
    ops = algebra._ARRAY_MIN_OPS
    rng = seeded_rng(41, dim)
    d = Derivation.with_ball_window(Homomorphism((1.0 - 0.5j,) + (0.3,) * (dim - 1)), dim, 1)
    nw = len(d.window)
    box, loop = -(-ops // nw), (ops - 1) // nw  # |f| with nw * |f| on each side

    def line(xs: range) -> FinSuppFn:
        vals = rng.standard_normal(len(xs)) + 1j * rng.standard_normal(len(xs))
        return FinSuppFn(dim, {(x,) + (0,) * (dim - 1): v for x, v in zip(xs, vals.tolist())})

    g = line(range(-box - 3, 4))
    assert _pin_pairing(d, line(range(1, box + 1)), g) is True
    assert _pin_pairing(d, line(range(1, loop + 1)), g) is True
    # xi vanishes at the origin, so h drops one entry and falls below
    assert _pin_pairing(d, line(range(box)), g) is True
    # the zero form drops all of h
    zero = Derivation.with_ball_window(Homomorphism((0.0,) * dim), dim, 1)
    f = line(range(1, box + 1))
    assert _pin_pairing(zero, f, g) is True
    assert amenability._derivation_pairing(zero, f, g) == 0j


def test_derivation_pairing_edge_cases_match_the_reference():
    d1 = Derivation.with_ball_window(Homomorphism((1.0,)), 1, 1)
    # h is exactly 0 on the axis where xi(p) = p_0 vanishes
    d2 = Derivation.with_ball_window(Homomorphism.basis(2), 2, 1)
    ball3 = FinSuppFn.indicator(ball(3, 2))
    for g in (ball3, ball3.flip(), FinSuppFn.indicator(ball(8, 2))):
        assert _pin_pairing(d2, ball3, g)
    # f = delta_1 + delta_-1 with xi(x) = x: D(f)(0) = 1 - 1 = 0 exactly, also
    # with more far entries; g has a point at every point of D(f)'s box, the
    # dropped zero included
    pair = FinSuppFn.indicator([1, -1])
    assert (0,) not in apply_derivation(d1, pair).entries
    assert _pin_pairing(d1, pair, FinSuppFn.indicator(range(-3, 4))) is True
    f = FinSuppFn.indicator([1, -1] + [x for x in range(-30, 31) if abs(x) >= 3])
    support = list(apply_derivation(d1, f).entries)
    assert (0,) not in support and f[0] == 0
    g = FinSuppFn(1, {p: complex(0.3 + 0.1 * k, -0.7 * k) for k, p in enumerate(reversed(support))})
    assert _pin_pairing(d1, f, g) is True
    assert _pin_pairing(d1, f, FinSuppFn.indicator(range(-10, 11))) is True
    # g disjoint from D(f): a point, and a stretch longer than D(f)
    f = FinSuppFn.indicator(range(50))
    for g in (FinSuppFn.delta(1000, 2.0), FinSuppFn.indicator(range(500, 700))):
        assert _pin_pairing(d1, f, g)
        assert amenability._derivation_pairing(d1, f, g) == 0j
    # coordinates that leave int64 take the reference
    far = FinSuppFn.indicator([2**63 + k for k in range(50)])
    low = FinSuppFn.indicator([-(2**63) + k for k in range(50)])
    for f, g in ((far, far.flip()), (low, low.flip()), (FinSuppFn.indicator(range(50)), far)):
        assert _pin_pairing(d1, f, g) is False
    # every coordinate fits int64: the box corner -2**63 does with window
    # radius 1, and -2**63 - 1 does not with radius 2
    top = FinSuppFn.indicator([2**63 - 1 - k for k in range(50)])
    assert _pin_pairing(d1, top, top.flip()) is True
    d_wide = Derivation.with_ball_window(Homomorphism((1.0,)), 1, 2)
    assert _pin_pairing(d_wide, top, top.flip()) is False
    # a dimension mismatch of f or of g
    line = FinSuppFn.indicator(range(50))
    assert "dimension mismatch" in _same_error(d2, line, line)
    assert "dimension mismatch" in _same_error(d1, line, ball3)
    # overflow in h, and in D(f) with h finite
    big_h = FinSuppFn.indicator(range(-30, 31)).scale(1e300)
    d_big = Derivation.with_ball_window(Homomorphism((1e10,)), 1, 1)
    assert "derivation value" in _same_error(d_big, big_h, big_h)
    big_d = FinSuppFn(1, {(x,): 1e308 / x for x in range(-30, 31) if x})
    assert all(math.isfinite(abs(v * x)) for (x,), v in big_d)  # h(-x) = f(x) * x
    assert "convolution value" in _same_error(d1, big_d, big_d)


def _reference_outcome(d: Derivation, f: FinSuppFn, g: FinSuppFn) -> tuple:
    """('ok', hex) of pairing(apply_derivation(d, f), g), or (type, message)
    of the error it raises."""
    try:
        return "ok", _hex(amenability.pairing(apply_derivation(d, f), g))
    except Exception as exc:  # any error: the batch must raise the same
        return type(exc), str(exc)


def _pin_batch(d: Derivation, pairs: list) -> list[int]:
    """Assert that one batch gives each pair's reference bits, whole, cut
    into sub-batches of at most 40 rows, and with a table too small for
    some pairs; returns the number of sub-batches of each."""
    want = [_reference_outcome(d, f, g) for f, g in pairs]
    fs, gs = [f for f, _ in pairs], [g for _, g in pairs]
    counts = []
    for bound, value in (("_BATCH_ROWS", amenability._BATCH_ROWS), ("_BATCH_ROWS", 40),
                         ("_TABLE_CELLS", 200)):
        cuts = mock.Mock(wraps=amenability._batch_products)
        with mock.patch.object(amenability, bound, value), \
                mock.patch.object(amenability, "_batch_products", cuts):
            got = amenability._derivation_pairings(d, fs, gs)
        assert all(type(z) is complex for z in got)
        assert [("ok", _hex(z)) for z in got] == want
        counts.append(cuts.call_count)
    return counts


_BATCH_RADII = {1: (4, 64), 2: (3, 8), 3: (1, 2)}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_derivation_pairings_bit_identical_to_apply_then_pair(dim):
    # the scan pools of two radii in one batch, the way the scan passes a
    # radius (repeated f objects, a symmetric candidate paired with itself),
    # with cross pairs: each f of the first pool against a g of the second
    # and against the second's ball indicator; zero, real, mixed-sign and
    # complex forms, window radius 1 and 2; each batch whole and cut into
    # sub-batches (_pin_batch)
    for coeffs in ((0.0,), (1.0,), (1.0, -0.5), (0.3 - 0.7j, 2 + 1j)):
        xi = Homomorphism(tuple(itertools.islice(itertools.cycle(coeffs), dim)))
        pools = [[(f, g) for _, f, g in scan_pairs(
                     dim, r, 2, 31, omega=weight_from_spec(SCAN_WEIGHTS[k]), xi=xi)]
                 for k, r in enumerate(_BATCH_RADII[dim])]
        first, second = pools
        ball_ind = FinSuppFn.indicator(ball(_BATCH_RADII[dim][1], dim))
        pairs = first + second + [(f, g) for (f, _), (_, g) in zip(first, second)]
        pairs += [(f, ball_ind) for f, _ in first]
        for window_radius in (1, 2):
            d = Derivation.with_ball_window(xi, dim, window_radius)
            whole, cut, _ = _pin_batch(d, pairs)
            assert cut > whole
    # coordinates at the int64 ends: the box of the points y - w reaches
    # -2**63 with window radius 1, and passes it with radius 2 or at the top
    # (the reference), and h lies far outside the box of g
    rng = seeded_rng(47, dim)
    vals = (rng.standard_normal(6) + 1j * rng.standard_normal(6)).tolist()
    top = FinSuppFn(dim, {(2**63 - 1 - k,) * dim: v for k, v in enumerate(vals)})
    low = FinSuppFn(dim, {(-(2**63) + 1 + k,) + (0,) * (dim - 1): v for k, v in enumerate(vals)})
    edges = [(top, top.flip()), (top, top), (low, low.flip()), (low, low), (top, low),
             (low, top), (top.flip(), low), (low.flip(), top.flip())]
    for window_radius in (1, 2):
        d = Derivation.with_ball_window(Homomorphism((1.0 - 0.5j,) * dim), dim, window_radius)
        _pin_batch(d, edges)
    d = Derivation.with_ball_window(Homomorphism((1.0 - 0.5j,) * dim), dim, 1)
    assert amenability._derivation_pairing(d, top, top.flip()) != 0j


def test_derivation_pairings_raise_the_error_met_first():
    # error pairs among finite ones, in every order and across sub-batches:
    # a product past the float range on the array pass, h and D(f) past it
    # and a dimension mismatch on the reference, each batch raising the
    # error the reference meets first in pair order
    d1 = Derivation.with_ball_window(Homomorphism((1.0,)), 1, 1)
    line = FinSuppFn.indicator(range(-30, 31))
    big_d = FinSuppFn(1, {(x,): 1e308 / x for x in range(-30, 31) if x})
    errors = {
        "product": (line.scale(1e200), line.scale(1e200)),
        "h": (FinSuppFn(1, {(1,): 1.0, (30,): 1e307}), line),
        "D(f)": (big_d, big_d),
        "dim": (FinSuppFn.indicator(ball(2, 2)), line),
    }
    fine = [(line, line), (big_d.scale(1e-300), line), (FinSuppFn.indicator([3, -5]), line)]
    outcome = {name: _reference_outcome(d1, f, g) for name, (f, g) in errors.items()}
    assert [kind for kind, _ in outcome.values()] == [
        NumericalFailureError, NumericalFailureError, NumericalFailureError, InvalidInputError]
    assert "pairing value" in outcome["product"][1] and "dimension" in outcome["dim"][1]
    assert "derivation value" in outcome["h"][1]
    assert "convolution value" in outcome["D(f)"][1]
    for order in itertools.permutations(errors, 2):
        for rows in (amenability._BATCH_ROWS, 70):
            pairs = fine[:1] + [errors[order[0]]] + fine[1:] + [errors[order[1]]] + fine
            with mock.patch.object(amenability, "_BATCH_ROWS", rows):
                with pytest.raises(Exception) as got:
                    amenability._derivation_pairings(d1, *zip(*pairs))
            assert (type(got.value), str(got.value)) == outcome[order[0]]


def _shuffled(u: FinSuppFn, rng: random.Random) -> FinSuppFn:
    """u with its points inserted in a shuffled order."""
    items = list(u)
    rng.shuffle(items)
    return FinSuppFn(u.dim, dict(items))


def _rounded_sum(terms: list[complex]) -> complex:
    """Each part of the sum by exact rationals, then rounded once."""
    return complex(float(sum(map(Fraction, (z.real for z in terms)), Fraction())),
                   float(sum(map(Fraction, (z.imag for z in terms)), Fraction())))


def _near_max(df: FinSuppFn, points, signs) -> FinSuppFn:
    """g whose product with D(f) is about sign * 1e308 at each point."""
    return FinSuppFn(1, {s: sign * 1e308 / df[s].real for s, sign in zip(points, signs)})


def test_pairing_exact_in_any_insertion_order():
    # pairing and the derivation pairing are the correctly rounded sums of
    # their products: the same bits whatever order u, w, f and g list their
    # points in, on both routes of the derivation pairing; one past the
    # float range raises in every order. fsum alone is not enough there:
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    assert math.fsum([1e308, -1e308, 1e308]) == 1e308
    rng = random.Random(43)
    top = FinSuppFn(1, {(0,): 1e308, (1,): 1e308, (2,): -1e308})
    ones = FinSuppFn.indicator([0, 1, 2, 7])
    cases = [(top, ones)]
    for dim in (1, 2):
        for t in range(20):
            draws = seeded_rng(44, dim, t)
            cases.append(tuple(random_finsupp(dim, 3, draws, max_support=30) for _ in range(2)))
    for u, w in cases:
        common = [p for p in u.entries if p in w.entries]
        want = _hex(_rounded_sum([u[p] * w[p] for p in common]))
        for _ in range(6):
            a, b = _shuffled(u, rng), _shuffled(w, rng)
            assert _hex(amenability.pairing(a, b)) == want
            assert _hex(amenability.pairing(b, a)) == want
    assert amenability.pairing(top, ones) == 1e308
    # past the float range: the sum, a product, and inf - inf among products
    over = [(FinSuppFn(1, {(0,): 1e308, (1,): 1e308, (2,): -1e307}), ones),
            (FinSuppFn.delta(0, 1e200), FinSuppFn.delta(0, 1e200)),
            (FinSuppFn(1, {(0,): 1e200, (1,): -1e200}), FinSuppFn.indicator([0, 1]).scale(1e200))]
    for u, w in over:
        for _ in range(6):
            a, b = _shuffled(u, rng), _shuffled(w, rng)
            for args in ((a, b), (b, a)):
                with pytest.raises(NumericalFailureError, match="pairing value is not finite"):
                    amenability.pairing(*args)
    # the derivation pairing on the array pass (f of 59 points and of 3) and
    # on the reference (points past int64), with products of D(f) and g
    # near 1e308
    d = Derivation.with_ball_window(Homomorphism((1.0,)), 1, 1)
    routes = set()
    far = [2**63 + k for k in (1, 2, 3)]
    for f, points in ((FinSuppFn.indicator(range(1, 60)), [(-10,), (-20,), (-30,)]),
                      (FinSuppFn.indicator([1, 2, 3]), [(-1,), (-2,), (-3,)]),
                      (FinSuppFn.indicator(far), [(-x,) for x in far])):
        df = apply_derivation(d, f)
        drawn = random_finsupp(1, 70, seeded_rng(45, len(f)), max_support=60)
        for g in (drawn, _near_max(df, points, (1, 1, -1))):
            want = _hex(_rounded_sum([v * g[p] for p, v in df if p in g.entries]))
            for _ in range(6):
                a, b = _shuffled(f, rng), _shuffled(g, rng)
                routes.add(_pin_pairing(d, a, b))
                assert _hex(amenability._derivation_pairing(d, a, b)) == want
        g = _near_max(df, points, (1, 1, 1))
        for _ in range(6):
            a, b = _shuffled(f, rng), _shuffled(g, rng)
            assert "pairing value is not finite" in _same_error(d, a, b)
    assert routes == {True, False}


# -- derivation norm scan -------------------------------------------------------------


def test_derivation_scan_dichotomy_small():
    pair = pair_from_spec({"family": "power", "p": 1.5})
    xi = Homomorphism((1.0,))
    d = Derivation.with_ball_window(xi, 1, 1)
    ctx_nwa = AlgebraContext(pair, polynomial_weight(0.6), 1)
    rep = derivation_norm_scan(ctx_nwa, d, [8, 16, 32], trials=40, seed=5)
    assert rep.trend == "plateau", rep.per_radius
    ctx_wa = AlgebraContext(pair, polynomial_weight(0.4), 1)
    rep = derivation_norm_scan(ctx_wa, d, [8, 16, 32], trials=40, seed=5)
    assert rep.trend == "growth", rep.per_radius



def _exact_sup_at_p_2(d: Derivation, omega: Weight, radius: int) -> float:
    """The sup of |<D(f), g>| / (||f||_{Phi,w} ||g||_{Phi,w}) over f and g
    supported in the ball of the radius, for Phi = x^2/2: there
    ||f||_{Phi,w} = ||f w||_2 / sqrt 2, so it is 2 sigma_max(M) with
    M = W^-1 B W^-1, B[x, y] = xi(y) 1[x + y in window] the bilinear form
    of <D(f), g> = sum g(x) B[x, y] f(y), and W = diag(w) on the ball."""
    dim = d.window.dim
    pts = ball(radius, dim)
    at = {p: i for i, p in enumerate(pts)}
    b = np.zeros((len(pts), len(pts)), dtype=complex)
    for j, y in enumerate(pts):
        for u in d.window.support():
            i = at.get(tuple(c - e for c, e in zip(u, y)))
            if i is not None:
                b[i, j] = d.form(y)
    w = omega.at_points(pts, dim)
    return 2.0 * np.linalg.svd(b / np.outer(w, w), compute_uv=False)[0]


@pytest.mark.parametrize("dim, radii, coeffs", [
    (1, [16, 64, 256], (1.0,)),
    (2, [4, 8, 16], (1.0, 0.5j)),
])
@pytest.mark.parametrize("beta", [0.4, 0.495, 0.7])
def test_derivation_scan_is_a_lower_bound_of_the_exact_sup_at_p_2(dim, radii, coeffs, beta):
    # at p = 2 the supremum the scan samples is an SVD (ROADMAP item 6): no
    # sampled pair may pass it, and the message reports how far below it
    # the scan stays
    ctx = AlgebraContext(pair_from_spec({"family": "power", "p": 2.0}), polynomial_weight(beta),
                         dim)
    d = Derivation.with_ball_window(Homomorphism(coeffs), dim)
    rows = [(row["radius"], row["max_ratio"], _exact_sup_at_p_2(d, ctx.omega, row["radius"]))
            for row in derivation_norm_scan(ctx, d, radii, trials=8, seed=7).per_radius]
    gaps = "; ".join(f"R={r}: scan {scan:.4f}, exact {exact:.4f}, exact/scan {exact / scan:.3f}"
                     for r, scan, exact in rows)
    assert all(scan <= exact * (1 + 1e-12) for _, scan, exact in rows), gaps


@pytest.mark.parametrize(
    "coeffs", [(1.0, -1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.5), (0.3 + 2j, -1.5, 0.25)]
)
def test_damped_peak_atom_sits_at_the_shell_maximum(coeffs):
    # |xi| on the shell of radius n peaks at a cube vertex, so the atom
    # found along the vertex ray carries the largest damped shell maximum.
    xi = Homomorphism(coeffs)
    omega = polynomial_weight(1.2)
    dh = DampedHomomorphism(xi, omega)
    for radius in (1, 4, 16):
        cands = dict(adversarial_candidates(len(coeffs), radius, omega, xi))
        (pt,) = cands["damped-peak-atom"].support()
        peak = max(dh.shell_max(n) for n in range(1, radius + 1))
        assert abs(dh(pt)) == pytest.approx(peak, rel=1e-12), (coeffs, radius, pt)


def test_damped_peak_atom_of_an_antidiagonal_form():
    # xi = (1, -1) vanishes on the diagonal: the atom lands on the vertex
    # ray (n, -n), where |xi| = 2n, not on the first axis, where it is n.
    xi = Homomorphism((1.0, -1.0))
    omega = polynomial_weight(1.2)
    (pt,) = dict(adversarial_candidates(2, 16, omega, xi))["damped-peak-atom"].support()
    assert pt == (1, -1)
    pair = pair_from_spec({"family": "power", "p": 1.5})
    ctx = AlgebraContext(pair, omega, 2)
    ratios = {}
    for form in (xi, Homomorphism((1.0, 0.0))):
        d = Derivation.with_ball_window(form, 2, 1)
        rep = derivation_norm_scan(ctx, d, [4, 8, 16], trials=40, seed=0)
        assert {row["argmax"] for row in rep.per_radius} == {"damped-peak-atom/flipped"}
        ratios[form.coeffs] = rep.max_ratio
    assert ratios[xi.coeffs] == pytest.approx(0.650648, rel=1e-6)
    assert ratios[(1.0, 0.0)] == pytest.approx(0.325324, rel=1e-6)


def test_damped_peak_rays_walked_once_in_one_dimension():
    # the atom search reads the weight once per radius of the vertex ray;
    # at this radius the ball is past PROFILE_SUPPORT_CAP, so only the atom
    # search evaluates the weight
    calls = []

    def radial(n):
        calls.append(n)
        return (1.0 + n) ** 0.4

    omega = Weight("counted", {}, radial)
    radius = 5000
    assert ball_size(radius, 1) > PROFILE_SUPPORT_CAP
    adversarial_candidates(1, radius, omega, Homomorphism((1.0,)))
    assert calls == list(range(1, radius + 1))


def test_damped_peak_ray_past_the_budget_raises_at_once():
    dh = DampedHomomorphism(Homomorphism((1.0,)), polynomial_weight(0.4))
    start = time.perf_counter()
    for radius in (MAX_BALL_POINTS + 1, 4 * 10**21):
        with pytest.raises(ResourceLimitError, match=f"radius {radius}:.*budget {MAX_BALL_POINTS}"):
            adversarial_candidates(1, radius, dh.omega, dh.xi)
    assert time.perf_counter() - start < 1.0
    assert dh.peak_point(0) == (0,)


def _ray_walk_atom(radius, omega, xi):
    """The damped-peak atom found point by point: the first n*s, s the
    corner vertex of xi, of largest |xi(n*s)| / (omega(n*s) * omega(n*s))."""
    vertex = xi.corner_vertex()
    best_pt, best_val = (radius,) * len(vertex), -1.0
    for n in range(1, radius + 1):
        pt = tuple(n * c for c in vertex)
        w = omega(pt)
        val = abs(xi(pt)) / (w * w)
        if val > best_val:
            best_pt, best_val = pt, val
    return best_pt


def _pointwise_candidates(dim, radius, omega, xi):
    """The adversarial candidates formed point by point: the atom by
    :func:`_ray_walk_atom`, the profiles from omega at each ball point."""
    cands = [
        ("corner-atom", FinSuppFn.delta((radius,) * dim)),
        ("axis-atom", FinSuppFn.delta((radius,) + (0,) * (dim - 1))),
        ("damped-peak-atom", FinSuppFn.delta(_ray_walk_atom(radius, omega, xi))),
    ]
    if ball_size(radius, dim) <= PROFILE_SUPPORT_CAP:
        pts = ball(radius, dim)
        cands.append(("ball-indicator", FinSuppFn.indicator(pts)))
        if radius >= 2:
            cands.append(("half-ball-indicator", FinSuppFn.indicator(ball(radius // 2, dim))))
        ws = {p: omega(p) for p in pts}
        cands.append(("inverse-weight-profile", FinSuppFn(dim, {p: 1.0 / w for p, w in ws.items()})))
        prof = {p: xi(p) / (w * w) for p, w in ws.items()}
        cands.append(("damped-form-profile", FinSuppFn(dim, prof)))
    return cands


def _hexed(cands):
    """Kind, then per entry the point, the value's type (``.hex()`` cannot
    tell 1.0 from (1+0j)) and the bits of both parts."""
    return [(kind, [(p, type(v), v.real.hex(), v.imag.hex()) for p, v in f]) for kind, f in cands]


@pytest.mark.parametrize("coeffs", [(1.0,), (1.0, -0.5), (0.3, -0.7j)])
def test_adversarial_candidates_bit_identical_to_pointwise(coeffs):
    dim, xi = len(coeffs), Homomorphism(coeffs)
    for spec in SCAN_WEIGHTS:
        omega = weight_from_spec(spec)
        for radius in range(1, 65):
            got = _hexed(adversarial_candidates(dim, radius, omega, xi))
            assert got == _hexed(_pointwise_candidates(dim, radius, omega, xi)), (spec, radius)
            assert {t for _, f in got for _, t, _, _ in f} == {complex}, (spec, radius)


@pytest.mark.parametrize("coeffs", [(1.0,), (1.0, -0.5), (0.3, -0.7j)])
def test_damped_peak_atom_matches_the_ray_walk_on_a_beta_grid(coeffs):
    # at beta = ln 2 / (2 ln 1.5) the shell maxima at radii 1 and 2 tie
    # exactly: 1/2^(2 beta) = 2/3^(2 beta); the one pass is also cut into
    # chunks of 1 and 3 radii, so the tie and the maxima cross chunk edges
    xi = Homomorphism(coeffs)
    betas = [k / 20 for k in range(41)] + [math.log(2.0) / (2.0 * math.log(1.5))]
    for beta in betas:
        dh = DampedHomomorphism(xi, polynomial_weight(beta))
        for radius in (1, 2, 3, 7, 64):
            want = _ray_walk_atom(radius, dh.omega, xi)
            assert dh.peak_point(radius) == want, (beta, radius)
            for chunk in (1, 3):
                with mock.patch("orliczlat.weights._RAY_CHUNK", chunk):
                    assert dh.peak_point(radius) == want, (beta, radius, chunk)


# -- decay chain -----------------------------------------------------------------------


def test_decay_chain_polynomial_power():
    psi = young_from_spec({"family": "power", "p": 3})
    rep = decay_chain_check(
        polynomial_weight(1.0), psi, Homomorphism((1.0,)), 1.0, 10**4, 1
    )
    assert isinstance(rep, ChainReport)
    assert rep.monotone_ok and rep.chain_ok and rep.ok
    assert rep.shell_series.verdict == "converges"
    # witness max of n * a_n computed directly
    explicit = max(n * (1.0 / (1.0 + n)) ** 3 / 3.0 for n in range(1, 10**4 + 1))
    assert rep.witness_sup == pytest.approx(explicit, rel=1e-12)


def test_decay_chain_n1_edge():
    psi = young_from_spec({"family": "power", "p": 3})
    rep = decay_chain_check(
        polynomial_weight(1.0), psi, Homomorphism((1.0,)), 1.0, 1, 1
    )
    assert rep.chain_ok  # 1*a_1 <= a_1 with equality


def test_decay_chain_subexponential_all_catalog(catalog_pairs):
    sigma = subexp_alpha_weight(0.5, 1.0)
    for pair in catalog_pairs[:4]:
        rep = decay_chain_check(sigma, pair.psi, Homomorphism((1.0,)), 1.0, 2000, 1)
        assert rep.ok, pair.describe()


def test_decay_chain_precondition():
    psi = young_from_spec({"family": "power", "p": 1.5})
    with pytest.raises(PreconditionError):
        decay_chain_check(polynomial_weight(0.2), psi, Homomorphism((1.0,)), 1.0, 500, 1)


def test_decay_chain_monotone_implies_partial_sum_bound():
    # n*a_n <= sum a_k is forced by monotone a_n; the two flags must never
    # disagree in that direction
    xi = Homomorphism((1.0,))
    sweeps = [
        (polynomial_weight(1.0), {"family": "power", "p": 3}, 1.0),
        (polynomial_weight(2.0), {"family": "power", "p": 2}, 0.5),
        (subexp_alpha_weight(0.5, 1.0), {"family": "entropy"}, 1.0),
        (subexp_alpha_weight(1.0, 2.0), {"family": "power", "p": 1.5}, 2.0),
        (subexp_log_weight(1.0, 1.0), {"family": "power", "p": 3}, 1.0),
    ]
    for w, spec, alpha in sweeps:
        rep = decay_chain_check(w, young_from_spec(spec), xi, alpha, 3000, 1)
        assert not (rep.monotone_ok and not rep.chain_ok), (w.describe(), spec)


# -- classifier --------------------------------------------------------------------------


def test_classify_table():
    cases = {
        (1.5, 0.2): "NotBanachAlgebra",
        (1.5, 0.4): "WeaklyAmenable",
        (1.5, 0.8): "NotWeaklyAmenable",
        (3.0, 0.2): "NotBanachAlgebra",
        (3.0, 0.4): "NotBanachAlgebra",
        (3.0, 0.8): "NotWeaklyAmenable",
    }
    for (p, beta), want in cases.items():
        got = classify(p, {"family": "polynomial", "beta": beta}, 1)
        assert got.verdict == want, (p, beta, got.verdict)
        assert got.evidence or got.verdict == "Undecided"
        assert got.thresholds["d_over_q"] == pytest.approx((p - 1.0) / p)


def test_classify_subexponential_not_weakly_amenable():
    for p in (1.5, 2.0, 3.0, 5.0):
        for spec in (
            {"family": "subexp_alpha", "alpha": 0.5, "C": 1.0},
            {"family": "subexp_log", "gamma": 1.0, "C": 1.0},
        ):
            assert classify(p, spec, 1).verdict == "NotWeaklyAmenable"
    assert classify(1.5, {"family": "subexp_alpha", "alpha": 0.5, "C": 1.0}, 2).verdict == (
        "NotWeaklyAmenable"
    )


def test_classify_boundaries():
    # beta = 1/2 sits on the bounded side of the damping threshold
    assert classify(1.5, {"family": "polynomial", "beta": 0.5}, 1).verdict == (
        "NotWeaklyAmenable"
    )
    # beta*q = d exactly: harmonic-type divergence, not an algebra
    assert classify(2.0, {"family": "polynomial", "beta": 0.5}, 1).verdict == (
        "NotBanachAlgebra"
    )
    # p = 2 runs through the 1 < p <= 2 branch
    assert classify(2.0, {"family": "polynomial", "beta": 0.75}, 1).verdict == (
        "NotWeaklyAmenable"
    )
    with pytest.raises(InvalidInputError):
        classify(1.0, {"family": "polynomial", "beta": 1.0}, 1)
    with pytest.raises(InvalidInputError):
        classify(0.5, {"family": "polynomial", "beta": 1.0}, 1)


def test_classify_never_weakly_amenable_when_bounded_form_exists():
    # 30-point grid: the classifier may only return WeaklyAmenable when the
    # analytic boundedness verdict for the coordinate form is "unbounded"
    xi = Homomorphism((1.0,))
    count = 0
    for p in (1.3, 1.5, 1.8, 2.0, 2.5, 4.0):
        for beta in (0.1, 0.3, 0.45, 0.55, 0.9):
            count += 1
            w = polynomial_weight(beta)
            verdict = classify(p, w, 1).verdict
            if verdict == "WeaklyAmenable":
                dh = DampedHomomorphism(xi, w)
                assert damped_form_bounded(dh).verdict == "unbounded"
    assert count == 30


CLASSIFY_DIGEST = "cb30b2ed2a02795c4bddd8a4c8b94054cf0d6a4a18861469b7b6d7bbe027350c"


def test_classify_digest_pinned():
    # every verdict, threshold, param and evidence string over p x the three
    # families with a rule x d, 665 cases, in one sha256: a change to the rules
    # or their wording takes a deliberate diff of this digest
    specs = [{"family": "polynomial", "beta": b} for b in (0.0, 0.2, 0.4, 0.5, 0.7, 1.0, 2.5)]
    specs += [{"family": "subexp_alpha", "alpha": a, "C": c}
              for a in (0.2, 0.5, 1.0) for c in (0.3, 1.0)]
    specs += [{"family": "subexp_log", "gamma": g, "C": c}
              for g in (0.5, 1.0, 3.0) for c in (0.5, 1.0)]
    objs = [
        classify(p, w, d).to_json_obj()
        for p in (1.1, 1.5, 2.0, 2.5, 3.0, 5.0, 40.0)
        for w in specs
        for d in (1, 2, 3, 7, 40)
    ]
    assert len(objs) == 665
    digest = hashlib.sha256(json.dumps(objs, sort_keys=True).encode()).hexdigest()
    assert digest == CLASSIFY_DIGEST


def test_classify_result_serialises():
    r = classify(1.5, {"family": "polynomial", "beta": 0.4}, 1)
    obj = r.to_json_obj()
    assert obj["verdict"] == "WeaklyAmenable"
    assert obj["params"]["weight"] == {"family": "polynomial", "beta": 0.4}
