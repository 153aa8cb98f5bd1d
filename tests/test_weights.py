from __future__ import annotations

import itertools
import math

import pytest

from conftest import seeded_rng
from orliczlat.errors import InvalidInputError, ResourceLimitError
from orliczlat.weights import (
    ball,
    generic_weight,
    loglog_slope,
    make_weight,
    polynomial_weight,
    reciprocal_summability,
    shell_count,
    shell_series_verdict,
    subexp_alpha_weight,
    subexp_log_weight,
    submult_constant,
    uv_decomposition_check,
    weight_from_spec,
    word_length,
)
from orliczlat.young import young_from_spec


def bfs_word_length(pt: tuple[int, ...]) -> int:
    """Oracle: breadth-first search over sumsets of the box {-1,0,1}^d."""
    d = len(pt)
    gens = list(itertools.product((-1, 0, 1), repeat=d))
    if all(c == 0 for c in pt):
        return 0
    frontier = {(0,) * d}
    seen = set(frontier)
    for n in range(1, 30):
        frontier = {
            tuple(a + b for a, b in zip(x, g)) for x in frontier for g in gens
        }
        frontier -= seen
        if pt in frontier:
            return n
        seen |= frontier
    raise AssertionError("BFS horizon too small")


# -- geometry -------------------------------------------------------------------


def test_word_length_examples():
    assert word_length((0,)) == 0
    assert word_length((0, 0, 0)) == 0
    assert word_length((3, -1)) == 3
    assert word_length(5) == 5


def test_word_length_matches_bfs_oracle():
    for pt in [(1,), (-2,), (3,), (0, 0), (1, -1), (2, 1), (-3, 2), (1, 1, -2)]:
        assert word_length(pt) == bfs_word_length(pt), pt


def test_word_length_subadditive_and_symmetric():
    rng = seeded_rng(10)
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        x = tuple(int(v) for v in rng.integers(-50, 51, d))
        y = tuple(int(v) for v in rng.integers(-50, 51, d))
        s = tuple(a + b for a, b in zip(x, y))
        assert word_length(s) <= word_length(x) + word_length(y)
        assert word_length(x) == word_length(tuple(-c for c in x))


def test_ball_cardinality():
    for d in (1, 2, 3):
        for n in range(0, 13):
            assert len(ball(n, d)) == (2 * n + 1) ** d


def test_ball_contents():
    assert ball(0, 2) == [(0, 0)]
    assert ball(5, 1) == [(k,) for k in range(-5, 6)]
    pts = ball(3, 2)
    assert pts == sorted(pts)
    assert all(word_length(p) <= 3 for p in pts)


def test_ball_budget():
    with pytest.raises(ResourceLimitError):
        ball(2000, 3)
    # 3^10000 has more digits than Python will print: the message must not try
    with pytest.raises(ResourceLimitError, match=r"3\^10000 points"):
        ball(1, 10_000)


def test_shell_count_matches_enumeration():
    for d in (1, 2, 3):
        for n in range(0, 6):
            explicit = sum(1 for p in ball(n + 1, d) if word_length(p) == n)
            assert shell_count(n, d) == explicit


# -- weight families --------------------------------------------------------------


def test_weight_values():
    assert polynomial_weight(2.0)((3, 0)) == pytest.approx(16.0)
    assert subexp_alpha_weight(0.5, 1.0)((4,)) == pytest.approx(math.exp(2.0))
    for spec in (
        {"family": "polynomial", "beta": 0.4},
        {"family": "subexp_alpha", "alpha": 0.5, "C": 1.0},
        {"family": "subexp_log", "gamma": 1.0, "C": 1.0},
    ):
        w = weight_from_spec(spec)
        assert w((0,)) == 1.0
        assert w.spec() == spec


def test_weight_parameter_validation():
    with pytest.raises(InvalidInputError):
        polynomial_weight(-0.1)
    with pytest.raises(InvalidInputError):
        subexp_alpha_weight(1.5, 1.0)
    with pytest.raises(InvalidInputError):
        subexp_alpha_weight(0.5, 0.0)
    with pytest.raises(InvalidInputError):
        subexp_log_weight(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        subexp_log_weight(math.nan, 1.0)
    with pytest.raises(InvalidInputError):
        make_weight("nope")
    with pytest.raises(InvalidInputError):
        weight_from_spec({"beta": 1.0})
    with pytest.raises(InvalidInputError):
        weight_from_spec({"family": "polynomial", "beta": 10**400})  # beyond the float range


def test_generic_weight():
    w = generic_weight(lambda n: math.sqrt(n), label="sqrt-rate")
    sigma = subexp_alpha_weight(0.5, 1.0)
    for n in (0, 1, 5, 30):
        assert w.radial(n) == pytest.approx(sigma.radial(n), rel=1e-12)
    with pytest.raises(InvalidInputError):
        generic_weight(lambda n: n * n)  # superadditive
    with pytest.raises(InvalidInputError):
        generic_weight(lambda n: 1.0 + n)  # does not vanish at 0


def test_radial_overflow_reads_inf():
    # a weight past the float range damps what it multiplies to zero
    for w, n in (
        (polynomial_weight(2.0), 10**200),
        (subexp_alpha_weight(1.0, 1.0), 10**4),
        (subexp_log_weight(0.5, 1.0), 10**6),
        (generic_weight(lambda n: 3.0 * math.sqrt(n)), 10**7),
    ):
        assert w.radial(n) == math.inf, w.describe()
        assert w((n, -1)) == math.inf, w.describe()


def test_weight_symmetry():
    for w in (
        polynomial_weight(0.7),
        subexp_alpha_weight(0.5, 1.0),
        subexp_log_weight(1.0, 1.0),
    ):
        for pt in [(3,), (-3,), (2, -5), (-2, 5)]:
            assert w(pt) == w(tuple(-c for c in pt))


def test_submult_constant_at_most_one_for_builtins():
    for w in (
        polynomial_weight(0.0),
        polynomial_weight(1.3),
        subexp_alpha_weight(0.5, 1.0),
        subexp_log_weight(1.0, 1.0),
    ):
        c = submult_constant(w, 20, 1)
        assert c <= 1.0 + 1e-12, w.describe()
    assert submult_constant(polynomial_weight(0.0), 10, 1) == pytest.approx(1.0)


def test_subexp_log_large_gamma_needs_constant():
    w = subexp_log_weight(3.0, 1.0)
    assert w.submult_C > 1.0
    c = submult_constant(w, 25, 1)
    assert c <= w.submult_C * (1.0 + 1e-9)
    assert c > 1.0


# -- u,v decomposition -------------------------------------------------------------


def test_uv_trivial_weight():
    one = polynomial_weight(0.0)
    assert uv_decomposition_check(one, lambda p: 0.5, lambda p: 0.5, 10, 1)
    assert not uv_decomposition_check(one, lambda p: 0.0, lambda p: 0.0, 10, 1)


def test_uv_polynomial_standard_estimate():
    beta = 1.0
    w = polynomial_weight(beta)
    bound = lambda p: 2.0 ** beta / w(p)
    assert uv_decomposition_check(w, bound, bound, 20, 1)


# -- summabilityverdicts ------------------------------------------------------------


def test_reciprocal_summability_polynomial_exact_rule():
    q15 = young_from_spec({"family": "power", "p": 1.5})
    r = reciprocal_summability(polynomial_weight(0.7), q15, 1.0, 2000, 1)
    assert r.verdict == "converges" and r.method == "exact-power-polynomial"
    r = reciprocal_summability(polynomial_weight(0.2), q15, 1.0, 2000, 1)
    assert r.verdict == "diverges"


def test_reciprocal_summability_exact_rule_grid():
    for beta in (0.3, 0.8, 1.5):
        for q in (1.2, 2.0, 3.0):
            for d in (1, 2, 3):
                psi = young_from_spec({"family": "power", "p": q})
                r = reciprocal_summability(polynomial_weight(beta), psi, 1.0, 400, d)
                assert r.verdict == ("converges" if beta * q > d else "diverges")


def test_reciprocal_summability_subexponential_converges(catalog_pairs):
    sigma = subexp_alpha_weight(0.5, 1.0)
    for pair in catalog_pairs:
        r = reciprocal_summability(sigma, pair.psi, 0.5, 2000, 1)
        assert r.verdict == "converges", pair.describe()


def test_partial_sums_match_direct_lattice_sums():
    # shell bookkeeping against a brute-force sum over actual lattice points
    sigma = subexp_alpha_weight(0.5, 1.0)
    psi = young_from_spec({"family": "power", "p": 2})
    for d in (1, 2):
        n = 8
        direct = sum(psi(1.0 / sigma(p)) for p in ball(n, d))
        r = reciprocal_summability(sigma, psi, 1.0, n, d)
        assert r.partial_sum == pytest.approx(direct, rel=1e-12)


def test_decay_sequence_monotone_for_catalog(catalog_pairs):
    # a_n = Psi(alpha * exp(-rate(n))) must be non-increasing for built-ins
    weights = [
        polynomial_weight(1.0),
        subexp_alpha_weight(0.5, 1.0),
        subexp_log_weight(1.0, 1.0),
    ]
    for w in weights:
        for pair in catalog_pairs:
            vals = [pair.psi(1.0 / w.radial(n)) for n in range(1, 400)]
            for prev, nxt in zip(vals, vals[1:]):
                assert nxt <= prev * (1.0 + 1e-9) + 1e-300, (w.describe(), pair.describe())


def test_shell_series_verdict_edge_cases():
    assert shell_series_verdict([1.0, 0.5, 0.25, 0.0, 0.0] + [0.0] * 20).verdict == "converges"
    assert shell_series_verdict([0.5 ** n for n in range(30)]).verdict == "converges"
    assert shell_series_verdict([1.0] * 30).verdict == "diverges"
    assert shell_series_verdict([float(n) ** -3 for n in range(1, 200)]).verdict == "converges"
    assert shell_series_verdict([float(n) ** -0.3 for n in range(1, 200)]).verdict == "diverges"
    # the p-series boundary stays inconclusive
    assert shell_series_verdict([1.0 / n for n in range(1, 200)]).verdict == "inconclusive"


def test_loglog_slope():
    assert loglog_slope((n, float(n) ** -2) for n in range(1, 20)) == pytest.approx(-2.0, abs=1e-12)
    # zero values are skipped, and four positive points are the minimum
    assert loglog_slope([(1, 1.0), (2, 0.0), (3, 1.0 / 9), (4, 0.0), (5, 1.0 / 25), (6, 1.0 / 36)]) \
        == pytest.approx(-2.0, abs=1e-12)
    assert loglog_slope([(1, 1.0), (2, 0.25), (3, 0.0), (4, 1.0 / 16)]) is None
    assert loglog_slope([]) is None
