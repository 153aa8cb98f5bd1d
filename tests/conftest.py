from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# Property and fuzz tests draw the same examples on every run.
settings.register_profile("orliczlat", derandomize=True, deadline=None, database=None)
settings.load_profile("orliczlat")

from orliczlat.algebra import _radius_ladder
from orliczlat.finsupp import FinSuppFn
from orliczlat.sampling import scan_pairs
from orliczlat.young import (
    YoungFunction,
    catalog,
    numeric_conjugate,
    pair_from_spec,
    sqrt_transform,
    young_from_spec,
)


@pytest.fixture(scope="session")
def catalog_pairs():
    return catalog()


@pytest.fixture(scope="session")
def power_pair_2():
    return pair_from_spec({"family": "power", "p": 2.0})


@pytest.fixture(scope="session")
def power_pair_15():
    return pair_from_spec({"family": "power", "p": 1.5})


@pytest.fixture(scope="session")
def entropy_pair():
    return pair_from_spec({"family": "entropy"})


# the four weights of the benchmark's scans
SCAN_WEIGHTS = (
    {"family": "polynomial", "beta": 0.4},
    {"family": "polynomial", "beta": 0.7},
    {"family": "subexp_alpha", "alpha": 0.5, "C": 1.0},
    {"family": "subexp_log", "gamma": 1.0, "C": 1.0},
)


def seeded_rng(*key: int) -> np.random.Generator:
    return np.random.default_rng((20260808,) + key)


def scan_pool(dim: int, radius: int, trials: int, seed: int) -> list[FinSuppFn]:
    """Every function that the scans at this radius draw, once each."""
    pool = []
    for r in _radius_ladder(radius):
        for _, f, g in scan_pairs(dim, r, trials, seed):
            pool += [f] if g is f else [f, g]
    return pool


def extreme_functions() -> list[FinSuppFn]:
    """Magnitudes from the subnormals to the top of the float range: the
    extremes of the plain-bisection and the mpmath oracle tests."""
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


def inclusion_sqrt_pair() -> list[YoungFunction]:
    """T = sqrt[x^3/3] and its numeric conjugate: the square-root transforms
    that the inclusion scans on power(1.5) measure with (Psi = x^3/3)."""
    t = sqrt_transform(young_from_spec({"family": "power", "p": 3.0}))
    return [t, numeric_conjugate(t)]


def inverse_targets(phi: YoungFunction) -> list[float]:
    """The y of the inverse pins: nine decades either side of 1, and phi
    where the entropy- and exp_taylor-type forms cancel, at x from 1e-4
    to 3e-4 (for a numeric conjugate, at the y whose maximiser is there)."""
    xs = [float(x) for x in np.geomspace(1e-4, 3e-4, 9)]
    near_zero = [phi(x) for x in xs]
    if phi.origin is not None and phi.origin[0] == "conj":
        near_zero += [phi(phi.origin[1].d(x)) for x in xs]
    return [float(y) for y in np.geomspace(1e-9, 1e9, 37)] + near_zero
