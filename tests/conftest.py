from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# Property and fuzz tests draw the same examples on every run.
settings.register_profile("orliczlat", derandomize=True, deadline=None, database=None)
settings.load_profile("orliczlat")

from orliczlat.young import catalog, pair_from_spec


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
