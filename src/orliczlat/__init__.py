"""Orlicz-space calculus on the integer lattice.

The package provides Young-function conjugation and the named catalog
(:mod:`orliczlat.young`), Luxemburg/Orlicz norms of finitely supported
functions (:mod:`orliczlat.norms`), lattice geometry and weight families
(:mod:`orliczlat.weights`), weighted convolution-algebra diagnostics
(:mod:`orliczlat.algebra`), and the weak-amenability machinery and
classifier (:mod:`orliczlat.amenability`). ``orliczlat.cli`` exposes the
command-line driver.
"""

from __future__ import annotations

from .young import (
    ComplementaryPair,
    YoungFunction,
    catalog,
    catalog_ids,
    conjugate,
    find_strong_equiv_constants,
    from_density,
    inverse,
    make_pair,
    pair_from_spec,
    sqrt_transform,
    young_from_spec,
)
from .finsupp import FinSuppFn
from .norms import holder_check, luxemburg_norm, modular, orlicz_norm, weighted_norm
from .weights import (
    Homomorphism,
    Weight,
    ball,
    reciprocal_summability,
    shell_count,
    submult_constant,
    uv_decomposition_check,
    weight_from_spec,
    word_length,
)
from .algebra import AlgebraContext, convolve
from .amenability import ClassificationResult, classify

__version__ = "0.1.0"

__all__ = [
    "YoungFunction",
    "ComplementaryPair",
    "FinSuppFn",
    "Weight",
    "AlgebraContext",
    "Homomorphism",
    "ClassificationResult",
    "catalog",
    "catalog_ids",
    "conjugate",
    "inverse",
    "make_pair",
    "pair_from_spec",
    "young_from_spec",
    "from_density",
    "find_strong_equiv_constants",
    "sqrt_transform",
    "modular",
    "luxemburg_norm",
    "orlicz_norm",
    "weighted_norm",
    "holder_check",
    "word_length",
    "ball",
    "shell_count",
    "weight_from_spec",
    "submult_constant",
    "uv_decomposition_check",
    "reciprocal_summability",
    "convolve",
    "classify",
    "__version__",
]
