from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import orliczlat

# One public door per thing: a new name here is a deliberate diff.
PACKAGE_ALL = [
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


def test_package_all_is_pinned():
    assert orliczlat.__all__ == PACKAGE_ALL
    assert len(set(PACKAGE_ALL)) == 32


def test_every_all_name_resolves():
    modules = [orliczlat] + [importlib.import_module(f"orliczlat.{m.name}")
                             for m in pkgutil.iter_modules(orliczlat.__path__)]
    declared = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(declared) >= 10
    for mod in declared:
        assert len(set(mod.__all__)) == len(mod.__all__), mod.__name__
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


def test_every_module_all_name_is_defined_in_its_module():
    # a module's __all__ names only what the module itself defines (at top
    # level, not by import); the package re-exports from the defining modules
    checked = 0
    for info in pkgutil.iter_modules(orliczlat.__path__):
        mod = importlib.import_module(f"orliczlat.{info.name}")
        if not hasattr(mod, "__all__"):
            continue
        defined = set()
        for node in ast.parse(Path(mod.__file__).read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        imported = [name for name in mod.__all__ if name not in defined]
        assert not imported, (mod.__name__, imported)
        checked += 1
    assert checked >= 9
