"""The benchmark's span tracer still binds to the package.

``perfbench/tracer.py`` wraps the public functions it names by looking them
up in the package's modules, so a rename or deletion in ``src/`` breaks
``perfbench/run.py --trace 1``. This test installs the tracer, runs one small
scan and one battery row set under it, and checks that the spans fired.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import orliczlat.algebra as algebra
import orliczlat.verify as verify
from orliczlat.finsupp import FinSuppFn
from orliczlat.weights import polynomial_weight
from orliczlat.young import pair_from_spec

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # only read perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_records_spans_for_a_scan_and_the_battery():
    tracer_mod = _load_tracer()
    pair = pair_from_spec({"family": "power", "p": 2.0})
    ctx = algebra.AlgebraContext(pair, polynomial_weight(0.7), 1)
    original_convolve = algebra.convolve
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert algebra.convolve is not original_convolve
        algebra.submult_estimate(ctx, 4, 2, 0)
        # the scan's tops take the box kernel or the loop without calling
        # convolve, so the convolve span is fed by a call of its own
        algebra.convolve(FinSuppFn.indicator(range(3)), FinSuppFn.indicator(range(2)))
        rows = verify.run_battery([pair])
    finally:
        tracer.uninstall()
    assert algebra.convolve is original_convolve
    assert rows and all(row.passed for row in rows)

    spans = tracer_mod.summarize([tracer.arrays()])
    assert spans["algebra.scan"]["calls"] == 1
    for name in ("algebra.convolve", "norms.luxemburg", "norms.orlicz", "sampling.random",
                 "sampling.adversarial", "verify.young_inequality", "verify.inverse_sandwich",
                 "verify.norm_sandwich", "verify.holder", "verify.sqrt_pair"):
        assert spans[name]["calls"] > 0, name
    assert spans["algebra.convolve"]["q1"] > 0  # products counted
