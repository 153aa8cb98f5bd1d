"""Span tracer for the benchmark's traced run.

Spans are recorded around calls into each layer's public functions by
wrapping them from outside the package: every module attribute (and every
tuple held in a module attribute) that binds a traced function is rebound
to the wrapper, so calls made through ``from .x import y`` bindings cannot
escape their span. Spans live in flat in-memory arrays with parent ids and
are written out when the run ends; self time is computed from them.

Per-evaluation hooks (``YoungFunction.__call__``/``.d`` and
``FinSuppFn.__post_init__``) are counters, never spans: a run makes tens
of millions of those calls.

Run as a script it executes one ``orliczlat`` CLI command under the tracer
and writes the spans to a file:

    python3 perfbench/tracer.py SPANS.npz -- classify --p 1.5 ...
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# (span name, module, public functions recorded under that name)
SPAN_TABLE = (
    ("young.conjugate", "young", ("conjugate_with_argmax",)),
    ("young.inverse", "young", ("inverse",)),
    ("norms.luxemburg", "norms", ("luxemburg_norm",)),
    ("norms.orlicz", "norms", ("orlicz_norm",)),
    ("weights.ball", "weights", ("ball",)),
    ("weights.summability", "weights", ("reciprocal_summability",)),
    ("sampling.random", "sampling", ("random_finsupp",)),
    ("sampling.adversarial", "sampling", ("adversarial_candidates",)),
    ("algebra.convolve", "algebra", ("convolve",)),
    ("algebra.scan", "algebra", (
        "submult_estimate", "l1_module_check", "conv_inclusion_check",
        "pointwise_inclusion_check",
    )),
    ("amenability.derivation", "amenability", (
        "derivation_norm_scan", "apply_derivation", "leibniz_check",
    )),
    ("amenability.pairing", "amenability", ("pairing",)),
    ("amenability.classify", "amenability", ("classify",)),
    ("verify.young_inequality", "verify", ("young_inequality_margin",)),
    ("verify.inverse_sandwich", "verify", ("inverse_sandwich_margin",)),
    ("verify.norm_sandwich", "verify", ("norm_sandwich_margin",)),
    ("verify.holder", "verify", ("holder_margin",)),
    ("verify.sqrt_pair", "verify", ("sqrt_pair_margin",)),
    ("cli.main", "cli", ("main",)),
)
# Methods are patched on their class rather than rebound per module.
METHOD_SPANS = (("reports.render", "reports", "ReportTable", "render"),)

SPAN_NAMES = [row[0] for row in SPAN_TABLE] + [row[0] for row in METHOD_SPANS]
_MODULES = (
    "young", "finsupp", "norms", "weights", "sampling", "algebra",
    "amenability", "verify", "reports", "cli",
)


def _box_fill(f) -> float:
    """Share of f's bounding box that its support fills."""
    pts = list(f.entries)
    if not pts:
        return 0.0
    vol = 1
    for axis in zip(*pts):
        vol *= max(axis) - min(axis) + 1
    return len(pts) / vol


# Per-span quantities (q1, q2) for the spans that carry one.
def _q_luxemburg(args, result):
    return len(args[1]), 0.0


def _q_convolve(args, result):
    f, g = args[0], args[1]
    products = len(f) * len(g)
    return products, products * _box_fill(f) * _box_fill(g)


def _q_ball(args, result):
    return len(result), 0.0


def _q_render(args, result):
    return len(result.encode("utf-8")), 0.0


_QUANTITIES = {
    "norms.luxemburg": _q_luxemburg,
    "algebra.convolve": _q_convolve,
    "weights.ball": _q_ball,
    "reports.render": _q_render,
}


class Tracer:
    """In-memory span store plus the per-evaluation counters."""

    def __init__(self) -> None:
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("h")
        self.t0 = array("d")
        self.t1 = array("d")
        self.hooked = array("d")  # counter-hook time spent directly inside the span
        self.evals = array("q")  # Young evaluations inside the span (children included)
        self.q1 = array("d")
        self.q2 = array("d")
        self._next_id = 1
        self._stack = [0]
        self._hook_acc = [0.0]
        self.n_evals = 0
        self.n_lookups = 0
        self.construct_calls = 0
        self.construct_entries = 0
        self.construct_s = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn):
        idx = SPAN_NAMES.index(name)
        quantity = _QUANTITIES.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            self._hook_acc.append(0.0)
            e0 = self.n_evals
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                hooked = self._hook_acc.pop()
                self.ids.append(sid)
                self.parents.append(parent)
                self.names.append(idx)
                self.t0.append(t0)
                self.t1.append(t1)
                self.hooked.append(hooked)
                self.evals.append(self.n_evals - e0)
                self.q1.append(0.0)
                self.q2.append(0.0)
            if quantity is not None:
                self.q1[-1], self.q2[-1] = quantity(args, result)
            return result

        return span

    def _counting(self, fn):
        def counted(y):
            self.n_lookups += 1
            return fn(y)

        return counted

    # -- install / uninstall -------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        pkg = importlib.import_module("orliczlat")
        mods = [pkg] + [importlib.import_module(f"orliczlat.{m}") for m in _MODULES]
        young = importlib.import_module("orliczlat.young")
        finsupp = importlib.import_module("orliczlat.finsupp")

        replace: dict[int, object] = {}
        for name, mod, funcs in SPAN_TABLE:
            module = importlib.import_module(f"orliczlat.{mod}")
            for fname in funcs:
                fn = getattr(module, fname)
                replace[id(fn)] = self._span(name, fn)

        original_nc = young.numeric_conjugate

        def numeric_conjugate(phi):
            # Count lookups on every conj[...] evaluator; the solve cache
            # stays inside the wrapped closures.
            yf = original_nc(phi)
            return young.YoungFunction(
                fn=self._counting(yf.fn),
                derivative=self._counting(yf.derivative),
                label=yf.label,
                params=yf.params,
            )

        replace[id(original_nc)] = numeric_conjugate

        def rebind(value):
            if isinstance(value, tuple):
                new = tuple(rebind(v) for v in value)
                return new if any(a is not b for a, b in zip(new, value)) else value
            return replace.get(id(value), value)

        for module in mods:
            for attr, value in list(vars(module).items()):
                new = rebind(value)
                if new is not value:
                    self._set(module, attr, new)

        for name, mod, cls, meth in METHOD_SPANS:
            klass = getattr(importlib.import_module(f"orliczlat.{mod}"), cls)
            self._set(klass, meth, self._span(name, getattr(klass, meth)))

        yf_cls = young.YoungFunction
        orig_call, orig_d = yf_cls.__call__, yf_cls.d

        def call(yf, x):
            self.n_evals += 1
            return orig_call(yf, x)

        def deriv(yf, x):
            self.n_evals += 1
            return orig_d(yf, x)

        self._set(yf_cls, "__call__", call)
        self._set(yf_cls, "d", deriv)

        fs_cls = finsupp.FinSuppFn
        orig_post = fs_cls.__post_init__

        def post_init(f):
            t0 = perf_counter()
            try:
                orig_post(f)
            finally:
                dt = perf_counter() - t0
                self.construct_calls += 1
                self.construct_s += dt
                self._hook_acc[-1] += dt
            self.construct_entries += len(f.entries)

        self._set(fs_cls, "__post_init__", post_init)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict:
        import numpy as np

        out = {
            key: np.frombuffer(getattr(self, key), dtype=getattr(self, key).typecode)
            for key in ("ids", "parents", "names", "t0", "t1", "hooked", "evals", "q1", "q2")
        }
        out["counters"] = np.array(
            [self.n_evals, self.n_lookups, self.construct_calls, self.construct_entries]
        )
        out["construct_s"] = np.array([self.construct_s])
        out["span_names"] = np.array(SPAN_NAMES)
        return out

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, **self.arrays())


def summarize(parts: list[dict]) -> dict:
    """Aggregate one or more span stores (e.g. one per CLI child) by name.

    Returns per-name totals: calls, self_s, total_s, evals, q1, q2, plus
    the counters summed over parts.
    """
    import numpy as np

    k = len(SPAN_NAMES)
    agg = {key: np.zeros(k) for key in ("calls", "self_s", "total_s", "evals", "q1", "q2")}
    counters = np.zeros(4)
    construct_s = 0.0
    for part in parts:
        ids = part["ids"]
        dur = part["t1"] - part["t0"]
        if len(ids):
            pos = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
            pos[ids] = np.arange(len(ids))
            child = np.zeros(len(ids))
            has_parent = part["parents"] > 0
            np.add.at(child, pos[part["parents"][has_parent]], dur[has_parent])
            self_t = dur - child - part["hooked"]
            names = part["names"].astype(np.int64)
            agg["calls"] += np.bincount(names, minlength=k)
            agg["self_s"] += np.bincount(names, weights=self_t, minlength=k)
            agg["total_s"] += np.bincount(names, weights=dur, minlength=k)
            agg["evals"] += np.bincount(names, weights=part["evals"], minlength=k)
            agg["q1"] += np.bincount(names, weights=part["q1"], minlength=k)
            agg["q2"] += np.bincount(names, weights=part["q2"], minlength=k)
        counters += part["counters"]
        construct_s += float(part["construct_s"][0])
    out = {
        name: {key: float(agg[key][i]) for key in agg} for i, name in enumerate(SPAN_NAMES)
    }
    out["_counters"] = {
        "evals": int(counters[0]),
        "lookups": int(counters[1]),
        "construct_calls": int(counters[2]),
        "construct_entries": int(counters[3]),
        "construct_s": construct_s,
    }
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from :func:`summarize`."""
    c = s["_counters"]
    conj, inv, lux = s["young.conjugate"], s["young.inverse"], s["norms.luxemburg"]
    conv = s["algebra.convolve"]
    m = {
        "young.conjugate.solves": (conj["calls"], "count"),
        "young.conjugate.self_s": (conj["self_s"], "s"),
        "young.conjugate.hit_ratio": (
            1.0 - conj["calls"] / c["lookups"] if c["lookups"] else 0.0, "ratio"),
        "young.inverse.calls": (inv["calls"], "count"),
        "young.inverse.self_s": (inv["self_s"], "s"),
        "young.evals": (c["evals"], "count"),
        "finsupp.construct.calls": (c["construct_calls"], "count"),
        "finsupp.construct.entries": (c["construct_entries"], "count"),
        "finsupp.construct.self_s": (c["construct_s"], "s"),
        "norms.luxemburg.calls": (lux["calls"], "count"),
        "norms.luxemburg.entries": (lux["q1"], "count"),
        "norms.luxemburg.self_s": (lux["self_s"], "s"),
        "norms.luxemburg.evals_per_entry": (_ratio(lux["evals"], lux["q1"]), "ratio"),
        "norms.orlicz.calls": (s["norms.orlicz"]["calls"], "count"),
        "norms.orlicz.self_s": (s["norms.orlicz"]["self_s"], "s"),
        "weights.ball.points": (s["weights.ball"]["q1"], "count"),
        "weights.ball.self_s": (s["weights.ball"]["self_s"], "s"),
        "weights.summability.self_s": (s["weights.summability"]["self_s"], "s"),
        "sampling.random.self_s": (s["sampling.random"]["self_s"], "s"),
        "sampling.adversarial.self_s": (s["sampling.adversarial"]["self_s"], "s"),
        "algebra.convolve.calls": (conv["calls"], "count"),
        "algebra.convolve.products": (conv["q1"], "count"),
        "algebra.convolve.self_s": (conv["self_s"], "s"),
        "algebra.convolve.products_per_s": (_ratio(conv["q1"], conv["total_s"]), "1/s"),
        "algebra.convolve.box_fill": (_ratio(conv["q2"], conv["q1"]), "ratio"),
        "algebra.scan.self_s": (s["algebra.scan"]["self_s"], "s"),
        "amenability.derivation.self_s": (s["amenability.derivation"]["self_s"], "s"),
        "amenability.pairing.self_s": (s["amenability.pairing"]["self_s"], "s"),
        "amenability.classify.self_s": (s["amenability.classify"]["self_s"], "s"),
        "reports.render.calls": (s["reports.render"]["calls"], "count"),
        "reports.render.bytes": (s["reports.render"]["q1"], "B"),
        "reports.render.self_s": (s["reports.render"]["self_s"], "s"),
        "cli.main.self_s": (s["cli.main"]["self_s"], "s"),
    }
    for check in ("young_inequality", "inverse_sandwich", "norm_sandwich", "holder", "sqrt_pair"):
        m[f"verify.{check}.self_s"] = (s[f"verify.{check}"]["self_s"], "s")
    return m


# Counts that must repeat exactly for a fixed seed.
STEADY_COUNTS = (
    "young.conjugate.solves",
    "young.evals",
    "algebra.convolve.products",
    "norms.luxemburg.entries",
)


def _cli_child(argv: list[str]) -> int:
    spans_path = argv[0]
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: tracer.py SPANS.npz -- <orliczlat arguments>")
    import orliczlat.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv[2:])
    finally:
        tracer.uninstall()
        tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_cli_child(sys.argv[1:]))
