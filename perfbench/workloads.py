"""Workload definitions: seeded job rounds, op execution and result checks.

A run is a closed loop over complete *rounds*. A round is a fixed list of
jobs (its slots), so every round costs about the same whatever the seed,
and every slot runs once per round. The seed picks, per slot, one of
``VARIANTS`` library seeds from a pool, and the order of the jobs in each
round. Every job in the pool has a reference result in ``reference.json``
recorded from the package itself, so each op is checked however the seed
falls.

An in-process round takes a third to a half of a run on a quiet host and
a whole run on a slow one; a cli-readme round (the six commands, the quick
ones three times) takes a whole run.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
VARIANTS = 4
WORKLOADS = ("cli-readme", "scan-derivation", "scan-algebra", "conjugate-battery")

WEIGHTS = (
    {"family": "polynomial", "beta": 0.4},
    {"family": "polynomial", "beta": 0.7},
    {"family": "subexp_alpha", "alpha": 0.5, "C": 1.0},
    {"family": "subexp_log", "gamma": 1.0, "C": 1.0},
)
POLY04, POLY07, SUBEXP_A, SUBEXP_L = WEIGHTS


# A run reports its op percentiles over two rounds at each slot's median
# latency (see run.py): the median slot and the 6th most expensive one.
# Each round therefore has V very expensive slots, K slots of one spec just
# below them with V + K >= 6, and C cheaper slots with C > V + K: the median
# op is then always a C slot and the tail always a K slot. Costs below are
# in seconds at the reference speed (see clock.py).


def _deriv_slots() -> list[dict]:
    # V: one d=2 ladder to r=32 (supports of up to 4225 points, 1.2 s).
    # K: five d=1 ladders to r=512 of one spec (0.34-0.38 s).
    # C: seven d=1 ladders to r=256 covering every other weight and p
    # (0.18-0.23 s).
    def job(w, p, dim, radii):
        return dict(op="derivation", weight=w, p=p, dim=dim, radii=radii, trials=8)

    slots = [job(w, p, 1, [16, 64, 256]) for w in WEIGHTS for p in (1.5, 3.0)
             if (w, p) != (POLY04, 1.5)]
    slots += [job(POLY04, 1.5, 1, [32, 128, 512]) for _ in range(5)]
    slots.append(job(POLY07, 1.5, 2, [2, 8, 32]))
    return slots


def _algebra_slots() -> list[dict]:
    # V: conv_inclusion at d=2 r=16, whose ball self-convolution takes
    # 1.19M products, below MAX_CONV_OPS (2.3 s).
    # K: nine d=2 r=6 submult scans of one spec (0.24-0.27 s, by seed); the
    # tail lands on the middle one.
    # C: thirteen d=1 r=48 scans, sparse random pairs next to small dense
    # balls: submult (0.14-0.16 s) for every weight and three again,
    # l1_module for every weight and conv_inclusion at p 1.5 and 2
    # (0.11-0.14 s).
    def job(op, w, p, dim, radius):
        spec = dict(op=op, p=p, dim=dim, radius=radius, trials=8)
        if w is not None:
            spec["weight"] = w
        return spec

    slots = [job("submult", w, 1.5, 1, 48) for w in WEIGHTS + (POLY04, POLY07, SUBEXP_A)]
    slots += [job("l1_module", w, 3.0, 1, 48) for w in WEIGHTS]
    slots += [job("conv_inclusion", None, p, 1, 48) for p in (1.5, 2.0)]
    slots += [job("submult", POLY07, 1.5, 2, 6) for _ in range(9)]
    slots.append(job("conv_inclusion", None, 2.0, 2, 16))
    return slots


def _battery_slots() -> list[dict]:
    # V: two pointwise inclusion scans on power(1.5) (0.87-0.95 s).
    # K: the four numerically conjugated catalog pairs (0.49-0.62 s; the
    # tail is the cheapest).
    # C: the six closed-form pairs twice (0.05-0.06 s).
    slots = [dict(op="battery", index=i) for i in range(6) for _ in range(2)]
    slots += [dict(op="battery", index=i) for i in range(6, 10)]
    slots += [dict(op="pointwise", p=1.5, dim=1, radius=16, trials=8) for _ in range(2)]
    return slots


SLOTS = {
    "scan-derivation": _deriv_slots(),
    "scan-algebra": _algebra_slots(),
    "conjugate-battery": _battery_slots(),
}

# The six README CLI commands exactly as written; ``norm`` reads stdin.
NORM_STDIN = (
    '{"young":{"family":"power","p":2},"kind":"luxemburg",\n'
    '      "f":{"dim":1,"entries":[[[0],[3.0,0.0]],[[1],[4.0,0.0]]]}}\n'
)
CLI_COMMANDS = {
    "classify": ["classify", "--p", "1.5,3", "--weight",
                 '{"family":"polynomial","beta":0.4}', "--dim", "1"],
    "conjugate": ["conjugate", "--young", '{"family":"power","p":2}', "--points", "40",
                  "--out", "conj.csv"],
    "norm": ["norm", "-"],
    "certify-algebra": ["certify-algebra", "--young", '{"family":"power","p":1.5}',
                        "--weight", '{"family":"polynomial","beta":0.7}',
                        "--radius", "64", "--trials", "60"],
    "derivation-scan": ["derivation-scan", "--young", '{"family":"power","p":1.5}',
                        "--weight", '{"family":"polynomial","beta":0.4}',
                        "--radii", "16,64,256", "--trials", "200"],
    "verify": ["verify", "--out", "battery.csv"],
}
# One round: the three quick commands three times, so that the median op
# and the tail (the 6th slowest command) are quick commands (mostly process
# start and imports) from the middle of their cluster.
CLI_ROUND = ("classify", "conjugate", "norm") * 3 + (
    "certify-algebra", "derivation-scan", "verify")

# Relative tolerances for float comparisons against the reference.
TOL = 1e-9
TOL_CSV = 1e-8  # CSV cells carry 9 significant digits
TOL_STDOUT = 1e-5  # scan tables on stdout carry 6 significant digits


@dataclass
class Job:
    id: str
    spec: dict
    run: object = None  # callable returning the checkable summary
    pairs_key: tuple | None = None  # (dim, omega, xi) for pair counting


def job_id(workload: str, slot: int, variant: int) -> str:
    return f"{workload}:{slot}:{variant}"


def lib_seed(slot: int, variant: int) -> int:
    return 1000 + 16 * slot + variant


def choose_variants(workload: str, seed: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}:variants")
    return [rng.randrange(VARIANTS) for _ in SLOTS[workload]]


def round_order(workload: str, seed: int, round_index: int, n: int) -> list[int]:
    order = list(range(n))
    random.Random(f"{workload}:{seed}:round{round_index}").shuffle(order)
    return order


# --------------------------------------------------------------------------
# In-process workloads
# --------------------------------------------------------------------------


def _scan_summary(rep) -> dict:
    return {
        "trend": rep.trend,
        "rows": [[r["radius"], r["max_ratio"], r["argmax"]] for r in rep.per_radius],
        "_tol": TOL,
    }


class Setup:
    """Everything built before the first timed op: imports, pairs,
    weights, contexts, derivations and ``catalog()``."""

    def __init__(self, workload: str, seed: int, variants: list[int] | None = None):
        from orliczlat import young

        self.workload = workload
        self.catalog = young.catalog()
        self._pairs: dict = {}
        self._weights: dict = {}
        self._ctx: dict = {}
        self._der: dict = {}
        self._n_candidates: dict = {}
        variants = variants if variants is not None else choose_variants(workload, seed)
        self.jobs: list[Job] = [
            self._make_job(workload, i, variants[i], spec)
            for i, spec in enumerate(SLOTS[workload])
        ]

    # cached builders -------------------------------------------------------

    def pair(self, p: float):
        from orliczlat.young import pair_from_spec

        if p not in self._pairs:
            self._pairs[p] = pair_from_spec({"family": "power", "p": p})
        return self._pairs[p]

    def weight(self, spec: dict):
        from orliczlat.weights import weight_from_spec

        key = json.dumps(spec, sort_keys=True)
        if key not in self._weights:
            self._weights[key] = weight_from_spec(spec)
        return self._weights[key]

    def ctx(self, p: float, wspec: dict, dim: int):
        from orliczlat.algebra import AlgebraContext

        key = (p, json.dumps(wspec, sort_keys=True), dim)
        if key not in self._ctx:
            self._ctx[key] = AlgebraContext(self.pair(p), self.weight(wspec), dim)
        return self._ctx[key]

    def derivation(self, dim: int):
        from orliczlat.amenability import Derivation, Homomorphism

        if dim not in self._der:
            self._der[dim] = Derivation.with_ball_window(Homomorphism.basis(dim), dim, 1)
        return self._der[dim]

    def _make_job(self, workload: str, slot: int, variant: int, spec: dict) -> Job:
        from orliczlat import algebra, amenability, verify, young

        seed = lib_seed(slot, variant)
        op = spec["op"]
        # battery inputs are fixed by the package (BATTERY_SEED), not by the variant
        key = f"{workload}:battery:{spec['index']}" if op == "battery" else job_id(
            workload, slot, variant)
        job = Job(key, spec)
        if op == "derivation":
            ctx = self.ctx(spec["p"], spec["weight"], spec["dim"])
            der = self.derivation(spec["dim"])

            def run():
                rep = amenability.derivation_norm_scan(
                    ctx, der, spec["radii"], spec["trials"], seed)
                verdict = amenability.classify(spec["p"], ctx.omega, spec["dim"]).verdict
                return {**_scan_summary(rep), "verdict": verdict}

            job.pairs_key = (spec["dim"], ctx.omega, der.form)
        elif op in ("submult", "l1_module"):
            ctx = self.ctx(spec["p"], spec["weight"], spec["dim"])
            name = "submult_estimate" if op == "submult" else "l1_module_check"

            def run():
                # looked up per call, so a traced round sees the wrapper
                fn = getattr(algebra, name)
                return _scan_summary(fn(ctx, spec["radius"], spec["trials"], seed))

            job.pairs_key = (spec["dim"], ctx.omega, None)
        elif op in ("conv_inclusion", "pointwise"):
            pair = self.pair(spec["p"])
            name = ("conv_inclusion_check" if op == "conv_inclusion"
                    else "pointwise_inclusion_check")

            def run():
                fn = getattr(algebra, name)
                return _scan_summary(
                    fn(pair, spec["radius"], spec["trials"], seed, spec["dim"]))

            job.pairs_key = (spec["dim"], None, None)
        elif op == "battery":
            phi = self.catalog[spec["index"]].phi

            def run():
                # A fresh pair per op: its numeric conjugate starts with an
                # empty cache, as it does in every ``orliczlat verify`` run.
                rows = verify.run_battery([young.make_pair(phi, validate=False)])
                return {"rows": [[r.invariant, r.pair, r.passed, r.note] for r in rows]}

        else:
            raise ValueError(f"unknown op {op!r}")
        job.run = run
        return job

    def pair_count(self, job: Job, summary: dict) -> int:
        """Candidate pairs the scan ratioed: adversarial pairs plus trials."""
        if job.pairs_key is None:
            return 0
        from orliczlat.sampling import adversarial_candidates

        dim, omega, xi = job.pairs_key
        total = 0
        for radius, _, _ in summary["rows"]:
            key = (dim, radius, id(omega), id(xi))
            if key not in self._n_candidates:
                self._n_candidates[key] = len(adversarial_candidates(dim, radius, omega, xi))
            total += 2 * self._n_candidates[key] + job.spec["trials"]
        return total


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------


def _close(a: float, b: float, tol: float) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if a == b:
            return True
        return abs(a - b) <= tol * max(abs(a), abs(b))
    return a == b


def matches(got, ref, tol: float) -> bool:
    """Strings, ints and bools exactly; floats within ``tol`` relative."""
    if isinstance(ref, dict):
        tol = ref.get("_tol", tol)
        return (isinstance(got, dict) and set(got) == set(ref)
                and all(matches(got[k], ref[k], tol) for k in ref if k != "_tol"))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(matches(g, r, tol) for g, r in zip(got, ref)))
    if isinstance(ref, float) or isinstance(got, float):
        return isinstance(got, (int, float)) and _close(float(got), float(ref), tol)
    return type(got) is type(ref) and got == ref


def _poly_beta(spec: dict) -> float | None:
    return spec["beta"] if spec.get("family") == "polynomial" else None


def expected_verdict(p: float, wspec: dict, dim: int) -> str:
    """The README's classification rules."""
    q = p / (p - 1.0)
    beta = _poly_beta(wspec)
    if beta is not None:
        if beta * q <= dim:
            return "NotBanachAlgebra"
        if p <= 2.0 and beta < 0.5:
            return "WeaklyAmenable"
    return "NotWeaklyAmenable"


def rule_violations(spec: dict, summary: dict) -> list[str]:
    """Checks against the README's stated rules, independent of the reference."""
    out = []
    op = spec.get("op")
    if op == "derivation":
        verdict = expected_verdict(spec["p"], spec["weight"], spec["dim"])
        if summary["verdict"] != verdict:
            out.append(f"classify verdict {summary['verdict']} != {verdict}")
        # plateau = bounded-derivation regime; no rule without an algebra
        want = {"WeaklyAmenable": "growth", "NotWeaklyAmenable": "plateau"}.get(verdict)
        if want is not None and summary["trend"] != want:
            out.append(f"derivation trend {summary['trend']} != {want}")
    elif op == "l1_module":
        # ||f*g||_{Phi,w} <= ||f||_{1,w} ||g||_{Phi,w} for the built-in weights,
        # which are submultiplicative with constant 1
        worst = max(row[1] for row in summary["rows"])
        if worst > 1.0 + 1e-9:
            out.append(f"l1_module ratio {worst} > 1")
    elif op == "battery":
        if not all(row[2] for row in summary["rows"]):
            out.append("battery row failed")
    return out


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# CLI workload
# --------------------------------------------------------------------------


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_cli(name: str, root: Path, workdir: Path, traced_spans: Path | None = None,
            samples: Path | None = None):
    """Run one README command cold, plainly, under the tracer (spans to
    ``traced_spans``) or sampling the host's speed (kernel times to
    ``samples``, see clock.py); returns (wall seconds, rc, stdout)."""
    if traced_spans is not None:
        head = [sys.executable, str(HERE / "tracer.py"), str(traced_spans), "--"]
    elif samples is not None:
        head = [sys.executable, str(HERE / "clock.py"), str(samples), "--"]
    else:
        head = [sys.executable, "-m", "orliczlat.cli"]
    stdin = NORM_STDIN if name == "norm" else ""
    t0 = time.perf_counter()
    proc = subprocess.run(
        head + CLI_COMMANDS[name], input=stdin, capture_output=True, text=True,
        cwd=workdir, env=cli_env(root), timeout=170,
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def _stdout_scan(stdout: str) -> dict:
    rows, trend = [], None
    for line in stdout.splitlines():
        if line.startswith("radius="):
            head, argmax = line.rsplit(" (", 1)
            radius = int(head.split("radius=")[1].split()[0])
            ratio = float(head.split("max_ratio=")[1])
            rows.append([radius, ratio, argmax.rstrip(")")])
        elif line.startswith("trend: "):
            trend = line.split()[1]
    return {"trend": trend, "rows": rows, "_tol": TOL_STDOUT}


def _read_csv(path: Path) -> list[list[str]]:
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def cli_summary(name: str, rc: int, stdout: str, workdir: Path) -> dict:
    out: dict = {"rc": rc}
    if rc != 0:
        return out
    if name == "classify":
        out["verdicts"] = [ln for ln in stdout.splitlines() if " -> " in ln]
    elif name == "conjugate":
        out["rows"] = [[float(y), float(n), float(c)]
                       for y, n, c, _ in _read_csv(workdir / "conj.csv")]
        out["_tol"] = TOL_CSV
    elif name == "norm":
        out["value"] = float(stdout.strip().rsplit("=", 1)[1])
    elif name in ("certify-algebra", "derivation-scan"):
        out.update(_stdout_scan(stdout))
    elif name == "verify":
        out["summary"] = stdout.strip().splitlines()[-1]
        out["rows"] = [[inv, pair, passed == "true", note]
                       for inv, pair, passed, _, _, note in _read_csv(workdir / "battery.csv")]
    return out


def cli_rule_violations(name: str, summary: dict) -> list[str]:
    out = []
    if summary.get("rc") != 0:
        return [f"{name} exited {summary.get('rc')}"]
    if name == "classify":
        for line in summary["verdicts"]:
            p = float(line.split()[0].split("=")[1])
            want = expected_verdict(p, {"family": "polynomial", "beta": 0.4}, 1)
            if not line.endswith(f"-> {want}"):
                out.append(f"classify: {line!r} expected {want}")
    elif name == "conjugate":
        for y, numeric, closed in summary["rows"]:
            if not _close(numeric, closed, TOL_CSV) and abs(numeric - closed) > 1e-15:
                out.append(f"conjugate at y={y}: numeric {numeric} vs closed form {closed}")
    elif name == "norm":
        if not _close(summary["value"], math.sqrt(12.5), TOL):
            out.append(f"norm {summary['value']} != sqrt(12.5)")
    elif name == "certify-algebra":
        if summary["trend"] != "plateau":
            out.append(f"certify-algebra trend {summary['trend']} != plateau")
    elif name == "derivation-scan":
        if summary["trend"] != "growth":
            out.append(f"derivation-scan trend {summary['trend']} != growth")
    elif name == "verify":
        if not (all(row[2] for row in summary["rows"])
                and summary["summary"].endswith(" 0 failures")):
            out.append("verify reported failures")
    return out


def cli_pair_count(name: str, summary: dict) -> int:
    """Candidate pairs ratioed by the two scanning README commands."""
    from orliczlat.amenability import Homomorphism
    from orliczlat.sampling import adversarial_candidates
    from orliczlat.weights import weight_from_spec

    if name == "certify-algebra":
        omega, xi, trials = weight_from_spec({"family": "polynomial", "beta": 0.7}), None, 60
    elif name == "derivation-scan":
        omega, xi, trials = (weight_from_spec({"family": "polynomial", "beta": 0.4}),
                             Homomorphism.basis(1), 200)
    else:
        return 0
    return sum(2 * len(adversarial_candidates(1, r, omega, xi)) + trials
               for r, _, _ in summary.get("rows", []))
