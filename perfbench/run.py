"""Layered benchmark for orliczlat.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload scan-derivation --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced round (see ``tracer.py``). End-to-end times are in
seconds at a reference host speed (see ``clock.py``). The last line of standard
output is the result object; the line before it carries the environment
record and the metric details. Every run also stores its full record under
``.perfbench/results/``. Two directories of such records are compared with

    python3 perfbench/run.py --compare OLD_DIR NEW_DIR

which applies the bounds in ``BENCHMARK.json``. Workloads, metrics and the
layer-to-metric mapping are explained in ``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from clock import Clock, Sampler, write_samples

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
IMPORT_PROBES = 3


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, reference, ...)."""


# --------------------------------------------------------------------------
# environment and small helpers
# --------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(seed: int) -> dict:
    cpu = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor())
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": _read("/proc/loadavg").strip(),
        "python": platform.python_version(),
        **versions,
        "seed": seed,
    }


def code_digest() -> str:
    """Digest of the package and benchmark sources: counts repeat only
    between runs of the same code."""
    h = hashlib.sha256()
    paths = sorted((ROOT / "src" / "orliczlat").glob("*.py")) + sorted(HERE.glob("*.py"))
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it; the median when there are fewer than 20."""
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return statistics.median(xs), 50.0, n - math.ceil(n / 2)


def child_env() -> dict:
    from workloads import cli_env

    return cli_env(ROOT)


# --------------------------------------------------------------------------
# set-up time
# --------------------------------------------------------------------------


def _time_until_ready(cmd: list[str], samples: Path) -> tuple[float, list[float]]:
    """(seconds until the child's first line, less its sampling; the
    kernel samples the child took up to then)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not (line == "ready\n" or line.startswith("orliczlat ")):
        raise BenchError(f"set-up probe {cmd[1:]} failed ({proc.returncode}): {err[-400:]}")
    rec = json.loads(samples.read_text())
    samples.unlink()
    return ready - rec["busy_s"], rec["kernels"]


def setup_seconds(workload: str, seed: int, clock: Clock) -> list[float]:
    """Cold set-up times in reference seconds, each in a fresh interpreter
    that samples the kernel itself."""
    samples = _samples_file()
    if workload == "cli-readme":
        cmd = [sys.executable, str(HERE / "clock.py"), str(samples), "--", "--version"]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", str(samples),
               "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        ready, kernels = _time_until_ready(cmd, samples)
        out.append(ready * clock.scale(kernels))
    return out


def _samples_file() -> Path:
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return OUT / "tmp" / f"samples-{os.getpid()}.json"


def setup_probe(workload: str, seed: int, sampler: Sampler, samples: str) -> int:
    from workloads import Setup

    Setup(workload, seed)
    write_samples(sampler, samples)
    print("ready", flush=True)
    return 0


# --------------------------------------------------------------------------
# rounds
# --------------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []  # reference seconds
        self.walls: list[float] = []  # wall seconds
        self.slots: list = []  # slot of each latency: job position or CLI command
        self.labels: dict = {}  # slot -> job id or command name
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.pairs_by_slot: dict = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def _check(tally: Tally, label: str, summary: dict, ref: dict | None,
           problems: list[str]) -> None:
    """Fail the op on a broken rule or a difference from the reference."""
    from workloads import matches

    if ref is None:
        problems.append("no reference value")
    elif not matches(summary, ref, 1e-9):
        problems.append("differs from reference")
    if problems:
        tally.fail(f"{label}: {'; '.join(problems)}")


def run_rounds(seconds: float, one_round) -> tuple[float, int]:
    """Complete rounds, at least one, until the next one would end past
    ``seconds`` (by its expected length); returns (wall seconds, rounds)."""
    t0 = time.perf_counter()
    rounds = 0
    while True:
        one_round(rounds)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return elapsed, rounds


def inprocess_round(setup, clock: Clock, tally: Tally, reference: dict, seed: int,
                    r: int) -> None:
    from orliczlat.errors import ResourceLimitError
    from workloads import round_order, rule_violations

    order = round_order(setup.workload, seed, r, len(setup.jobs))
    for i in order:
        job = setup.jobs[i]
        tally.attempted += 1
        # any raise is a failed op; keep measuring
        summary, exc, wall, scale = clock.run(job.run)
        tally.latencies.append(wall * scale)
        tally.walls.append(wall)
        tally.slots.append(i)
        tally.labels[i] = job.id
        if exc is not None:
            kind = ("budget exceeded" if isinstance(exc, ResourceLimitError)
                    else type(exc).__name__)
            tally.fail(f"{job.id}: {kind}: {exc}")
            continue
        if i not in tally.pairs_by_slot:
            tally.pairs_by_slot[i] = setup.pair_count(job, summary)
        _check(tally, job.id, summary, reference.get(job.id), rule_violations(job.spec, summary))


def cli_round(workdir: Path, clock: Clock, tally: Tally, reference: dict, seed: int, r: int,
              spans_dir: Path | None = None) -> None:
    from workloads import (
        CLI_ROUND, cli_pair_count, cli_rule_violations, cli_summary, round_order, run_cli)

    order = round_order("cli-readme", seed, r, len(CLI_ROUND))
    for i in order:
        name = CLI_ROUND[i]
        for leftover in workdir.iterdir():
            leftover.unlink()
        tally.attempted += 1
        if spans_dir is None:
            samples = _samples_file()
            done, exc, wall, scale = clock.run_child(
                lambda: run_cli(name, ROOT, workdir, samples=samples), samples)
        else:
            spans = spans_dir / f"{i}-{name}.npz"
            done, exc, wall, scale = clock.run(
                lambda: run_cli(name, ROOT, workdir, traced_spans=spans))
        if isinstance(exc, subprocess.TimeoutExpired):
            tally.fail(f"{name}: timed out")
            continue
        if exc is not None:
            raise exc
        _, rc, stdout = done
        tally.latencies.append(wall * scale)
        tally.walls.append(wall)
        tally.slots.append(i)
        tally.labels[i] = name
        try:
            summary = cli_summary(name, rc, stdout, workdir)
        except (OSError, ValueError, IndexError) as exc:
            tally.fail(f"{name}: unreadable output: {exc}")
            continue
        if i not in tally.pairs_by_slot:
            tally.pairs_by_slot[i] = cli_pair_count(name, summary)
        _check(tally, name, summary, reference.get(f"cli-readme:{name}"),
               cli_rule_violations(name, summary))


# --------------------------------------------------------------------------
# end-to-end run
# --------------------------------------------------------------------------


def e2e(workload: str, seed: int, seconds: float, reference: dict) -> tuple[dict, Tally, dict]:
    clock = Clock()
    setups = setup_seconds(workload, seed, clock)
    tally = Tally()
    info: dict = {"setup_samples_s": setups}
    if workload == "cli-readme":
        workdir = OUT / "tmp" / f"cli-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wall, rounds = run_rounds(
                seconds, lambda r: cli_round(workdir, clock, tally, reference, seed, r))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        from workloads import Setup

        setup = Setup(workload, seed)
        wall, rounds = run_rounds(
            seconds, lambda r: inprocess_round(setup, clock, tally, reference, seed, r))
    # Every latency metric comes from the per-slot median latencies: the
    # throughput from a round at those medians, the percentiles from two
    # such rounds, so that they land on the same slots however many rounds
    # the host allowed.
    by_slot: dict = {}
    walls: dict = {}
    for slot, latency, w in zip(tally.slots, tally.latencies, tally.walls):
        by_slot.setdefault(slot, []).append(latency)
        walls.setdefault(slot, []).append(w)
    medians = [statistics.median(v) for v in by_slot.values()]
    round_s = sum(medians)
    value, pct, beyond = tail(medians * 2)
    info.update(rounds=rounds, wall_s=wall, ops=len(tally.latencies), median_round_s=round_s,
                op_tail_percentile=pct, op_tail_samples_beyond=beyond,
                fail_frac=tally.failed / max(1, tally.attempted), errors=tally.errors,
                kernel_s={"median": statistics.median(clock.kernels),
                          "min": min(clock.kernels), "max": max(clock.kernels)},
                op_latencies_s={f"{k}:{tally.labels[k]}": [round(x, 6) for x in v]
                                for k, v in sorted(by_slot.items())},
                op_wall_s={f"{k}:{tally.labels[k]}": [round(x, 6) for x in v]
                           for k, v in sorted(walls.items())})
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(by_slot) / round_s, "1/s"),
        "pairs_per_s": (sum(tally.pairs_by_slot.values()) / round_s, "1/s"),
        "op_p50_s": (statistics.median(medians), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, tally, info


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------


def _import_profile() -> dict:
    """-X importtime of the CLI's import path, split without overlap: a
    module's own time counts for the nearest of numpy, scipy and orliczlat
    among itself and the modules that imported it. So import.orliczlat_s
    leaves out numpy and scipy although orliczlat imports them first."""
    pkgs = ("numpy", "scipy", "orliczlat")
    samples: dict[str, list[float]] = {pkg: [] for pkg in pkgs}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import orliczlat.cli"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr[-400:]}")
        totals = dict.fromkeys(pkgs, 0)
        # Rows list each module after the modules it imported, indented one
        # level deeper; walked backwards, a module's importer comes first.
        importers: list[tuple[int, str | None]] = []
        for line in reversed(proc.stderr.splitlines()):
            if not line.startswith("import time:") or "imported package" in line:
                continue
            own, _, name = line[len("import time:"):].split("|")
            depth = len(name) - len(name.lstrip(" "))
            name = name.strip()
            while importers and importers[-1][0] >= depth:
                importers.pop()
            owner = next((p for p in pkgs if name == p or name.startswith(p + ".")),
                         importers[-1][1] if importers else None)
            importers.append((depth, owner))
            if owner is not None:
                totals[owner] += int(own)
        for pkg in pkgs:
            samples[pkg].append(totals[pkg] / 1e6)
    return {f"import.{pkg}_s": (statistics.median(v), "s") for pkg, v in samples.items()}


def traced(workload: str, seed: int, reference: dict) -> tuple[dict, Tally, dict]:
    """One untraced round, then the same round traced."""
    import numpy as np
    import tracer as tr

    trace_dir = OUT / "trace" / f"{workload}-seed{seed}-{os.getpid()}"
    if trace_dir.exists():
        shutil.rmtree(trace_dir)
    trace_dir.mkdir(parents=True)
    clock = Clock(sample=False)
    plain, tally = Tally(), Tally()
    if workload == "cli-readme":
        workdir = OUT / "tmp" / f"cli-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            cli_round(workdir, clock, plain, reference, seed, 0)
            cli_round(workdir, clock, tally, reference, seed, 0, spans_dir=trace_dir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        parts = [dict(np.load(p)) for p in sorted(trace_dir.glob("*.npz"))]
    else:
        from workloads import Setup

        setup = Setup(workload, seed)
        inprocess_round(setup, clock, plain, reference, seed, 0)
        t = tr.Tracer()
        t.install()
        try:
            inprocess_round(setup, clock, tally, reference, seed, 0)
        finally:
            t.uninstall()
        t.save(str(trace_dir / "spans.npz"))
        parts = [t.arrays()]
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    tally.errors += plain.errors
    summary = tr.summarize(parts)
    metrics = tr.layer_metrics(summary)
    metrics.update(_import_profile())
    metrics["trace.overhead"] = (sum(tally.latencies) / sum(plain.latencies), "ratio")

    # Where the traced round's time went; for CLI commands the part of each
    # command's wall time outside cli.main is process start plus imports.
    by_layer = {k: v["self_s"] for k, v in summary.items() if k != "_counters"}
    by_layer["finsupp.construct"] = summary["_counters"]["construct_s"]
    if workload == "cli-readme":
        by_layer["process_start_and_import"] = (
            sum(tally.walls) - summary["cli.main"]["total_s"])
    counts = {k: metrics[k][0] for k in tr.STEADY_COUNTS}
    count_file = OUT / "counts" / f"{workload}-seed{seed}-{code_digest()}.json"
    info = {"spans_dir": str(trace_dir.relative_to(ROOT)), "counts": counts,
            "untraced_round_s": sum(plain.latencies), "traced_round_s": sum(tally.latencies),
            "self_s_by_layer": by_layer, "dominant_layer": max(by_layer, key=by_layer.get)}
    if count_file.exists():
        before = json.loads(count_file.read_text())
        info["counts_previous"] = before
        if before != counts:
            tally.fail(f"counts differ from an earlier run with this seed: {before} vs {counts}")
    else:
        count_file.parent.mkdir(parents=True, exist_ok=True)
        count_file.write_text(json.dumps(counts))
    return metrics, tally, info


# --------------------------------------------------------------------------
# compare mode
# --------------------------------------------------------------------------


def _load_results(directory: Path) -> tuple[dict, dict]:
    """({(metric, workload): [values]}, {workload: [failed, attempted]})."""
    values: dict = {}
    fails: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") != 0:
            continue
        result = rec["result"]
        counts = fails.setdefault(rec["workload"], [0, 0])
        counts[0] += result["failed"]
        counts[1] += result["attempted"]
        for name, m in result["metrics"].items():
            values.setdefault((name, rec["workload"]), []).append(m["value"])
    return values, fails


def _iqr_share(values: list[float]) -> float:
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(old_dir: Path, new_dir: Path) -> int:
    """Verdict per (metric, workload): better, worse, unchanged or unresolved.
    Every metric of a workload whose new side fails a larger share of its
    ops is worse: a tree that fails fast must not read as a faster one."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    (old, old_fails), (new, new_fails) = _load_results(old_dir), _load_results(new_dir)
    rows = []
    for key in sorted(set(old) & set(new)):
        name, workload = key
        if name not in bounds:
            continue
        bound, better = bounds[name]
        a, b = old[key], new[key]
        ma, mb = statistics.median(a), statistics.median(b)
        sign = 1.0 if better == "lower" else -1.0
        cost_a, cost_b = [sign * x for x in a], [sign * x for x in b]  # lower is better
        worse_by = sign * (mb - ma) / ma  # > 0 means the new side is worse
        spread = max(_iqr_share(a), _iqr_share(b))
        fa, fb = old_fails[workload], new_fails[workload]
        if fb[0] * fa[1] > fa[0] * fb[1]:
            verdict = "worse"
        elif max(cost_b) < min(cost_a):
            verdict = "better"
        elif min(cost_b) > max(cost_a) and worse_by > bound:
            verdict = "worse"
        elif spread > bound:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "worse"
        elif -worse_by > _iqr_share(a):
            verdict = "better"
        else:
            verdict = "unchanged"
        rows.append({"metric": name, "workload": workload, "old_median": ma,
                     "new_median": mb, "change": (mb - ma) / ma, "spread": spread,
                     "bound": bound, "old_failed": fa, "new_failed": fb, "verdict": verdict})
        print(f"{workload:18s} {name:12s} {ma:12.6g} -> {mb:12.6g} "
              f"({(mb - ma) / ma:+7.2%}, spread {spread:6.2%}, bound {bound:.0%}, "
              f"failed {fa[0]}/{fa[1]} -> {fb[0]}/{fb[1]}) {verdict}")
    print(json.dumps({"compare": rows}))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"))
    ap.add_argument("--setup-probe", metavar="SAMPLES", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        sampler = Sampler()
        sampler.start()

    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))

    if not (ROOT / "src" / "orliczlat" / "__init__.py").is_file():
        print("perfbench: no src/orliczlat next to perfbench/; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, sampler, args.setup_probe)

    import orliczlat

    if Path(orliczlat.__file__).resolve().parent != ROOT / "src" / "orliczlat":
        print(f"perfbench: imported orliczlat from {orliczlat.__file__}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    try:
        reference = load_reference()
        if args.trace:
            metrics, tally, info = traced(args.workload, args.seed, reference)
        else:
            metrics, tally, info = e2e(args.workload, args.seed, args.seconds, reference)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = _read("/proc/loadavg").strip()

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "code": code_digest(), "environment": env,
              "details": info, "result": result}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": env, "details": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
