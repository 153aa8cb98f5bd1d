"""Host-speed calibration for the benchmark's timings.

Shared hosts run a VM at 1.0-2.2x its best speed, in phases that last from
a fraction of a second to minutes: within one op as well as across whole
runs. So while a call is timed, SIGALRM runs a fixed pure-Python kernel
every SAMPLE_PERIOD_S in the process doing the work (no thread, no extra
process), and the call's wall time, less the kernel's, is reported at the
reference speed: scaled by REF_KERNEL_S over the mean kernel time sampled.
REF_KERNEL_S is about the kernel's best on a 2-vCPU Intel Xeon VM.

Run as a script it executes one ``orliczlat`` CLI command while sampling
the kernel in that process, and writes the samples to a file:

    python3 perfbench/clock.py SAMPLES.json -- classify --p 1.5 ...
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time

REF_KERNEL_S = 0.00035
SAMPLE_PERIOD_S = 0.02


def kernel_seconds() -> float:
    """CPU time of one run of the kernel: interpreter work of the kind the
    package does (dict lookups and stores, float arithmetic, calls). CPU
    time, so that another process sharing the CPU does not count as a slow
    host."""
    t0 = time.thread_time()
    table: dict = {}
    acc = 0.0
    for i in range(2000):
        key = (i * 7919) % 1013
        value = table.get(key, 0.0) + math.sqrt(i + 1.0) * 0.5
        table[key] = value
        acc += value
    return time.thread_time() - t0


class Sampler:
    """Runs the kernel on SIGALRM every SAMPLE_PERIOD_S between start and stop."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float, float]] = []  # (start, end, kernel)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel = kernel_seconds()
        self.ticks.append((start, time.perf_counter(), kernel))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernels(self) -> list[float]:
        return [k for _, _, k in self.ticks]

    def busy_before(self, t: float) -> float:
        """Wall seconds spent sampling in ticks that started before ``t``."""
        return sum(end - start for start, end, _ in self.ticks if start < t)


class Clock:
    """Times calls in seconds at the reference speed. Each ``run*`` returns
    (result, exception, wall seconds less sampling, scale to reference
    seconds)."""

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample  # off in traced rounds: samples would land in spans
        self.kernels: list[float] = []

    def scale(self, samples: list[float]) -> float:
        """REF_KERNEL_S over the mean of ``samples``; keeps them."""
        self.kernels += samples
        return REF_KERNEL_S * len(samples) / sum(samples)

    def run(self, fn):
        """Time an in-process call, sampling the kernel before, during and
        after it."""
        before = kernel_seconds()
        sampler = Sampler()
        if self.sample:
            sampler.start()
        t0 = time.perf_counter()
        try:
            out, exc = fn(), None
        except Exception as err:  # the caller decides what a raise means
            out, exc = None, err
        t1 = time.perf_counter()
        if self.sample:
            sampler.stop()
        samples = [before, *sampler.kernels(), kernel_seconds()]
        return out, exc, t1 - t0 - sampler.busy_before(t1), self.scale(samples)

    def run_child(self, fn, samples_file):
        """Time a call that runs one child process, which samples the kernel
        itself (``clock.py SAMPLES --`` or a set-up probe) and writes the
        samples to ``samples_file``: the child's own CPU is the one to
        measure."""
        t0 = time.perf_counter()
        try:
            out, exc = fn(), None
        except Exception as err:  # the caller decides what a raise means
            out, exc = None, err
        wall = time.perf_counter() - t0
        try:
            rec = json.loads(samples_file.read_text())
            samples_file.unlink()
        except (OSError, ValueError):  # the child died first; the op fails anyway
            rec = {"kernels": [], "busy_s": 0.0}
        samples = rec["kernels"] or [kernel_seconds()]
        return out, exc, wall - rec["busy_s"], self.scale(samples)


def write_samples(sampler: Sampler, path: str) -> None:
    """Stop ``sampler`` and write its kernel times and busy seconds."""
    sampler.stop()
    record = {"kernels": sampler.kernels(), "busy_s": sampler.busy_before(math.inf)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def _cli_child(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: clock.py SAMPLES.json -- <orliczlat arguments>")
    sampler = Sampler()
    sampler.start()
    try:
        import orliczlat.cli as cli

        return cli.main(argv[2:])
    finally:
        sys.stdout.flush()
        write_samples(sampler, argv[0])


if __name__ == "__main__":
    sys.exit(_cli_child(sys.argv[1:]))
