"""citeconc benchmark: one workload per process, one result line.

    python3 perfbench/run.py --workload analyze-battery --seed 20240603 --seconds 36 --trace 0

Run from the repository root. The package is imported from `src/` of the
checkout this file sits in; without those sources the run exits non-zero and
prints no result.

--trace 0 times the workload's operation with nothing rebound, at least
MIN_REPEATS times and then while one more repeat of average length still fits
in --seconds of operation time, and reports the end-to-end metrics; wall_s is
the median of those operations. --trace 1 runs the operation once with every
layer traced (see tracing.py), reports the per-layer metrics and writes the
spans to perfbench/_out/; it then runs the operation once more untraced, and
trace.overhead_s is the traced time minus that untraced time.

Times reported as metrics (wall_s, the input preparation in setup_s,
trace.*_s) are at the reference machine speed: see ReferenceClock. The
measured seconds are printed beside them.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "_out")
# An operation now and then runs 30% slow while the reference loop around it
# does not; the median of three or more repeats is immune to one such repeat.
MIN_REPEATS = 3
# Fresh interpreters timed for the import part of setup_s before set-up and
# after every operation.
SETUP_PROBES = 3
# Seconds one pass of the reference loop takes on the machine of machine.json
# when nothing else slows it.
REFERENCE_LOOP_S = 0.040
REFERENCE_PASSES = 30


def bootstrap() -> None:
    """Import citeconc from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "citeconc", "__init__.py")):
        raise SystemExit(f"error: citeconc sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import citeconc

    if os.path.dirname(os.path.dirname(os.path.abspath(citeconc.__file__))) != SRC:
        raise SystemExit(f"error: citeconc imported from {citeconc.__file__}, not {SRC}")


def reference_loop_seconds() -> float:
    """Mean seconds of one pass of a fixed loop of interpreter and numpy work
    that calls no citeconc code."""
    import numpy as np

    x = np.random.default_rng(0).random(1_000_000)
    t0 = time.perf_counter()
    for _ in range(REFERENCE_PASSES):
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        for _ in range(3):
            np.sort(x)
    return (time.perf_counter() - t0) / REFERENCE_PASSES


class ReferenceClock:
    """Converts measured seconds to seconds at the reference machine speed.

    The benchmark's host is shared, and its speed drifts by 30% or more over
    tens of seconds: the tsv-roundtrip operation took from 11.6 s to 18.1 s
    over ten consecutive runs. The reference loop, which runs no citeconc
    code, slows with it (their correlation was 0.89 over 17 operations of
    tsv-roundtrip), so it is timed after every measured section and a
    section's seconds are scaled by REFERENCE_LOOP_S over the mean of the loop
    times just before and just after it. A change to citeconc moves the scaled
    time as it moves the measured one; a change in the machine's speed largely
    cancels out. The loop runs REFERENCE_PASSES passes, about 1.3 s, so that
    the machine's second-to-second jitter averages out of it.
    """

    def __init__(self):
        self.loops = [reference_loop_seconds()]

    def scale(self, seconds: float) -> float:
        """`seconds` of a section that ended just now, at the reference speed."""
        self.loops.append(reference_loop_seconds())
        return seconds * REFERENCE_LOOP_S / statistics.mean(self.loops[-2:])


def import_probe_seconds() -> list[float]:
    """Wall times of SETUP_PROBES fresh interpreters importing what the
    workloads use."""
    code = f"import sys; sys.path[:0] = [{SRC!r}, {BENCH_DIR!r}]; import workloads"
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


def fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


@contextlib.contextmanager
def work_dir():
    """A fresh working directory for one process, removed on exit."""
    path = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    fresh_dir(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def timed_op(workload, state, workdir: str, attempts, compare: bool) -> tuple[float, dict]:
    """Run the operation once in an empty op dir and check it; returns its
    seconds and its checked outputs."""
    import workloads

    fresh_dir(os.path.join(workdir, "op"))
    attempts.new_repeat()
    t0 = time.perf_counter()
    raw = workload.run(state, attempts)
    elapsed = time.perf_counter() - t0
    outputs = workload.check(state, raw, attempts)
    if compare:
        workloads.compare_with_reference(workload.name, outputs, attempts)
    return elapsed, outputs


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Set up and time one workload; returns (metrics, attempts, tracer or None).

    Outputs are compared with the reference at the default seed and full scale;
    invariants are checked at every seed and scale.
    """
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    compare = seed == workload.default_seed and scale == 1.0
    with work_dir() as workdir:
        # Start-up of a fresh 0.2 s process is slowed by the host in ways the
        # reference loop does not track (scaling did not narrow its spread),
        # so the import part of setup_s is the fastest of probes spread over
        # the run, unscaled.
        probes = [] if trace else import_probe_seconds()
        clock = ReferenceClock()
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir, scale)
        prepare_s = clock.scale(time.perf_counter() - t0)
        attempts = workloads.Attempts()
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_s, _ = timed_op(workload, state, workdir, attempts, compare)
            finally:
                tracer.uninstall()
            traced_s = clock.scale(traced_s)
            # Untraced after traced, so that the traced operation's rises in
            # peak RSS are not hidden by an earlier operation's peak.
            untraced_s = clock.scale(timed_op(workload, state, workdir, attempts, compare)[0])
            return tracer.metrics(traced_s, untraced_s), attempts, tracer
        measured = [timed_op(workload, state, workdir, attempts, compare)[0]]
        # Peak RSS of set-up plus one operation: repeats reuse freed memory
        # unevenly and would only add allocator noise.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op_times = [clock.scale(measured[0])]
        probes += import_probe_seconds()
        while len(measured) < MIN_REPEATS or sum(measured) + statistics.mean(measured) <= seconds:
            measured.append(timed_op(workload, state, workdir, attempts, compare)[0])
            op_times.append(clock.scale(measured[-1]))
            probes += import_probe_seconds()
        setup_s = min(probes) + prepare_s
        print("measured operation seconds: " + " ".join(f"{t:.3f}" for t in measured))
        print("reference loop seconds: " + " ".join(f"{t:.4f}" for t in clock.loops))
        print("import probe seconds: " + " ".join(f"{t:.3f}" for t in probes))
        metrics = {
            "wall_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        return metrics, attempts, None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, help="default: the workload's own (the seed of its reference outputs)")
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bootstrap()
    sys.path.insert(0, BENCH_DIR)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.WORKLOADS[args.workload].default_seed
    metrics, attempts, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{tracer.run_id}.jsonl"))

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {attempts.failed / attempts.attempted:.6g} ratio "
          f"({attempts.failed} of {attempts.attempted} operations failed)")
    for (index, label), why in attempts.failures.items():
        print(f"FAILED {label} (attempt {index}): {why}", file=sys.stderr)
    print(json.dumps({"correct": attempts.failed == 0, "attempted": attempts.attempted,
                      "failed": attempts.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
