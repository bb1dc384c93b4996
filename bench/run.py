"""Standard-library benchmark of pencillab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process with no worker threads: makes its inputs
from the seed, then repeats whole rounds of fixed work until S seconds of
timed phase have passed (at least one round), checks every round's outputs,
verifies a sample against independent computations, and prints one JSON
object as the last line of standard output.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run alternates untraced and traced rounds (the set-up is traced too) and
prints the per-layer metrics of one set-up plus one round, together with the
tracing overhead: the fastest traced round's wall time minus the fastest
untraced one's.  wall_s, cpu_s and items_per_s describe the fastest round.
An item whose operation raises is counted in ``failed`` and makes the run
incorrect.
A run record (and, when traced, the spans of the first traced round) is
written under bench/runs/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

_START = time.perf_counter()

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RUNS = BENCH / "runs"

# the program is imported from this checkout's sources, never from elsewhere
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

import pencillab  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "items_per_s": "items/s", "peak_rss_mb": "MB"}


def process_age_s() -> float:
    """Seconds since this process started, interpreter start-up included,
    where the kernel reports it plausibly; else since this module was
    loaded."""
    since_load = time.perf_counter() - _START
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, IndexError, ValueError, AttributeError):
        return since_load
    # a clock namespace can shift the boot clock; start-up takes seconds
    return age if since_load <= age < since_load + 60 else since_load


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_now() -> float:
    """CPU seconds of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: Path | None = None) -> dict:
    """One benchmark run; returns the run record.  When traced, the spans of
    the first traced round are written to ``spans_path``."""
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    state = workload.setup(seed, workdir)
    setup_s = process_age_s()
    setup_fold = tracer.fold() if tracer else None
    if tracer:
        tracer.uninstall()

    rounds: list[dict] = []
    folds: list[tracing.Fold] = []
    problems: list[str] = []
    first_outputs = None
    timed = 0.0
    while True:
        traced_round = trace and len(rounds) % 2 == 1
        gc.collect()
        if traced_round:
            tracer.install()
        c0, t0 = cpu_now(), time.perf_counter()
        result = workload.run_round(state)
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        if traced_round:
            tracer.uninstall()
            if spans_path is not None and not folds:
                tracer.write_spans(spans_path)
            folds.append(tracer.fold())
        timed += wall
        rounds.append({"traced": traced_round, "items": result.items,
                       "failed": result.failed, "wall_s": wall, "cpu_s": cpu})
        errors = [out.error for out in result.outputs if isinstance(out, workloads.Failed)]
        if errors:
            problems.append(f"round {len(rounds)}: {result.failed} items failed, "
                            f"first with {errors[0]}")
        problems += workload.check(state, result.outputs)
        if first_outputs is None:
            first_outputs = result.outputs
        if timed >= seconds and (not trace or len(rounds) >= 2):
            break
    rss = peak_rss_mb()
    problems += workload.verify(state, first_outputs)

    # the fastest whole round: this VM runs at its full speed or ~1.7x
    # slower by turns of a few seconds, and the fastest round is the one
    # that measures the code rather than the neighbours
    plain = [r for r in rounds if not r["traced"]]
    fastest = min(plain, key=lambda r: r["wall_s"])
    wall_s = fastest["wall_s"]
    if trace:
        overhead = min(r["wall_s"] for r in rounds if r["traced"]) - wall_s
        metrics = tracing.per_layer_metrics(setup_fold, folds, overhead)
        units = tracing.METRIC_UNITS
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall_s,
                   "cpu_s": min(r["cpu_s"] for r in plain),
                   "items_per_s": fastest["items"] / wall_s,
                   "peak_rss_mb": rss}
        units = END_TO_END_UNITS
    return {
        "workload": workload.name, "item": workload.item, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "correct": not problems, "problems": problems[:20],
        "attempted": sum(r["items"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "rounds": rounds,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(pencillab.__file__).resolve().is_relative_to(SRC):
        print(f"error: pencillab imported from {pencillab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    RUNS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RUNS))
    try:
        record = run(workload, args.seed, args.seconds, bool(args.trace), workdir,
                     RUNS / f"{stem}.spans.tsv.gz" if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
