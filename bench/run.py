"""tm2net benchmark: three workloads through the public CLI, every output
checked against an independent reference interpreter.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics: the wall time of
``tm2net.cli.main(argv)`` per operation, after import, and the peak RSS of
each run and compare in a fresh child process.  ``--trace 1`` prints the
per-layer metrics instead, measured from outside each module's public
functions, and writes the spans of one traced pass to ``.bench_out/``.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  bench/README.md explains each metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import MODULES
from workloads import OUT, SRC, WORKLOADS

SAMPLE_MIN_S = 0.25  # each operation repeats this long per cycle, at least once

END_TO_END = {
    "setup_s": "s", "compile_s": "s",
    "run_tm_s": "s", "run_gs_s": "s", "run_nda_s": "s", "run_net_s": "s",
    "run_float_s": "s", "compare_s": "s",
    "run_tm_mb": "MB", "run_gs_mb": "MB", "run_nda_mb": "MB", "run_net_mb": "MB",
    "compare_mb": "MB",
}
MEMORY = ("run_tm", "run_gs", "run_nda", "run_net", "compare")

PER_LAYER = {
    "machine.parse_s": "s", "gshift.build_s": "s", "nda.build_s": "s",
    "network.build_s": "s", "network.export_s": "s", "network.import_s": "s",
    "machine.step_us": "us", "gshift.step_us": "us",
    "encode.encode_us": "us", "encode.decode_us": "us", "encode.point_bits": "bits",
    "nda.cell_us": "us", "nda.step_us": "us",
    "network.step_us": "us", "network.float_step_us": "us",
    "network.bsl.terms_per_step": "count", "network.ltl.terms_per_step": "count",
    "network.mcl.terms_per_step": "count", "network.ltl.fire_ratio": "ratio",
    "network.units": "count", "network.edges": "count",
    "network.float.divergence_step": "count",
    "machine.trace_bytes": "bytes", "gshift.trace_bytes": "bytes",
    "nda.trace_bytes": "bytes", "network.trace_bytes": "bytes",
    **{f"cli.{short}.overhead_s": "s"
       for short in ("tm", "gs", "nda", "net", "float", "compare")},
    **{f"self.{module}_s": "s" for module in MODULES},
    "trace.overhead_s": "s",
}
# exact counts: they must be equal in every cycle of a run
COUNTS = ("encode.point_bits", "network.bsl.terms_per_step",
          "network.ltl.terms_per_step", "network.mcl.terms_per_step",
          "network.ltl.fire_ratio", "network.units", "network.edges",
          "network.float.divergence_step")


def load_package() -> None:
    """Put this checkout's tm2net first on sys.path; exit if it is missing."""
    if not (SRC / "tm2net" / "cli.py").is_file():
        sys.exit(f"error: no tm2net sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import tm2net

    if Path(tm2net.__file__).resolve().parent != SRC / "tm2net":
        sys.exit(f"error: imported tm2net from {tm2net.__file__}, not {SRC}")


def repeat(sample) -> list[float]:
    """Durations returned by ``sample()``, each called after a full garbage
    collection so that it starts from the same heap, for SAMPLE_MIN_S."""
    times = []
    while not times or sum(times) < SAMPLE_MIN_S:
        gc.collect()
        times.append(sample())
    return times


def end_to_end(case, seconds: float, tally) -> dict:
    """Cycle through every operation until ``seconds`` pass, then measure
    each run's memory in a child of its own; medians."""
    from cases import RUNS, in_child, in_process

    def setup():
        t0 = time.perf_counter()
        net = case.setup()
        dt = time.perf_counter() - t0
        tally.checked(case.check_setup, net)
        return dt

    def compile_net():
        t0 = time.perf_counter()
        rc, net = case.compile()
        dt = time.perf_counter() - t0
        tally.checked(case.check_compile, rc, net)
        return dt

    def cli_op(op):
        rc, dt, stdout = in_process(case.argv(op))
        tally.checked(case.check, op, rc, stdout)
        return dt

    def memory(op):
        rc, stdout, peak_kb = in_child(case.argv(op))
        case.check(op, rc, stdout)
        samples[f"{op}_mb"].append(peak_kb / 1024)

    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    while True:
        samples["setup_s"] += repeat(setup)
        samples["compile_s"] += repeat(compile_net)
        for op in RUNS:
            samples[f"{op}_s"] += repeat(lambda: cli_op(op))
        if time.perf_counter() >= deadline:
            break
    for op in MEMORY:
        tally.checked(memory, op)
    return {name: statistics.median(samples[name]) if samples[name] else None
            for name in END_TO_END}


def per_layer(case, seconds: float, tally) -> dict:
    """Layer metrics, CLI overheads, and one traced pass written as spans."""
    import layers
    from cases import RUNS, Mismatch, in_process
    from spans import Tracer
    from tm2net import machine

    m = machine.parse_machine(case.text)
    word = tuple(case.word)
    samples = defaultdict(list)
    counts = None

    def cli_op(op):
        rc, dt, stdout = in_process(case.argv(op))
        tally.checked(case.check, op, rc, stdout)
        return dt

    def library(op):
        t0 = time.perf_counter()
        case.library(op)
        return time.perf_counter() - t0

    def same_counts(cycle_counts):
        if cycle_counts != counts:
            raise Mismatch(f"counters changed: {cycle_counts} != {counts}")

    deadline = time.perf_counter() + seconds
    while True:
        untraced_s = 0.0
        for op in RUNS:
            gc.collect()
            cli_s = cli_op(op)
            gc.collect()
            untraced_s += cli_s
            samples[f"cli.{op.removeprefix('run_')}.overhead_s"].append(cli_s - library(op))
        samples["untraced_s"].append(untraced_s)
        cycle = {**layers.builders(case.text), **layers.levels(m, word, case.budget)}
        cycle_counts = {k: cycle.pop(k) for k in COUNTS}
        counts = counts or cycle_counts
        tally.checked(same_counts, cycle_counts)
        for k, v in cycle.items():
            samples[k].append(v)
        if time.perf_counter() >= deadline:
            break

    tracer = Tracer()
    traced_s = 0.0
    by_op = {}
    tracer.patch()
    try:
        for op in RUNS:
            gc.collect()
            root = len(tracer.spans)
            traced_s += tracer.call(f"bench.{op}", cli_op, op)
            by_op[op] = tracer.self_times(root)
    finally:
        tracer.unpatch()
    stem = OUT / f"{case.name}-seed{case.seed}"
    tracer.write(f"{stem}.spans.jsonl")
    with open(f"{stem}.selftime.json", "w", encoding="utf-8") as fh:
        json.dump(by_op, fh, indent=2)
    for op, selves in by_op.items():
        total = sum(selves.values())
        shares = "  ".join(f"{k} {v / total:.0%}" for k, v in
                           sorted(selves.items(), key=lambda kv: -kv[1]))
        print(f"self time {op:9s} {total:8.3f} s  {shares}", file=sys.stderr)

    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics.update({k: float(v) for k, v in counts.items()})
    for module in MODULES:
        metrics[f"self.{module}_s"] = sum(s.get(module, 0.0) for s in by_op.values())
    metrics["trace.overhead_s"] = traced_s - metrics.pop("untraced_s")
    metrics.update(layers.trace_bytes(m, word, case.budget))
    return {name: metrics.get(name) for name in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_package()
    from cases import Case, Tally

    OUT.mkdir(exist_ok=True)
    case = Case(WORKLOADS[args.workload], args.seed)
    tally = Tally()
    try:
        if args.trace:
            metrics, units = per_layer(case, args.seconds, tally), PER_LAYER
        else:
            metrics, units = end_to_end(case, args.seconds, tally), END_TO_END
    finally:
        shutil.rmtree(case.compile_dir)

    correct = tally.failed == 0 and None not in metrics.values()
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
