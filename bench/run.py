"""Benchmark of the skewbisub CLI: minimize, check and verify-all.

Run from the repository root:

    python3 bench/run.py --workload minimize-tilted --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seed 0            # every workload, each in its own process
    python3 bench/run.py --workload check-table --seed 0 --make-inputs DIR

One run builds the workload's inputs from the seed, then calls
skewbisub.cli.run in process, one closed-loop client, in whole rounds until
--seconds have passed, and checks every output against bench/reference.py.
It prints each metric by name with its unit, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the
end-to-end metrics; --trace 1 wraps the program's layer boundaries and
gives per-layer metrics instead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import List, Optional

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# The keys of workloads.WORKLOADS, listed here because workloads.py imports
# skewbisub, which only import_program may do.
WORKLOAD_NAMES = ("minimize-tilted", "check-table", "verify-desk")

#: Builds of the inputs per run; setup_s reports their median.
SETUPS = 3
#: The host's speed can shift by 40 % for seconds to minutes at a time,
#: which moves every wall time alike.  So a fixed pure-Python loop of
#: KERNEL_STEPS steps is timed around each timed step, and the metrics
#: report wall times scaled by REFERENCE_KERNEL_S / (the median loop time
#: of the same phase, set-up or operations): seconds on a machine where the
#: loop takes exactly 10 ms.  Wall times are printed too.
KERNEL_STEPS = 100_000
REFERENCE_KERNEL_S = 0.010
#: A timing tail needs at least this many operations beyond it.  The tail
#: and oracle_calls_per_op are printed but are not end-to-end metrics of
#: the JSON line: see README.md.
TAIL_BEYOND = 10
PERCENTILES = (99.9, 99, 95, 90, 75)

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("ops_per_s", "op/s"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class Record:
    case: object
    code: Optional[int]
    stdout: str
    stderr: str
    seconds: float
    oracle_calls: int


def import_program() -> float:
    """Import skewbisub from this checkout's src/ and return the seconds it took."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    try:
        importlib.import_module("skewbisub.cli")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import skewbisub from {SRC}: {exc}")
    elapsed = time.perf_counter() - start
    location = os.path.dirname(os.path.abspath(sys.modules["skewbisub"].__file__))
    if os.path.dirname(location) != SRC:
        raise SystemExit(f"error: skewbisub was imported from {location}, not from {SRC}")
    return elapsed


def kernel_seconds() -> float:
    """Wall time of the calibration loop, run now."""
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_STEPS):
        total += i * i
    return time.perf_counter() - start


def tail(times: List[float]):
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    operations beyond it, or None for fewer than 4 * TAIL_BEYOND operations."""
    if len(times) < 4 * TAIL_BEYOND:
        return None
    ordered = sorted(times)
    for p in PERCENTILES:
        if len(ordered) * (1 - p / 100) >= TAIL_BEYOND:
            return p, ordered[math.ceil(p / 100 * len(ordered)) - 1]
    return None


def run_operations(pool, directory: str, seconds: float, tracer, kernel: List[float]) -> tuple:
    """Whole rounds of CLI calls until `seconds` have passed: (records, wall).

    Appends a calibration time to `kernel` before each operation."""
    cli = sys.modules["skewbisub.cli"]
    built = []
    from_json = cli.instance_from_json

    def collecting(document):
        # The oracles each operation builds, to read their call counts.
        f = from_json(document)
        built.append(f)
        return f

    records: List[Record] = []
    cli.instance_from_json = collecting
    try:
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracing.patched(tracer, tracing.OP_LAYERS))
            start = time.perf_counter()
            rounds = 0
            while rounds == 0 or time.perf_counter() - start < seconds:
                for case in pool[rounds % len(pool)]:
                    argv = case.argv(directory)
                    built.clear()
                    out, err = io.StringIO(), io.StringIO()
                    kernel.append(kernel_seconds())
                    if tracer is not None:
                        tracer.op = len(records)
                    began = time.perf_counter()
                    try:
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = cli.run(argv)
                    except Exception:
                        code = None
                        err.write(traceback.format_exc())
                    took = time.perf_counter() - began
                    if tracer is not None:
                        tracer.op = -1
                    calls = sum(f.call_count for f in built)
                    records.append(
                        Record(case, code, out.getvalue(), err.getvalue(), took, calls)
                    )
                rounds += 1
            wall = time.perf_counter() - start
    finally:
        cli.instance_from_json = from_json
    return records, wall


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # Set-up lasts a few seconds, so it gets three loop samples before the
    # import, before each build and after the last one.
    setup_kernel = [kernel_seconds() for _ in range(3)]
    import_s = import_program()
    import workloads

    tracer = tracing.Tracer() if trace else None
    directory = os.path.join(WORK_DIR, f"{name}-seed{seed}-{os.getpid()}")
    try:
        builds = []
        for _ in range(SETUPS):
            setup_kernel += [kernel_seconds() for _ in range(3)]
            began = time.perf_counter()
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(tracing.patched(tracer, tracing.SETUP_LAYERS))
                pool = workloads.build_inputs(name, seed)
                workloads.write_inputs(pool, directory)
            builds.append(time.perf_counter() - began)
        setup_kernel += [kernel_seconds() for _ in range(3)]
        wall_setup_s = import_s + statistics.median(builds)
        kernel: List[float] = []
        records, wall = run_operations(pool, directory, seconds, tracer, kernel)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = workloads.Checker()
    failed = 0
    for index, record in enumerate(records):
        if record.code is None:
            problem = "raised:\n" + record.stderr
        else:
            problem = checker.problem(record.case, record.code, record.stdout)
        if problem is not None:
            failed += 1
            print(f"operation {index} ({' '.join(record.case.argv('.'))}): {problem}", file=sys.stderr)

    setup_scale = REFERENCE_KERNEL_S / statistics.median(setup_kernel)
    scale = REFERENCE_KERNEL_S / statistics.median(kernel)
    times = [r.seconds * scale for r in records]
    p50 = statistics.median(times)
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"  operations                       {len(records)} attempted, {failed} failed")
    print(f"  wall.setup_s                     {wall_setup_s:.6g} s")
    print(f"  wall.op_s.p50                    {statistics.median(r.seconds for r in records):.6g} s")
    print(f"  wall.ops_per_s                   {len(records) / wall:.6g} op/s")
    print(f"  speed_scale.setup                {setup_scale:.6g}")
    print(f"  speed_scale                      {scale:.6g}")
    tail_point = tail(times)
    if tail_point is None:
        print(f"  op_s.tail                        none: fewer than {4 * TAIL_BEYOND} operations")
    else:
        print(f"  op_s.tail                        {tail_point[1]:.6g} s (p{tail_point[0]:g})")
    oracle_calls = sum(r.oracle_calls for r in records) / len(records)
    print(f"  oracle_calls_per_op              {oracle_calls:.6g} call/op")

    correct = True
    if tracer is None:
        metrics = {
            "setup_s": wall_setup_s * setup_scale,
            "op_s.p50": p50,
            "ops_per_s": len(records) / sum(times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        errors = tracer.nesting_errors()
        for error in errors[:10]:
            print(f"trace: {error}", file=sys.stderr)
        correct = not errors
        os.makedirs(OUT_DIR, exist_ok=True)
        dump = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl")
        tracer.dump(dump)
        print(f"  op_s.p50, traced                 {p50:.6g} s")
        print(f"  spans                            {len(tracer.spans)} in {os.path.relpath(dump, ROOT)}")
        metrics = tracing.layer_metrics(tracer, len(records), SETUPS)
        units = dict(tracing.PER_LAYER)
    for key, value in metrics.items():
        print(f"  {key:<32} {value:.6g} {units[key]}")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; the last line maps each to its result."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        if not results[name]["correct"] or results[name]["failed"]:
            status = 1
    print(json.dumps(results))
    return status


def make_inputs(name: str, seed: int, directory: str) -> int:
    import_program()
    import workloads

    pool = workloads.build_inputs(name, seed)
    workloads.write_inputs(pool, directory)
    for r, cases in enumerate(pool):
        for case in cases:
            print(f"round {r}: skewbisub {' '.join(case.argv(directory))}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-inputs", metavar="DIR", help="write the inputs to DIR and stop")
    args = parser.parse_args(argv)
    if args.make_inputs:
        if args.workload == "all":
            parser.error("--make-inputs needs one --workload")
        return make_inputs(args.workload, args.seed, args.make_inputs)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
