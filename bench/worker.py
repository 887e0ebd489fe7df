"""One benchmark process: import propm, run one workload's ops, report JSON.

``run.py`` starts this script in a fresh interpreter for every measurement,
so import time, set-up and peak RSS belong to that one workload. Protocol on
standard output: the first line is ``READY {...}``, printed once propm is
imported and the first op's input exists; the last line is the result.

Modes:
  --probe           stop after READY (a set-up sample);
  --prefix          run exactly the workload's ``trace_ops`` ops, so the
                    counts of a traced run repeat;
  otherwise         run whole cycles of the workload's mix until about
                    --seconds have passed and at least MIN_OPS ops ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# At least ten latency samples beyond p90.
MIN_OPS = 100
# Stop even mid-cycle past this many seconds, so a run always ends in time.
HARD_LIMIT_S = 150.0


def environment(propm) -> dict:
    import numpy

    kernels = sys.modules.get("propm._kernels")
    return {
        "backend": getattr(kernels, "BACKEND", "unknown"),
        "have_numba": bool(getattr(kernels, "HAVE_NUMBA", False)),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "propm": getattr(propm, "__version__", "unknown"),
    }


def run_ops(workload, seed, first, fixed_ops, seconds, tracer):
    """Closed loop with one caller.

    Returns (latencies_ns, output digests, failures by kind, failed op indices).
    """
    from workloads import output_digest

    latencies: list[int] = []
    digests: list[str] = []
    failures: dict[str, int] = {}
    failed_ops: list[int] = []
    clock = time.perf_counter_ns
    t_start = time.perf_counter()
    i = 0
    while True:
        inp = first if i == 0 else workload.make_input(seed, i)
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        try:
            out = workload.op(inp)
        except Exception as exc:  # every failure counts toward error_rate; the loop goes on
            out, error = None, exc
        else:
            error = None
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
        latencies.append(t1 - t0)
        if error is None:
            try:
                ok, canonical = workload.check(inp, out)
            except Exception as exc:  # a check that cannot run is a failed check
                ok, canonical, error = False, None, exc
        if error is not None:
            kind = type(error).__name__
            if not failures:
                traceback.print_exception(error, file=sys.stderr)
            digests.append(f"error:{kind}")
        else:
            kind = None if ok else "check"
            digests.append(output_digest(canonical))
        if kind is not None:
            failures[kind] = failures.get(kind, 0) + 1
            failed_ops.append(i)
        i += 1
        elapsed = time.perf_counter() - t_start
        if fixed_ops:
            if i >= fixed_ops:
                break
        elif elapsed >= HARD_LIMIT_S:
            break
        elif i % workload.period == 0 and i >= MIN_OPS:
            # Stop at the cycle boundary nearest to the time budget.
            per_cycle = elapsed / (i // workload.period)
            if elapsed + per_cycle / 2 >= seconds:
                break
    return latencies, digests, failures, failed_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--prefix", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import propm

    import_s = time.perf_counter() - t0
    if not Path(propm.__file__).resolve().is_relative_to(src):
        print(f"propm was imported from {propm.__file__}, not from {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    first = workload.make_input(args.seed, 0)
    print("READY " + json.dumps({"import_s": import_s}), flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t_run = time.perf_counter()
    latencies, digests, failures, failed_ops = run_ops(
        workload, args.seed, first, workload.trace_ops if args.prefix else 0, args.seconds, tracer
    )
    elapsed = time.perf_counter() - t_run
    result = {
        "env": environment(propm),
        "import_s": import_s,
        "elapsed_s": elapsed,
        "latencies_ns": latencies,
        "digests": digests,
        "failures": failures,
        "failed_ops": failed_ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["untraced_targets"] = tracer.missing
        spans = ROOT / "bench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans)
        result["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
