"""propm benchmark: one workload per invocation, checked results, JSON summary.

Usage, from the repository root:

    python3 bench/run.py --workload exists --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload of BENCHMARK.json in turn.

``--trace 0`` measures the end-to-end metrics: several fresh interpreters
time set-up (``import propm`` plus the first input), then one fresh worker
process runs whole cycles of the workload's mix for about ``--seconds``.
``--trace 1`` measures the per-layer metrics instead: a fixed prefix of the
same op stream runs once untraced and once traced, each in a fresh process,
so counts repeat exactly for a seed. Metric names come from BENCHMARK.json;
the last line of standard output is the JSON result.

Each op's output is hashed. The digests of every run are kept per backend,
workload and seed under bench/out/digests, and a later run of the same seed
that disagrees on any op counts that op as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

SETUP_SAMPLES = 10  # process starts per end-to-end run, the worker's included
IMPORT_SAMPLES = 3  # process starts per traced run
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    # One caller, one thread: keep numpy and any BLAS single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict, dict | None]:
    """Run one worker. Returns (seconds to READY, READY payload, result or None).

    Reads the worker's output unbuffered so that the READY line is timed when
    it arrives, and kills the worker if it is still running at ``deadline``.
    """
    cmd = [sys.executable, str(WORKER), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE)
    fd = proc.stdout.fileno()
    out = bytearray()
    setup_s = None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"worker timed out: {' '.join(args)}")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if setup_s is None and b"\n" in out:
                setup_s = time.perf_counter() - t0
        proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not exit: {' '.join(args)}") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    payload = json.loads(lines[0][len("READY "):])
    return setup_s, payload, (json.loads(lines[-1]) if len(lines) > 1 else None)


def compare_digests(env: dict, workload: str, seed: int, digests: list[str]) -> tuple[int, set]:
    """Compare with earlier runs of this seed on the same backend; keep the longest record.

    Returns (ops compared, indices of ops that disagree). Records of another
    backend are never compared.
    """
    path = OUT / "digests" / env["backend"] / f"{workload}-{seed}.json"
    known: list[str] = []
    if path.exists():
        known = json.loads(path.read_text())["digests"]
    common = min(len(known), len(digests))
    mismatched = {i for i, (a, b) in enumerate(zip(known, digests)) if a != b}
    if len(digests) > len(known):
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"env": env, "digests": digests}))
        tmp.replace(path)
    return common, mismatched


def describe_env(env: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in env.items())


def end_to_end(args, deadline) -> tuple[dict, int, int]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [spawn([*common, "--probe"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup_s, _, res = spawn([*common, "--seconds", str(args.seconds)], deadline)
    setups.append(setup_s)

    lat_ms = [ns / 1e6 for ns in res["latencies_ns"]]
    ops = len(lat_ms)
    compared, mismatched = compare_digests(res["env"], args.workload, args.seed, res["digests"])
    failed = len(mismatched.union(res["failed_ops"]))
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops / (sum(lat_ms) / 1e3), "1/s"),
        "latency_ms_p50": (statistics.median(lat_ms), "ms"),
        "latency_ms_p90": (p90, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "success_rate": (1 - failed / ops, "ratio"),
    }
    beyond = sum(1 for x in lat_ms if x > p90)
    print(f"env: {describe_env(res['env'])}")
    print(
        f"workload {args.workload} seed {args.seed}: {ops} ops in {res['elapsed_s']:.1f} s, "
        f"closed loop, one caller, workers=1"
    )
    notes = {
        "setup_s": f"median of {len(setups)} process starts",
        "ops_per_s": f"{ops} ops",
        "latency_ms_p50": f"{ops} samples",
        "latency_ms_p90": f"{ops} samples, {beyond} beyond p90",
        "peak_rss_mb": "worker process high-water mark",
        "success_rate": f"{ops - failed} of {ops} ops",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:>12.4f} {unit:<6} ({notes[name]})")
    print(f"  {'error_rate':<16} {failed / ops:>12.4f} {'ratio':<6} ({failed} failed of {ops})")
    if res["failures"]:
        print(f"  failures by kind: {res['failures']}")
    print(f"  output digests: {compared} ops compared with earlier runs, {len(mismatched)} differ")
    return metrics, ops, failed


def traced(args, deadline, spec_units) -> tuple[dict, int, int]:
    common = ["--workload", args.workload, "--seed", str(args.seed), "--prefix"]
    imports = [spawn([*common, "--probe"], deadline)[1]["import_s"] for _ in range(IMPORT_SAMPLES)]
    base = spawn(common, deadline)[2]
    res = spawn([*common, "--trace", "1"], deadline)[2]
    n_ops = len(res["latencies_ns"])

    failed = compared = mismatched = 0
    for run in (base, res):
        c, mis = compare_digests(run["env"], args.workload, args.seed, run["digests"])
        compared, mismatched = compared + c, mismatched + len(mis)
        failed += len(mis.union(run["failed_ops"]))
    attempted = len(base["latencies_ns"]) + len(res["latencies_ns"])

    layers = res["layers"]
    layers["cli.import_s"] = statistics.median(imports)
    untraced_rate = n_ops / (sum(base["latencies_ns"]) / 1e9)
    traced_rate = n_ops / (sum(res["latencies_ns"]) / 1e9)
    layers["trace.overhead_ratio"] = traced_rate / untraced_rate

    print(f"env: {describe_env(res['env'])}")
    print(
        f"workload {args.workload} seed {args.seed}: traced run of the first {n_ops} ops "
        f"(untraced {untraced_rate:.2f} ops/s, traced {traced_rate:.2f} ops/s)"
    )
    if res["untraced_targets"]:
        print(f"  not found in propm, reported as 0: {', '.join(res['untraced_targets'])}")
    op_busy = layers["bench.op.busy_s"]
    metrics = {}
    for name, unit in spec_units.items():
        if name not in layers:
            raise BenchError(f"per-layer metric {name} is not produced by the tracer")
        value = layers[name]
        metrics[name] = (value, unit)
        timed = name.endswith(("busy_s", "self_s"))
        share = f"  {100 * value / op_busy:5.1f}% of op time" if timed and op_busy else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{share}")
    print(f"  spans written to {res['spans']}")
    print(f"  output digests: {compared} ops compared with earlier runs, {mismatched} differ")
    return metrics, attempted, failed


def measure(args, spec: dict) -> dict:
    """One workload's result: correct, attempted, failed and its metrics."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, attempted, failed = traced(args, deadline, units)
    else:
        metrics, attempted, failed = end_to_end(args, deadline)
        expected = {m["name"] for m in spec["end_to_end"]}
        if set(metrics) != expected:
            raise BenchError(f"end-to-end metrics {sorted(metrics)} differ from {sorted(expected)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "propm" / "__init__.py").is_file():
        print(f"no propm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names} or 'all'", file=sys.stderr)
        return 2
    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            results[name] = measure(argparse.Namespace(**{**vars(args), "workload": name}), spec)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
    # One workload: its result. All: one result per workload, by name.
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
