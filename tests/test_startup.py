"""numpy loads on the first numpy kernel call, never on ``import propm``, and
concurrent.futures only when a scan starts a thread pool.

Each check runs in a fresh interpreter, so that the modules pytest and the
other tests have imported cannot hide an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import propm
from propm.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACING = ROOT / "bench" / "tracing.py"

# Runs the CLI argv lists given as JSON in argv[1], in order, and prints, as
# JSON, whether numpy was loaded after each import and each command, with
# each command's exit code and standard output.
_RUN_CLI = """
import contextlib, io, json, sys
import propm
loaded = {"import propm": "numpy" in sys.modules}
from propm import cli
loaded["from propm import cli"] = "numpy" in sys.modules
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps({"loaded": loaded, "runs": runs}))
"""

# Six threads, released together, make the process's first kernel calls,
# switching often.
_FIRST_CALLS = """
import json, sys, threading
import propm
inst = propm.random_instance(3, 6, 20, seed=11)
notions = [propm.Notion(tag) for tag in json.loads(sys.argv[1])]
loaded = "numpy" in sys.modules
barrier = threading.Barrier(len(notions))
results, errors = [None] * len(notions), []

def first_call(k):
    barrier.wait()
    try:
        results[k] = propm.exists(inst, notions[k]).to_json_dict()
    except Exception as exc:
        errors.append(repr(exc))

sys.setswitchinterval(1e-5)
threads = [
    threading.Thread(target=first_call, args=(k,), daemon=True) for k in range(len(notions))
]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
hung = sum(t.is_alive() for t in threads)
print(json.dumps({"loaded_before": loaded, "results": results, "errors": errors, "hung": hung}))
"""

# The scans of test_bench_contract.py::test_traced_scans_count_their_allocations,
# traced by bench/tracing.py installed right after ``import propm``.
_TRACE_BEFORE_NUMPY = """
import importlib.util, json, sys
import propm
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
loaded = "numpy" in sys.modules
inst = propm.random_instance(3, 5, 20, seed=5700)
tracer.begin_op(0)
propm.implication_audit(inst)
propm.leximin_max(inst)
result = propm.exists(inst, propm.Notion.PROPM)
tracer.end_op()
tracer.uninstall()
print(json.dumps({
    "loaded_at_install": loaded,
    "missing": tracer.missing,
    "counts": tracer.metrics(),
    "allocations_checked": result.allocations_checked,
}))
"""

# Whether concurrent.futures is loaded after ``import propm``, after a solve
# whose CP queries run numpy meet-in-the-middle, and after a one-worker
# exists scan, with the scan's answer.
_NO_POOL_MODULE = """
import json, sys
import propm
loaded = {"import propm": "concurrent.futures" in sys.modules}
inst = propm.random_instance(3, 14, 10**9, seed=2)
allocation, cert = propm.solve_propm(inst)
assert propm.verify_certificate(inst, allocation, cert)
loaded["solve"] = "concurrent.futures" in sys.modules
result = propm.exists(propm.random_instance(3, 8, 100, seed=2), propm.Notion.EF, workers=1)
loaded["exists"] = "concurrent.futures" in sys.modules
print(json.dumps({"loaded": loaded, "numpy": "numpy" in sys.modules,
                  "checked": result.allocations_checked}))
"""


def fresh(script, *args):
    """JSON printed by ``script`` run in a new interpreter that imports propm from SRC."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _in_process(capsys, argvs):
    runs = []
    for argv in argvs:
        code = main(argv)
        runs.append([code, capsys.readouterr().out])
    return runs


def test_import_propm_does_not_load_numpy():
    got = fresh(_RUN_CLI, "[]")
    assert got["loaded"] == {"import propm": False, "from propm import cli": False}


def test_commands_without_a_kernel_never_load_numpy(tmp_path, capsys):
    eps, inst, alloc = (tmp_path / name for name in ("eps.json", "inst.json", "alloc.json"))
    alloc.write_text(json.dumps({"bundles": [[0], [1, 2, 3], [4, 5, 6]]}))
    argvs = [
        ["--help"],
        ["gen", "--n", "3", "--m", "5", "--seed", "4"],
        ["gen", "--n", "3", "--m", "5", "--seed", "4", "--out", str(inst)],
        ["counterexample", "--scale", "100", "--out", str(eps)],
        ["verify", "--instance", str(eps), "--allocation", str(alloc), "--notion", "propm"],
        ["verify", "--instance", str(eps), "--allocation", str(alloc), "--notion", "ef",
         "--json"],
    ]
    got = fresh(_RUN_CLI, json.dumps(argvs))
    assert not any(got["loaded"].values())
    assert [loaded for _, _, loaded in got["runs"]] == [False] * len(argvs)
    written = inst.read_text(), eps.read_text()
    assert [run[:2] for run in got["runs"]] == _in_process(capsys, argvs)
    assert (inst.read_text(), eps.read_text()) == written


def test_kernel_commands_load_numpy_and_answer_as_before(tmp_path, capsys):
    eps = tmp_path / "eps.json"
    assert main(["counterexample", "--scale", "100", "--out", str(eps)]) == 0
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"bundles": [[0], [1, 2, 3], [4, 5, 6]]}))
    mms = ["verify", "--instance", str(eps), "--allocation", str(alloc), "--notion", "mms"]
    exists = ["exists", "--instance", str(eps), "--notion", "alt-median"]
    for argv in (mms, exists):
        got = fresh(_RUN_CLI, json.dumps([argv]))
        assert not any(got["loaded"].values())
        (code, out, loaded), = got["runs"]
        assert loaded
        assert [[code, out]] == _in_process(capsys, [argv])
    assert out == "alt-median: does not exist (2187 allocations scanned)\n"


def test_only_solves_past_the_bitset_bound_load_numpy(tmp_path, capsys):
    # n = 4, m = 12, values up to 100: every CP query fits cpsets.BITS_LIMIT,
    # so the bit-parallel kernel answers all of them and numpy never loads.
    # Values up to 10^4 over 32 items need the numpy DP.
    expected = []
    for m, top in ((12, 100), (32, 10**4)):
        inst = tmp_path / f"inst-{m}.json"
        gen = ["gen", "--n", "4", "--m", str(m), "--max-value", str(top), "--seed", "3"]
        assert main([*gen, "--out", str(inst)]) == 0
        capsys.readouterr()
        argv = ["solve", "--instance", str(inst)]
        got = fresh(_RUN_CLI, json.dumps([argv]))
        (code, out, loaded), = got["runs"]
        assert [[code, out]] == _in_process(capsys, [argv])
        expected.append((code, loaded))
    assert expected == [(0, False), (0, True)]


def test_first_kernel_calls_from_six_threads_at_once():
    notions = [propm.Notion(tag) for tag in ("propm", "ef", "mms", "propx", "alt-mode", "aefx")]
    got = fresh(_FIRST_CALLS, json.dumps([notion.value for notion in notions]))
    assert not got["loaded_before"]
    assert (got["errors"], got["hung"]) == ([], 0)
    inst = propm.random_instance(3, 6, 20, seed=11)
    assert got["results"] == [propm.exists(inst, notion).to_json_dict() for notion in notions]


def test_tracer_installed_before_numpy_loads():
    got = fresh(_TRACE_BEFORE_NUMPY, str(TRACING))
    assert not got["loaded_at_install"]
    assert got["missing"] == []
    counts = got["counts"]
    # 3^5 allocations fit one window of each scan; MMS puts the last item in bundle 0
    # and scans each allocation once for all three agents.
    assert counts["kernels.notion_masks.allocs"] == 2 * 3**5
    assert counts["kernels.leximin_scan.allocs"] == 3**5
    assert counts["kernels.mms_scan.allocs"] == 3**4
    # The audit still asks mms_value once per agent; the first call scans.
    assert counts["fairness.mms_value.calls"] == 3
    assert counts["kernels.mms_scan.calls"] == 1
    assert counts["oracle.exists.allocs_needed"] == got["allocations_checked"]


def test_import_solve_and_one_worker_scans_leave_concurrent_futures_unloaded():
    # Only the scan driver's thread pool needs concurrent.futures; it imports
    # the module when it starts a pool.
    got = fresh(_NO_POOL_MODULE)
    assert got["loaded"] == {"import propm": False, "solve": False, "exists": False}
    assert got["numpy"]
    inst = propm.random_instance(3, 8, 100, seed=2)
    assert got["checked"] == propm.exists(inst, propm.Notion.EF, workers=1).allocations_checked
