"""The benchmark's tracer (bench/tracing.py) wraps propm functions by module
and name, and reads their call arguments by parameter name. A renamed
function or parameter must fail here rather than silently zero a counter of
``bench/run.py --trace 1``."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import propm
from propm.fairness import _mms_cached

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# The arguments Tracer._count reads from each counted function's call.
READS = {
    "kernels.cp_table": ("vals", "cap"),
    "kernels.notion_masks": ("values", "count"),
    "kernels.mms_scan": ("count",),
    "kernels.leximin_scan": ("count",),
    "cpsets.cp_bundle": ("inst", "base", "agent", "k"),
    "oracle.exists": ("inst",),
}


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(module_name, func_name):
    return getattr(importlib.import_module(module_name), func_name, None)


def test_every_traced_function_exists():
    for layer, module_name, func_name in _tracing().TARGETS:
        assert callable(_target(module_name, func_name)), (layer, module_name, func_name)


def test_counted_functions_take_the_arguments_the_tracer_reads():
    tracing = _tracing()
    targets = {f"{layer}.{func}": (module, func) for layer, module, func in tracing.TARGETS}
    assert set(READS) <= tracing._COUNTED
    for name, args in READS.items():
        params = inspect.signature(_target(*targets[name])).parameters
        for arg in args:
            assert arg in params, (name, arg)
            assert params[arg].kind is not inspect.Parameter.POSITIONAL_ONLY, (name, arg)


def test_the_argument_table_matches_the_tracer():
    tracer = _tracing().Tracer
    source = inspect.getsource(tracer._count) + inspect.getsource(tracer._count_cp_bundle)
    read = set(re.findall(r'\ba\["(\w+)"\]', source))
    assert read == {arg for args in READS.values() for arg in args}


def test_traced_scans_count_their_allocations():
    inst = propm.random_instance(3, 5, 20, seed=5700)
    _mms_cached.cache_clear()
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        propm.implication_audit(inst)
        propm.leximin_max(inst)
        result = propm.exists(inst, propm.Notion.PROPM)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert not tracer.missing
    counts = tracer.metrics()
    # 3^5 allocations fit one window of each scan; MMS puts the last item in bundle 0
    # and scans each allocation once for all three agents.
    assert counts["kernels.notion_masks.allocs"] == 2 * 3**5
    assert counts["kernels.leximin_scan.allocs"] == 3**5
    assert counts["kernels.mms_scan.allocs"] == 3**4
    # The audit still asks mms_value once per agent; the first call scans.
    assert counts["fairness.mms_value.calls"] == 3
    assert counts["kernels.mms_scan.calls"] == 1
    assert counts["oracle.exists.allocs_needed"] == result.allocations_checked


def test_the_tracer_picks_the_cp_strategy_the_package_runs(monkeypatch):
    from propm import _kernels, cpsets

    tracing = _tracing()
    limits = cpsets.DP_SUM_LIMIT, cpsets.MITM_ITEM_LIMIT
    assert (tracing._DP_SUM_LIMIT, tracing._MITM_ITEM_LIMIT) == limits
    ran = []
    for strategy, name in (("dp", "cp_table"), ("mitm", "cp_mitm")):

        def spy(vals, cap, kernel=getattr(_kernels, name), strategy=strategy):
            ran.append(strategy)
            return kernel(vals, cap)

        monkeypatch.setattr(_kernels, name, spy)
    limit, items = limits
    # One agent and k = 1, so the cap is the row's sum: caps just inside and
    # just past the DP limit, then the item limit and one more past it.
    rows = [[limit - 1], [limit], [limit] * items, [limit] * (items + 1)]
    picked = []
    for row in rows:
        inst = propm.Instance.of([row])
        cpsets._best_subset.cache_clear()
        ran.clear()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.begin_op(0)
            try:
                propm.cp_bundle(inst, 0, 1, propm.Bundle.of(range(inst.m)))
            except propm.ResourceBudgetError:
                pass
            tracer.end_op()
        finally:
            tracer.uninstall()
        counts = tracer.metrics()
        traced = {s: counts[f"cpsets.strategy.{s}"] for s in ("dp", "mitm")}
        assert traced == {s: ran.count(s) for s in ("dp", "mitm")}, row[:2]
        picked.append(ran[:])
    assert picked == [["dp"], ["mitm"], ["mitm"], []]
