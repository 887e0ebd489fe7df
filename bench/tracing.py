"""Span tracer that wraps propm's layer functions from outside the package.

Only the traced run installs it. Each target function is replaced, in every
``propm`` module that holds a reference to it, by a wrapper that records one
span ``(name, start_ns, end_ns, parent span, op id)`` per call made while an
op is active. Spans stay in memory and are written out when the run ends.

Counters are derived after each op from the recorded call arguments and
results, never from timers, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

OP = "bench.op"

# (layer, module, function). Every module attribute bound to the same
# function object is wrapped, so ``propm.solver.check`` and
# ``propm.oracle.check`` are traced as well as ``propm.fairness.check``.
TARGETS = (
    ("solver", "propm.solver", "solve_propm"),
    ("solver", "propm.solver", "verify_certificate"),
    ("solver", "propm.solver", "reduce_big_items"),
    ("cpsets", "propm.cpsets", "cp_ladder"),
    ("cpsets", "propm.cpsets", "cp_bundle"),
    ("kernels", "propm._kernels", "cp_table"),
    ("kernels", "propm._kernels", "notion_masks"),
    ("kernels", "propm._kernels", "mms_scan"),
    ("kernels", "propm._kernels", "leximin_scan"),
    ("fairness", "propm.fairness", "check"),
    ("fairness", "propm.fairness", "mms_value"),
    ("oracle", "propm.oracle", "exists"),
    ("oracle", "propm.oracle", "implication_audit"),
    ("leximin", "propm.leximin", "leximin_max"),
    ("leximin", "propm.leximin", "envy_graph"),
    ("leximin", "propm.leximin", "cycle_swap"),
)

# Functions whose arguments or results feed a counter; only their calls keep
# a reference to (args, kwargs, result) until the op ends.
_COUNTED = {
    "cpsets.cp_bundle",
    "kernels.cp_table",
    "kernels.notion_masks",
    "kernels.mms_scan",
    "kernels.leximin_scan",
    "oracle.exists",
    "oracle.implication_audit",
    "solver.solve_propm",
}

# Counters derived from arguments and results; all start at zero.
COUNTERS = (
    "solver.reductions",
    "solver.cases_applied",
    "solver.subsplits",
    "solver.subsplit_depth_max",
    "cpsets.strategy.dp",
    "cpsets.strategy.mitm",
    "kernels.cp_table.cells",
    "kernels.cp_table.bytes_computed",
    "kernels.notion_masks.allocs",
    "kernels.notion_masks.bytes_computed",
    "kernels.mms_scan.allocs",
    "kernels.leximin_scan.allocs",
    "fairness.mms_cache.hits",
    "oracle.exists.allocs_needed",
    "oracle.exists.full_scans",
    "oracle.audit.violations",
)

# Bytes each DP cell holds: reach (bool) + cardinality (int64) + mask (int64).
CP_CELL_BYTES = 1 + 8 + 8

# Documented CP strategy thresholds (propm.cpsets), used if the module no
# longer exposes them.
_DP_SUM_LIMIT = 2_000_000
_MITM_ITEM_LIMIT = 34


def notion_mask_bytes(n: int, m: int, count: int) -> int:
    """Bytes notion_masks computes for ``count`` allocations.

    Per allocation: three n-by-n int64 bundle statistics (value, min, max),
    n int64 bundle sizes, n uint16 masks and m int64 owner digits.
    """
    return count * (3 * 8 * n * n + 8 * n + 2 * n + 8 * m)


class Tracer:
    """Records spans for the traced functions and derives per-layer metrics."""

    def __init__(self):
        self.names: list[str] = [OP]
        self.spans: list[tuple] = []  # (fid, start_ns, end_ns, parent, op)
        self.payloads: dict[int, tuple] = {}  # span index -> (args, kwargs, result)
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.cp_keys: set = set()  # distinct (values, cap) CP bundle queries
        self.labels: set = set()  # distinct certificate case labels
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._restore: list[tuple] = []
        self._sigs: dict[str, inspect.Signature] = {}
        self._cp_limits = _DP_SUM_LIMIT, _MITM_ITEM_LIMIT

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "propm" or name.startswith("propm."))
        ]
        cpsets = sys.modules.get("propm.cpsets")
        self._cp_limits = (
            getattr(cpsets, "DP_SUM_LIMIT", _DP_SUM_LIMIT),
            getattr(cpsets, "MITM_ITEM_LIMIT", _MITM_ITEM_LIMIT),
        )
        for layer, module_name, func_name in TARGETS:
            name = f"{layer}.{func_name}"
            owner = sys.modules.get(module_name)
            orig = getattr(owner, func_name, None)
            if not callable(orig):
                self.missing.append(name)
                continue
            fid = len(self.names)
            self.names.append(name)
            self._sigs[name] = inspect.signature(orig)
            wrapper = self._wrap(fid, name in _COUNTED, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, fid: int, counted: bool, func):
        spans = self.spans
        stack = self.stack
        payloads = self.payloads
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self.op < 0:
                return func(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.op)
            if counted:
                payloads[idx] = (args, kwargs, result)
            return result

        return traced

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op_first = len(self.spans)
        self.spans.append(None)
        self.stack.append(self._op_first)
        self.op = op
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans[self._op_first] = (0, self._op_start, end, -1, self.op)
        self.op = -1
        self._account(self._op_first)

    def _account(self, first: int) -> None:
        """Fold the finished op's spans into calls, busy and self time, and counters."""
        spans = self.spans
        child_ns: dict[int, int] = defaultdict(int)
        for idx in range(first + 1, len(spans)):
            fid, start, end, parent, _ = spans[idx]
            child_ns[parent] += end - start
        # An mms_value call that ran no mms_scan was answered from the cache.
        scans_under: dict[int, int] = defaultdict(int)
        mms_values = []
        for idx in range(first, len(spans)):
            fid, start, end, parent, _ = spans[idx]
            name = self.names[fid]
            dur = end - start
            self.calls[name] += 1
            self.busy_ns[name] += dur
            self.self_ns[name] += dur - child_ns.get(idx, 0)
            if name == "kernels.mms_scan":
                scans_under[parent] += 1
            elif name == "fairness.mms_value":
                mms_values.append(idx)
        self.counts["fairness.mms_cache.hits"] += sum(1 for i in mms_values if not scans_under[i])
        for idx in sorted(self.payloads):
            args, kwargs, result = self.payloads[idx]
            self._count(self.names[spans[idx][0]], args, kwargs, result)
        self.payloads.clear()

    def _bind(self, name: str, args, kwargs) -> dict:
        bound = self._sigs[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counts
        a = self._bind(name, args, kwargs)
        if name == "kernels.cp_table":
            cells = len(a["vals"]) * (int(a["cap"]) + 1)
            c["kernels.cp_table.cells"] += cells
            c["kernels.cp_table.bytes_computed"] += cells * CP_CELL_BYTES
        elif name == "kernels.notion_masks":
            n, m = a["values"].shape
            count = int(a["count"])
            c["kernels.notion_masks.allocs"] += count
            c["kernels.notion_masks.bytes_computed"] += notion_mask_bytes(n, m, count)
        elif name in ("kernels.mms_scan", "kernels.leximin_scan"):
            c[f"{name}.allocs"] += int(a["count"])
        elif name == "cpsets.cp_bundle":
            self._count_cp_bundle(a)
        elif name == "oracle.exists":
            inst = a["inst"]
            c["oracle.exists.allocs_needed"] += result.allocations_checked
            if result.allocations_checked == inst.n**inst.m:
                c["oracle.exists.full_scans"] += 1
        elif name == "oracle.implication_audit":
            c["oracle.audit.violations"] += len(result.violations)
        elif name == "solver.solve_propm":
            self._count_certificate(result[1], depth=0)

    def _count_cp_bundle(self, a: dict) -> None:
        items = a["base"].items
        if not items:
            return
        row = a["inst"].values[a["agent"]]
        vals = tuple(row[j] for j in items)
        cap = sum(vals) // a["k"]
        dp_limit, mitm_limit = self._cp_limits
        strategy = a.get("strategy")
        if strategy is None:
            if cap + 1 <= dp_limit:
                strategy = "dp"
            elif len(vals) <= mitm_limit:
                strategy = "mitm"
        if strategy in ("dp", "mitm"):
            self.counts[f"cpsets.strategy.{strategy}"] += 1
        self.cp_keys.add((vals, cap))

    def _count_certificate(self, cert, depth: int) -> None:
        c = self.counts
        c["solver.subsplit_depth_max"] = max(c["solver.subsplit_depth_max"], depth)
        for step in cert.steps:
            kind = type(step).__name__
            if kind == "BigItemReduction":
                c["solver.reductions"] += 1
            elif kind == "CaseApplied":
                c["solver.cases_applied"] += 1
                self.labels.add(step.lemma)
            elif kind == "SubSplit":
                c["solver.subsplits"] += 1
                self._count_certificate(step.certificate, depth + 1)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name (seconds for times, plain counts otherwise)."""
        out: dict[str, float] = {}
        # Targets the program no longer has report zeros (see self.missing).
        for name in [OP] + [f"{layer}.{func}" for layer, _, func in TARGETS]:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.busy_s"] = self.busy_ns.get(name, 0) / 1e9
            out[f"{name}.self_s"] = self.self_ns.get(name, 0) / 1e9
        out.update(self.counts)
        calls = self.calls.get("cpsets.cp_bundle", 0)
        out["cpsets.cp_bundle.distinct_ratio"] = len(self.cp_keys) / calls if calls else 0.0
        out["solver.case_labels_hit"] = len(self.labels)
        hits = self.counts.get("fairness.mms_cache.hits", 0)
        mms_calls = self.calls.get("fairness.mms_value", 0)
        out["fairness.mms_cache.hit_ratio"] = hits / mms_calls if mms_calls else 0.0
        for kernel, unit in (("kernels.cp_table", "cells"), ("kernels.notion_masks", "allocs")):
            busy = out.get(f"{kernel}.busy_s", 0.0)
            work = out.get(f"{kernel}.{unit}", 0)
            out[f"{kernel}.{unit}_per_s"] = work / busy if busy else 0.0
        kernel_allocs = out.get("kernels.notion_masks.allocs", 0)
        needed = out.get("oracle.exists.allocs_needed", 0)
        out["oracle.exists.useful_ratio"] = needed / kernel_allocs if kernel_allocs else 0.0
        op_busy = out[f"{OP}.busy_s"]
        out["trace.accounted_ratio"] = 1 - out[f"{OP}.self_s"] / op_busy if op_busy else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON list per line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fid, start, end, parent, op = span
                fh.write(json.dumps([self.names[fid], start, end, parent, op]) + "\n")
