"""Per-agent verifiers for every supported fairness notion, with exact slacks.

All comparisons are agent-relative and weak (>=): an agent with total 0 is
vacuously satisfied by every notion. Conventions for empty bundles:

* the minimum over an empty bundle is undefined and the bundle is skipped
  when computing the maximin bonus and EF1/EFx envy terms (envy toward an
  empty bundle is zero);
* the minimax bonus treats an empty rival bundle as contributing a maximum
  of zero, so a single empty rival caps the bonus at zero;
* if no item at all is owned by others, every additive bonus is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from . import _kernels
from .core import (
    Allocation,
    Bundle,
    InputError,
    Instance,
    fraction_str,
    require_budget,
)


class Notion(Enum):
    PROP = "prop"
    PROP1 = "prop1"
    PROPX = "propx"
    PROPM = "propm"
    EF = "ef"
    EF1 = "ef1"
    EFX = "efx"
    AEFX = "aefx"
    MMS = "mms"
    ALT_MEAN = "alt-mean"
    ALT_MEDIAN = "alt-median"
    ALT_MODE = "alt-mode"
    ALT_MINIMAX = "alt-minimax"

    @property
    def code(self) -> int:
        """Bit position used by the scan kernels."""
        return _NOTION_CODES[self]


_NOTION_CODES = {
    Notion.PROP: _kernels.PROP,
    Notion.PROP1: _kernels.PROP1,
    Notion.PROPX: _kernels.PROPX,
    Notion.PROPM: _kernels.PROPM,
    Notion.EF: _kernels.EF,
    Notion.EF1: _kernels.EF1,
    Notion.EFX: _kernels.EFX,
    Notion.AEFX: _kernels.AEFX,
    Notion.MMS: _kernels.MMS,
    Notion.ALT_MEAN: _kernels.ALT_MEAN,
    Notion.ALT_MEDIAN: _kernels.ALT_MEDIAN,
    Notion.ALT_MODE: _kernels.ALT_MODE,
    Notion.ALT_MINIMAX: _kernels.ALT_MINIMAX,
}


def parse_notion(name: str) -> Notion:
    try:
        return Notion(name.strip().lower())
    except ValueError as exc:
        valid = ", ".join(n.value for n in Notion)
        raise InputError(f"unknown notion {name!r}; expected one of: {valid}") from exc


@dataclass(frozen=True)
class AgentVerdict:
    satisfied: bool
    slack: Fraction


@dataclass(frozen=True)
class FairnessReport:
    notion: Notion
    per_agent: tuple[AgentVerdict, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(v.satisfied for v in self.per_agent)

    def to_json_dict(self) -> dict:
        return {
            "notion": self.notion.value,
            "all_satisfied": self.all_satisfied,
            "per_agent": [
                {"agent": i, "satisfied": v.satisfied, "slack": fraction_str(v.slack)}
                for i, v in enumerate(self.per_agent)
            ],
        }


def min_item(inst: Instance, agent: int, bundle: Bundle) -> int | None:
    """Least item value in the bundle for the agent; None for the empty bundle."""
    if not 0 <= agent < inst.n:
        raise InputError(f"agent index {agent} out of range for n={inst.n}")
    bundle.validate_for(inst.m)
    if not bundle:
        return None
    row = inst.values[agent]
    return min(row[j] for j in bundle.items)


def maximin_value(inst: Instance, agent: int, allocation: Allocation) -> int:
    """Best per-bundle minimum over the other agents' non-empty bundles (0 if none)."""
    allocation.validate_for(inst)
    best = 0
    for k, bundle in enumerate(allocation.bundles):
        if k == agent or not bundle:
            continue
        m = min_item(inst, agent, bundle)
        if m is not None and m > best:
            best = m
    return best


def _per_agent_bonus_and_extras(inst, agent, allocation):
    """(own value, per-other bundle stats) shared by the verifiers."""
    row = inst.values[agent]
    own = sum(row[j] for j in allocation.bundles[agent].items)
    others = []
    for k, bundle in enumerate(allocation.bundles):
        if k == agent:
            continue
        vals = [row[j] for j in bundle.items]
        others.append((k, sum(vals), min(vals) if vals else None, max(vals) if vals else None))
    return own, others


def _threshold_slack(own_plus_bonus: Fraction, total: int, n: int) -> Fraction:
    return own_plus_bonus - Fraction(total, n)


def check(
    inst: Instance,
    allocation: Allocation,
    notion: Notion,
    budget: int | None = None,
) -> FairnessReport:
    """Exact per-agent verdicts for one notion over a complete allocation.

    The MMS notion enumerates all n^m partitions per agent; ``budget``
    bounds that enumeration.
    """
    allocation.validate_for(inst)
    n = inst.n
    verdicts = []
    for i in range(n):
        total = inst.totals[i]
        own, others = _per_agent_bonus_and_extras(inst, i, allocation)
        nonempty = [(val, mn, mx) for (_, val, mn, mx) in others if mn is not None]

        if notion is Notion.PROP:
            slack = _threshold_slack(Fraction(own), total, n)
        elif notion is Notion.PROP1:
            bonus = max((mx for (_, mn, mx) in nonempty), default=0)
            slack = _threshold_slack(Fraction(own + bonus), total, n)
        elif notion is Notion.PROPX:
            bonus = min((mn for (_, mn, mx) in nonempty), default=0)
            slack = _threshold_slack(Fraction(own + bonus), total, n)
        elif notion is Notion.PROPM:
            bonus = max((mn for (_, mn, mx) in nonempty), default=0)
            slack = _threshold_slack(Fraction(own + bonus), total, n)
        elif notion is Notion.EF:
            slack = Fraction(min((own - val for (_, val, _, _) in others), default=0))
        elif notion is Notion.EF1:
            slack = Fraction(min((own - (val - mx) for (val, _, mx) in nonempty), default=0))
        elif notion is Notion.EFX:
            slack = Fraction(min((own - (val - mn) for (val, mn, _) in nonempty), default=0))
        elif notion is Notion.AEFX:
            bonus = Fraction(sum(mn for (_, mn, _) in nonempty), n)
            slack = _threshold_slack(own + bonus, total, n)
        elif notion is Notion.MMS:
            slack = Fraction(own - mms_value(inst, i, budget=budget))
        elif notion is Notion.ALT_MEAN:
            rest_vals = _rest_values(inst, i, allocation)
            bonus = Fraction(sum(rest_vals), len(rest_vals)) if rest_vals else Fraction(0)
            slack = _threshold_slack(own + bonus, total, n)
        elif notion is Notion.ALT_MEDIAN:
            rest_vals = _rest_values(inst, i, allocation)
            bonus = sorted(rest_vals)[(len(rest_vals) - 1) // 2] if rest_vals else 0
            slack = _threshold_slack(Fraction(own + bonus), total, n)
        elif notion is Notion.ALT_MODE:
            rest_vals = _rest_values(inst, i, allocation)
            bonus = _smallest_mode(rest_vals) if rest_vals else 0
            slack = _threshold_slack(Fraction(own + bonus), total, n)
        elif notion is Notion.ALT_MINIMAX:
            bonus = 0
            if n > 1:
                per_bundle = [
                    (mx if mx is not None else 0) for (_, _, mn, mx) in others
                ]
                bonus = min(per_bundle)
            slack = _threshold_slack(Fraction(own + bonus), total, n)
        else:  # pragma: no cover - closed enumeration
            raise InputError(f"unhandled notion {notion}")
        verdicts.append(AgentVerdict(satisfied=slack >= 0, slack=slack))
    return FairnessReport(notion=notion, per_agent=tuple(verdicts))


def _rest_values(inst, agent, allocation):
    owned = set(allocation.bundles[agent].items)
    row = inst.values[agent]
    return [row[j] for j in range(inst.m) if j not in owned]


def _smallest_mode(values):
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def mms_value(inst: Instance, agent: int, budget: int | None = None) -> int:
    """Maximin share: the best worst-bundle value over all partitions into n bundles.

    Relabelling bundles keeps every worst-bundle value, so the scan puts the
    last item in bundle 0 and covers n^(m-1) assignments. The enumeration
    budget still guards n^m.
    """
    if not 0 <= agent < inst.n:
        raise InputError(f"agent index {agent} out of range for n={inst.n}")
    if inst.n == 1:
        return inst.totals[agent]
    require_budget(inst.n**inst.m, budget, "mms_value")
    return _mms_cached(inst, agent)


@lru_cache(maxsize=4096)
def _mms_cached(inst: Instance, agent: int) -> int:
    row = _kernels.instance_arrays(inst.values, inst.totals)[0][agent]
    n = inst.n
    plan = _kernels.ScanPlan(row[None, :], n, _kernels.scan_chunk(n))
    # Indices below n^(m-1) are exactly the assignments of item m-1 to bundle 0.
    windows = plan.windows(0, n ** (inst.m - 1) if inst.m else 1)
    return max(_kernels.mms_scan(row, n, pos, count, plan=plan) for pos, count in windows)
