"""Per-agent verifiers for every supported fairness notion, with exact slacks.

All comparisons are agent-relative and weak (>=): an agent with total 0 is
vacuously satisfied by every notion. Each notion is one integer test per
agent, so each slack is an integer numerator over a positive denominator.
Conventions for empty bundles:

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
from functools import lru_cache, reduce

from . import _kernels
from .core import (
    Allocation,
    InputError,
    Instance,
    fraction_str,
    require_agent,
    require_allocation,
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
        """Bit position used by the scan kernels, which name it like the member."""
        return getattr(_kernels, self.name)


def parse_notion(name: str) -> Notion:
    try:
        return Notion(name.strip().lower())
    except ValueError as exc:
        valid = ", ".join(n.value for n in Notion)
        raise InputError(f"unknown notion {name!r}; expected one of: {valid}") from exc


def _require_notion(notion) -> None:
    if not isinstance(notion, Notion):
        raise InputError(f"notion must be a Notion, got {notion!r}; parse_notion reads a name")


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


def _bundle_view(
    inst: Instance, agent: int, allocation: Allocation
) -> tuple[int, dict[int, list[int]]]:
    """The agent's own value, and her item values in each other bundle, in agent order.

    The allocation must already be valid for the instance.
    """
    row = inst.values[agent]
    own = 0
    others = {}
    for k, bundle in enumerate(allocation.bundles):
        if k == agent:
            own = sum(row[j] for j in bundle.items)
        else:
            others[k] = [row[j] for j in bundle.items]
    return own, others


def _maximin(others: dict[int, list[int]]) -> int:
    """The maximin-item bonus: the best least item over the non-empty other bundles."""
    return max((min(vals) for vals in others.values() if vals), default=0)


def _efx_gaps(own: int, others: dict[int, list[int]]) -> dict[int, int]:
    """own - (v(X_k) - least item of X_k) for every non-empty other bundle X_k."""
    return {k: own - sum(vals) + min(vals) for k, vals in others.items() if vals}


def _slack(
    inst: Instance, agent: int, allocation: Allocation, notion: Notion, budget: int | None
) -> tuple[int, int]:
    """The agent's slack under the notion as (numerator, denominator > 0).

    Every notion is one integer test, numerator >= 0: the proportionality
    family compares n * (own + bonus) with the agent's total, the envy
    notions compare own with the worst envy term.
    """
    n, total = inst.n, inst.totals[agent]
    own, others = _bundle_view(inst, agent, allocation)
    if notion is Notion.EF:
        return min((own - sum(vals) for vals in others.values()), default=0), 1
    if notion is Notion.EFX:
        return min(_efx_gaps(own, others).values(), default=0), 1
    if notion is Notion.MMS:
        return own - mms_value(inst, agent, budget=budget), 1
    bundles = [vals for vals in others.values() if vals]
    if notion is Notion.EF1:
        return min((own - sum(vals) + max(vals) for vals in bundles), default=0), 1
    if notion is Notion.AEFX:
        return n * own + sum(min(vals) for vals in bundles) - total, n
    if notion is Notion.PROP1:
        bonus = max((max(vals) for vals in bundles), default=0)
    elif notion is Notion.PROPX:
        bonus = min((min(vals) for vals in bundles), default=0)
    elif notion is Notion.PROPM:
        bonus = _maximin(others)
    elif notion is Notion.ALT_MINIMAX:
        bonus = min((max(vals, default=0) for vals in others.values()), default=0)
    elif notion is Notion.PROP:
        bonus = 0
    else:
        # ALT_MEAN, ALT_MEDIAN and ALT_MODE read the items the others own.
        rest = [v for vals in bundles for v in vals]
        if not rest:
            bonus = 0
        elif notion is Notion.ALT_MEAN:
            k = len(rest)
            return n * k * own + n * sum(rest) - k * total, n * k
        elif notion is Notion.ALT_MEDIAN:
            bonus = sorted(rest)[(len(rest) - 1) // 2]
        else:
            bonus = _smallest_mode(rest)
    return n * (own + bonus) - total, n


def check(
    inst: Instance,
    allocation: Allocation,
    notion: Notion,
    budget: int | None = None,
) -> FairnessReport:
    """Exact per-agent verdicts for one notion over a complete allocation.

    The MMS notion enumerates the partitions into n bundles once for all
    agents (``mms_value``); ``budget`` bounds that enumeration.
    """
    _require_notion(notion)
    require_allocation(allocation).validate_for(inst)
    verdicts = []
    for i in range(inst.n):
        num, den = _slack(inst, i, allocation, notion, budget)
        verdicts.append(AgentVerdict(satisfied=num >= 0, slack=Fraction(num, den)))
    return FairnessReport(notion=notion, per_agent=tuple(verdicts))


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
    budget still guards n^m. One scan answers every agent of the instance,
    and the last MMS_MEMO_SIZE instances' answers are kept, so asking for
    each agent in turn scans once; a single agent's first call pays for all.
    """
    require_agent(inst, agent)
    if inst.n == 1:
        return inst.totals[agent]
    require_budget(inst.n**inst.m, budget, "mms_value")
    return _mms_cached(inst)[agent]


# Instances whose MMS values are kept (each entry holds n ints).
MMS_MEMO_SIZE = 64


@lru_cache(maxsize=MMS_MEMO_SIZE)
def _mms_cached(inst: Instance) -> tuple[int, ...]:
    """Every agent's MMS value, from one scan over all the agents' rows."""
    values = _kernels.instance_arrays(inst.values, inst.totals)[0]
    # Indices below n^(m-1) are exactly the assignments of item m-1 to bundle 0.
    stop = inst.n ** (inst.m - 1) if inst.m else 1
    best = _kernels.scan_windows(
        values, lambda plan, pos, count: _kernels.mms_scan(values, pos, count, plan=plan), 0, stop
    )
    return tuple(reduce(_kernels.np.maximum, best).tolist())
