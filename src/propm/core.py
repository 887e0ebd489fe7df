"""Exact data model for fair-division instances, bundles, and allocations.

Valuations are non-negative integers and every fractional threshold is
compared by cross-multiplication, so all verdicts downstream are exact.
Normalizing totals to 1 is deliberately avoided: a claim like
"agent i gets at least k/n of her total" is always evaluated as
``n * value >= k * total_i``.

Every integer argument, valuation and item index must be an ``int``
(``type(x) is int``): a bool, an int subclass or a float, even a whole one,
is refused with InputError (``require_int``), never converted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator


class InputError(ValueError):
    """Input data violates a documented precondition."""


class ResourceBudgetError(RuntimeError):
    """An operation would exceed a resource limit.

    The limits: an exhaustive operation's enumeration budget, a CP table's
    take-row bytes, a CP query past both CP kernels' reach, and values past
    the scan kernels' exact int64 range (which no budget lifts).
    """


class UnsupportedSizeError(InputError):
    """The constructive solver was asked for more residual agents than it supports."""


class InvariantViolationError(RuntimeError):
    """An internal invariant failed. This signals a bug, not bad input."""


DEFAULT_BUDGET = 10_000_000


def require_int(value, message: str, low: float = -math.inf, high: float = math.inf) -> int:
    """``value`` if it is an int (not a bool) with low <= value < high, else InputError.

    The error's text is ``message`` formatted with ``value``, ``low`` and ``high``.
    """
    if type(value) is not int or not low <= value < high:
        raise InputError(message.format(value=value, low=low, high=high))
    return value


def resolve_budget(budget: int | None) -> int:
    """The enumeration budget: ``budget``, a positive int, else the default."""
    if budget is None:
        return DEFAULT_BUDGET
    return require_int(budget, "budget must be a positive int, got {value!r}", 1)


def require_budget(count: int, budget: int | None, what: str) -> None:
    """Raise ResourceBudgetError if ``what`` needs more allocations than the budget allows."""
    limit = resolve_budget(budget)
    if count > limit:
        raise ResourceBudgetError(f"{what} needs {count} allocations, budget is {limit}")


@dataclass(frozen=True)
class Bundle:
    """A set of item indices, stored as a strictly increasing tuple."""

    items: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if type(self.items) is not tuple:
            kind = type(self.items).__name__
            raise InputError(f"items must be a tuple, not {kind}; use Bundle.of")
        prev = -1
        for j in self.items:
            if type(j) is not int:
                raise InputError(f"item index must be an int, got {j!r}")
            if j < 0:
                raise InputError(f"item indices must be non-negative, got {self.items}")
            if j <= prev:
                raise InputError(f"item indices must be strictly increasing, got {self.items}")
            prev = j

    @classmethod
    def of(cls, items: Iterable[int]) -> "Bundle":
        try:
            return cls(tuple(sorted(set(items))))
        except TypeError as exc:  # not a list, or holds lists or mixed types
            raise InputError(f"a bundle must be a list of item indices: {exc}") from exc

    def validate_for(self, m: int) -> None:
        if self.items and self.items[-1] >= m:
            raise InputError(f"item index {self.items[-1]} out of range for m={m}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)


@dataclass(frozen=True)
class Allocation:
    """A complete partition of the items into one bundle per agent (bundles may be empty)."""

    bundles: tuple[Bundle, ...]

    def __post_init__(self) -> None:
        if type(self.bundles) is not tuple:
            kind = type(self.bundles).__name__
            raise InputError(f"bundles must be a tuple, not {kind}; use Allocation.of")
        for bundle in self.bundles:
            if not isinstance(bundle, Bundle):
                kind = type(bundle).__name__
                raise InputError(f"each bundle must be a Bundle, not {kind}; use Allocation.of")

    @classmethod
    def of(cls, bundles: Iterable[Iterable[int]]) -> "Allocation":
        return cls(tuple(Bundle.of(b) for b in bundles))

    def owners(self, m: int) -> tuple[int, ...]:
        """Item index -> owning agent. Raises if the allocation is not a partition of 0..m-1."""
        owner = [-1] * m
        for i, bundle in enumerate(self.bundles):
            for j in bundle:
                if j >= m:
                    raise InputError(f"item index {j} out of range for m={m}")
                if owner[j] != -1:
                    raise InputError(f"item {j} appears in two bundles")
                owner[j] = i
        missing = [j for j, o in enumerate(owner) if o == -1]
        if missing:
            raise InputError(f"items {missing} are not allocated")
        return tuple(owner)

    def validate_for(self, inst: "Instance") -> None:
        if len(self.bundles) != inst.n:
            raise InputError(f"allocation has {len(self.bundles)} bundles for n={inst.n} agents")
        self.owners(inst.m)

    def to_json_dict(self) -> dict:
        return {"bundles": [list(b.items) for b in self.bundles]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Allocation":
        if not isinstance(data, dict) or "bundles" not in data:
            raise InputError("allocation JSON must be an object with a 'bundles' key")
        bundles = data["bundles"]
        if not isinstance(bundles, list) or not all(isinstance(b, list) for b in bundles):
            raise InputError("'bundles' must be a list of item-index lists")
        allocation = cls.of(bundles)
        for i, (raw, bundle) in enumerate(zip(bundles, allocation.bundles)):
            if len(raw) != len(bundle):
                raise InputError(f"bundle {i} lists an item more than once")
        return allocation


def require_allocation(allocation) -> Allocation:
    """``allocation`` if it is an Allocation, else InputError."""
    if not isinstance(allocation, Allocation):
        kind = type(allocation).__name__
        raise InputError(f"allocation must be an Allocation, not {kind}; use Allocation.of")
    return allocation


@dataclass(frozen=True)
class Instance:
    """n agents, m items, and an n-by-m table of non-negative integer valuations."""

    values: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if type(self.values) is not tuple:
            kind = type(self.values).__name__
            raise InputError(f"values must be a tuple, not {kind}; use Instance.of")
        if not self.values:
            raise InputError("instance needs at least one agent")
        width = len(self.values[0])
        for row in self.values:
            if type(row) is not tuple:
                kind = type(row).__name__
                raise InputError(f"a valuation row must be a tuple, not {kind}; use Instance.of")
            if len(row) != width:
                raise InputError("valuation rows must all have the same length")
            for v in row:
                if type(v) is not int:
                    raise InputError(f"valuations must be integers, got {v!r}")
                if v < 0:
                    raise InputError(f"valuations must be non-negative, got {v}")

    @classmethod
    def of(cls, rows: Iterable[Iterable[int]]) -> "Instance":
        """An instance of these rows; every cell must already be an int."""
        try:
            return cls(tuple(tuple(row) for row in rows))
        except TypeError as exc:  # rows or a row is not iterable
            raise InputError(f"valuations must be a list of rows: {exc}") from exc

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int:
        return len(self.values[0])

    @cached_property
    def totals(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.values)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "values": [list(row) for row in self.values]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Instance":
        if not isinstance(data, dict):
            raise InputError("instance JSON must be an object")
        for key in ("n", "m", "values"):
            if key not in data:
                raise InputError(f"instance JSON missing key {key!r}")
        if type(data["n"]) is not int or type(data["m"]) is not int:
            raise InputError("instance JSON 'n' and 'm' must be integers")
        inst = cls.of(data["values"])
        if inst.n != data["n"] or inst.m != data["m"]:
            raise InputError(
                f"instance JSON shape mismatch: header says {data['n']}x{data['m']}, "
                f"table is {inst.n}x{inst.m}"
            )
        return inst


def require_agent(inst: Instance, agent: int) -> None:
    """Refuse an agent index that is not an int in 0..n-1."""
    require_int(agent, "agent index {value!r} out of range for n={high}", 0, inst.n)


def value_of(inst: Instance, agent: int, bundle: Bundle) -> int:
    """Additive value of a bundle for an agent; the empty bundle is worth 0."""
    require_agent(inst, agent)
    bundle.validate_for(inst.m)
    row = inst.values[agent]
    return sum(row[j] for j in bundle.items)


def fraction_str(value: Fraction) -> str:
    """Render an exact rational as 'p/q' (always with an explicit denominator)."""
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"
