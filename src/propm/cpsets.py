"""Close-to-proportional (CP) bundles and the recursive ladder built from them.

A CP bundle for agent i, parameter k, base set S is the most valuable subset
B of S with k * v_i(B) <= v_i(S); ties go first to maximum cardinality and
then to the lexicographically smallest sorted index list, which makes every
construction downstream deterministic and certifiable. The ``CpLadder`` that
``cp_ladder`` returns is also, as is, a solver certificate's ladder step.

``cp_bundle`` and ``cp_ladder`` check their arguments and then share one
helper, ``_cp_split``, which reads a sorted item tuple's values, asks
``_best_subset`` for the CP witness and splits the tuple into (bundle,
rest) in one pass over the mask. A ladder thus checks its base and divider
once and peels its rungs off plain tuples; it builds no ``Bundle``.

Finding a CP bundle is as hard as subset sum, so computation is exact but
not polynomial. ``_best_subset`` picks one of three kernels with one
contract. Small queries, whose m suffix sets of m*(m+1)*(cap+1) bits total
at most BITS_LIMIT, go to ``_kernels.cp_bits``, a bit-parallel subset sum
on Python ints: it pays one shift-or per item where the numpy kernels pay
several numpy calls. Larger ones go to ``_kernels.cp_table``, a numpy DP
over achievable value sums, when the value cap is below DP_SUM_LIMIT, and
to ``_kernels.cp_mitm`` when the cap is huge but there are at most
MITM_ITEM_LIMIT items. That kernel's cost depends on the item count alone:
it enumerates all 2^m subset sums up to ``_kernels.MITM_WHOLE_ITEMS`` (12)
items and meets in the middle over 2^(m/2) subsets per half past that,
with value-free key tables kept per item count (``_kernels.MITM_KEY_BYTES``,
2 MiB at most). Anything beyond both limits is refused with
ResourceBudgetError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

from . import _kernels
from .core import Bundle, InputError, Instance, ResourceBudgetError, require_agent, require_int

# Bits the bit-parallel kernel's suffix sets may take together (64 KiB).
# Measured against cp_table (Python 3.11, numpy 2.4, 2-core x86 host): at
# 2^19 bits the bitset ran 1.3-12x faster for m = 4 to 256; at 2^21 it ran
# 3x slower at m = 4 and even at m = 8 and 16, and on solve-dp's tables
# (2^21 bits and more) 14x slower in total.
BITS_LIMIT = 1 << 19
# Switch to meet-in-the-middle above this DP table size.
DP_SUM_LIMIT = 2_000_000
# Meet-in-the-middle enumerates 2^(m/2) subsets per half; its key tables
# (_kernels.MITM_KEY_BYTES) are bounded for halves of up to 17 items.
MITM_ITEM_LIMIT = 34
# Distinct (values, cap) queries the CP memo keeps. A solve and the
# verification of its certificate ask about ten between them.
CP_MEMO_SIZE = 64


@dataclass(frozen=True)
class CpLadder:
    """Recursively built rungs [S_r, S_(r-1), ..., S_1] of one divider agent, top rung first.

    S_k is the CP bundle with parameter k over what remains after the higher
    rungs were removed; S_1 is the leftover. The rungs partition the base set
    they were built from, and each is its sorted item indices. The ladder is
    also a certificate step (its ``type`` tag): the solver records
    ``cp_ladder``'s result as is, and replay compares it with its own.
    """

    type: ClassVar[str] = "ladder"
    divider: int
    rungs: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=CP_MEMO_SIZE)
def _best_subset(vals: tuple[int, ...], cap: int):
    """(value, cardinality, reversed-bit mask) of the best subset with sum <= cap.

    Bit (len(vals)-1-p) represents position p, so among equal-cardinality
    witnesses the numerically largest mask is the lexicographically smallest
    sorted position list.

    The bitset (``cp_bits``) runs when its suffix sets total at most
    BITS_LIMIT bits. The bound is on the total, not per set: 65,535 zero
    items at cap 0 have sets of 2^16 bits each, but all of them would take
    about 256 MB. Past it the numpy DP (``cp_table``) runs when its table
    fits DP_SUM_LIMIT, else meet-in-the-middle (``cp_mitm``) up to
    MITM_ITEM_LIMIT items; anything past both raises ResourceBudgetError
    before anything is allocated. All three give the same answer.

    The answer is a pure function of the arguments, so the last CP_MEMO_SIZE
    queries are memoised. A solver sub-instance and the verifier's original
    indices give the same order-preserving ``vals``, so replaying a
    certificate reuses the tables its solve built.
    """
    m = len(vals)
    if m * (m + 1) * (cap + 1) <= BITS_LIMIT:
        return _kernels.cp_bits(vals, cap)
    if cap + 1 <= DP_SUM_LIMIT:
        return _kernels.cp_table(vals, cap)
    if m <= MITM_ITEM_LIMIT:
        return _kernels.cp_mitm(vals, cap)
    raise ResourceBudgetError(
        f"CP bundle over {m} items with value cap {cap} is out of reach "
        f"(DP limit {DP_SUM_LIMIT}, meet-in-the-middle limit {MITM_ITEM_LIMIT} items)"
    )


def _check_query(inst: Instance, agent: int, base: Bundle) -> None:
    base.validate_for(inst.m)
    require_agent(inst, agent)


def _cp_split(
    row: tuple[int, ...], items: tuple[int, ...], k: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(CP bundle, the rest) of the sorted ``items`` for parameter ``k`` under values ``row``."""
    if not items:
        return (), ()
    vals = tuple(row[j] for j in items)
    _, _, mask = _best_subset(vals, sum(vals) // k)
    chosen = []
    rest = []
    bit = 1 << len(items)
    for j in items:
        bit >>= 1
        (chosen if mask & bit else rest).append(j)
    return tuple(chosen), tuple(rest)


def cp_bundle(inst: Instance, agent: int, k: int, base: Bundle) -> Bundle:
    """The CP bundle for ``agent`` with parameter ``k`` over base set ``base``.

    Deterministic: value-maximal subject to k*v(B) <= v(base), then
    cardinality-maximal, then lexicographically smallest index list.
    """
    require_int(k, "k must be at least {low}, got {value!r}", 1)
    _check_query(inst, agent, base)
    return Bundle(_cp_split(inst.values[agent], base.items, k)[0])


def cp_ladder(inst: Instance, agent: int, n_rungs: int, base: Bundle) -> CpLadder:
    """Build [S_r, ..., S_1] top-down: S_k = CP(k, remaining), S_1 = leftover.

    The base and the divider are checked for every ``n_rungs``, also for a
    single rung, which asks no CP query.
    """
    require_int(n_rungs, "n_rungs must be at least {low}, got {value!r}", 1)
    _check_query(inst, agent, base)
    row = inst.values[agent]
    rungs = []
    remaining = base.items
    for k in range(n_rungs, 1, -1):
        rung, remaining = _cp_split(row, remaining, k)
        rungs.append(rung)
    rungs.append(remaining)
    return CpLadder(divider=agent, rungs=tuple(rungs))


def validate_ladder(inst: Instance, ladder: CpLadder) -> bool:
    """True iff the ladder is exactly what cp_ladder builds and its bounds hold.

    All bounds are relative to the ladder's own base set (the union of its
    rungs): with r rungs, for every k the items strictly below rung k are
    worth at least (k-1)/r of the base to the divider.

    This is the reference check of those (k-1)/r bounds: the acceptance
    suite (criterion 5) and the cpsets tests hold every ladder the solver
    builds against it. Certificate replay never checks the bounds; it only
    requires each recorded ladder to equal its ``cp_ladder`` recomputation.
    """
    if not 0 <= ladder.divider < inst.n:
        return False
    r = len(ladder.rungs)
    if r < 1:
        return False
    try:
        base = Bundle.of(j for rung in ladder.rungs for j in rung)
        base.validate_for(inst.m)
    except InputError:
        return False
    if ladder != cp_ladder(inst, ladder.divider, r, base):
        return False

    row = inst.values[ladder.divider]
    base_value = below = sum(row[j] for j in base.items)
    for pos, k in enumerate(range(r, 0, -1)):
        below -= sum(row[j] for j in ladder.rungs[pos])
        # 'below' is now the divider's value for S_(k-1) + ... + S_1.
        if r * below < (k - 1) * base_value:
            return False
    return True
