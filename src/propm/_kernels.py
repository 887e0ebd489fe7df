"""Hot numeric kernels.

``cp_bits`` (bit-parallel subset sum on Python ints), ``cp_table`` (a numpy
subset-sum DP) and ``cp_mitm`` (numpy subset enumeration: all 2^m subsets up
to MITM_WHOLE_ITEMS = 12 items, meet-in-the-middle past that) find
close-to-proportional bundles with one contract. ``cpsets._best_subset``
sends a query to the first when its suffix sets are small (every query of
the README's sizes), to the second when the value cap is moderate, and to
the third when it is huge but the item count small. ``cp_mitm``'s subset
keys do not depend on the values, so it keeps one table of them per item
count for the process, at most MITM_KEY_BYTES (2 MiB) in all. ``cp_table``
stores one row per item for its forward walk to decide each take: a
cardinality row (two numpy calls per item) while its rows fit in
CP_BYTE_ROWS (768 KiB), a bit-packed take row (four calls, an eighth of the
bytes) past it. The allocation scans (``notion_masks``, ``mms_scan`` and
``leximin_scan``) share one split-half engine, vectorized with numpy.

Allocations are indexed 0..n^m-1; item j is owned by digit j of the index
written in base n, least significant digit first. The engine splits the
items into a low half (items 0..h-1) and a high half, so index t is
l + L*r with L = n^h. It tabulates the bundle statistics for the
assignments of each half: per agent and bundle the value, least and
greatest item; per agent the own-bundle value and the greatest and least
value of the items the other agents own; and the bundle sizes. A window
of allocations then combines a low row with a high row by one broadcast
add, min or max, the meet-in-the-middle idea ``cp_mitm`` uses for CP
bundles. Alt-median and alt-mode do not split across halves: they decode
the window's owner digits once and score every agent in one walk over
each agent's items in value order. Each kernel computes only the
statistics its requested notions read, and a notion that needs only
per-agent quantities pays per agent: PROP1 reads the others' greatest item
and PROPx their least, so only EF1 and alt-minimax build the per-bundle
"max" statistic, and only PROPm, AEFX, EFx and the leximin scan "min". The
envy tests (EF, EF1, EFx) take one maximum over the bundles. ``mms_scan``
answers every agent at once: one "val" window over all rows, its minimum
over the bundles, then the maximum over the window's allocations.

Every scan (``exists``, the audit, ``leximin_max`` and the MMS pass) reads
its windows from one driver, ``scan_windows``. It builds the scan's
``ScanPlan`` and yields a result per window of ``ScanPlan.windows``, in index
order. The exhaustive scans (the audit, ``leximin_max`` and the MMS pass)
read every allocation in full windows of ``scan_chunk(n, exhaustive=True)``
allocations: a window pays about a hundred numpy calls whatever its size, so
it is sized by its per-bundle statistic cells (n^2 per allocation), not by
its allocations. The early-exit ``exists`` reads windows that start small
and double up to CHUNK. ``ScanPlan`` tells how the plan splits the items and
keeps its tables within SCAN_BYTES. The kernels split very large agent
counts into blocks.

The exhaustive scans' plans have ``exhaustive=True``. Their windows then
write each statistic and its same-sized temporaries into named slots of a
``threading.local`` workspace ("own", "short", "size", "others", "val",
"rival" and the bool "cmp"), not into new arrays. Each slot's buffer grows
when a window needs more and is then kept, so later windows and later scans
in the thread reuse memory that is already paged in. (Window arrays of a few
hundred KB, allocated afresh, go back to the OS when freed and fault in
again in the next window.) The slots hold at most one window's statistics,
which SCAN_BYTES already counts, and a worker thread's workspace goes when
the thread ends. No kernel returns a view of the workspace. The workspace
also keeps the plan of the thread's last exhaustive scan, and the next
exhaustive scan over equal values reuses it: the audit's MMS pass and mask
scan and a following ``leximin_max`` of the same instance build each half
table once. The audit's mask scan also leaves each window's maximin bonuses
d_i on that plan (``ScanPlan.bonuses``, at most BONUS_BYTES), so the leximin
scan of the same window reads them instead of building the "min" statistic
again. ``exists`` keeps none of these: its windows start at 256 allocations
and most of its scans end in the first one, while buffers grown for its wide
windows (n = 10 or 16) would stay resident after it. Its windows allocate as
before, and the in-place steps still spare their temporaries.

Scan arithmetic uses the narrowest exact dtype. With T the largest agent
total (at least 1), ``instance_arrays`` bounds every scan intermediate by
worst = n * (m+1) * T and returns int16 arrays when worst is below 2^15,
int32 below 2^31 and int64 below 2^63; larger inputs raise
ResourceBudgetError (exit 3), which no budget lifts. Every table, window
statistic, alt-median and alt-mode row and leximin profile takes that
dtype. Each intermediate is bounded in size by worst (m >= 1):

    test                        intermediate              bound
    alt-mean                    n*(own*cnt + T - own)     n(m+1)T
    PROP and the bonus tests    short = total - n*own     nT
    PROP1, PROPx, PROPm, alt-*  n*bonus                   nT
    AEFX                        sum of mins               T
    leximin                     n*own + (n-1)*d           (2n-1)T
    bundle sizes, cnt           size                      m
    "min" sentinel              iinfo.max                 > T

A kernel edit that builds a larger intermediate must raise ``worst`` to
cover it. The exact-arithmetic reference paths in the rest of the package
use unbounded Python integers.

The kernels check none of their arguments. The package's one integer rule
(an integer argument is an ``int``, never a bool; ``core.require_int``) is
enforced by the public entry points before any kernel runs.

numpy loads on the first call of a numpy kernel (all but ``cp_bits``), not
on ``import propm``: commands that run none (``verify`` of every notion but
MMS, ``gen``, ``counterexample``, ``--help``) never import it. Likewise
``concurrent.futures`` loads only when ``scan_windows`` starts a thread
pool, so no solve and no one-worker scan imports it. Until then
the module's ``np`` is a stand-in whose first attribute read imports numpy
and rebinds ``np`` to it. The module itself loads eagerly, so the notion codes,
budgets and kernel functions are attributes from the start, and code that
patches or wraps them sees one module object. ``importlib.util.LazyLoader``
is not used: before Python 3.12.3 (cpython gh-114763) threads that touch a
lazily loaded module at once can see it half loaded, while a plain
``import numpy`` in the stand-in is serialized by the import system's
module lock.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque

from .core import ResourceBudgetError


class _NumpyOnFirstUse:
    """Stands in for numpy until a kernel first reads one of its attributes.

    That read imports numpy and rebinds the module's ``np`` to it, so later
    reads go straight to numpy and ``import propm`` never loads it.
    """

    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _NumpyOnFirstUse()

# Name of the scan implementation, for tools that stamp their records with it.
BACKEND = "numpy"

CHUNK = 8192

# Bytes the take rows of one CP table may take, counted as if every row were
# bit-packed, over the windows the forward walk can read (``_take_windows``),
# each at most cap + 1 cells. At the CP DP's cap limit (cpsets.DP_SUM_LIMIT)
# that is about a thousand full rows.
CP_TAKE_BYTES = 256 << 20

# Bytes of cardinality rows one CP table may keep; the items past them keep
# bit-packed take rows. A cardinality row costs two numpy calls per item
# against four for a bit row, but eight times the bytes: with cardinality
# rows for every item the largest solve-dp table held 2.35 MB of rows (median
# 602 KB, against 301 KB packed), and solve-dp's peak RSS rose from 39.9 to
# 46.2 MB without a budget. The first 102 seed-1 solve-dp ops' 609 tables
# took 136 ms with bit rows only, 80 ms with no budget, 87 ms at 1 MiB and
# 90 ms at 768 KiB; 1 MiB still raised solve-dp's peak RSS by 1.5 MB (+3.9%)
# and 768 KiB halves what the rows add to it.
CP_BYTE_ROWS = 3 << 18

# Bytes a scan's per-bundle statistics may take: a window's three values
# (value, min, max, or two of them and a temporary) per allocation, agent
# and bundle, plus the half tables its plan keeps (every statistic's, the
# per-agent "own", "others_max" and "others_min" included) and the
# contribution arrays they are built from. The cap on a window counts 8
# bytes per value, the int64 width, whatever dtype the scan takes. The
# per-thread workspace of the exhaustive scans (audit, leximin, MMS; not
# ``exists``) keeps at most one window's "val", rival ("max" or "min") and
# bool "cmp" statistics, 17 of the 24 bytes per cell, and its "own",
# "short", "size" and "others" rows, 32n bytes per allocation against the
# 7n^2 left. That fits from n = 5; below it the window is bound by its
# CHUNK * 25 cells (``scan_chunk``), not by SCAN_BYTES, and all of it takes
# at most about 7 MB (n = 2). So the workspace needs no budget of its own.
# The plan the workspace keeps holds tables that fit SCAN_BYTES beside one
# window's statistics (``ScanPlan._bytes``).
SCAN_BYTES = 32 << 20
# Bytes of maximin-bonus rows, one value per agent and allocation, that an
# exhaustive plan keeps for the leximin scan (``ScanPlan.bonuses``): 118 KB to
# 156 KB at int16 for the audit's 3^9, 4^7 and 5^6.
BONUS_BYTES = 4 << 20
_STAT_CELLS = 3
_CELL_BYTES = _STAT_CELLS * 8

# Notion bit positions inside the per-agent satisfaction mask.
PROP = 0
PROP1 = 1
PROPX = 2
PROPM = 3
EF = 4
EF1 = 5
EFX = 6
AEFX = 7
MMS = 8
ALT_MEAN = 9
ALT_MEDIAN = 10
ALT_MODE = 11
ALT_MINIMAX = 12

NOTION_COUNT = 13
ALL_NOTIONS = (1 << NOTION_COUNT) - 1


# ---------------------------------------------------------------------------
# Close-to-proportional subsets
# ---------------------------------------------------------------------------


def _take_windows(vals: list[int], cap: int) -> tuple[int, list[tuple[int, int]]]:
    """(low, [(start, width) per item]): the take-row windows ``cp_table`` stores.

    ``low`` is a feasible sum: the items that fit the cap, largest first, each
    taken while it still fits. The best sum is at least ``low``, so when the
    forward walk reaches item p its remaining sum s is at least
    low - prefix, where prefix is the sum of the fitting items before p. It is
    also at most suffix, the sum, capped at cap, of the fitting items p..m-1.
    The walk reads item p's row at s - v only when s >= v, so the row holds the
    sums max(low - prefix, v)..suffix: it starts at take index
    start = max(low - prefix, v) - v and is ``width`` cells long. Items worth
    0 or more than the cap get (0, 0): they store no row.
    """
    fitting = [v for v in vals if v <= cap]
    low = 0
    for v in sorted(fitting, reverse=True):
        if low + v <= cap:
            low += v
    windows = []
    prefix = 0
    suffix = sum(fitting)
    for v in vals:
        if v > cap:
            windows.append((0, 0))
            continue
        first = low - prefix if low - prefix > v else v
        last = suffix if suffix < cap else cap
        windows.append((first - v, last - first + 1) if v and last >= first else (0, 0))
        prefix += v
        suffix -= v
    return low, windows


def cp_table(vals, cap: int) -> tuple[int, int, int]:
    """(sum, cardinality, mask) of the best subset of ``vals`` with sum <= cap.

    Best means value-maximal, then cardinality-maximal, then the
    lexicographically smallest sorted position list. The mask is an unbounded
    Python int with bit (m-1-p) for position p, so any item count works.
    ``vals`` is any sequence of non-negative ints; they are read as Python
    ints, so an item worth more than int64 holds is simply never taken.

    A backward pass over the items keeps one row ``card[s]``: the largest
    cardinality of a subset of items p..m-1 summing to exactly s, negative
    when s is unreachable. For each item with 0 < v <= cap it stores a row
    from which a forward walk decides whether to take p. The walk starts at
    the best sum s with ``left = card[s]``, the cardinality still to take,
    and keeps card_p[s] == left: it takes p when taking p still reaches
    ``left`` at s, then lowers ``left`` by one and s by v. Taking each item
    at the first opportunity yields the lexicographically smallest witness.
    Zero-valued items are always taken and items above the cap never;
    neither stores a row.

    Items get one of two row kinds, in DP order (m-1 down) while
    CP_BYTE_ROWS lasts, then the other:

    - a cardinality row ``card_{p+1}[s - v] + 1``, written straight into the
      item's slice of one arena before the update takes its maximum. Since
      ``card_{p+1}[s - v] + 1`` is never more than ``card_p[s]``, the walk
      takes p iff the row holds ``left``.
    - a bit-packed take row: the bit is set iff ``card_{p+1}[s - v] + 1``
      reaches ``card_{p+1}[s]``, that is, taking p reaches ``card_p[s]``.

    Item p adds, compares and stores only the sums the walk can reach it
    with (``_take_windows``): from max(low - prefix_p, v) to
    min(cap, suffix_p), where low is a greedy feasible sum, prefix_p the sum
    of the fitting items before p and suffix_p that of items p..m-1, capped
    at cap. Its row is read at s - v - start_p, with
    start_p = max(low - prefix_p, v) - v, and its width_p is never more than
    min(cap + 1 - v, suffix_{p+1} + 1). Sums below low - prefix_p miss
    item p's update, but every sum from low - prefix_p up stays exact, so the
    best sum is the last reachable one in ``card[low : cap + 1]``.

    The cardinality row has the narrowest exact dtype: int8 below 128 items,
    int16 below 16384 items and int64 beyond. Cardinalities are at most m,
    and the unreachable sentinel ``iinfo.min`` rises by at most one per item,
    so it stays negative and never equals ``left``. Cardinality rows take
    that dtype too, at most CP_BYTE_ROWS bytes in all. The bit rows cost
    ceil(width_p / 8) bytes each, and their scratch rows are as wide as the
    widest of their windows. A table whose take rows would exceed
    CP_TAKE_BYTES if every row were bit-packed raises ResourceBudgetError
    before any row is allocated.
    """
    m = len(vals)
    vals = [int(v) for v in vals]
    low, windows = _take_windows(vals, cap)
    take_bytes = sum((w + 7) >> 3 for _, w in windows)
    if take_bytes > CP_TAKE_BYTES:
        raise ResourceBudgetError(
            f"CP table over {m} items with value cap {cap} needs {take_bytes} bytes "
            f"of take rows, budget is {CP_TAKE_BYTES}"
        )
    dtype = np.int8 if m < 1 << 7 else np.int16 if m < 1 << 14 else np.int64
    # Items first..m-1 store cardinality rows, one after another in
    # ``arena``; the items before ``first`` store bit rows.
    cells = CP_BYTE_ROWS // np.dtype(dtype).itemsize
    first, used = m, 0
    while first and used + windows[first - 1][1] <= cells:
        first -= 1
        used += windows[first][1]
    arena = np.empty(used, dtype)
    at = 0
    card = np.full(cap + 1, np.iinfo(dtype).min, dtype)
    card[0] = 0
    widest = max((w for _, w in windows[:first]), default=0)
    cand = np.empty(widest, dtype)
    take = np.empty(widest, np.bool_)
    rows = [None] * m
    for p in range(m - 1, -1, -1):
        v = vals[p]
        start, w = windows[p]
        if v == 0:
            card += 1
        elif w:
            reached = card[start + v : start + v + w]
            if p >= first:
                c = rows[p] = arena[at : at + w]
                at += w
                np.add(card[start : start + w], 1, out=c)
            else:
                c, t = cand[:w], take[:w]
                np.add(card[start : start + w], 1, out=c)
                np.greater_equal(c, reached, out=t)
                rows[p] = np.packbits(t)
            np.maximum(reached, c, out=reached)
    # card[low] is reachable, so a last reachable sum exists.
    best_sum = cap - int(np.argmax((card[low:] >= 0)[::-1]))
    s = best_sum
    count = left = int(card[best_sum])
    mask = 0
    for p in range(m):
        v = vals[p]
        if v == 0:
            taken = True
        elif v <= s:
            i = s - v - windows[p][0]
            if p >= first:
                taken = rows[p][i] == left
            else:
                taken = (rows[p][i >> 3] >> (7 - (i & 7))) & 1
        else:
            taken = False
        if taken:
            mask |= 1 << (m - 1 - p)
            s -= v
            left -= 1
    return best_sum, count, mask


def cp_bits(vals, cap: int) -> tuple[int, int, int]:
    """(sum, cardinality, mask) of the best subset of ``vals`` with sum <= cap.

    Same contract as ``cp_table``, by bit-parallel subset sum (Pisinger,
    "Dynamic programming on the word RAM", Algorithmica 35, 2003) on
    Python ints, with no numpy. A subset of sum s and cardinality c is bit
    W = s*(m+1) + c; since c <= m, s <= cap exactly when
    W <= cap*(m+1) + m, and a larger W is a larger sum, then a larger
    cardinality. A backward pass keeps the reachable set of each suffix
    p..m-1 as one int: item p with v <= cap shifts it by v*(m+1) + 1 and ORs
    it in, masked to the cap; items above the cap are never taken and shift
    nothing. The best subset is the top bit of the whole set, and a forward
    walk takes each item at the first opportunity, while what is left stays
    reachable in the next suffix's set, which yields the lexicographically
    smallest witness.

    The m suffix sets take up to m*(m+1)*(cap+1) bits, so this kernel suits
    small tables only; ``cpsets._best_subset`` bounds that total.
    """
    vals = [int(v) for v in vals]
    m = len(vals)
    full = (1 << (cap + 1) * (m + 1)) - 1
    shifts = [v * (m + 1) + 1 if v <= cap else 0 for v in vals]
    # rows[p] is the reachable set of items p+1..m-1.
    rows = [0] * m
    reach = 1
    for p in range(m - 1, -1, -1):
        rows[p] = reach
        shift = shifts[p]
        if shift:
            reach |= (reach << shift) & full
    w = reach.bit_length() - 1
    best_sum, card = divmod(w, m + 1)
    mask = 0
    for p in range(m):
        shift = shifts[p]
        if shift and w >= shift and (rows[p] >> (w - shift)) & 1:
            mask |= 1 << (m - 1 - p)
            w -= shift
    return best_sum, card, mask


# A cp_mitm key is cardinality << _KEY_CARD | mask fields. A set of c items
# puts item p at bit _KEY_CARD - 1 - p, so a larger key has more items, then
# the lexicographically smaller position list. A split pairs the left half's
# key with the right half's, whose mask field is moved down to end at bit
# _KEY_HALF - 1, so the two add. Halves of up to 20 items fit; the key stays
# below 41 << 40 < 2^63.
_KEY_CARD = 40
_KEY_HALF = 20
# cp_mitm enumerates item sets up to this size whole and splits larger ones:
# measured per query (numpy 2.4, 2-core x86 host) at m = 12, 28 us whole
# against 31-33 us split, and at m = 13, 38 us against 34 us.
MITM_WHOLE_ITEMS = 12
# cp_mitm keeps one key table per item count it has used (_KEY_TABLES): 2^c
# int64 entries for c items, c <= 17 up to cpsets.MITM_ITEM_LIMIT = 34 items.
# All of them together stay below 8 * 2^18 bytes = 2 MiB; the counts up to
# 12 (every query over at most 24 items) take 64 KiB.
MITM_KEY_BYTES = 8 << 18
_KEY_TABLES = {}


def _subset_totals(steps, dtype):
    """Entry i: the sum of ``steps[p]`` over the set bits p of i, for every i < 2^len(steps).

    Doubling: step p fills entries 2^p..2^(p+1)-1 with the first 2^p plus
    ``steps[p]``.
    """
    totals = np.empty(1 << len(steps), dtype)
    totals[0] = 0
    k = 1
    for step in steps:
        np.add(totals[:k], step, out=totals[k : 2 * k])
        k *= 2
    return totals


def _subset_keys(count):
    """Keys of the 2^count subsets of ``count`` items, in ``_subset_totals`` order.

    They do not depend on the values, so each count's table is built once
    and kept, read-only (``MITM_KEY_BYTES`` bounds them all). Threads that
    miss the same count at once each build the same table.
    """
    keys = _KEY_TABLES.get(count)
    if keys is None:
        steps = [1 << _KEY_CARD | 1 << (_KEY_CARD - 1 - p) for p in range(count)]
        keys = _subset_totals(steps, np.int64)
        keys.flags.writeable = False
        _KEY_TABLES[count] = keys
    return keys


def cp_mitm(vals, cap: int) -> tuple[int, int, int]:
    """(sum, cardinality, mask) of the best subset of ``vals`` with sum <= cap.

    Same contract as ``cp_table``, by enumerating subsets: its cost depends on
    the item count m, not on the values. Every subset carries one key that
    orders equal sums as the contract does, cardinality first, then the
    lexicographically smallest position list; the keys depend on m alone, so
    ``_subset_keys`` keeps them per item count (``MITM_KEY_BYTES``).

    Up to MITM_WHOLE_ITEMS items all 2^m subset sums fit one small table: the
    answer is the largest sum within the cap and the largest key among the
    subsets that reach it. Past that, meet in the middle (Horowitz and Sahni,
    JACM 1974) over 2^(m/2) subsets per half. The right half is sorted by sum
    alone, and ``np.maximum.reduceat`` keeps the largest key per distinct
    sum. The left half is sorted too, which makes the binary searches walk
    their table in order: for each left sum within the cap, the largest
    right sum that still fits. The halves' key fields are disjoint and their
    cardinalities add, so among the pairs with the largest total sum, the
    largest total key is the answer.

    Sums are int64 when the whole ``vals`` sum is below 2^63 and Python ints
    (object arrays) otherwise. Keys fit int64 for halves of up to 20 items;
    ``cpsets.MITM_ITEM_LIMIT`` keeps m at 34 or below.
    """
    vals = [int(v) for v in vals]
    m = len(vals)
    total = sum(vals)
    # No subset exceeds the total, and the clamp keeps cap - sum in int64.
    cap = min(cap, total)
    dtype = np.int64 if total < 1 << 63 else object
    if m <= MITM_WHOLE_ITEMS:
        h, r = m, 0
        sums = _subset_totals(vals, dtype)
        sums = np.where(sums <= cap, sums, -1)
        best_sum = sums.max()
        key = int(_subset_keys(m)[sums == best_sum].max())
    else:
        h, r = m // 2, m - m // 2
        right = _subset_totals(vals[h:], dtype)
        order = right.argsort()
        right = right[order]
        right_keys = _subset_keys(r)[order]
        # Huge values rarely tie, so the reduction runs only when sums repeat.
        distinct = right[1:] != right[:-1]
        if not distinct.all():
            starts = np.concatenate(([0], np.flatnonzero(distinct) + 1))
            right = right[starts]
            right_keys = np.maximum.reduceat(right_keys, starts)
        left = _subset_totals(vals[:h], dtype)
        order = left.argsort()
        left = left[order]
        left = left[: np.searchsorted(left, cap, "right")]
        # The empty right subset (sum 0) always fits, so every pick is >= 0.
        pick = np.searchsorted(right, cap - left, "right") - 1
        sums = left + right[pick]
        best_sum = sums.max()
        best = np.flatnonzero(sums == best_sum)
        left_keys = _subset_keys(h)[order[best]]
        # Move the right keys' mask field down below the left's.
        right_keys = right_keys[pick[best]]
        field = right_keys & ((1 << _KEY_CARD) - 1)
        key = int((left_keys + right_keys - field + (field >> _KEY_CARD - _KEY_HALF)).max())
    mask = (key >> _KEY_CARD - h) & ((1 << h) - 1)
    mask = mask << r | (key >> _KEY_HALF - r) & ((1 << r) - 1)
    return int(best_sum), key >> _KEY_CARD, mask


# ---------------------------------------------------------------------------
# Split-half engine
# ---------------------------------------------------------------------------


def scan_chunk(n: int, exhaustive: bool = False) -> int:
    """Allocations per full window of a scan over n agents.

    An exhaustive scan's window holds max(CHUNK, CHUNK * 25 // n^2)
    allocations, about as many per-bundle statistic cells as a CHUNK window
    at n = 5: 51,200 allocations at n = 2, 22,755 at n = 3, 12,800 at n = 4
    and CHUNK from n = 5. An early-exit scan's full window holds CHUNK. Either
    is capped so that the window's statistics fit SCAN_BYTES.
    """
    width = max(CHUNK, CHUNK * 25 // (n * n)) if exhaustive else CHUNK
    return max(1, min(width, SCAN_BYTES // (_CELL_BYTES * n * n)))


def _agent_blocks(n, count):
    """Agent slices whose per-bundle statistics over ``count`` allocations fit SCAN_BYTES."""
    step = max(1, SCAN_BYTES // (_CELL_BYTES * n * max(count, 1)))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


# Statistic -> the name of the numpy ufunc that combines two sets of items
# (a name, so that the table needs no numpy). Every statistic is an array
# [lead, mid, allocation], allocations innermost so the broadcast combine
# runs over long contiguous rows: "val", "min" and "max" are [bundle, agent,
# allocation], reduced over the leading axis; "own" (each agent's own-bundle
# value), "others_max" and "others_min" (the greatest and least value, to
# each agent, of the items the other agents own) are [0, agent, allocation]
# and "size" is [0, bundle, allocation]. An empty set of items holds 0, or
# the dtype's largest value for a minimum.
_STATS = {
    "val": "add",
    "min": "minimum",
    "max": "maximum",
    "own": "add",
    "others_max": "maximum",
    "others_min": "minimum",
    "size": "add",
}
_PER_BUNDLE = ("val", "min", "max")
_PER_AGENT = ("own", "others_max", "others_min")


def _digits_within(n, limit, most):
    """The largest d <= most with n^d <= limit."""
    d = 0
    while d < most and n ** (d + 1) <= limit:
        d += 1
    return d


class _Workspace(threading.local):
    """One thread's window buffers, a flat byte buffer per slot kept between
    scans, and the plan of its last exhaustive scan.

    The slots are "own", "short" (``notion_masks``' shortfall), "size",
    "others" ("others_max", then "others_min"), "val", "rival" ("max",
    then "min" once "max" is dead) and "cmp" (bool comparisons of a
    per-bundle statistic).
    A buffer grows when a window needs more and is then kept, so later
    windows write into memory that is already paged in. ``plan`` is the
    thread's last exhaustive ``ScanPlan`` and ``key`` what it was built for
    (``kept_plan``).
    """

    def __init__(self):
        self.buffers = {}
        self.key = self.plan = None

    def take(self, slot, shape, dtype):
        """A ``shape`` array of ``dtype`` over the front of this thread's ``slot`` buffer."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        buf = self.buffers.get(slot)
        if buf is None or buf.size < size:
            buf = self.buffers[slot] = np.empty(size, np.uint8)
        return buf[:size].view(dtype).reshape(shape)

    def kept_plan(self, values):
        """The exhaustive plan over ``values``: the thread's last one when it
        was built for equal values (shape, dtype and contents) under the
        current window rule, SCAN_BYTES and BONUS_BYTES, else a new one, kept
        in its place.

        The plan holds a copy of ``values``, so a later change to the
        caller's array cannot reach its tables.
        """
        key = (
            values.dtype.str,
            values.shape,
            values.tobytes(),
            scan_chunk(values.shape[0], exhaustive=True),
            SCAN_BYTES,
            BONUS_BYTES,
        )
        if key != self.key:
            self.key, self.plan = key, ScanPlan(values.copy(), exhaustive=True)
        return self.plan


_WORKSPACE = _Workspace()


class ScanPlan:
    """Split point and half tables shared by every window of one scan.

    ``values`` holds every agent's item values, one row per agent and bundle.
    Windows hold at most ``chunk = scan_chunk(n, exhaustive)`` allocations,
    ``windows`` yields the scan's schedule, and ``scan_windows`` builds each
    scan's plan.

    Item j is digit j of the allocation index, so index t is l + L*r with
    L = n^h: low items 0..h-1 give l, the high items give row r. The high
    items split again into mid items h..h+k-1 and top items h+k..m-1, so
    r = a + K*b with K = n^k. h is m // 2 and k is m - h, each lowered while
    n^h or n^k exceeds the window, so neither table outgrows the window. The
    plan tabulates each statistic a window asks for once, lazily, for all
    n^h low and n^k mid assignments; a window combines its few top
    assignments b with the mid table, then the resulting high rows with the
    low table.

    Both tables of a statistic come from one contribution array,
    [item, lead, mid, owner] over the h + k tabulated items, built by one
    ``np.where`` and dropped once the tables are built; a plan with no
    tabulated item builds none. The tables and contribution arrays of every
    statistic count against SCAN_BYTES together with a window's statistics:
    k is lowered further until they fit, and the plan keeps the tables for
    the rest of the scan. If they fit for no k, each window builds and drops
    them. An early-exit scan's plan lives for that scan. An exhaustive plan
    (``exhaustive``) takes the wider exhaustive window, and a window named a
    slot writes into the calling thread's kept buffer for it (``buffer``);
    ``scan_windows`` keeps the thread's last one, tables and all, for the
    next exhaustive scan over equal values. A thread so keeps at most one
    plan, whose tables fit SCAN_BYTES together with one window's statistics.

    ``bonuses`` maps a window (start, count) to its maximin bonuses d_i,
    [agent, allocation]: ``notion_masks`` leaves them when it computes PROPm
    and ``leximin_scan`` of the same window reads them. Only an exhaustive
    plan whose rows for all n^m allocations fit BONUS_BYTES keeps them
    (``keeps_bonuses``).
    """

    def __init__(self, values, exhaustive=False):
        self.values = values
        self.n, self.m = n, m = values.shape
        self.chunk = window = scan_chunk(n, exhaustive)
        self.h = h = _digits_within(n, window, m // 2)
        k = _digits_within(n, window, m - h)
        # The widest mid table whose tables fit SCAN_BYTES beside a window's
        # statistics. When none fits, each window rebuilds the tables.
        fits = [j for j in range(k, -1, -1) if self._bytes(h, j, window) <= SCAN_BYTES]
        self.k = fits[0] if fits else k
        self._keep = bool(fits)
        self.low_size = n**h
        self.mid_size = n**self.k
        self.has_top = h + self.k < m
        self.blocks = _agent_blocks(n, window)
        self._bundles = np.arange(n)
        self._big = np.iinfo(values.dtype).max
        self._tables = {}
        self._workspace = _WORKSPACE if exhaustive else None
        self.bonuses = {}
        self.keeps_bonuses = exhaustive and n * n**m * values.itemsize <= BONUS_BYTES

    def windows(self, start, stop, first=None):
        """(start, count) windows that tile [start, stop) in order.

        Each window holds ``chunk`` allocations (the last one fewer). Given
        ``first``, the first window holds min(first, chunk) and each later
        one twice the last, up to ``chunk``: an early-exit scan then stops
        soon after a witness near the start.
        """
        width = self.chunk if first is None else min(first, self.chunk)
        while start < stop:
            count = min(width, stop - start)
            yield start, count
            start += count
            width = min(2 * width, self.chunk)

    def _bytes(self, h, k, window):
        """Bytes of every table over h low and k mid items and of the items'
        contribution arrays, plus a window's statistics."""
        n = self.n
        cols = (n**h if h else 0) + (n**k if k else 0) + (h + k) * n
        per_column = (len(_PER_BUNDLE) * n + len(_PER_AGENT)) * n + n
        cells = cols * per_column + _STAT_CELLS * n * n * window
        return cells * self.values.dtype.itemsize

    def empty(self, name):
        """The value statistic ``name`` holds for an empty set of items."""
        return self._big if _STATS[name] == "minimum" else 0

    def buffer(self, slot, shape, dtype):
        """An uninitialised ``shape`` array for workspace ``slot``.

        It is a view of the calling thread's kept buffer when the plan keeps a
        workspace and a slot is named, else a new array.
        """
        if slot is None or self._workspace is None:
            return np.empty(shape, dtype)
        return self._workspace.take(slot, shape, dtype)

    def _shape(self, name, agents):
        """[lead, mid] of statistic ``name`` for the value rows ``agents``."""
        if name in _PER_BUNDLE:
            return self.n, len(range(self.n)[agents])
        return 1, self.n

    def _contributions(self, name, agents, lo, hi, owners):
        """[item, lead, mid, owner]: what items lo..hi-1 add to statistic ``name``.

        Item j goes to bundle ``owners[j - lo, owner]``; ``owners`` with one
        row gives every item the same owners. One ``np.where`` builds it.
        """
        dtype = self.values.dtype
        hit = self._bundles[:, None] == owners[:, None, :]  # [item, bundle, owner]
        if name in _PER_BUNDLE:
            hit, add = hit[:, :, None], self.values[agents, lo:hi]
        else:
            # Agent a's own bundle is bundle a; "others_*" read its complement.
            hit = hit[:, None] if name in ("own", "size") else ~hit[:, None]
            add = self.values[:, lo:hi] if name != "size" else np.ones((1, hi - lo), dtype)
        add = add.T[:, None, :, None]
        return np.where(hit, add, self.empty(name)).astype(dtype, copy=False)

    def _table(self, name, items):
        """Statistic ``name`` for all assignments of ``items``, [lead, mid, assignment].

        ``items`` are [lead, mid, owner] contributions, each the next more
        significant digit, so one broadcast op per item builds
        new[..., d, l] = op(old[..., l], item[..., d]).
        """
        op = getattr(np, _STATS[name])
        out = np.full((1, 1, 1), self.empty(name), self.values.dtype)
        for item in items:
            out = op(out[..., None, :], item[..., None]).reshape(item.shape[0], item.shape[1], -1)
        return out

    def _halves(self, name, agents):
        """(low table, mid table) of statistic ``name`` for the value rows ``agents``.

        Both are built from one contribution array, dropped once they are
        built; with no tabulated item (h = k = 0) none is built.
        """
        key = name, agents.start, agents.stop
        got = self._tables.get(key)
        if got is None:
            h, tabulated = self.h, self.h + self.k
            items = ()
            if tabulated:
                items = self._contributions(name, agents, 0, tabulated, self._bundles[None])
            got = self._table(name, items[:h]), self._table(name, items[h:])
            if self._keep:
                self._tables[key] = got
        return got

    def _top(self, name, agents, b):
        """Statistic ``name`` of the top items under their assignment b: [lead, mid, 1]."""
        lo = self.h + self.k
        owners = _decode_owners(self.n, self.m - lo, b, 1)
        items = self._contributions(name, agents, lo, self.m, owners)
        return getattr(np, _STATS[name]).reduce(items, axis=0, dtype=self.values.dtype)

    def window(self, name, agents, start, count, slot=None):
        """Statistic ``name`` for allocations start..start+count-1, in index order.

        Given a ``slot``, it is written into that slot of the plan's workspace
        (``buffer``), so it lives until the slot's next use in this thread.
        """
        lead, width = self._shape(name, agents)
        low, mid = self._halves(name, agents)
        op = getattr(np, _STATS[name])
        size, mid_size = self.low_size, self.mid_size
        r0, l0 = divmod(start, size)
        r1 = (start + count - 1) // size
        # High rows r0..r1: row a + K*b is mid row a combined with top assignment b.
        parts = []
        for b in range(r0 // mid_size, r1 // mid_size + 1):
            part = mid[..., max(r0 - b * mid_size, 0) : min(r1 - b * mid_size, mid_size - 1) + 1]
            if self.has_top:
                part = op(part, self._top(name, agents, b))
            parts.append(part)
        high = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        out = self.buffer(slot, (lead, width, count), self.values.dtype)
        # At most three blocks: the end of the first high row, whole rows, the
        # start of the last row.
        pos, r, l = 0, 0, l0
        while pos < count:
            if l == 0 and count - pos >= size:
                k = (count - pos) // size
                block = out[..., pos : pos + k * size].reshape(lead, width, k, size)
                op(high[..., r : r + k, None], low[..., None, :], out=block)
                pos, r = pos + k * size, r + k
            else:
                w = min(size - l, count - pos)
                op(high[..., r : r + 1], low[..., l : l + w], out=out[..., pos : pos + w])
                pos, r, l = pos + w, r + 1, 0
        return out


# Scan work (allocations x n^2) below which two threads mostly lose to one, per
# scan kind. Two threads against one on a shared 2-core host (numpy), best of 3:
# - audits of random_instance(n, m, 100, 0), with the kept window buffers, two
#   runs: lost on 4^10 and 5^9 (17-49 M; 0.65-0.89x), broke even on 8^6
#   (1.02-1.07x), were mixed on 7^7 (0.98-1.41x) and won on 8^7 (134 M;
#   1.55-1.64x);
# - exists(EF) on n copies of random_instance(1, m, 100, 0)'s row with item 0
#   raised above the sum of the rest, so that no allocation is EF and the scan
#   reads all n^m: lost or broke even on 12^5, 7^7, 5^9, 6^8, 10^6, 8^7, 16^5
#   (two runs) and 5^10 (36-268 M; 0.70-1.03x), and won on 7^8, 9^7 and 10^7
#   (282 M-1 G; 1.21-1.60x).
# POOL_BREAK_EVEN keeps the audit's win on 8^7; EARLY_EXIT_BREAK_EVEN sits below exists' first.
POOL_BREAK_EVEN = 100_000_000
EARLY_EXIT_BREAK_EVEN = 280_000_000


def scan_windows(values, window, start, stop, workers=1, first=None):
    """Yield ``window(plan, pos, count)`` per window of [start, stop), in index order.

    ``plan`` is a ``ScanPlan`` over ``values``, and the windows its
    ``windows(start, stop, first)``. An early-exit scan (given ``first``)
    mostly ends in its first small window: it gets a plan of its own, with
    no workspace. An exhaustive scan gets the calling thread's kept plan
    (``_Workspace.kept_plan``): the last exhaustive scan's in this thread if
    that one read equal values, else a new one that replaces it. The thread
    so holds one plan's tables, at most SCAN_BYTES with a window's
    statistics, and its maximin-bonus rows, at most BONUS_BYTES, until its
    next exhaustive scan over other values or its end.
    Past the scan kind's break-even, min(workers, os.cpu_count()) threads
    run the windows after the first, at most twice that many ahead of the
    one read; the first fills the plan's tables in this thread (not safe
    from two). Closing the generator cancels the windows not yet started.
    """
    plan = ScanPlan(values) if first is not None else _WORKSPACE.kept_plan(values)
    windows = plan.windows(start, stop, first)
    # os.cpu_count() reads /sys on Linux (about 4 us), so one worker skips it.
    threads = min(workers, os.cpu_count() or 1) if workers > 1 else 1
    break_even = POOL_BREAK_EVEN if first is None else EARLY_EXIT_BREAK_EVEN
    if threads == 1 or (stop - start) * plan.n**2 < break_even:
        yield from (window(plan, *w) for w in windows)
        return
    from concurrent.futures import ThreadPoolExecutor

    yield window(plan, *next(windows))
    pool, ahead = ThreadPoolExecutor(max_workers=threads), deque()
    try:
        for w in windows:
            ahead.append(pool.submit(window, plan, *w))
            if len(ahead) == 2 * threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _decode_owners(n, m, start, count):
    """[item, allocation] owner digits of allocations start..start+count-1.

    The digits take the narrowest unsigned dtype that holds n - 1.
    """
    idx = np.arange(start, start + count, dtype=np.int64)
    owners = np.empty((m, count), np.min_scalar_type(max(n - 1, 0)))
    for j in range(m):
        owners[j] = idx % n
        idx //= n
    return owners


def _diagonal(agents, n):
    """Index of each block agent's own bundle in a [bundle, agent, allocation] statistic."""
    idx = range(n)[agents]
    return np.arange(idx.start, idx.stop), np.arange(len(idx))


def _zero_own_and_empty(plan, mn, agents):
    """Zero each agent's own bundle and every empty bundle in a "min" statistic.

    A maximum over bundles is then the maximin bonus d_i, a sum the AEFX
    bonus. The empty-bundle mask is built in the plan's "cmp" slot.
    """
    nonempty = np.not_equal(mn, plan.empty("min"), out=plan.buffer("cmp", mn.shape, np.bool_))
    # Multiplying by the mask is several times faster than a masked store.
    np.multiply(mn, nonempty, out=mn)
    mn[_diagonal(agents, mn.shape[0])] = 0
    return mn


# ---------------------------------------------------------------------------
# Per-allocation fairness masks
# ---------------------------------------------------------------------------

_VAL_NOTIONS = 1 << EF | 1 << EF1 | 1 << EFX
_MAX_NOTIONS = 1 << EF1 | 1 << ALT_MINIMAX
_MIN_NOTIONS = 1 << PROPM | 1 << AEFX | 1 << EFX
_REST_NOTIONS = 1 << ALT_MEDIAN | 1 << ALT_MODE
# The notions that test a bonus against notion_masks' shortfall.
_SHORT_NOTIONS = (
    1 << PROP | 1 << PROP1 | 1 << PROPX | 1 << PROPM | 1 << AEFX | 1 << ALT_MINIMAX | _REST_NOTIONS
)


def notion_masks(values, totals, mms, start, count, want=ALL_NOTIONS, *, plan):
    """uint16[count, n]: bit b set iff the agent satisfies notion code b.

    The masks are computed as [agent, allocation] rows and returned as that
    array's ``.T`` view, not copied: ``masks.T`` is C-contiguous. Only the
    notions whose bits are set in ``want`` are computed; every other bit
    stays clear. ``plan`` is the scan's ``ScanPlan`` over ``values``. When
    PROPm is wanted and the plan ``keeps_bonuses``, the window's maximin
    bonuses d_i are left in ``plan.bonuses`` for ``leximin_scan``.
    """
    n, m = values.shape
    masks = np.zeros((n, count), np.uint16)  # [agent, allocation]

    def put(bit, ok, agents=slice(None)):
        masks[agents] |= ok * np.uint16(1 << bit)

    own = plan.window("own", slice(None), start, count, "own")[0]
    short = bonuses = None
    if want & _SHORT_NOTIONS:
        # What n * own lacks of the agent's total, [agent, allocation]: a
        # bonus passes n * (own + bonus) >= total iff n * bonus >= short.
        short = plan.buffer("short", own.shape, own.dtype)
        np.subtract(totals[:, None], n * own, out=short)
    if want >> PROP & 1:
        put(PROP, short <= 0)
    if want >> MMS & 1:
        # An agent with no MMS value (-1) compares against the "min"
        # sentinel, which no own value reaches.
        floor = np.where(mms >= 0, mms, plan.empty("min")).astype(own.dtype)
        put(MMS, own >= floor[:, None])
    if want >> PROP1 & 1:
        # The others' greatest item; 0 where they own none.
        best = plan.window("others_max", slice(None), start, count, "others")[0]
        put(PROP1, n * best >= short)
    if want >> PROPX & 1:
        # The others' least item; the sentinel, zeroed, where they own none.
        least = plan.window("others_min", slice(None), start, count, "others")[0]
        np.multiply(least, least != plan.empty("others_min"), out=least)
        put(PROPX, n * least >= short)
    if want & (1 << ALT_MEAN | _REST_NOTIONS):
        # Items the others own, [agent, allocation].
        cnt = m - plan.window("size", slice(None), start, count, "size")[0]
    if want >> ALT_MEAN & 1:
        total = totals[:, None]
        mean_ok = n * (own * cnt + (total - own)) >= cnt * total
        put(ALT_MEAN, np.where(cnt == 0, n * own >= total, mean_ok))
    if want & _REST_NOTIONS:
        _rest_notions(values, short, cnt, start, count, want, put)
    if want & (_VAL_NOTIONS | _MAX_NOTIONS | _MIN_NOTIONS):
        if want >> PROPM & 1 and plan.keeps_bonuses:
            # The blocks write each agent's maximin bonus d_i here.
            bonuses = np.empty((n, count), values.dtype)
        for agents in plan.blocks:
            _bundle_notions(plan, own, short, bonuses, start, count, want, agents, put)
    if bonuses is not None:
        plan.bonuses[start, count] = bonuses
    return masks.T


def _bundle_notions(plan, own, short, bonuses, start, count, want, agents, put):
    """The notions that read each other bundle, for one block of agents.

    "val" takes the plan's "val" slot and "max", then "min", its "rival"
    slot; EF1 and EFX overwrite the rival statistic with val minus it. An
    envy test holds when the largest term over the bundles, the agent's own
    bundle included, is at most the agent's own value. ``short``, ``own``
    and ``bonuses`` (or None) are ``notion_masks``' rows of all agents; PROPm
    writes the block's maximin bonuses d_i into its rows of ``bonuses``.
    """
    n = plan.n
    big = plan.empty("min")
    own = own[agents]
    if short is not None:
        short = short[agents]

    def stat(name, slot):
        return plan.window(name, agents, start, count, slot)

    def within_own(bundle_stat):
        return bundle_stat.max(axis=0) <= own

    val = stat("val", "val") if want & _VAL_NOTIONS else None
    if want >> EF & 1:
        put(EF, within_own(val), agents)
    if want & _MAX_NOTIONS:
        mx = stat("max", "rival")
        if want >> ALT_MINIMAX & 1:
            # The least greatest item over the rival bundles, big where there
            # is none; an empty rival bundle counts as a maximum of 0.
            mx[_diagonal(agents, n)] = big
            least = mx.min(axis=0)
            np.multiply(least, least != big, out=least)
            put(ALT_MINIMAX, n * least >= short, agents)
        if want >> EF1 & 1:
            # The diagonal holds own - max <= own whatever max it holds.
            put(EF1, within_own(np.subtract(val, mx, out=mx)), agents)
        del mx
    if want & _MIN_NOTIONS:
        mn = _zero_own_and_empty(plan, stat("min", "rival"), agents)
        if want >> PROPM & 1:
            bonus = mn.max(axis=0, out=None if bonuses is None else bonuses[agents])
            put(PROPM, n * bonus >= short, agents)
        if want >> AEFX & 1:
            put(AEFX, mn.sum(axis=0, dtype=mn.dtype) >= short, agents)
        if want >> EFX & 1:
            put(EFX, within_own(np.subtract(val, mn, out=mn)), agents)


def _rest_notions(values, short, cnt, start, count, want, put):
    """Alt-median and alt-mode: bonuses from the items the other agents own.

    ``cnt`` is the number of items the others own and ``short``
    ``notion_masks``' shortfall, both [agent, allocation]. Each agent's
    items are ranked by value once; one walk over the m ranked positions
    then scores every agent on [agent, allocation] rows. At position p a
    running count of the others' items marks the lower median, the
    ((cnt+1)//2)-th of them, and a run count, reset where the agent's value
    changes, finds the smallest mode: values ascend, so the first run longer
    than every earlier one wins a tie. Where the others own no item, both
    bonuses stay 0.
    """
    n, m = values.shape
    order = np.argsort(values, axis=1, kind="stable")  # [agent, position]
    ranked = np.take_along_axis(values, order, axis=1)
    owners = _decode_owners(n, m, start, count)
    agents = np.arange(n, dtype=owners.dtype)[:, None]
    tally = np.min_scalar_type(m)
    median_bit, mode_bit = want >> ALT_MEDIAN & 1, want >> ALT_MODE & 1
    if median_bit:
        median = np.zeros((n, count), values.dtype)
        seen = np.zeros((n, count), tally)
        target = ((cnt + 1) // 2).astype(tally)
    if mode_bit:
        mode = np.zeros((n, count), values.dtype)
        run = np.zeros((n, count), tally)
        longest = np.zeros((n, count), tally)
    for p in range(m):
        others = owners[order[:, p]] != agents
        value = ranked[:, p, None]
        if median_bit:
            seen += others
            np.copyto(median, value, where=others & (seen == target))
        if mode_bit:
            # At p = 0 the run is still empty, whatever this compares.
            run *= value == ranked[:, p - 1, None]
            run += others
            np.copyto(mode, value, where=run > longest)
            np.maximum(longest, run, out=longest)
    if median_bit:
        put(ALT_MEDIAN, n * median >= short)
    if mode_bit:
        put(ALT_MODE, n * mode >= short)


# ---------------------------------------------------------------------------
# Maximin-share scan for every agent at once
# ---------------------------------------------------------------------------


def mms_scan(values, start, count, *, plan):
    """Each row's best worst-bundle value over allocations start..start+count-1.

    ``values`` holds one row per agent, and the result is an array with one
    value per row: the "val" window, its minimum over the n bundles, then
    the maximum over the window's allocations. ``plan`` is the scan's
    ``ScanPlan`` over ``values``.
    """
    best = np.empty(values.shape[0], values.dtype)
    for agents in plan.blocks:
        sums = plan.window("val", agents, start, count, "val")
        best[agents] = sums.min(axis=0).max(axis=-1)
    return best


# ---------------------------------------------------------------------------
# Leximin scan over integer-scaled adjusted profiles
#
# The per-agent score is n*v_i(X_i) + (n-1)*d_i(X), which orders allocations
# identically to the exact adjusted value v_i + ((n-1)/n) * d_i.
# ---------------------------------------------------------------------------


def leximin_scan(values, start, count, *, plan):
    """(allocation index, ascending integer profile) of the chunk's leximin best.

    The leximin best has the largest minimum, so only the allocations that
    reach the window's best minimum are sorted; their ascending profiles
    are then narrowed column by column. Ties go to the smallest allocation
    index. ``plan`` is the scan's ``ScanPlan`` over ``values``; the maximin
    bonuses d_i come from its ``bonuses`` when the mask scan left the
    window's there, else from the window's "min" statistic.
    """
    n = values.shape[0]
    profiles = n * plan.window("own", slice(None), start, count, "own")[0]
    bonuses = plan.bonuses.get((start, count))
    if bonuses is not None:
        profiles += (n - 1) * bonuses
    else:
        for agents in plan.blocks:
            mn = plan.window("min", agents, start, count, "rival")
            profiles[agents] += (n - 1) * _zero_own_and_empty(plan, mn, agents).max(axis=0)
    floor = profiles.min(axis=0)
    best = np.flatnonzero(floor == floor.max())
    ranked = np.sort(profiles[:, best], axis=0).T
    keep = np.arange(best.size)
    for col in range(1, n):
        column = ranked[keep, col]
        keep = keep[column == column.max()]
    return start + int(best[keep[0]]), ranked[keep[0]].copy()


def instance_arrays(values, totals):
    """Convert exact integer tables to the arrays the kernels take.

    worst = n * (m+1) * T, with T the largest total but at least 1, bounds
    every scan intermediate (the table in the module docstring). The arrays
    are int16 when worst is below 2^15, int32 below 2^31 and int64 below
    2^63; larger inputs raise ResourceBudgetError, which ``--budget`` cannot
    lift.
    """
    n = len(values)
    m = len(values[0]) if n else 0
    worst = n * (m + 1) * max(max(totals, default=0), 1)
    if worst >= 1 << 63:
        raise ResourceBudgetError(
            f"n * (m+1) * max total = {worst} for n={n}, m={m} exceeds the scan "
            "kernels' exact int64 range (below 2^63); --budget cannot lift it"
        )
    dtype = np.int16 if worst < 1 << 15 else np.int32 if worst < 1 << 31 else np.int64
    return np.array(values, dtype), np.array(totals, dtype)
