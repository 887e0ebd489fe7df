"""Hot numeric kernels.

``cp_table`` is the close-to-proportional subset-sum DP. The allocation
scans (``notion_masks``, ``mms_scan`` and ``leximin_scan``) share one
split-half engine, vectorized with numpy.

Allocations are indexed 0..n^m-1; item j is owned by digit j of the index
written in base n, least significant digit first. The engine splits the
items into a low half (items 0..h-1) and a high half, so index t is
l + L*r with L = n^h. For every assignment of one half it tabulates the
bundle statistics: per agent and bundle the value, least and greatest item,
each agent's own-bundle value and the bundle sizes. A window of allocations
then combines a low row with a high row by one broadcast add, min or max,
the meet-in-the-middle idea ``cpsets._meet_in_the_middle`` uses for CP
bundles. Only alt-median and alt-mode, which do not split across halves,
decode owner digits. Each kernel computes only the statistics its
requested notions read.

h is m // 2, lowered while n^h exceeds the window, so neither half table
outgrows the window. A window's per-bundle statistics take at most
SCAN_BYTES: callers size windows with ``scan_chunk`` and the kernels split
very large agent counts into blocks.

Scan arithmetic is int64. ``instance_arrays`` rejects inputs whose largest
intermediate, n * (m+1) * max_total from the alt-mean test, would not fit;
the exact-arithmetic reference paths in the rest of the package use
unbounded Python integers.
"""

from __future__ import annotations

import numpy as np

from .core import InputError, ResourceBudgetError

# Name of the scan implementation, for tools that stamp their records with it.
BACKEND = "numpy"

# Sentinel above every item value a kernel sees (instance_arrays keeps
# totals below 2^62); it marks the minimum of an empty bundle.
_BIG = 1 << 62

CHUNK = 8192

# Bytes the bit-packed take rows of one CP table may take. At the CP DP's
# cap limit (cpsets.DP_SUM_LIMIT) that is about a thousand full rows.
CP_TAKE_BYTES = 256 << 20

# Bytes a window's per-bundle statistics may take: three int64 values
# (value, min, max, or two of them and a temporary) per allocation, agent
# and bundle.
SCAN_BYTES = 32 << 20
_CELL_BYTES = 3 * 8

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
# Close-to-proportional subset DP
# ---------------------------------------------------------------------------


def _take_widths(vals: list[int], cap: int) -> list[int]:
    """Cells of the take row ``cp_table`` stores per item; 0 for no row.

    Item p with 0 < v <= cap needs min(cap + 1 - v, suffix + 1) cells, where
    suffix is the sum, capped at cap, of the items after p that fit the cap:
    no subset of the items after p reaches a larger sum.
    """
    widths = [0] * len(vals)
    reach = 0
    for p in range(len(vals) - 1, -1, -1):
        v = vals[p]
        if 0 < v <= cap:
            widths[p] = min(cap + 1 - v, reach + 1)
            reach = min(cap, reach + v)
    return widths


def cp_table(vals: np.ndarray, cap: int) -> tuple[int, int, int]:
    """(sum, cardinality, mask) of the best subset of ``vals`` with sum <= cap.

    Best means value-maximal, then cardinality-maximal, then the
    lexicographically smallest sorted position list. The mask is an unbounded
    Python int with bit (m-1-p) for position p, so any item count works.

    A backward pass over the items keeps one row ``card[s]``: the largest
    cardinality of a subset of items p..m-1 summing to exactly s, negative
    when s is unreachable. For each item with 0 < v <= cap it stores the
    bit-packed row ``take_p[s - v]``: taking p still reaches the row's best
    cardinality at s. Sums above the suffix sum of items p+1..m-1 are
    unreachable, so item p adds, compares and stores only the first
    width_p = min(cap + 1 - v, suffix + 1) cells (``_take_widths``). A
    forward walk from the best sum then takes each item at the first
    opportunity, which yields the lexicographically smallest witness; it
    reads item p's row at s - v, which is at most that suffix sum, so it
    never reads past a row's end. Zero-valued items are always taken and
    items above the cap never; neither stores a row.

    The take rows cost sum(ceil(width_p / 8)) <= m * (cap + 1) / 8 bytes on
    top of the 2 * (cap + 1)-byte cardinality row (int16 below 16384
    items). A table whose take rows would exceed CP_TAKE_BYTES raises
    ResourceBudgetError before any row is allocated.
    """
    m = len(vals)
    vals = vals.tolist()
    widths = _take_widths(vals, cap)
    take_bytes = sum((w + 7) >> 3 for w in widths)
    if take_bytes > CP_TAKE_BYTES:
        raise ResourceBudgetError(
            f"CP table over {m} items with value cap {cap} needs {take_bytes} bytes "
            f"of take rows, budget is {CP_TAKE_BYTES}"
        )
    size = cap + 1
    dtype = np.int16 if m < 1 << 14 else np.int64
    # The sentinel rises by at most one per item, so it stays negative.
    card = np.full(size, np.iinfo(dtype).min, dtype)
    card[0] = 0
    cand = np.empty(size, dtype)
    take = np.empty(size, np.bool_)
    rows = [None] * m
    for p in range(m - 1, -1, -1):
        v = vals[p]
        if v == 0:
            card += 1
        elif v <= cap:
            w = widths[p]
            reached = card[v : v + w]
            np.add(card[:w], 1, out=cand[:w])
            np.greater_equal(cand[:w], reached, out=take[:w])
            rows[p] = np.packbits(take[:w])
            np.maximum(reached, cand[:w], out=reached)
    # The last reachable sum; card[0] is 0, so one always exists.
    best_sum = cap - int(np.argmax((card >= 0)[::-1]))
    s = best_sum
    mask = 0
    for p in range(m):
        v = vals[p]
        if v == 0:
            taken = True
        elif v <= s:
            i = s - v
            taken = (rows[p][i >> 3] >> (7 - (i & 7))) & 1
        else:
            taken = False
        if taken:
            mask |= 1 << (m - 1 - p)
            s -= v
    return best_sum, int(card[best_sum]), mask


# ---------------------------------------------------------------------------
# Split-half engine
# ---------------------------------------------------------------------------


def scan_chunk(n: int) -> int:
    """Allocations per scan window: CHUNK, fewer when n x n statistics need it."""
    return max(1, min(CHUNK, SCAN_BYTES // (_CELL_BYTES * n * n)))


def _agent_blocks(n, count):
    """Agent slices whose per-bundle statistics over ``count`` allocations fit SCAN_BYTES."""
    step = max(1, SCAN_BYTES // (_CELL_BYTES * n * max(count, 1)))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


# Statistic -> (how two halves combine, value for an empty bundle). Every
# statistic is an array [lead, mid, allocation], allocations innermost so
# the broadcast combine runs over long contiguous rows: "val", "min" and
# "max" are [bundle, agent, allocation], reduced over the leading axis;
# "own" (each agent's own-bundle value) and "size" are [0, agent or bundle,
# allocation].
_STATS = {
    "val": (np.add, 0),
    "min": (np.minimum, _BIG),
    "max": (np.maximum, 0),
    "own": (np.add, 0),
    "size": (np.add, 0),
}


def _half(values, agents, n, name, lo, hi, first, count):
    """Statistic ``name`` of items lo..hi-1 for their assignments first..first+count-1."""
    op, empty = _STATS[name]
    per_bundle = name in ("val", "min", "max")
    if per_bundle:
        shape = (n, values[agents].shape[0], count)
    else:
        shape = (1, n, count)
    out = np.full(shape, empty, np.int64)
    rows = np.arange(count)
    digits = np.arange(first, first + count, dtype=np.int64)
    for j in range(lo, hi):
        owner = digits % n
        digits //= n
        if per_bundle:
            at, v = (owner, slice(None), rows), values[agents, j]
        else:
            at, v = (0, owner, rows), values[owner, j] if name == "own" else 1
        out[at] = op(out[at], v)
    return out


def _window(values, agents, n, name, start, count):
    """Statistic ``name`` for allocations start..start+count-1, in index order."""
    m = values.shape[1]
    h = 0
    while h < m // 2 and n ** (h + 1) <= count:
        h += 1
    size = n**h
    r0, l0 = divmod(start, size)
    low = _half(values, agents, n, name, 0, h, 0, size)
    high = _half(values, agents, n, name, h, m, r0, (start + count - 1) // size + 1 - r0)
    op = _STATS[name][0]
    lead, mid, _ = low.shape
    out = np.empty((lead, mid, count), np.int64)
    # At most three blocks: the end of the first high row, whole rows, the
    # start of the last row.
    pos, r, l = 0, 0, l0
    while pos < count:
        if l == 0 and count - pos >= size:
            k = (count - pos) // size
            block = out[..., pos : pos + k * size].reshape(lead, mid, k, size)
            op(high[..., r : r + k, None], low[..., None, :], out=block)
            pos, r = pos + k * size, r + k
        else:
            w = min(size - l, count - pos)
            op(high[..., r : r + 1], low[..., l : l + w], out=out[..., pos : pos + w])
            pos, r, l = pos + w, r + 1, 0
    return out


def _decode_owners(n, m, start, count):
    idx = np.arange(start, start + count, dtype=np.int64)
    owners = np.empty((count, m), np.int64)
    for j in range(m):
        owners[:, j] = idx % n
        idx //= n
    return owners


def _diagonal(agents, n):
    """Index of each block agent's own bundle in a [bundle, agent, allocation] statistic."""
    idx = range(n)[agents]
    return np.arange(idx.start, idx.stop), np.arange(len(idx))


def _zero_own_and_empty(mn, agents):
    """Zero each agent's own bundle and every empty bundle in a "min" statistic.

    A maximum over bundles is then the maximin bonus d_i, a sum the AEFX
    bonus.
    """
    mn[_diagonal(agents, mn.shape[0])] = _BIG
    mn[mn == _BIG] = 0
    return mn


# ---------------------------------------------------------------------------
# Per-allocation fairness masks
# ---------------------------------------------------------------------------

_VAL_NOTIONS = 1 << EF | 1 << EF1 | 1 << EFX
_MAX_NOTIONS = 1 << PROP1 | 1 << EF1 | 1 << ALT_MINIMAX
_MIN_NOTIONS = 1 << PROPX | 1 << PROPM | 1 << AEFX | 1 << EFX
_REST_NOTIONS = 1 << ALT_MEDIAN | 1 << ALT_MODE


def notion_masks(values, totals, mms, start, count, want=ALL_NOTIONS):
    """uint16[count, n]: bit b set iff the agent satisfies notion code b.

    Only the notions whose bits are set in ``want`` are computed; every
    other bit stays clear.
    """
    n, m = values.shape
    masks = np.zeros((n, count), np.uint16)  # [agent, allocation]

    def put(bit, ok, agents=slice(None)):
        if want >> bit & 1:
            masks[agents] |= ok * np.uint16(1 << bit)

    totals = totals[:, None]
    own = _window(values, slice(None), n, "own", start, count)[0]
    put(PROP, n * own >= totals)
    put(MMS, (own >= mms[:, None]) & (mms[:, None] >= 0))
    if want >> ALT_MEAN & 1:
        cnt = m - _window(values, slice(None), n, "size", start, count)[0]
        mean_ok = n * (own * cnt + (totals - own)) >= cnt * totals
        put(ALT_MEAN, np.where(cnt == 0, n * own >= totals, mean_ok))
    if want & _REST_NOTIONS:
        _rest_notions(values, totals, own, start, count, want, put)
    if want & (_VAL_NOTIONS | _MAX_NOTIONS | _MIN_NOTIONS):
        for agents in _agent_blocks(n, count):
            _bundle_notions(values, totals[agents], own[agents], start, count, want, agents, put)
    return np.ascontiguousarray(masks.T)


def _bundle_notions(values, total, own, start, count, want, agents, put):
    """The notions that read other agents' bundles, for one block of agents."""
    n = values.shape[0]
    diag = _diagonal(agents, n)

    def stat(name):
        return _window(values, agents, n, name, start, count)

    def pooled(bundle_stat, reduce, diag_value):
        # Reduce over the rival bundles; _BIG means there is none.
        bundle_stat[diag] = diag_value
        got = reduce(bundle_stat, axis=0)
        got[got == _BIG] = 0
        return got

    val = stat("val") if want & _VAL_NOTIONS else None
    if want >> EF & 1:
        put(EF, (val <= own).all(axis=0), agents)
    if want & _MAX_NOTIONS:
        mx = stat("max")
        if want >> PROP1 & 1:
            put(PROP1, n * (own + pooled(mx, np.max, 0)) >= total, agents)
        if want >> ALT_MINIMAX & 1:
            # An empty rival bundle counts as a maximum of 0.
            put(ALT_MINIMAX, n * (own + pooled(mx, np.min, _BIG)) >= total, agents)
        if want >> EF1 & 1:
            # The diagonal holds own - max <= own whatever max it holds.
            put(EF1, (val - mx <= own).all(axis=0), agents)
        del mx
    if want & _MIN_NOTIONS:
        mn = stat("min")
        if want >> PROPX & 1:
            put(PROPX, n * (own + pooled(mn, np.min, _BIG)) >= total, agents)
        _zero_own_and_empty(mn, agents)
        if want >> PROPM & 1:
            put(PROPM, n * (own + mn.max(axis=0)) >= total, agents)
        if want >> AEFX & 1:
            put(AEFX, n * own + mn.sum(axis=0) >= total, agents)
        if want >> EFX & 1:
            put(EFX, (val - mn <= own).all(axis=0), agents)


def _rest_notions(values, totals, own, start, count, want, put):
    """Alt-median and alt-mode: bonuses from the items the other agents own.

    Each agent's items are sorted by value once; per allocation a mask over
    that order marks the items others own, so no row is sorted.
    """
    n, m = values.shape
    if not m:
        put(ALT_MEDIAN, n * own >= totals)
        put(ALT_MODE, n * own >= totals)
        return
    owners = _decode_owners(n, m, start, count)
    for i in range(n):
        order = np.argsort(values[i], kind="stable")
        ranked = values[i][order]
        others = owners[:, order] != i
        cnt = others.sum(axis=1)
        if want >> ALT_MEDIAN & 1:
            # The median is the ((cnt-1)//2)-th of the others' items.
            seen = np.cumsum(others, axis=1)
            median = ranked[(seen > ((cnt - 1) // 2)[:, None]).argmax(axis=1)]
            put(ALT_MEDIAN, n * (own[i] + np.where(cnt > 0, median, 0)) >= totals[i], i)
        if want >> ALT_MODE & 1:
            # Items of equal value are adjacent; the first most frequent
            # value among the others' items is the smallest mode.
            first = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
            freq = np.add.reduceat(others, first, axis=1, dtype=np.int64)
            mode = ranked[first][freq.argmax(axis=1)]
            put(ALT_MODE, n * (own[i] + np.where(cnt > 0, mode, 0)) >= totals[i], i)


# ---------------------------------------------------------------------------
# Maximin-share scan for a single agent
# ---------------------------------------------------------------------------


def mms_scan(row, n, start, count):
    """Best worst-bundle value of ``row`` over allocations start..start+count-1."""
    if not count:
        return -1
    sums = _window(row[None, :], slice(None), n, "val", start, count)
    return int(sums.min(axis=0).max())


# ---------------------------------------------------------------------------
# Leximin scan over integer-scaled adjusted profiles
#
# The per-agent score is n*v_i(X_i) + (n-1)*d_i(X), which orders allocations
# identically to the exact adjusted value v_i + ((n-1)/n) * d_i.
# ---------------------------------------------------------------------------


def leximin_scan(values, totals, start, count):
    """(allocation index, ascending int64 profile) of the chunk's leximin best.

    Ties go to the smallest allocation index.
    """
    n = values.shape[0]
    profiles = n * _window(values, slice(None), n, "own", start, count)[0]
    for agents in _agent_blocks(n, count):
        mn = _zero_own_and_empty(_window(values, agents, n, "min", start, count), agents)
        profiles[agents] += (n - 1) * mn.max(axis=0)
    profiles = np.sort(profiles, axis=0).T
    best = np.arange(count)
    for col in range(n):
        column = profiles[best, col]
        best = best[column == column.max()]
    first = int(best[0])
    return start + first, profiles[first].copy()


def instance_arrays(values, totals):
    """Convert exact integer tables to the int64 arrays the kernels take.

    Rejects inputs whose largest kernel intermediate, n * (m+1) * max_total
    from the alt-mean test, reaches 2^63.
    """
    n = len(values)
    m = len(values[0]) if n else 0
    worst = n * (m + 1) * max(totals, default=0)
    if worst >= 1 << 63:
        raise InputError(
            f"n * (m+1) * max total = {worst} for n={n}, m={m} exceeds the "
            "kernels' exact int64 range (below 2^63)"
        )
    return np.array(values, dtype=np.int64), np.array(totals, dtype=np.int64)
