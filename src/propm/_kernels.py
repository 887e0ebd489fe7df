"""Hot numeric kernels.

The CP subset-sum table (``cp_table``) has one vectorized numpy
implementation. Each allocation-scan kernel exists twice: a scalar version
compiled with numba's ``@njit`` and a vectorized pure-numpy version. The
active scan backend is chosen once at import time: numba when it is
importable, numpy when it is not or when the environment variable
``PROPM_NO_NUMBA`` is set to a non-empty value other than "0".

Scan arithmetic is int64. Callers guard magnitudes (see MAX_SAFE_TOTAL) so
that no intermediate product can overflow; the exact-arithmetic reference
paths in the rest of the package use unbounded Python integers.

Allocations are indexed 0..n^m-1; item j is owned by digit j of the index
written in base n, least significant digit first.
"""

from __future__ import annotations

import os

import numpy as np

NO_NUMBA_ENV_VAR = "PROPM_NO_NUMBA"

try:
    if os.environ.get(NO_NUMBA_ENV_VAR, "").strip() not in ("", "0"):
        raise ImportError(f"numba disabled via {NO_NUMBA_ENV_VAR}")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        """No-op replacement so kernel sources stay importable without numba."""

        def wrap(func):
            return func

        if len(args) == 1 and callable(args[0]) and not kwargs:
            return args[0]
        return wrap


BACKEND = "numba" if HAVE_NUMBA else "numpy"

# Largest per-agent total for which all kernel intermediates fit in int64
# (worst product is n * total * m with n <= 16, m <= 62).
MAX_SAFE_TOTAL = 1 << 50

# Sentinel larger than any item value a kernel will see.
_BIG = np.int64(1) << np.int64(60)

CHUNK = 8192

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


# ---------------------------------------------------------------------------
# Close-to-proportional subset DP
# ---------------------------------------------------------------------------


def cp_table(vals: np.ndarray, cap: int) -> tuple[int, int, int]:
    """(sum, cardinality, mask) of the best subset of ``vals`` with sum <= cap.

    Best means value-maximal, then cardinality-maximal, then the
    lexicographically smallest sorted position list. The mask is an unbounded
    Python int with bit (m-1-p) for position p, so any item count works.

    A backward pass over the items keeps one row ``card[s]``: the largest
    cardinality of a subset of items p..m-1 summing to exactly s, negative
    when s is unreachable. For each item with 0 < v <= cap it stores the
    bit-packed row ``take_p[s - v]``: taking p still reaches the row's best
    cardinality at s. A forward walk from the best sum then takes each item
    at the first opportunity, which yields the lexicographically smallest
    witness. Zero-valued items are always taken and items above the cap
    never; neither stores a row. The take rows cost m * (cap + 1) / 8 bytes
    on top of the 2 * (cap + 1)-byte cardinality row (int16 below 16384
    items).
    """
    m = len(vals)
    size = cap + 1
    dtype = np.int16 if m < 1 << 14 else np.int64
    # The sentinel rises by at most one per item, so it stays negative.
    card = np.full(size, np.iinfo(dtype).min, dtype)
    card[0] = 0
    cand = np.empty(size, dtype)
    take = np.empty(size, np.bool_)
    rows = [None] * m
    for p in range(m - 1, -1, -1):
        v = int(vals[p])
        if v == 0:
            card += 1
        elif v <= cap:
            width = size - v
            np.add(card[:width], 1, out=cand[:width])
            np.greater_equal(cand[:width], card[v:], out=take[:width])
            rows[p] = np.packbits(take[:width])
            np.maximum(card[v:], cand[:width], out=card[v:])
    best_sum = int(np.flatnonzero(card >= 0)[-1])
    s = best_sum
    mask = 0
    for p in range(m):
        v = int(vals[p])
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
# Per-allocation fairness masks
# ---------------------------------------------------------------------------


@njit(cache=True)
def _notion_masks_numba(values, totals, mms, start, count):
    n, m = values.shape
    out = np.zeros((count, n), np.uint16)
    bundle_val = np.empty((n, n), np.int64)
    bundle_min = np.empty((n, n), np.int64)
    bundle_max = np.empty((n, n), np.int64)
    bundle_size = np.empty(n, np.int64)
    owner = np.empty(m, np.int64)
    scratch = np.empty(m, np.int64)
    for t in range(count):
        idx = start + t
        rem = idx
        for j in range(m):
            owner[j] = rem % n
            rem //= n
        for k in range(n):
            bundle_size[k] = 0
            for i in range(n):
                bundle_val[i, k] = 0
                bundle_min[i, k] = _BIG
                bundle_max[i, k] = -1
        for j in range(m):
            k = owner[j]
            bundle_size[k] += 1
            for i in range(n):
                v = values[i, j]
                bundle_val[i, k] += v
                if v < bundle_min[i, k]:
                    bundle_min[i, k] = v
                if v > bundle_max[i, k]:
                    bundle_max[i, k] = v
        for i in range(n):
            total = totals[i]
            own = bundle_val[i, i]
            pooled_min = _BIG
            pooled_max = -1
            d = np.int64(0)
            sum_mins = np.int64(0)
            minimax = _BIG
            any_other_items = False
            ef_ok = True
            ef1_ok = True
            efx_ok = True
            for k in range(n):
                if k == i:
                    continue
                if bundle_size[k] > 0:
                    any_other_items = True
                    bmin = bundle_min[i, k]
                    bmax = bundle_max[i, k]
                    if bmin < pooled_min:
                        pooled_min = bmin
                    if bmax > pooled_max:
                        pooled_max = bmax
                    if bmin > d:
                        d = bmin
                    sum_mins += bmin
                    if bmax < minimax:
                        minimax = bmax
                    if own < bundle_val[i, k]:
                        ef_ok = False
                    if own < bundle_val[i, k] - bmax:
                        ef1_ok = False
                    if own < bundle_val[i, k] - bmin:
                        efx_ok = False
                else:
                    # An empty rival bundle caps the minimax bonus at zero.
                    if 0 < minimax:
                        minimax = 0
            if not any_other_items:
                pooled_min = 0
                pooled_max = 0
            if n == 1 or minimax == _BIG:
                minimax = 0
            bits = np.uint16(0)
            if n * own >= total:
                bits |= np.uint16(1 << PROP)
            if n * (own + pooled_max) >= total:
                bits |= np.uint16(1 << PROP1)
            if n * (own + pooled_min) >= total:
                bits |= np.uint16(1 << PROPX)
            if n * (own + d) >= total:
                bits |= np.uint16(1 << PROPM)
            if ef_ok:
                bits |= np.uint16(1 << EF)
            if ef1_ok:
                bits |= np.uint16(1 << EF1)
            if efx_ok:
                bits |= np.uint16(1 << EFX)
            if n * own + sum_mins >= total:
                bits |= np.uint16(1 << AEFX)
            if mms[i] >= 0 and own >= mms[i]:
                bits |= np.uint16(1 << MMS)
            cnt = m - bundle_size[i]
            if cnt == 0:
                if n * own >= total:
                    bits |= np.uint16(1 << ALT_MEAN)
                    bits |= np.uint16(1 << ALT_MEDIAN)
                    bits |= np.uint16(1 << ALT_MODE)
            else:
                if n * (own * cnt + (total - own)) >= cnt * total:
                    bits |= np.uint16(1 << ALT_MEAN)
                pos = 0
                for j in range(m):
                    if owner[j] != i:
                        scratch[pos] = values[i, j]
                        pos += 1
                sub = np.sort(scratch[:cnt])
                median = sub[(cnt - 1) // 2]
                if n * (own + median) >= total:
                    bits |= np.uint16(1 << ALT_MEDIAN)
                best_cnt = 0
                best_val = np.int64(-1)
                run = 1
                for q in range(cnt):
                    if q > 0 and sub[q] == sub[q - 1]:
                        run += 1
                    else:
                        run = 1
                    if run > best_cnt:
                        best_cnt = run
                        best_val = sub[q]
                if n * (own + best_val) >= total:
                    bits |= np.uint16(1 << ALT_MODE)
            if n * (own + minimax) >= total:
                bits |= np.uint16(1 << ALT_MINIMAX)
            out[t, i] = bits
    return out


def _decode_owners(n, m, start, count):
    idx = np.arange(start, start + count, dtype=np.int64)
    owners = np.empty((count, m), np.int64)
    rem = idx.copy()
    for j in range(m):
        owners[:, j] = rem % n
        rem //= n
    return owners


def _notion_masks_numpy(values, totals, mms, start, count):
    n, m = values.shape
    if m == 0:
        # the single empty allocation: zero totals satisfy every weak notion
        bits = (1 << NOTION_COUNT) - 1
        out = np.full((count, n), bits, np.uint16)
        for i in range(n):
            if mms[i] < 0:
                out[:, i] &= np.uint16(~(1 << MMS) & 0xFFFF)
        return out
    owners = _decode_owners(n, m, start, count)
    out = np.zeros((count, n), np.uint16)

    bundle_val = np.empty((count, n, n), np.int64)
    bundle_min = np.empty((count, n, n), np.int64)
    bundle_max = np.empty((count, n, n), np.int64)
    sizes = np.empty((count, n), np.int64)
    for k in range(n):
        in_k = owners == k
        sizes[:, k] = in_k.sum(axis=1)
        for i in range(n):
            row = values[i]
            masked = np.where(in_k, row[None, :], 0)
            bundle_val[:, i, k] = masked.sum(axis=1)
            bundle_min[:, i, k] = np.where(in_k, row[None, :], _BIG).min(axis=1)
            bundle_max[:, i, k] = np.where(in_k, row[None, :], -1).max(axis=1)

    for i in range(n):
        total = np.int64(totals[i])
        own = bundle_val[:, i, i]
        others = [k for k in range(n) if k != i]
        if others:
            osize = sizes[:, others]
            nonempty = osize > 0
            any_other = nonempty.any(axis=1)
            omin = bundle_min[:, i, others]
            omax = bundle_max[:, i, others]
            pooled_min = np.where(nonempty, omin, _BIG).min(axis=1)
            pooled_min = np.where(any_other, pooled_min, 0)
            pooled_max = np.where(nonempty, omax, -1).max(axis=1)
            pooled_max = np.where(any_other, pooled_max, 0)
            d = np.where(nonempty, omin, 0).max(axis=1, initial=0)
            sum_mins = np.where(nonempty, omin, 0).sum(axis=1)
            minimax = np.where(nonempty, omax, 0).min(axis=1)
            oval = bundle_val[:, i, others]
            ef_ok = (own[:, None] >= oval).all(axis=1)
            ef1_ok = np.where(nonempty, own[:, None] >= oval - omax, True).all(axis=1)
            efx_ok = np.where(nonempty, own[:, None] >= oval - omin, True).all(axis=1)
        else:
            zeros = np.zeros(count, np.int64)
            pooled_min = pooled_max = d = sum_mins = minimax = zeros
            ef_ok = ef1_ok = efx_ok = np.ones(count, np.bool_)

        def put(bit, cond):
            out[:, i] |= np.where(cond, np.uint16(1 << bit), np.uint16(0))

        put(PROP, n * own >= total)
        put(PROP1, n * (own + pooled_max) >= total)
        put(PROPX, n * (own + pooled_min) >= total)
        put(PROPM, n * (own + d) >= total)
        put(EF, ef_ok)
        put(EF1, ef1_ok)
        put(EFX, efx_ok)
        put(AEFX, n * own + sum_mins >= total)
        if mms[i] >= 0:
            put(MMS, own >= mms[i])

        cnt = m - sizes[:, i]
        full = cnt == 0
        mean_ok = np.where(
            full,
            n * own >= total,
            n * (own * cnt + (total - own)) >= cnt * total,
        )
        put(ALT_MEAN, mean_ok)

        rest = np.where(owners == i, _BIG, values[i][None, :])
        rest_sorted = np.sort(rest, axis=1)
        med_idx = np.maximum(cnt - 1, 0) // 2
        median = np.take_along_axis(rest_sorted, med_idx[:, None], axis=1)[:, 0]
        median_ok = np.where(full, n * own >= total, n * (own + median) >= total)
        put(ALT_MEDIAN, median_ok)

        best_cnt = np.zeros(count, np.int64)
        best_val = np.full(count, -1, np.int64)
        run = np.ones(count, np.int64)
        for q in range(m):
            col = rest_sorted[:, q]
            valid = col < _BIG
            if q > 0:
                same = valid & (col == rest_sorted[:, q - 1])
                run = np.where(same, run + 1, 1)
            else:
                run = np.ones(count, np.int64)
            better = valid & (run > best_cnt)
            best_cnt = np.where(better, run, best_cnt)
            best_val = np.where(better, col, best_val)
        mode_ok = np.where(full, n * own >= total, n * (own + best_val) >= total)
        put(ALT_MODE, mode_ok)

        put(ALT_MINIMAX, n * (own + minimax) >= total)
    return out


def notion_masks(values, totals, mms, start, count):
    """uint16[count, n]: bit b set iff agent satisfies notion code b."""
    if BACKEND == "numba":
        return _notion_masks_numba(values, totals, mms, start, count)
    return _notion_masks_numpy(values, totals, mms, start, count)


# ---------------------------------------------------------------------------
# Maximin-share scan for a single agent
# ---------------------------------------------------------------------------


@njit(cache=True)
def _mms_scan_numba(row, n, start, count):
    m = row.shape[0]
    best = np.int64(-1)
    sums = np.empty(n, np.int64)
    for t in range(count):
        idx = start + t
        for k in range(n):
            sums[k] = 0
        rem = idx
        for j in range(m):
            sums[rem % n] += row[j]
            rem //= n
        worst = sums[0]
        for k in range(1, n):
            if sums[k] < worst:
                worst = sums[k]
        if worst > best:
            best = worst
    return best


def _mms_scan_numpy(row, n, start, count):
    m = row.shape[0]
    owners = _decode_owners(n, m, start, count)
    worst = np.full(count, _BIG, np.int64)
    for k in range(n):
        vals = np.where(owners == k, row[None, :], 0).sum(axis=1)
        worst = np.minimum(worst, vals)
    return int(worst.max()) if count else -1


def mms_scan(row, n, start, count):
    if BACKEND == "numba":
        return int(_mms_scan_numba(row, n, start, count))
    return _mms_scan_numpy(row, n, start, count)


# ---------------------------------------------------------------------------
# Leximin scan over integer-scaled adjusted profiles
#
# The per-agent score is n*v_i(X_i) + (n-1)*d_i(X), which orders allocations
# identically to the exact adjusted value v_i + ((n-1)/n) * d_i.
# ---------------------------------------------------------------------------


@njit(cache=True)
def _leximin_scan_numba(values, totals, start, count):
    n, m = values.shape
    best_idx = np.int64(-1)
    best = np.empty(n, np.int64)
    profile = np.empty(n, np.int64)
    bundle_min = np.empty((n, n), np.int64)
    own = np.empty(n, np.int64)
    owner = np.empty(m, np.int64)
    size = np.empty(n, np.int64)
    for t in range(count):
        idx = start + t
        rem = idx
        for j in range(m):
            owner[j] = rem % n
            rem //= n
        for k in range(n):
            size[k] = 0
            own[k] = 0
            for i in range(n):
                bundle_min[i, k] = _BIG
        for j in range(m):
            k = owner[j]
            size[k] += 1
            own[k] += values[k, j]
            for i in range(n):
                v = values[i, j]
                if v < bundle_min[i, k]:
                    bundle_min[i, k] = v
        for i in range(n):
            d = np.int64(0)
            for k in range(n):
                if k != i and size[k] > 0 and bundle_min[i, k] > d:
                    d = bundle_min[i, k]
            profile[i] = n * own[i] + (n - 1) * d
        profile_sorted = np.sort(profile)
        if best_idx < 0:
            best_idx = idx
            best[:] = profile_sorted
        else:
            for i in range(n):
                if profile_sorted[i] > best[i]:
                    best_idx = idx
                    best[:] = profile_sorted
                    break
                if profile_sorted[i] < best[i]:
                    break
    return best_idx, best


def _leximin_scan_numpy(values, totals, start, count):
    n, m = values.shape
    if m == 0:
        return start, np.zeros(n, np.int64)
    owners = _decode_owners(n, m, start, count)
    own = np.zeros(count, np.int64)
    profiles = np.empty((count, n), np.int64)
    for i in range(n):
        row = values[i]
        in_i = owners == i
        own = np.where(in_i, row[None, :], 0).sum(axis=1)
        d = np.zeros(count, np.int64)
        for k in range(n):
            if k == i:
                continue
            in_k = owners == k
            bmin = np.where(in_k, row[None, :], _BIG).min(axis=1)
            bmin = np.where(in_k.any(axis=1), bmin, 0)
            d = np.maximum(d, bmin)
        profiles[:, i] = n * own + (n - 1) * d
    profiles.sort(axis=1)
    order = np.lexsort(tuple(profiles[:, i] for i in range(n - 1, -1, -1)))
    top = profiles[order[-1]]
    first = int(np.nonzero((profiles == top).all(axis=1))[0][0])
    return start + first, top.copy()


def leximin_scan(values, totals, start, count):
    """(allocation index, ascending int64 profile) of the chunk's leximin best.

    Ties go to the smallest allocation index.
    """
    if BACKEND == "numba":
        idx, prof = _leximin_scan_numba(values, totals, start, count)
        return int(idx), prof
    return _leximin_scan_numpy(values, totals, start, count)


def instance_arrays(values, totals):
    """Convert exact integer tables to the int64 arrays the kernels take."""
    arr = np.array(values, dtype=np.int64)
    tot = np.array(totals, dtype=np.int64)
    if tot.size and int(tot.max()) > MAX_SAFE_TOTAL:
        from .core import InputError

        raise InputError(
            f"agent totals above {MAX_SAFE_TOTAL} exceed the kernels' exact int64 range"
        )
    return arr, tot
