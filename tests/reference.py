"""Independent reference answers and certificate walks shared by the test modules.

Each is written from the definitions, not from the package's code paths.
"""

from itertools import combinations

from propm.solver import SubSplit


def brute_force_best(values, cap):
    """(value, cardinality, sorted index tuple) of the best subset with sum <= cap.

    Most valuable; then largest; then the lexicographically smallest sorted
    index list (compared as tuples).
    """
    m = len(values)
    best = None
    for size in range(m + 1):
        for combo in combinations(range(m), size):
            v = sum(values[j] for j in combo)
            if v > cap:
                continue
            if best is None:
                best = (v, len(combo), combo)
            else:
                bv, bc, bcombo = best
                if (v, len(combo)) > (bv, bc) or ((v, len(combo)) == (bv, bc) and combo < bcombo):
                    best = (v, len(combo), combo)
    return best


def brute_force_cp(values, k):
    """The CP bundle by scanning all subsets: the best subset B with k * v(B) <= v(S)."""
    return brute_force_best(values, sum(values) // k)


def brute_mms_window(row, n, start, count):
    """Best worst-bundle value of ``row`` over allocations start..start+count-1."""
    best = -1
    for index in range(start, start + count):
        sums = [0] * n
        for j, v in enumerate(row):
            index, owner = divmod(index, n)
            sums[owner] += v
        best = max(best, min(sums))
    return best


def certificate_steps(cert):
    """Every step of a certificate in order, each sub-split followed by its nested steps."""
    for step in cert.steps:
        yield step
        if isinstance(step, SubSplit):
            yield from certificate_steps(step.certificate)
