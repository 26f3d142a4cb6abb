"""Small combinatorial helpers shared by the kernel and monomial pipelines."""

from __future__ import annotations

from .rationals import as_int

__all__ = ["compositions", "cycle_lengths", "cycle_successor", "decrement", "perm_sign"]


def compositions(total, parts):
    """Tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order; seeded jet draws index into this order."""
    if as_int(parts, "parts") < 1:
        raise ValueError(f"compositions need at least one part, got {parts}")
    if as_int(total, "total") < 0:
        return
    c = [0] * parts
    last = parts - 1
    c[last] = total
    while True:
        yield tuple(c)
        # the successor moves one unit from the tail to the rightmost
        # entry before it that can grow, and the rest of the tail to the end
        rest = c[last]
        if rest and last:
            c[last - 1] += 1
            c[last] = rest - 1
            continue
        j = last - 1
        while j > 0 and not c[j]:
            j -= 1
        if j <= 0:
            return
        c[last] = c[j] - 1
        c[j] = 0
        c[j - 1] += 1


def cycle_successor(partition):
    """succ[i] is the next factor after i on its cycle, the parts of the
    partition taken as consecutive cycles of factors."""
    succ = []
    offset = 0
    for k in partition:
        succ.extend([offset + (i + 1) % k for i in range(k)])
        offset += k
    return succ


def cycle_lengths(perm):
    """Cycle lengths of a permutation of range(len(perm)), by smallest
    element: the inverse of cycle_successor up to the order of the parts."""
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return lengths


def decrement(index, a):
    """The multi-index with entry a lowered by one: the jet index of one
    derivative in direction a."""
    return index[:a] + (index[a] - 1,) + index[a + 1 :]


def perm_sign(perm):
    """Sign of a permutation of range(len(perm)), (-1)^(len - cycles)."""
    return (-1) ** (len(perm) - len(cycle_lengths(perm)))
