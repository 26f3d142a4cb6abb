"""Small combinatorial helpers shared by the kernel and monomial pipelines."""

from __future__ import annotations

__all__ = ["compositions", "cycle_successor", "decrement", "perm_sign"]


def compositions(total, parts):
    """Tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order; seeded jet draws index into this order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def cycle_successor(partition):
    """succ[i] is the next factor after i on its cycle, the parts of the
    partition taken as consecutive cycles of factors."""
    succ = []
    offset = 0
    for k in partition:
        succ.extend([offset + (i + 1) % k for i in range(k)])
        offset += k
    return succ


def decrement(index, a):
    """The multi-index with entry a lowered by one: the jet index of one
    derivative in direction a."""
    return index[:a] + (index[a] - 1,) + index[a + 1 :]


def perm_sign(perm):
    """Sign of a permutation of range(len(perm)), from its cycle lengths."""
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
