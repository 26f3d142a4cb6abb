"""Cycle walks of the shared combinatorial helpers."""

import itertools

from invar.chern import partitions_of
from invar.combinat import cycle_lengths, cycle_successor, perm_sign


def test_cycle_lengths_inverts_cycle_successor():
    for sigma in range(1, 9):
        for p in partitions_of(sigma):
            assert sorted(cycle_lengths(cycle_successor(p)), reverse=True) == list(p)


def test_perm_sign_is_the_parity_of_the_inversion_count():
    for n in range(1, 8):
        for perm in itertools.permutations(range(n)):
            inversions = sum(
                perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2)
            )
            assert perm_sign(perm) == (-1) ** inversions, perm
