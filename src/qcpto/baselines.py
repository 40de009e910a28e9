"""Comparison schemes: greedy capacity filling and uniform count maximization.

Both ignore pairwise quality entirely. Range filtering (the ``allowed``
mask) applies exactly as it does to the quality-aware solvers; go ranks the
eligible workers by the instance's user-worker distances.
"""
from __future__ import annotations

from typing import Callable

from .model import Assignment
from .qmkp import QmkpInstance


def _fill(inst: QmkpInstance, rank: Callable[[int, int, list[int]], tuple]) -> Assignment:
    """Users in id order, each onto the lowest-ranked eligible worker with room.

    ``rank(u, j, counts)`` orders worker j for user u given the per-worker
    counts placed so far.
    """
    caps = [int(c) for c in inst.capacity]
    allowed = inst.allowed
    counts = [0] * inst.m
    x = [-1] * inst.n
    for u in range(inst.n):
        cands = [j for j in range(inst.m)
                 if counts[j] < caps[j] and allowed[u, j]]
        if cands:
            x[u] = min(cands, key=lambda j: rank(u, j, counts))
            counts[x[u]] += 1
    return Assignment.from_key(x)


def solve_go(inst: QmkpInstance) -> Assignment:
    """Greedy offloading: users in id order onto the nearest eligible worker."""
    dist = inst.distance
    return _fill(inst, lambda u, j, counts: (float(dist[u, j]), j))


def solve_cpto(inst: QmkpInstance) -> Assignment:
    """Uniform offloading: maximize served count by least-loaded spreading."""
    return _fill(inst, lambda u, j, counts: (counts[j], j))
