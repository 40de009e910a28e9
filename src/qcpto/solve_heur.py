"""Heuristic solver: greedy bin packing plus fix-and-complete reactive search.

Construction sorts users by density (contribution over response time) and
first-fits them onto workers ranked once by capacity, filling the largest
worker before opening the next. The search loop then repeatedly drops a
random fraction of the assigned users, repacks the freed ones, polishes each
new configuration with a deterministic relocate/swap descent, keeps the best
solution seen, and resets the incumbent to the best with probability one
half. A fingerprint memory prevents re-visiting configurations: hits trigger
shuffled re-completions, and sustained stagnation widens the drop fraction.
The search stops after ``patience`` iterations without improvement, or as
soon as the best solution realizes every pair: no assignment can score more
than all users on one worker, so that sum is a ceiling the search can reach
but never pass. The returned solution passes a min-pair repair so it is
always feasible.

Every step works on one worker vector: entry u is user u's worker, -1 when
unassigned (``Assignment.key``). An ``Assignment`` is built only to score a
vector or to return the answer.
"""
from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Optional, Sequence

from .model import Assignment
from .qmkp import QmkpInstance, Solution, evaluate_objective, repair_min_pair

if TYPE_CHECKING:
    from .config import SolverSection


def greedy_bin_packing(inst: QmkpInstance, x: Optional[Sequence[int]] = None,
                       rng: Optional[random.Random] = None) -> list[int]:
    """Complete worker vector x (all users free by default) first fit.

    Workers are ranked once by residual capacity, largest first and ties to
    the lowest id; the frozen order concentrates users, which is what gives
    co-assigned pairs their profit. Free users go in decreasing density
    order, or in an order shuffled by ``rng``. A free user's density is its
    contribution (its quality toward the placed users in id order, or its
    full potential sum(q_ik) when nothing is placed) divided by its response
    time on the top-ranked worker.
    """
    n, m = inst.n, inst.m
    x = [-1] * n if x is None else list(x)
    residual = [inst.capacity[j] - x.count(j) for j in range(m)]
    ranked = sorted(range(m), key=lambda j: (-residual[j], j))
    free = [u for u in range(n) if x[u] < 0]
    if rng is not None:
        rng.shuffle(free)
    else:
        q = inst.quality.q
        placed = [u for u in range(n) if x[u] >= 0]
        top_eta = x.count(ranked[0])

        def density(i: int) -> float:
            c = sum(float(q[i, k]) for k in placed) if placed else float(q[i].sum())
            t = inst.latency_of(i, ranked[0], top_eta + 1)
            return c / t if t > 0 else 0.0

        free.sort(key=lambda i: (-density(i), i))
    allowed = inst.allowed
    for i in free:
        for j in ranked:
            if allowed[i, j] and residual[j] >= 1.0:
                x[i] = j
                residual[j] -= 1.0
                break
    return x


def fix_and_complete(x: Sequence[int], alpha: float, rng: random.Random,
                     inst: QmkpInstance, shuffle: bool = False) -> list[int]:
    """Drop ceil(alpha * assigned) users of x at random and repack the freed set.

    With ``shuffle`` the freed users are repacked in random order instead of
    density order; the search uses this to diversify once its fingerprint
    memory reports that the usual completion revisits known configurations.
    """
    kept = list(x)
    assigned = [u for u in range(inst.n) if kept[u] >= 0]
    if assigned:
        k = min(len(assigned), max(1, math.ceil(alpha * len(assigned))))
        for u in rng.sample(assigned, k):
            kept[u] = -1
    return greedy_bin_packing(inst, kept, rng if shuffle else None)


def _descend(x: Sequence[int], inst: QmkpInstance) -> list[int]:
    """First-improvement descent: relocate users and swap assigned/unassigned.

    Users are scanned in id order so the descent is deterministic, and every
    accepted move strictly increases the objective, which guarantees
    termination.
    """
    q = inst.quality.q
    n, m = inst.n, inst.m
    caps = [int(c) for c in inst.capacity]
    allowed = inst.allowed
    x = list(x)
    # x's users on each worker in id order: the index the gain sums take
    members = [[u for u in range(n) if x[u] == j] for j in range(m)]

    # the zero diagonal makes q[i, members-including-i] equal the co-member sum
    improved = True
    while improved:
        improved = False
        for i in range(n):
            ji = x[i]
            cur = float(q[i, members[ji]].sum()) if ji >= 0 else 0.0
            # relocate i to any worker with room
            for j in range(m):
                if j == ji or len(members[j]) >= caps[j] or not allowed[i, j]:
                    continue
                if float(q[i, members[j]].sum()) > cur + 1e-12:
                    if ji >= 0:
                        members[ji].remove(i)
                    x[i] = j
                    members[j].append(i)
                    members[j].sort()
                    improved = True
                    break
            if improved or ji < 0:
                continue
            # replace i by the lowest-id unassigned user that beats it
            rest = [k for k in members[ji] if k != i]
            if not rest:
                continue
            for u in range(n):
                if x[u] >= 0 or not allowed[u, ji]:
                    continue
                if float(q[u, rest].sum()) > cur + 1e-12:
                    x[i], x[u] = -1, ji
                    members[ji].remove(i)
                    members[ji].append(u)
                    members[ji].sort()
                    improved = True
                    break
    return x


def solve_heuristic(inst: QmkpInstance, solver: SolverSection, seed: int) -> Solution:
    """Greedy construction refined by seeded fix-and-complete perturbations.

    Reads ``alpha``, ``max_iters`` and ``patience`` from the solver section.
    """
    rng = random.Random(seed)
    q = inst.quality

    def score(x: Sequence[int]) -> float:
        return evaluate_objective(Assignment.from_key(x), q)

    current = greedy_bin_packing(inst)
    best = current
    best_obj = score(current)
    trajectory = [best_obj]
    # every pair summed in the canonical order: with q >= 0 and rounding
    # monotone, any assignment sums a subsequence of these terms and cannot
    # exceed this value, so reaching it proves the best is maximal
    ceiling = score([0] * inst.n)

    # each iteration adds at most one fingerprint, so max_iters bounds the memory
    seen: set[tuple[int, ...]] = {tuple(current)}
    no_improve = 0
    iters = 0
    for _ in range(solver.max_iters):
        if best_obj >= ceiling:
            break
        iters += 1
        # reactive radius: stagnation widens the drop fraction so the
        # walk can leave basins the base perturbation cannot escape
        alpha = min(0.95, solver.alpha * (1.0 + no_improve / 20.0))
        # the fingerprint memory tracks raw completions so the walk keeps
        # exploring; on a hit, perturb again with shuffled completions
        raw = fix_and_complete(current, alpha, rng, inst)
        fp = tuple(raw)
        for _retry in range(8):
            if fp not in seen:
                break
            raw = fix_and_complete(current, alpha, rng, inst, shuffle=True)
            fp = tuple(raw)
        current = raw
        improved = False
        if fp not in seen:
            seen.add(fp)
            cand = _descend(raw, inst)
            val = score(cand)
            if val > best_obj:
                best, best_obj = cand, val
                improved = True
        trajectory.append(best_obj)
        no_improve = 0 if improved else no_improve + 1
        if no_improve >= solver.patience:
            break
        if rng.random() < 0.5:
            current = best

    final = repair_min_pair(Assignment.from_key(best))
    return Solution(
        assignment=final,
        objective=evaluate_objective(final, q),
        iterations=iters,
        trajectory=tuple(trajectory),
    )
