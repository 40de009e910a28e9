"""Heuristic solver: greedy bin packing plus fix-and-complete reactive search.

Construction sorts users by density (contribution over response time; plain
contribution when the instance carries no latency data) and first-fits them
onto workers ranked once by capacity, filling the largest worker before
opening the next. The search loop then repeatedly drops a random fraction of
the assigned users, repacks the freed ones, polishes each new configuration
with a deterministic relocate/swap descent, keeps the best solution seen,
and resets the incumbent to the best with probability one half. A bounded
fingerprint memory prevents re-visiting configurations: hits trigger
shuffled re-completions, and sustained stagnation widens the drop fraction.
The search stops after ``patience`` iterations without improvement, or as
soon as the best solution realizes every pair: no assignment can score more
than all users on one worker, so that sum is a ceiling the search can reach
but never pass. The returned solution passes a min-pair repair (and
optionally a strict deadline repair) so it is always feasible.
"""
from __future__ import annotations

import math
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .model import Assignment
from .qmkp import (QmkpInstance, Solution, evaluate_objective, repair_deadline,
                   repair_min_pair)


@dataclass(frozen=True)
class HeurConfig:
    alpha: float = 0.3            # fraction of assigned users dropped per perturbation
    max_iters: int = 500
    patience: int = 100           # iterations without improvement before stopping
                                  # (the search also stops once the best solution
                                  # realizes every pair)
    seed: int = 0
    regen_alpha_each_iter: bool = False
    memory_capacity: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


def contribution(i: int, s: Assignment, quality) -> float:
    """Pairwise quality user i realizes in s.

    For a user not (yet) assigned this is its affinity toward the users
    already placed, so density sorts track the partial solution being
    completed; over an empty solution it falls back to the full potential
    sum(q_ik), which keeps the initial sort meaningful.
    """
    q = quality.q if hasattr(quality, "q") else np.asarray(quality)
    j = s.worker_of(i)
    if j is not None:
        return sum(float(q[i, k]) for k in s.users_of(j) if k != i)
    assigned = s.assigned_users()
    if not assigned:
        return float(q[i].sum())
    return sum(float(q[i, k]) for k in assigned if k != i)


def density(i: int, s: Assignment, w_j: int, quality, t: float) -> float:
    """Contribution per unit of response time for placing i on worker w_j."""
    if t <= 0:
        raise DomainError(f"response time must be positive, got {t}")
    return contribution(i, s, quality) / t


def _sort_density(inst: QmkpInstance, free_users: Sequence[int],
                  fixed: Assignment, ranked: Sequence[int],
                  eta: dict[int, int]) -> list[int]:
    # densities are computed once against the top-ranked worker, mirroring
    # the single up-front sort of the construction procedure
    target: Optional[int] = ranked[0] if ranked else None
    scored = []
    for i in free_users:
        if inst.has_latency and target is not None:
            t = inst.latency_of(i, target, eta.get(target, 0) + 1)
            d = density(i, fixed, target, inst.quality, t) if t > 0 else 0.0
        else:
            d = contribution(i, fixed, inst.quality)
        scored.append((i, d))
    scored.sort(key=lambda id_d: (-id_d[1], id_d[0]))
    return [i for i, _ in scored]


def _pack(inst: QmkpInstance, order: Sequence[int], residual: list[float],
          fixed: Assignment) -> Assignment:
    # first-fit over workers ranked once by the capacities given at entry
    # (largest first, ties to the lowest id); the frozen order concentrates
    # users, which is what gives co-assigned pairs their profit
    placed = dict(fixed.items())
    ranked = sorted(range(inst.m), key=lambda j: (-residual[j], j))
    for i in order:
        for j in ranked:
            if inst.is_allowed(i, j) and residual[j] >= 1.0:
                placed[i] = j
                residual[j] -= 1.0
                break
    return Assignment(placed)


def greedy_bin_packing(inst: QmkpInstance,
                       free_users: Optional[Sequence[int]] = None,
                       residual_caps: Optional[Sequence[float]] = None,
                       fixed_part: Optional[Assignment] = None) -> Assignment:
    """Pack users in decreasing density order, first fit over ranked workers."""
    fixed = fixed_part if fixed_part is not None else Assignment.empty()
    if free_users is None:
        free_users = [u for u in range(inst.n) if fixed.worker_of(u) is None]
    residual = list(residual_caps) if residual_caps is not None else list(inst.capacity)
    if len(residual) != inst.m:
        raise ValueError("residual capacities must cover every worker")
    ranked = sorted(range(inst.m), key=lambda j: (-residual[j], j))
    order = _sort_density(inst, free_users, fixed, ranked, fixed.eta())
    return _pack(inst, order, residual, fixed)


def fix_and_complete(s: Assignment, alpha: float, rng: random.Random,
                     inst: QmkpInstance, shuffle: bool = False) -> Assignment:
    """Drop ceil(alpha * assigned) users at random and repack the freed set.

    With ``shuffle`` the freed users are repacked in random order instead of
    density order; the search uses this to diversify once its fingerprint
    memory reports that the usual completion revisits known configurations.
    """
    assigned = list(s.assigned_users())
    if assigned:
        k = min(len(assigned), max(1, math.ceil(alpha * len(assigned))))
        dropped = rng.sample(assigned, k)
        kept = s.drop(dropped)
    else:
        kept = s
    eta = kept.eta()
    residual = [inst.capacity[j] - eta.get(j, 0) for j in range(inst.m)]
    free = [u for u in range(inst.n) if kept.worker_of(u) is None]
    if shuffle:
        rng.shuffle(free)
        return _pack(inst, free, residual, kept)
    return greedy_bin_packing(inst, free, residual, kept)


def _descend(a: Assignment, inst: QmkpInstance) -> Assignment:
    """First-improvement descent: relocate users and swap assigned/unassigned.

    Users are scanned in id order so the descent is deterministic, and every
    accepted move strictly increases the objective, which guarantees
    termination.
    """
    q = inst.quality.q
    n, m = inst.n, inst.m
    caps = [int(c) for c in inst.capacity]
    placed = {u: w for u, w in a.items()}
    members = [sorted(u for u, w in placed.items() if w == j) for j in range(m)]

    # the zero diagonal makes q[i, members-including-i] equal the co-member sum
    improved = True
    while improved:
        improved = False
        for i in range(n):
            ji = placed.get(i)
            if ji is not None:
                cur = float(q[i, members[ji]].sum())
            else:
                cur = 0.0
            # relocate i to any worker with room
            for j in range(m):
                if j == ji or len(members[j]) >= caps[j] or not inst.is_allowed(i, j):
                    continue
                if float(q[i, members[j]].sum()) > cur + 1e-12:
                    if ji is not None:
                        members[ji].remove(i)
                    placed[i] = j
                    members[j].append(i)
                    members[j].sort()
                    improved = True
                    break
            if improved or ji is None:
                continue
            # replace i by the lowest-id unassigned user that beats it
            rest = [k for k in members[ji] if k != i]
            if not rest:
                continue
            for u in range(n):
                if u in placed or not inst.is_allowed(u, ji):
                    continue
                if float(q[u, rest].sum()) > cur + 1e-12:
                    del placed[i]
                    members[ji].remove(i)
                    placed[u] = ji
                    members[ji].append(u)
                    members[ji].sort()
                    improved = True
                    break
    return Assignment(placed)


def solve_heuristic(inst: QmkpInstance, cfg: HeurConfig,
                    strict_deadline: bool = False) -> Solution:
    """Greedy construction refined by seeded fix-and-complete perturbations."""
    start = time.perf_counter()
    rng = random.Random(cfg.seed)
    q = inst.quality

    current = greedy_bin_packing(inst)
    best = current
    best_obj = evaluate_objective(current, q)
    trajectory = [best_obj]
    # every pair summed in the canonical order: with q >= 0 and rounding
    # monotone, any assignment sums a subsequence of these terms and cannot
    # exceed this value, so reaching it proves the best is maximal
    ceiling = evaluate_objective(Assignment({u: 0 for u in range(inst.n)}), q)

    seen: set[tuple[int, ...]] = {current.key(inst.n)}
    fifo: deque[tuple[int, ...]] = deque([current.key(inst.n)])
    no_improve = 0
    iters = 0
    for _ in range(cfg.max_iters):
        if best_obj >= ceiling:
            break
        iters += 1
        if cfg.regen_alpha_each_iter:
            alpha = rng.random()
            while alpha == 0.0:
                alpha = rng.random()
        else:
            # reactive radius: stagnation widens the drop fraction so the
            # walk can leave basins the base perturbation cannot escape
            alpha = min(0.95, cfg.alpha * (1.0 + no_improve / 20.0))
        # the fingerprint memory tracks raw completions so the walk keeps
        # exploring; on a hit, perturb again with shuffled completions
        raw = fix_and_complete(current, alpha, rng, inst)
        fp = raw.key(inst.n)
        for _retry in range(8):
            if fp not in seen:
                break
            raw = fix_and_complete(current, alpha, rng, inst, shuffle=True)
            fp = raw.key(inst.n)
        current = raw
        improved = False
        if fp not in seen:
            seen.add(fp)
            fifo.append(fp)
            if len(fifo) > cfg.memory_capacity:
                seen.discard(fifo.popleft())
            cand = _descend(raw, inst)
            val = evaluate_objective(cand, q)
            if val > best_obj:
                best, best_obj = cand, val
                improved = True
        trajectory.append(best_obj)
        no_improve = 0 if improved else no_improve + 1
        if no_improve >= cfg.patience:
            break
        if rng.random() < 0.5:
            current = best

    final = repair_min_pair(best)
    if strict_deadline:
        final = repair_deadline(final, inst)
    return Solution(
        assignment=final,
        objective=evaluate_objective(final, q),
        feasible=True,
        iterations=iters,
        wall_time_s=time.perf_counter() - start,
        trajectory=tuple(trajectory),
    )
