"""Exact solver: depth-first branch and bound over user placements.

Users are branched in decreasing order of total pairwise quality; each node
either places the next user on a worker with residual capacity or leaves it
unassigned. The admissible bound adds, for every undecided user, the sum of
its largest possible pairwise gains (a user admitted to a worker can meet at
most capacity-1 co-residents). Leaves violating the two-user minimum are
rejected. Ties on the objective resolve to the lexicographically smallest
assignment vector, with "unassigned" ordered before any worker so that users
contributing nothing stay out of the system.
"""
from __future__ import annotations

import numpy as np

from .model import Assignment
from .qmkp import (QmkpInstance, Solution, check_feasible, evaluate_objective,
                   repair_min_pair)

BOUND_SLACK = 1e-9


def solve_exact(inst: QmkpInstance, budget: int = 2_000_000) -> Solution:
    """Maximum shared-interest assignment under capacity and min-pair constraints.

    Deterministic. The incumbent starts from the repaired greedy
    construction, which only sharpens pruning; when the node budget is
    exhausted the best solution so far is returned with ``budget_exceeded``
    set.
    """
    if budget <= 0:
        raise ValueError(f"node budget must be positive, got {budget}")
    n, m = inst.n, inst.m
    q = inst.quality.q
    caps = [int(c) for c in inst.capacity]
    order = sorted(range(n), key=lambda i: (-float(q[i].sum()), i))

    max_cap = max(caps, default=0)
    top = min(max(max_cap - 1, 0), max(n - 1, 0))
    opt_gain = np.zeros(n)
    for i in range(n):
        row = np.sort(q[i])[::-1]
        opt_gain[i] = float(row[:top].sum())
    suffix = [0.0] * (n + 1)
    for t in range(n - 1, -1, -1):
        suffix[t] = suffix[t + 1] + float(opt_gain[order[t]])

    from .solve_heur import greedy_bin_packing  # incumbent warm start
    warm = repair_min_pair(Assignment.from_key(greedy_bin_packing(inst)))
    best_assignment = warm
    best_obj = evaluate_objective(warm, q)
    best_key = warm.key(n)
    empty_key = Assignment.empty().key(n)
    if best_obj <= 0.0 and empty_key < best_key:
        best_assignment, best_obj, best_key = Assignment.empty(), 0.0, empty_key

    x = [-1] * n  # the worker vector of the current node
    counts = [0] * m
    # per-worker co-residents in placement order, the order gains are summed in
    members: list[list[int]] = [[] for _ in range(m)]
    state = {"nodes": 0, "exceeded": False}

    def consider_leaf(obj_inc: float) -> None:
        nonlocal best_assignment, best_obj, best_key
        if any(c == 1 for c in counts):
            return
        if obj_inc < best_obj - BOUND_SLACK:
            return
        cand = Assignment.from_key(x)
        val = evaluate_objective(cand, q)
        key = tuple(x)
        if val > best_obj or (val == best_obj and key < best_key):
            best_assignment, best_obj, best_key = cand, val, key

    def dfs(t: int, obj: float) -> None:
        if state["exceeded"]:
            return
        state["nodes"] += 1
        if state["nodes"] > budget:
            state["exceeded"] = True
            return
        if obj + suffix[t] < best_obj - BOUND_SLACK:
            return
        if t == n:
            consider_leaf(obj)
            return
        u = order[t]
        options: list[tuple[float, int]] = []
        for j in range(m):
            if counts[j] < caps[j] and inst.is_allowed(u, j):
                gain = sum(float(q[u, k]) for k in members[j])
                options.append((gain, j))
        options.sort(key=lambda gj: (-gj[0], gj[1]))
        for gain, j in options:
            counts[j] += 1
            members[j].append(u)
            x[u] = j
            dfs(t + 1, obj + gain)
            x[u] = -1
            members[j].pop()
            counts[j] -= 1
            if state["exceeded"]:
                return
        dfs(t + 1, obj)  # leave u unassigned

    dfs(0, 0.0)

    feasible, _ = check_feasible(best_assignment, inst)
    return Solution(
        assignment=best_assignment,
        objective=best_obj,
        feasible=feasible,
        nodes=state["nodes"],
        budget_exceeded=state["exceeded"],
    )
