"""Exact solver: depth-first branch and bound over user placements.

Users are branched in decreasing order of total pairwise quality; each node
either places the next user on a worker with residual capacity or leaves it
unassigned. The search credits a user only with gains toward users branched
before it, so the admissible bound adds, for every undecided user, its
largest max_cap-1 gains toward its predecessors in the branching order (a
user admitted to a worker can meet at most capacity-1 co-residents, all
placed earlier). Workers with the same capacity and the same eligibility
column are interchangeable: a user opens only the lowest-index empty worker
of each such class. Leaves violating the two-user minimum are rejected. A
leaf that ties or beats the incumbent is first relabelled to the
lexicographically smallest of its class permutations, so ties resolve to
the lexicographically smallest assignment vector, with "unassigned" ordered
before any worker so that users contributing nothing stay out of the system.
"""
from __future__ import annotations

from .model import Assignment
from .qmkp import QmkpInstance, Solution, evaluate_objective, repair_min_pair
from .solve_heur import greedy_bin_packing

BOUND_SLACK = 1e-9


def _suffix_bound(q, order, caps) -> list[float]:
    """``bound[t]``: the most the users ``order[t:]`` can still add to the objective.

    The user at branching position s gains only toward co-residents placed
    before it, at most max_cap-1 of ``order[:s]``, so its term is the sum of
    its largest max_cap-1 values of ``q[order[s], order[:s]]``.
    """
    n = len(order)
    top = max(max(caps, default=0) - 1, 0)
    bound = [0.0] * (n + 1)
    for t in range(n - 1, -1, -1):
        row = sorted((float(q[order[t], k]) for k in order[:t]), reverse=True)
        bound[t] = bound[t + 1] + sum(row[:top])
    return bound


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
    allowed = inst.allowed
    order = sorted(range(n), key=lambda i: (-float(q[i].sum()), i))
    suffix = _suffix_bound(q, order, caps)

    # workers of one capacity and one eligibility column are interchangeable
    classes: dict[tuple, list[int]] = {}
    for j in range(m):
        classes.setdefault((caps[j], tuple(allowed[:, j].tolist())), []).append(j)
    class_of: list[list[int]] = [[] for _ in range(m)]
    # the next lower worker of j's class; the empty workers of a class stay a
    # suffix of its indices, so an empty j opens only while this twin is in use
    twin = [-1] * m
    for workers in classes.values():
        for k, j in enumerate(workers):
            class_of[j] = workers
            twin[j] = workers[k - 1] if k else -1

    # incumbent warm start: the greedy packing, repaired
    warm = repair_min_pair(Assignment.from_key(greedy_bin_packing(inst)))
    best_assignment = warm
    best_obj = evaluate_objective(warm, inst.quality)
    best_key = warm.key(n)
    empty_key = Assignment.empty().key(n)
    if best_obj <= 0.0 and empty_key < best_key:
        best_assignment, best_obj, best_key = Assignment.empty(), 0.0, empty_key

    x = [-1] * n  # the worker vector of the current node
    counts = [0] * m
    # per-worker co-residents in placement order, the order gains are summed in
    members: list[list[int]] = [[] for _ in range(m)]
    state = {"nodes": 0, "exceeded": False}

    def lex_smallest_image() -> list[int]:
        """``x`` with each class's used workers renamed to that class's lowest
        indices, in order of first use by user id."""
        rename: dict[int, int] = {}
        opened = [0] * m  # per class, indexed by its lowest worker
        for j in x:
            if j >= 0 and j not in rename:
                workers = class_of[j]
                rename[j] = workers[opened[workers[0]]]
                opened[workers[0]] += 1
        return [rename.get(j, -1) for j in x]

    def consider_leaf(obj_inc: float) -> None:
        nonlocal best_assignment, best_obj, best_key
        if any(c == 1 for c in counts):
            return
        if obj_inc < best_obj - BOUND_SLACK:
            return
        image = lex_smallest_image()
        cand = Assignment.from_key(image)
        val = evaluate_objective(cand, inst.quality)
        key = tuple(image)
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
            if counts[j] == 0 and twin[j] >= 0 and counts[twin[j]] == 0:
                continue  # a lower empty twin stands for this worker
            if counts[j] < caps[j] and allowed[u, j]:
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
    return Solution(
        assignment=best_assignment,
        objective=best_obj,
        nodes=state["nodes"],
        budget_exceeded=state["exceeded"],
    )
