import dataclasses

import numpy as np
import pytest

from qcpto.config import SolverSection
from qcpto.geometry import QualityMatrix
from qcpto.model import Assignment
from qcpto.qmkp import check_feasible, enumerate_optimal, evaluate_objective, random_instance
from qcpto.sim import make_synthetic_instance
from qcpto.solve_exact import solve_exact
from qcpto.solve_heur import solve_heuristic

from oracles import bare_instance, users_of


def quality(entries, n):
    q = np.zeros((n, n))
    for (i, k), v in entries.items():
        q[i, k] = q[k, i] = v
    return QualityMatrix(q)


def test_two_users_one_worker():
    inst = bare_instance(quality({(0, 1): 0.5}, 2), capacity=(2.0,))
    sol = solve_exact(inst)
    assert sol.objective == pytest.approx(0.5)
    assert users_of(sol.assignment, 0) == (0, 1)
    assert check_feasible(sol.assignment, inst)[0] and not sol.budget_exceeded


def test_three_users_capacity_two_picks_best_pair():
    inst = bare_instance(
        quality({(0, 1): 0.9, (0, 2): 0.2, (1, 2): 0.1}, 3), capacity=(2.0,))
    sol = solve_exact(inst)
    assert sol.objective == pytest.approx(0.9)
    assert users_of(sol.assignment, 0) == (0, 1)
    assert sol.assignment.worker_of(2) is None


def test_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(60):
        inst = random_instance(rng)
        assert solve_exact(inst).objective == enumerate_optimal(inst).objective


def test_solution_objective_matches_reevaluation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        inst = random_instance(rng)
        sol = solve_exact(inst)
        assert sol.objective == pytest.approx(
            evaluate_objective(sol.assignment, inst.quality), abs=1e-9)
        assert check_feasible(sol.assignment, inst)[0]


def test_scaling_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        inst = random_instance(rng)
        sol = solve_exact(inst)
        scaled = bare_instance(QualityMatrix(inst.quality.q * 0.5), inst.capacity)
        half = solve_exact(scaled)
        assert half.objective == pytest.approx(0.5 * sol.objective, abs=1e-9)
        assert half.assignment == sol.assignment


def test_isolated_user_does_not_change_objective():
    rng = np.random.default_rng(31)
    for _ in range(20):
        inst = random_instance(rng, max_n=8)
        base = solve_exact(inst).objective
        n = inst.n
        q = np.zeros((n + 1, n + 1))
        q[:n, :n] = inst.quality.q
        grown = bare_instance(QualityMatrix(q), inst.capacity)
        assert solve_exact(grown).objective == pytest.approx(base, abs=1e-12)


def test_unassigned_preferred_for_zero_gain_users():
    # second worker would host the pairless user alone; it must stay out
    inst = bare_instance(quality({(0, 1): 0.5}, 3), capacity=(2.0, 2.0))
    sol = solve_exact(inst)
    assert sol.assignment.worker_of(2) is None


def test_budget_flag_and_best_so_far():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, max_n=10, max_m=3)
    sol = solve_exact(inst, budget=5)
    assert sol.budget_exceeded
    assert check_feasible(sol.assignment, inst)[0]
    assert sol.objective >= 0.0


def test_budget_must_be_positive():
    inst = bare_instance(quality({}, 2), capacity=(2.0,))
    with pytest.raises(ValueError):
        solve_exact(inst, budget=0)


def test_allowed_mask_respected():
    q = quality({(0, 1): 0.9, (0, 2): 0.5, (1, 2): 0.4}, 3)
    allowed = np.array([[True], [False], [True]])
    inst = bare_instance(q, capacity=(3.0,), allowed=allowed)
    sol = solve_exact(inst)
    assert sol.objective == pytest.approx(0.5)
    assert sol.assignment.worker_of(1) is None


def test_deterministic_tie_break_is_lexicographic():
    # two identical workers: the pair must land on worker 0
    inst = bare_instance(quality({(0, 1): 0.5}, 2), capacity=(2.0, 2.0))
    sol = solve_exact(inst)
    assert sol.assignment.key(2) == (0, 0)


def symmetric_instance(rng, split):
    """Workers drawn from two capacities, so most of them have a twin.

    About 30% of the pairs gain nothing, which makes ties common; ``split``
    clears one eligibility entry, which splits a worker from its class.
    """
    n = int(rng.integers(3, 8))
    m = int(rng.integers(2, 5))
    upper = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) >= 0.3)
    q = np.triu(upper, 1)
    caps = tuple(int(c) for c in rng.choice([2, 3], size=m))
    allowed = None
    if split:
        allowed = np.ones((n, m), dtype=bool)
        allowed[rng.integers(n), rng.integers(m)] = False
    return bare_instance(QualityMatrix(q + q.T), caps, allowed=allowed)


def test_interchangeable_workers_resolve_to_the_enumerated_assignment():
    # the search opens one worker per class; the answer must still be the
    # lexicographically smallest optimum over all workers, as enumeration finds
    rng = np.random.default_rng(17)
    for idx in range(80):
        inst = symmetric_instance(rng, split=idx % 2 == 1)
        sol = solve_exact(inst)
        assert not sol.budget_exceeded
        assert sol.assignment == enumerate_optimal(inst).assignment, idx


def test_twin_workers_split_by_eligibility_are_both_searched():
    # worker 1 has worker 0's capacity, but only worker 1 may host user 2;
    # the greedy start reaches only 0.1
    inst = bare_instance(
        quality({(0, 1): 0.3, (0, 2): 0.3, (0, 3): 0.1, (2, 3): 0.5}, 4),
        capacity=(2.0, 2.0),
        allowed=np.array([[True, True], [True, True], [False, True], [True, True]]))
    sol = solve_exact(inst)
    assert sol.assignment.key(4) == (0, 0, 1, 1)
    assert sol.objective == pytest.approx(0.8)


@pytest.mark.parametrize("seed", [0, 1])
def test_certifies_a_24_user_queue(seed):
    # the predecessor bound and the one-worker-per-class rule finish this
    # search well inside the default budget; it ends at the heuristic's best
    inst = make_synthetic_instance(24, seed)
    sol = solve_exact(inst)
    assert not sol.budget_exceeded
    heuristic = max(solve_heuristic(inst, SolverSection(), s).objective for s in range(4))
    assert sol.objective == heuristic


def worker_classes(inst):
    """Workers grouped by (capacity, eligibility column), as the search groups them."""
    classes = {}
    for j in range(inst.m):
        classes.setdefault((inst.capacity[j], inst.allowed[:, j].tobytes()), []).append(j)
    return list(classes.values())


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relabelling_workers_in_a_class_or_users_keeps_the_answer(n, seed):
    inst = make_synthetic_instance(n, seed)
    sol = solve_exact(inst)
    assert not sol.budget_exceeded

    # workers of one class trade places, each taking its cpu, transmit and
    # distance columns: the answer must not move
    cols = np.arange(inst.m)
    classes = worker_classes(inst)
    assert max(len(c) for c in classes) > 1
    for members in classes:
        cols[members] = np.roll(members, 1)
    moved = dataclasses.replace(inst, cpu=inst.cpu[cols], transmit=inst.transmit[:, cols],
                                distance=inst.distance[:, cols])
    sol_w = solve_exact(moved)
    assert not sol_w.budget_exceeded
    assert sol_w.assignment == sol.assignment and sol_w.objective == sol.objective

    # new user a is old user perm[a]: the optimum keeps its value, and the
    # answer mapped back scores the same on the original instance
    perm = np.random.default_rng(seed).permutation(n)
    q = inst.quality.q[np.ix_(perm, perm)]
    relabelled = dataclasses.replace(
        inst, quality=QualityMatrix(q), allowed=inst.allowed[perm],
        distance=inst.distance[perm], transmit=inst.transmit[perm])
    sol_u = solve_exact(relabelled)
    assert not sol_u.budget_exceeded
    assert sol_u.objective == pytest.approx(sol.objective, abs=1e-12, rel=0)
    back = Assignment({int(perm[a]): w for a, w in sol_u.assignment.items()})
    assert check_feasible(back, inst)[0]
    assert evaluate_objective(back, inst.quality) == pytest.approx(
        sol.objective, abs=1e-12, rel=0)
