import hashlib
import math
import random

import numpy as np
import pytest

from qcpto.config import SolverSection
from qcpto.geometry import QualityMatrix
from qcpto.model import Assignment
from qcpto.qmkp import (check_feasible, enumerate_optimal, evaluate_objective,
                        random_instance, repair_min_pair)
from qcpto.solve_exact import solve_exact
from qcpto.solve_heur import (_descend, fix_and_complete, greedy_bin_packing,
                              solve_heuristic)

from oracles import bare_instance


def quality(entries, n):
    q = np.zeros((n, n))
    for (i, k), v in entries.items():
        q[i, k] = q[k, i] = v
    return QualityMatrix(q)


def test_contribution_cases():
    # from scratch, free users go by full potential sum(q_ik), ties to the
    # lowest id: 0 (1.1) and 1 (0.9) before 2 (0.4)
    inst = bare_instance(
        quality({(0, 1): 0.8, (0, 2): 0.3, (1, 2): 0.1}, 3), capacity=(2.0,))
    assert greedy_bin_packing(inst) == [0, 0, -1]
    # completing a vector, they go by affinity toward the placed users: 3
    # (0.3) takes the last seat before 2 (0.1, full potential 1.0) and 4 (0.0)
    inst = bare_instance(quality({(0, 3): 0.3, (0, 2): 0.1, (2, 4): 0.9}, 5),
                         capacity=(3.0,))
    x = [0, 0, -1, -1, -1]
    assert greedy_bin_packing(inst, x) == [0, 0, -1, 0, -1]
    assert x == [0, 0, -1, -1, -1]  # the input vector is left as it was


def test_density_cases():
    # equal contributions (0.5) are ranked by response time on the top worker
    q = quality({(0, 1): 0.5, (0, 2): 0.5}, 3)

    def inst(transmit):
        return bare_instance(q, capacity=(2.0,), transmit=np.array(transmit)[:, None])

    assert greedy_bin_packing(bare_instance(q, capacity=(2.0,))) == [0, 0, -1]
    # densities 1.0/0.1, 0.5/0.2 and 0.5/0.1: user 2 is faster than user 1
    assert greedy_bin_packing(inst([0.1, 0.2, 0.1])) == [0, -1, 0]
    # a zero response time counts as zero density, not as a division
    assert greedy_bin_packing(inst([0.1, 0.2, 0.0])) == [0, 0, -1]


def test_density_ordering_invariant_under_scaling():
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = random_instance(rng, max_n=8)
        scaled = bare_instance(QualityMatrix(inst.quality.q * 0.25), inst.capacity)
        assert greedy_bin_packing(scaled) == greedy_bin_packing(inst)


def test_greedy_packs_pair_on_single_worker():
    inst = bare_instance(quality({(0, 1): 0.8}, 2), capacity=(2.0,))
    assert greedy_bin_packing(inst) == [0, 0]


def test_greedy_three_users_capacity_two():
    # densities (full potential): u0=1.1, u1=0.9, u2=0.4 -> u0, u1 packed
    inst = bare_instance(
        quality({(0, 1): 0.8, (0, 2): 0.3, (1, 2): 0.1}, 3), capacity=(2.0,))
    assert greedy_bin_packing(inst) == [0, 0, -1]


def test_greedy_zero_capacity():
    inst = bare_instance(quality({(0, 1): 0.8}, 2), capacity=(0.0, 0.0))
    assert greedy_bin_packing(inst) == [-1, -1]


def test_greedy_fills_largest_worker_first():
    inst = bare_instance(
        quality({(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}, 3),
        capacity=(1.0, 3.0))
    assert greedy_bin_packing(inst) == [1, 1, 1]


def test_descend_swaps_in_a_better_unassigned_user():
    # the one worker is full, so no relocation applies; swapping user 1 out
    # for the unassigned user 2 raises the objective from 0.1 to 0.5
    inst = bare_instance(quality({(0, 1): 0.1, (0, 2): 0.5}, 3), capacity=(2.0,))
    assert _descend([0, 0, -1], inst) == [0, -1, 0]


def test_fix_and_complete_always_drops_at_least_one():
    # with alpha near zero one user is still freed; the repack puts it on the
    # worker with the most room left, so it never lands back where it was
    inst = bare_instance(quality({(0, 1): 0.8}, 2), capacity=(2.0, 2.0))
    rng = random.Random(0)
    for shuffle in (False, True):
        moved = {tuple(fix_and_complete([1, 1], 0.01, rng, inst, shuffle))
                 for _ in range(10)}
        assert moved == {(0, 1), (1, 0)}


def test_fix_and_complete_empty_solution_builds_greedy():
    inst = bare_instance(quality({(0, 1): 0.8}, 2), capacity=(2.0,))
    rng = random.Random(1)
    cand = fix_and_complete([-1, -1], 0.3, rng, inst)
    assert cand == greedy_bin_packing(inst)


def test_fix_and_complete_is_seed_reproducible():
    rng = np.random.default_rng(9)
    inst = random_instance(rng, max_n=8)
    s = greedy_bin_packing(inst)
    a = fix_and_complete(s, 0.4, random.Random(5), inst)
    b = fix_and_complete(s, 0.4, random.Random(5), inst)
    assert a == b


def test_heuristic_solves_trivial_instance_exactly():
    inst = bare_instance(quality({(0, 1): 0.5}, 2), capacity=(2.0,))
    sol = solve_heuristic(inst, SolverSection(), 0)
    assert sol.objective == pytest.approx(0.5)


def test_heuristic_trajectory_is_monotone():
    rng = np.random.default_rng(13)
    for s in range(10):
        inst = random_instance(rng)
        sol = solve_heuristic(inst, SolverSection(), s)
        traj = sol.trajectory
        assert all(a <= b for a, b in zip(traj, traj[1:]))


def test_heuristic_always_feasible():
    rng = np.random.default_rng(29)
    for s in range(30):
        inst = random_instance(rng)
        sol = solve_heuristic(inst, SolverSection(), s)
        ok, violations = check_feasible(sol.assignment, inst)
        assert ok, violations


def test_heuristic_deterministic_for_fixed_seed():
    rng = np.random.default_rng(37)
    inst = random_instance(rng)
    a = solve_heuristic(inst, SolverSection(), 4)
    b = solve_heuristic(inst, SolverSection(), 4)
    assert a.assignment == b.assignment
    assert a.objective == b.objective
    assert a.trajectory == b.trajectory


def test_heuristic_zero_iterations_equals_greedy():
    rng = np.random.default_rng(41)
    inst = random_instance(rng)
    sol = solve_heuristic(inst, SolverSection(max_iters=0), 0)
    assert sol.assignment == repair_min_pair(Assignment.from_key(greedy_bin_packing(inst)))


def test_heuristic_never_beats_exact():
    rng = np.random.default_rng(43)
    for s in range(30):
        inst = random_instance(rng)
        exact = solve_exact(inst)
        assert not exact.budget_exceeded
        heur = solve_heuristic(inst, SolverSection(), s)
        assert heur.objective <= exact.objective + 1e-9


def test_heuristic_gap_small_on_random_corpus():
    rng = np.random.default_rng(47)
    gaps = []
    for s in range(30):
        inst = random_instance(rng)
        opt = enumerate_optimal(inst).objective
        heur = solve_heuristic(inst, SolverSection(), s).objective
        gaps.append((opt - heur) / opt if opt > 0 else 0.0)
    assert np.mean(gaps) <= 0.05
    assert max(gaps) <= 0.15


def all_on_one(inst):
    return evaluate_objective(Assignment({u: 0 for u in range(inst.n)}), inst.quality)


def test_heuristic_stops_at_once_for_a_single_user():
    inst = bare_instance(quality({}, 1), capacity=(2.0,))
    sol = solve_heuristic(inst, SolverSection(), 0)
    assert sol.iterations == 0
    assert sol.objective == all_on_one(inst) == 0.0


def test_heuristic_stops_at_once_when_one_worker_holds_the_queue():
    rng = np.random.default_rng(53)
    for s in range(10):
        n = int(rng.integers(2, 9))
        upper = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
        caps = (float(rng.integers(0, n + 1)), float(n), float(rng.integers(0, n + 1)))
        inst = bare_instance(QualityMatrix(upper + upper.T), capacity=caps,
                             allowed=np.ones((n, 3), dtype=bool))
        sol = solve_heuristic(inst, SolverSection(), s)
        assert sol.iterations == 0
        assert sol.trajectory == (sol.objective,)
        assert sol.objective == all_on_one(inst)


def test_heuristic_searches_on_when_the_ceiling_is_out_of_reach():
    inst = bare_instance(
        quality({(0, 1): 0.8, (0, 2): 0.3, (1, 2): 0.1}, 3), capacity=(2.0,))
    cfg = SolverSection()
    sol = solve_heuristic(inst, cfg, 0)
    assert sol.objective == pytest.approx(0.8) and sol.objective < all_on_one(inst)
    assert sol.iterations >= cfg.patience


def test_heuristic_stops_only_at_the_exact_all_pairs_sum():
    # 1 + t rounds up by one ulp, so realizing the two tiny pairs lifts the
    # total from 2.0 to the next float; a ceiling one ulp low would accept
    # the non-maximal 2.0 that the search passes through on some seeds
    t = 1.2e-16
    inst = bare_instance(
        quality({(0, 1): 1.0, (0, 2): t, (1, 2): t, (3, 4): 1.0}, 5),
        capacity=(3.0, 2.0))
    ceiling = all_on_one(inst)
    assert ceiling == math.nextafter(2.0, 3.0)
    for s in range(10):
        sol = solve_heuristic(inst, SolverSection(), s)
        assert sol.objective == ceiling
        # the search ends at the first iteration whose best reaches it
        assert sol.trajectory.index(ceiling) == sol.iterations


# sha256 of (assignment.key(n), repr(objective)) over the corpus below,
# recorded before the search stopped at the all-pairs ceiling: the stop skips
# only iterations that cannot change the result, so the digest must hold
HEUR_CORPUS_DIGEST = "21731485abe1600f8ac53dd7fe6bd0457aa33d832a14b062eacbff2048b998a7"


def test_heuristic_outputs_match_the_pinned_digest():
    h = hashlib.sha256()
    for corpus_seed in range(4):
        rng = np.random.default_rng(corpus_seed)
        for s in range(25):
            inst = random_instance(rng)
            sol = solve_heuristic(inst, SolverSection(), s)
            h.update(repr((sol.assignment.key(inst.n), repr(sol.objective))).encode())
    assert h.hexdigest() == HEUR_CORPUS_DIGEST

