import numpy as np

from qcpto.baselines import solve_cpto, solve_go
from qcpto.geometry import QualityMatrix
from qcpto.qmkp import evaluate_objective, random_instance, repair_min_pair
from qcpto.solve_exact import solve_exact

from oracles import bare_instance, users_of


def count_instance(n, caps, **task):
    q = np.zeros((n, n))
    return bare_instance(QualityMatrix(q), capacity=tuple(float(c) for c in caps), **task)


def test_go_assigns_all_when_capacity_suffices():
    inst = count_instance(3, [5])
    assert len(solve_go(inst)) == 3


def test_go_zero_capacity_assigns_none():
    inst = count_instance(3, [0, 0])
    assert len(solve_go(inst)) == 0


def test_go_id_order_tie_break():
    inst = count_instance(3, [2])
    a = solve_go(inst)
    assert users_of(a, 0) == (0, 1)
    assert a.worker_of(2) is None


def test_go_prefers_nearest_worker():
    distance = np.array([[5.0, 1.0], [5.0, 1.0]])
    inst = count_instance(2, [2, 2], distance=distance)
    a = solve_go(inst)
    assert users_of(a, 1) == (0, 1)


def test_go_respects_allowed_mask():
    allowed = np.array([[True, False], [False, True]])
    inst = count_instance(2, [2, 2], allowed=allowed)
    a = solve_go(inst)
    assert a.worker_of(0) == 0 and a.worker_of(1) == 1


def test_cpto_uniform_spreading():
    inst = count_instance(4, [4, 4])
    a = solve_cpto(inst)
    assert len(users_of(a, 0)) == 2 and len(users_of(a, 1)) == 2


def test_cpto_count_equals_capacity_sum_when_binding():
    inst = count_instance(6, [2, 1])
    a = solve_cpto(inst)
    assert len(a) == 3


def test_cpto_single_worker_matches_go():
    inst = count_instance(5, [3])
    assert solve_cpto(inst) == solve_go(inst)


def test_cpto_count_dominates_exact_when_capacities_bind():
    rng = np.random.default_rng(59)
    for _ in range(30):
        inst = random_instance(rng)
        if sum(inst.capacity) >= inst.n:
            continue
        cpto_count = len(solve_cpto(inst))
        exact_count = len(solve_exact(inst).assignment)
        assert cpto_count >= exact_count


def test_exact_objective_dominates_repaired_baselines():
    rng = np.random.default_rng(61)
    for _ in range(30):
        inst = random_instance(rng)
        best = solve_exact(inst).objective
        for scheme in (solve_go, solve_cpto):
            repaired = repair_min_pair(scheme(inst))
            assert evaluate_objective(repaired, inst.quality) <= best + 1e-9
