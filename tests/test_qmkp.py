import numpy as np
import pytest

from qcpto.errors import DomainError
from qcpto.geometry import QualityMatrix
from qcpto.model import Assignment
from qcpto.qmkp import (QmkpInstance, check_feasible, enumerate_optimal,
                        evaluate_objective, instance_to_json, random_instance,
                        repair_deadline, repair_min_pair)

from oracles import instance_from_json


def quality(entries, n):
    q = np.zeros((n, n))
    for (i, k), v in entries.items():
        q[i, k] = q[k, i] = v
    return QualityMatrix(q)


def test_evaluate_objective_cases():
    q = quality({(0, 1): 0.7, (0, 2): 0.3, (1, 2): 0.2}, 3)
    assert evaluate_objective(Assignment.empty(), q) == 0.0
    assert evaluate_objective(Assignment({0: 0, 1: 0}), q) == pytest.approx(0.7)
    assert evaluate_objective(Assignment({0: 0, 1: 0, 2: 0}), q) == pytest.approx(1.2)
    assert evaluate_objective(Assignment({0: 0, 1: 1}), q) == 0.0


def test_check_feasible_min_pair():
    inst = QmkpInstance(quality({}, 2), capacity=(3.0,))
    ok, violations = check_feasible(Assignment({0: 0}), inst)
    assert not ok and "single user" in violations[0]
    assert check_feasible(Assignment({0: 0, 1: 0}), inst)[0]
    assert check_feasible(Assignment.empty(), inst)[0]


def test_check_feasible_capacity():
    inst = QmkpInstance(quality({}, 3), capacity=(2.0,))
    ok, violations = check_feasible(Assignment({0: 0, 1: 0, 2: 0}), inst)
    assert not ok and "capacity" in violations[0]


def test_check_feasible_allowed_mask():
    allowed = np.array([[True], [False]])
    inst = QmkpInstance(quality({}, 2), capacity=(2.0,), allowed=allowed)
    ok, violations = check_feasible(Assignment({0: 0, 1: 0}), inst)
    assert not ok and "not eligible" in violations[0]


def test_check_feasible_strict_deadline():
    inst = QmkpInstance(
        quality({(0, 1): 1.0}, 2), capacity=(2.0,),
        workload=np.full(2, 0.3e9), cpu=np.full(1, 2e9), transmit=np.full((2, 1), 0.02),
        kappa=np.array([0.4, 0.25]))
    a = Assignment({0: 0, 1: 0})
    assert check_feasible(a, inst)[0]
    ok, violations = check_feasible(a, inst, strict_deadline=True)
    assert not ok and "deadline" in violations[0]  # user 1: 0.32 > 0.25


def test_repair_min_pair_evicts_singletons():
    a = Assignment({0: 0, 1: 0, 2: 1})
    fixed = repair_min_pair(a)
    assert fixed.users_of(0) == (0, 1) and fixed.worker_of(2) is None


def test_repair_deadline_evicts_lowest_contribution():
    # three users on one worker push compute time over the deadline; the
    # weakest contributor goes first
    inst = QmkpInstance(
        quality({(0, 1): 1.0, (0, 2): 0.1, (1, 2): 0.1}, 3), capacity=(3.0,),
        workload=np.full(3, 0.24e9), cpu=np.full(1, 2e9), transmit=np.zeros((3, 1)),
        kappa=np.full(3, 0.3))
    a = Assignment({0: 0, 1: 0, 2: 0})  # t = 0.36 each at eta=3
    fixed = repair_deadline(a, inst)
    assert fixed.users_of(0) == (0, 1)
    assert check_feasible(fixed, inst, strict_deadline=True)[0]


def test_instance_json_round_trip():
    rng = np.random.default_rng(5)
    inst = random_instance(rng)
    back = instance_from_json(instance_to_json(inst))
    assert back.n == inst.n and back.m == inst.m
    assert np.array_equal(back.quality.q, inst.quality.q)
    assert back.capacity == inst.capacity


def test_latency_of_requires_data():
    inst = QmkpInstance(quality({}, 2), capacity=(1.0,))
    with pytest.raises(DomainError):
        inst.latency_of(0, 0, 1)


def test_enumerate_optimal_hand_instance():
    # one worker of capacity two: the best pair wins
    q = quality({(0, 1): 0.9, (0, 2): 0.2, (1, 2): 0.1}, 3)
    inst = QmkpInstance(q, capacity=(2.0,))
    sol = enumerate_optimal(inst)
    assert sol.objective == pytest.approx(0.9)
    assert sol.assignment.users_of(0) == (0, 1)


def test_enumerate_optimal_infeasible_pairs_leave_empty():
    inst = QmkpInstance(quality({(0, 1): 0.9}, 2), capacity=(1.0, 1.0))
    sol = enumerate_optimal(inst)
    assert sol.objective == 0.0
    assert len(sol.assignment) == 0


def test_enumerate_respects_allowed_mask():
    q = quality({(0, 1): 0.9, (0, 2): 0.5, (1, 2): 0.4}, 3)
    allowed = np.array([[True], [False], [True]])
    inst = QmkpInstance(q, capacity=(3.0,), allowed=allowed)
    sol = enumerate_optimal(inst)
    assert sol.objective == pytest.approx(0.5)
    assert sol.assignment.users_of(0) == (0, 2)
