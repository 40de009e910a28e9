import dataclasses

import numpy as np
import pytest

from qcpto.geometry import QualityMatrix
from qcpto.model import Assignment
from qcpto.qmkp import (check_feasible, enumerate_optimal, evaluate_objective,
                        instance_to_json, random_instance, repair_deadline,
                        repair_min_pair)
from qcpto.sim import make_synthetic_instance

from oracles import bare_instance, instance_from_json, users_of


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
    inst = bare_instance(quality({}, 2), capacity=(3.0,))
    ok, violations = check_feasible(Assignment({0: 0}), inst)
    assert not ok and "single user" in violations[0]
    assert check_feasible(Assignment({0: 0, 1: 0}), inst)[0]
    assert check_feasible(Assignment.empty(), inst)[0]


def test_check_feasible_capacity():
    inst = bare_instance(quality({}, 3), capacity=(2.0,))
    ok, violations = check_feasible(Assignment({0: 0, 1: 0, 2: 0}), inst)
    assert not ok and "capacity" in violations[0]


def test_check_feasible_allowed_mask():
    allowed = np.array([[True], [False]])
    inst = bare_instance(quality({}, 2), capacity=(2.0,), allowed=allowed)
    ok, violations = check_feasible(Assignment({0: 0, 1: 0}), inst)
    assert not ok and "not eligible" in violations[0]


def test_check_feasible_strict_deadline():
    inst = bare_instance(
        quality({(0, 1): 1.0}, 2), capacity=(2.0,),
        workload=0.3e9, cpu=np.full(1, 2e9), transmit=np.array([[0.02], [0.12]]),
        kappa=0.4)
    a = Assignment({0: 0, 1: 0})
    assert check_feasible(a, inst)[0]
    ok, violations = check_feasible(a, inst, strict_deadline=True)
    assert violations == ["user 1 response time 0.420000 s exceeds deadline 0.4 s"]


@pytest.mark.parametrize("strict", [False, True])
def test_check_feasible_reports_unknown_ids_once(strict):
    # a row naming a user or worker outside the instance is reported once,
    # and its eligibility and deadline go unread: worker -1 must not be read
    # as the last worker, which no user may join here
    synthetic = make_synthetic_instance(6, 0)
    allowed = np.ones_like(synthetic.allowed)
    allowed[:, -1] = False
    inst = dataclasses.replace(synthetic, allowed=allowed)
    n, m = inst.n, inst.m
    for a, want in [
        (Assignment({2: 0, 3: 0, 0: m, 1: m}), [f"worker {m} does not exist"]),
        (Assignment({2: 0, 3: 0, n: 0}), [f"user {n} does not exist"]),
        (Assignment({2: 0, 3: 0, 0: -1, 1: -1}), ["worker -1 does not exist"]),
    ]:
        ok, violations = check_feasible(a, inst, strict_deadline=strict)
        assert not ok and violations == want, (a.items(), violations)


def test_repair_min_pair_evicts_singletons():
    a = Assignment({0: 0, 1: 0, 2: 1})
    fixed = repair_min_pair(a)
    assert users_of(fixed, 0) == (0, 1) and fixed.worker_of(2) is None


def test_repair_deadline_evicts_lowest_contribution():
    # three users on one worker push compute time over the deadline; the
    # weakest contributor goes first
    inst = bare_instance(
        quality({(0, 1): 1.0, (0, 2): 0.1, (1, 2): 0.1}, 3), capacity=(3.0,),
        workload=0.24e9, cpu=np.full(1, 2e9), transmit=np.zeros((3, 1)), kappa=0.3)
    a = Assignment({0: 0, 1: 0, 2: 0})  # t = 0.36 each at eta=3
    fixed = repair_deadline(a, inst)
    assert users_of(fixed, 0) == (0, 1)
    assert check_feasible(fixed, inst, strict_deadline=True)[0]


@pytest.mark.parametrize("entries,kept", [
    # every user contributes 1.0: the lowest id of all goes
    ({(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}, (1, 2)),
    # user 0 contributes 2.0, users 1 and 2 tie at 1.0: the lower of those goes
    ({(0, 1): 1.0, (0, 2): 1.0}, (0, 2)),
])
def test_repair_deadline_breaks_contribution_ties_by_lowest_id(entries, kept):
    # same task as above: all three users miss the deadline at eta=3, none at 2
    inst = bare_instance(
        quality(entries, 3), capacity=(3.0,),
        workload=0.24e9, cpu=np.full(1, 2e9), transmit=np.zeros((3, 1)), kappa=0.3)
    fixed = repair_deadline(Assignment({0: 0, 1: 0, 2: 0}), inst)
    assert users_of(fixed, 0) == kept


def test_instance_json_round_trip():
    # an oracle instance, and a pipeline one with a checkerboard eligibility mask
    synthetic = make_synthetic_instance(9, 2)
    checkerboard = np.indices(synthetic.allowed.shape).sum(axis=0) % 2 == 0
    for inst in (random_instance(np.random.default_rng(5)),
                 dataclasses.replace(synthetic, allowed=checkerboard)):
        back = instance_from_json(instance_to_json(inst))
        assert back.n == inst.n and back.m == inst.m
        assert np.array_equal(back.quality.q, inst.quality.q)
        assert back.capacity == inst.capacity
        for name in ("allowed", "distance", "cpu", "transmit"):
            got, want = getattr(back, name), getattr(inst, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert (back.workload, back.kappa) == (inst.workload, inst.kappa)


def test_enumerate_optimal_hand_instance():
    # one worker of capacity two: the best pair wins
    q = quality({(0, 1): 0.9, (0, 2): 0.2, (1, 2): 0.1}, 3)
    inst = bare_instance(q, capacity=(2.0,))
    sol = enumerate_optimal(inst)
    assert sol.objective == pytest.approx(0.9)
    assert users_of(sol.assignment, 0) == (0, 1)


def test_enumerate_optimal_infeasible_pairs_leave_empty():
    inst = bare_instance(quality({(0, 1): 0.9}, 2), capacity=(1.0, 1.0))
    sol = enumerate_optimal(inst)
    assert sol.objective == 0.0
    assert len(sol.assignment) == 0


def test_enumerate_respects_allowed_mask():
    q = quality({(0, 1): 0.9, (0, 2): 0.5, (1, 2): 0.4}, 3)
    allowed = np.array([[True], [False], [True]])
    inst = bare_instance(q, capacity=(3.0,), allowed=allowed)
    sol = enumerate_optimal(inst)
    assert sol.objective == pytest.approx(0.5)
    assert users_of(sol.assignment, 0) == (0, 2)
