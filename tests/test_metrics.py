import random

import numpy as np
import pytest

from qcpto.errors import EmptyRun
from qcpto.geometry import EpochRasters, GridSpec, build_quality_matrix
from qcpto.metrics import epoch_metrics, run_aggregate
from qcpto.model import Assignment, Roi, Turn, Worker
from qcpto.qmkp import QmkpInstance

GRID = GridSpec(0.0, 0.0, 1.0, 50, 50)
BIG = ((0.0, 0.0), (49.0, 0.0), (25.0, 49.0))          # covers most of the grid
SMALL = ((10.0, 10.0), (14.0, 10.0), (12.0, 14.0))     # small roi well inside BIG
FAR = ((40.0, 40.0), (45.0, 40.0), (42.0, 45.0))       # disjoint from SMALL
WORKERS = [Worker(0, (0.0, 0.0), 2e9, 200.0), Worker(1, (50.0, 50.0), 2e9, 200.0)]


def roi(tri):
    return Roi(triangle=tri, turn=Turn.LEFT)


def score(assignment, rois, fovs, ids, **kwargs):
    """Metrics on the bank and instance of a queue whose ids are its rows."""
    bank = EpochRasters(ids, rois, fovs, GRID)
    shape = (len(ids), len(WORKERS))
    inst = QmkpInstance.from_task(
        build_quality_matrix(bank), cpu=[w.cpu_capacity for w in WORKERS],
        rates=np.full(shape, 1.5e7), workload=2e8, frame_bits=2e5, deadline=0.4,
        allowed=np.ones(shape, dtype=bool), distance=np.zeros(shape))
    return epoch_metrics(0, bank, inst, assignment, [rois[u].turn for u in ids],
                         len(WORKERS), **kwargs)


def test_unassigned_users_score_own_coverage():
    ids = [0, 1]
    rois = {0: roi(SMALL), 1: roi(SMALL)}
    fovs = {0: BIG, 1: FAR}  # user 0 self-covers, user 1 does not
    report = score(Assignment.empty(), rois, fovs, ids, phi=0.35)
    assert report.records[0].awareness == 1.0
    assert report.records[1].awareness == 0.0
    assert report.satisfaction_ratio == 0.5
    assert report.mean_delay == 0.0
    assert report.n_assigned == 0


def test_full_cover_on_one_worker():
    ids = [0, 1]
    rois = {0: roi(SMALL), 1: roi(SMALL)}
    fovs = {0: BIG, 1: BIG}
    a = Assignment({0: 0, 1: 0})
    report = score(a, rois, fovs, ids, phi=0.35)
    assert report.mean_awareness == 1.0
    assert report.satisfaction_ratio == 1.0
    assert report.n_assigned == 2
    # compute 0.2 s at eta=2, transmit 2e5/1.5e7
    assert report.mean_delay == pytest.approx(0.2 + 2e5 / 1.5e7)


def test_perception_intensity_counts_per_deployed_worker():
    ids = list(range(5))
    rois = {i: roi(SMALL) for i in range(5)}
    fovs = {i: BIG for i in range(5)}
    a = Assignment({0: 0, 1: 0, 2: 1, 3: 1, 4: 1})
    report = score(a, rois, fovs, ids)
    assert report.eta == ((0, 2), (1, 3))
    assert report.perception_intensity == pytest.approx(2.5)


def test_empty_queue_is_nan_free():
    report = epoch_metrics(3, None, None, Assignment.empty(), [], len(WORKERS))
    assert report.n_flagged == 0
    assert report.mean_awareness == 0.0
    assert report.satisfaction_ratio == 0.0
    assert report.perception_intensity == 0.0


def test_satisfaction_monotone_in_phi():
    rng = random.Random(71)
    for _ in range(100):
        ids = list(range(4))
        rois = {i: roi(SMALL) for i in range(4)}
        fovs = {i: (BIG if rng.random() < 0.5 else FAR) for i in range(4)}
        a = Assignment({0: 0, 1: 0}) if rng.random() < 0.5 else Assignment.empty()
        ratios = [score(a, rois, fovs, ids, phi=phi).satisfaction_ratio
                  for phi in (0.1, 0.35, 0.6, 0.9)]
        assert all(x >= y for x, y in zip(ratios, ratios[1:]))


def test_aggregates_recomputable_from_records():
    ids = list(range(3))
    rois = {i: roi(SMALL) for i in range(3)}
    fovs = {0: BIG, 1: FAR, 2: BIG}
    a = Assignment({0: 0, 1: 0})
    report = score(a, rois, fovs, ids, phi=0.35)
    assert report.mean_awareness == pytest.approx(
        sum(r.awareness for r in report.records) / 3)
    served = [r for r in report.records if r.worker_id is not None]
    assert report.mean_delay == pytest.approx(
        sum(r.latency_s for r in served) / len(served))
    assert report.satisfaction_ratio == pytest.approx(
        sum(r.satisfied for r in report.records) / 3)


def epoch_with(mean_aware):
    ids = [0]
    rois = {0: roi(SMALL)}
    fovs = {0: BIG if mean_aware else FAR}
    return score(Assignment.empty(), rois, fovs, ids)


def test_run_aggregate_single_and_identical_epochs():
    e = epoch_with(True)
    single = run_aggregate([e])
    assert single.mean_awareness == e.mean_awareness
    assert single.n_epochs == 1
    double = run_aggregate([e, e])
    assert double.mean_awareness == e.mean_awareness
    assert double.min_awareness == double.max_awareness == e.mean_awareness


def test_run_aggregate_order_invariance():
    epochs = [epoch_with(True), epoch_with(False), epoch_with(True)]
    fwd = run_aggregate(epochs)
    rev = run_aggregate(list(reversed(epochs)))
    assert fwd == rev


def test_run_aggregate_empty_raises():
    with pytest.raises(EmptyRun):
        run_aggregate([])


def test_exact_awareness_dominates_cpto_per_epoch():
    import dataclasses

    from qcpto.config import RunConfig, ScenarioSection
    from qcpto.sim import run_scenario

    cfg = dataclasses.replace(RunConfig(),
                              scenario=ScenarioSection(n_vehicles=20,
                                                       duration_s=40.0))
    for seed in (0, 1):
        _, exact = run_scenario(cfg, "exact", seed)
        _, cpto = run_scenario(cfg, "cpto", seed)
        for a, b in zip(exact, cpto):
            assert a.report.mean_awareness >= b.report.mean_awareness - 1e-12
