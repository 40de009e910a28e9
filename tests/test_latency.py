"""The latency model l * eta / C + lambda / R and the capacity floor(kappa * C / l),
both derived in one place: ``QmkpInstance.from_task``."""
import dataclasses
import math
import random

import numpy as np
import pytest

from qcpto import geometry, sim
from qcpto.config import RunConfig, ScenarioSection
from qcpto.errors import DomainError
from qcpto.geometry import QualityMatrix
from qcpto.qmkp import QmkpInstance


def one_user(workload=2e8, cpu=(2e9,), rate=1.5e7, frame_bits=2e5, deadline=0.4):
    """A one-user instance of the default task on the given workers."""
    m = len(cpu)
    return QmkpInstance.from_task(QualityMatrix(np.zeros((1, 1))), cpu=cpu,
                                  rates=[[rate] * m], workload=workload,
                                  frame_bits=frame_bits, deadline=deadline,
                                  allowed=np.ones((1, m), dtype=bool),
                                  distance=np.zeros((1, m)))


def test_compute_time_reference_values():
    inst = one_user(frame_bits=0.0)
    assert inst.latency_of(0, 0, 1) == pytest.approx(0.1)
    assert inst.latency_of(0, 0, 4) == pytest.approx(0.4)


def test_transmit_time_reference_values():
    assert one_user().transmit[0, 0] == pytest.approx(0.0133333333, abs=1e-9)
    assert one_user(frame_bits=0.0).transmit[0, 0] == 0.0
    assert one_user(rate=3e7).transmit[0, 0] == pytest.approx(one_user().transmit[0, 0] / 2)


def test_capacity_bound_reference_values():
    inst = one_user(cpu=(2e9, 3e9, 4e8))
    assert inst.capacity == (4, 6, 0)  # 4e8 * 0.4 s is below one task


def test_delay_scaling_properties():
    rng = random.Random(3)
    for _ in range(100):
        l = rng.uniform(1e7, 1e9)
        c = rng.uniform(1e9, 5e9)
        eta = rng.randrange(1, 10)
        base = one_user(workload=l, cpu=(c,), frame_bits=0.0).latency_of(0, 0, eta)
        assert one_user(workload=2 * l, cpu=(c,), frame_bits=0.0).latency_of(
            0, 0, eta) == pytest.approx(2 * base)
        assert one_user(workload=l, cpu=(c,), frame_bits=0.0).latency_of(
            0, 0, 2 * eta) == pytest.approx(2 * base)
        lam, r = rng.uniform(1e4, 1e6), rng.uniform(1e6, 1e8)
        assert one_user(rate=r, frame_bits=lam).transmit[0, 0] == lam / r


TWO_BY_ONE = {"capacity": (2,), "allowed": np.ones((2, 1), dtype=bool),
              "distance": np.zeros((2, 1)), "cpu": np.full(1, 2e9),
              "transmit": np.full((2, 1), 0.01), "workload": 2e8, "kappa": 0.4}


def two_users(**fields):
    """A two-user, one-worker instance with ``fields`` replaced."""
    return QmkpInstance(QualityMatrix(np.zeros((2, 2))), **{**TWO_BY_ONE, **fields})


def test_instance_holds_the_task_as_given():
    inst = two_users()
    assert (inst.workload, inst.kappa) == (2e8, 0.4)
    assert inst.allowed.shape == inst.distance.shape == inst.transmit.shape == (2, 1)
    assert inst.latency_of(1, 0, 2) == 2e8 * 2 / 2e9 + 0.01


@pytest.mark.parametrize("name", ["workload", "kappa"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_instance_rejects_a_bad_task_scalar(name, value):
    with pytest.raises(DomainError, match=name):
        two_users(**{name: value})


@pytest.mark.parametrize("name, shape", [("allowed", (1, 2)), ("distance", (2,)),
                                         ("transmit", (2, 2)), ("cpu", (2,)),
                                         ("workload", (2,)), ("kappa", (2,))])
def test_instance_rejects_a_misshaped_field(name, shape):
    with pytest.raises(ValueError, match=f"{name} must have shape"):
        two_users(**{name: np.ones(shape)})


def test_instance_rejects_a_bad_distance():
    with pytest.raises(DomainError, match="distance"):
        two_users(distance=np.array([[1.0], [np.nan]]))


def test_instance_needs_a_worker():
    with pytest.raises(ValueError, match="capacity"):
        two_users(capacity=(), allowed=np.ones((2, 0), dtype=bool), distance=np.zeros((2, 0)),
                  cpu=np.zeros(0), transmit=np.zeros((2, 0)))


def test_instance_rejects_zero_cpu():
    with pytest.raises(DomainError, match="cpu"):
        one_user(cpu=(2e9, 0.0))


def test_instance_rejects_negative_or_infinite_transmit():
    with pytest.raises(DomainError, match="transmit"):
        QmkpInstance(QualityMatrix(np.zeros((1, 1))), capacity=(1,),
                     allowed=[[True]], distance=[[0.0]], cpu=[2e9], transmit=[[-0.01]],
                     workload=2e8, kappa=0.4)
    with pytest.raises(DomainError, match="transmit"):
        one_user(frame_bits=-2e5)
    with pytest.raises(DomainError, match="transmit"), np.errstate(divide="ignore"):
        one_user(rate=0.0)  # a zero rate never delivers the frame


def test_capacity_needs_a_positive_workload():
    with pytest.raises(ValueError, match="capacities"):
        one_user(workload=-2e8)


def test_build_epoch_capacity_is_the_deadline_bound_for_every_queue_size():
    # floor(kappa * C / l) slots on the default 3, 4 and 5 GHz workers, whatever
    # the queue size (a mean of n equal deadlines can round below kappa)
    cfg = RunConfig()
    want = tuple({3e9: 6, 4e9: 8, 5e9: 10}[w.cpu_capacity]
                 for w in sim.default_workers(cfg, 1))
    for n in range(1, 61):
        assert sim.make_synthetic_instance(n, seed=0, cfg=cfg).capacity == want, n


@pytest.mark.parametrize("n_vehicles, scheme", [(40, "heuristic"), (200, "go"),
                                                (200, "cpto")])
def test_reported_latency_is_the_checked_latency(monkeypatch, n_vehicles, scheme):
    # every served user reports the latency that the deadline repair checked,
    # and the metrics score the one raster bank that the quality matrix used
    built = []
    init = geometry.EpochRasters.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(geometry.EpochRasters, "__init__", counted)
    contexts = []
    build_epoch = sim.build_epoch

    def recording(*args, **kwargs):
        before = len(built)
        ctx = build_epoch(*args, **kwargs)
        contexts.append((ctx, built[before:]))
        return ctx

    monkeypatch.setattr(sim, "build_epoch", recording)
    cfg = dataclasses.replace(RunConfig(),
                              scenario=ScenarioSection(n_vehicles=n_vehicles))
    served = 0
    for seed in range(3):
        del contexts[:], built[:]
        _, logs = sim.run_scenario(cfg, scheme, seed)
        assert len(contexts) == len(logs)
        for (ctx, banks), log in zip(contexts, logs):
            assert banks == ([] if ctx.instance is None else [ctx.rasters])
            eta = log.assignment.eta()
            for row, rec in enumerate(log.report.records):
                if rec.worker_id is None:
                    continue
                t = ctx.instance.latency_of(row, rec.worker_id, eta[rec.worker_id])
                assert rec.latency_s == t
                assert t <= ctx.instance.kappa + 1e-12
                served += 1
        assert len(built) == sum(ctx.instance is not None for ctx, _ in contexts)
    assert served > 100
