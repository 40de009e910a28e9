import dataclasses
import random

import pytest

from qcpto import geometry, sim
from qcpto.config import RunConfig, ScenarioSection
from qcpto.errors import DomainError
from qcpto.latency import compute_delay, transmit_delay, worker_capacity


def test_compute_delay_reference_values():
    assert compute_delay(2e8, 2e9, 1) == pytest.approx(0.1)
    assert compute_delay(2e8, 2e9, 4) == pytest.approx(0.4)
    assert compute_delay(0.0, 2e9, 3) == 0.0


def test_compute_delay_domain_errors():
    with pytest.raises(DomainError):
        compute_delay(2e8, 0.0, 1)
    with pytest.raises(DomainError):
        compute_delay(2e8, 2e9, 0)


def test_transmit_delay_reference_values():
    assert transmit_delay(2e5, 1.5e7) == pytest.approx(0.0133333333, abs=1e-9)
    assert transmit_delay(0.0, 1.5e7) == 0.0
    assert transmit_delay(2e5, 3e7) == pytest.approx(transmit_delay(2e5, 1.5e7) / 2)


def test_transmit_delay_domain_error():
    with pytest.raises(DomainError):
        transmit_delay(2e5, 0.0)


def test_worker_capacity_reference_values():
    assert worker_capacity(0.4, 2e9, 2e8) == 4
    assert worker_capacity(0.4, 3e9, 2e8) == 6
    assert worker_capacity(0.4, 4e8, 2e8) == 0  # kappa*C below one task


def test_worker_capacity_domain_error():
    with pytest.raises(DomainError):
        worker_capacity(0.0, 2e9, 2e8)
    with pytest.raises(DomainError):
        worker_capacity(0.4, 2e9, -1.0)


def test_delay_scaling_properties():
    rng = random.Random(3)
    for _ in range(100):
        l = rng.uniform(1e7, 1e9)
        c = rng.uniform(1e9, 5e9)
        eta = rng.randrange(1, 10)
        base = compute_delay(l, c, eta)
        assert compute_delay(2 * l, c, eta) == pytest.approx(2 * base)
        assert compute_delay(l, c, 2 * eta) == pytest.approx(2 * base)
        lam, r = rng.uniform(1e4, 1e6), rng.uniform(1e6, 1e8)
        assert transmit_delay(lam, r) == pytest.approx(lam / r)


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
                assert t <= ctx.instance.kappa[row] + 1e-12
                served += 1
        assert len(built) == sum(ctx.instance is not None for ctx, _ in contexts)
    assert served > 100
