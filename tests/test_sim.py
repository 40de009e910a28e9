import dataclasses
import io
import os

import numpy as np
import pytest

from qcpto import sim
from qcpto.config import RunConfig, ScenarioSection, SweepSection
from qcpto.model import Assignment
from qcpto.predict import FilterBank, coast, run_predictor
from qcpto.sim import (build_epoch, default_workers, draw_rates, grid_spec,
                       make_synthetic_instance, run_scenario, run_simulation,
                       solve_epoch, sweep)
from qcpto.trace import Trace, synth_intersection


def small_cfg(**scenario_overrides):
    scenario = ScenarioSection(n_vehicles=12, duration_s=30.0,
                               **scenario_overrides)
    return dataclasses.replace(RunConfig(), scenario=scenario)


def epochs_as_text(epochs):
    buf = io.StringIO()
    for log in epochs:
        buf.write(f"{log.report.slot}|{log.objective!r}|{log.assignment!r}|"
                  f"{log.queue}\n")
        for r in log.report.records:
            buf.write(f"  {r.user_id},{r.turn.value},{r.worker_id},"
                      f"{r.awareness!r},{r.latency_s!r},{r.satisfied}\n")
    return buf.getvalue()


def test_no_turning_vehicles_is_vacuous():
    cfg = small_cfg(turn_probs=(0.0, 0.0, 1.0))
    report, epochs = run_scenario(cfg, "exact", seed=1)
    assert all(log.queue == () for log in epochs)
    assert all(log.objective == 0.0 for log in epochs)
    assert report.mean_awareness == 0.0
    assert report.mean_delay == 0.0


def test_pipeline_matches_independent_solver_call():
    cfg = small_cfg()
    trace = synth_intersection(cfg.scenario, 2)
    workers = default_workers(cfg, 3)
    _, epochs = run_simulation(trace, workers, "exact", cfg, seed=2)

    # rebuild the epoch contexts independently and re-solve
    gspec = grid_spec(cfg)
    rates = draw_rates(trace.user_ids(), len(workers), cfg, 2 + 2)
    bank = FilterBank(cfg.predictor, cfg.scenario.delta_s)
    checked = 0
    for rec in trace.records:
        rois = run_predictor(rec.states, bank)
        coast(bank)
        states = {s.user_id: s for s in rec.states}
        ctx = build_epoch(rec.slot, rois, states, rates, workers, cfg, gspec)
        log = epochs[rec.slot - trace.records[0].slot]
        assert log.queue == ctx.queue_ids
        if ctx.instance is not None and len(ctx.queue_ids) >= 3:
            inst_assignment = solve_epoch(ctx, "exact", cfg, 2 * 1_000_003 + rec.slot)
            mapped = Assignment({ctx.queue_ids[i]: j
                                 for i, j in inst_assignment.items()})
            assert mapped == log.assignment
            checked += 1
    assert checked >= 1


def test_runs_are_deterministic():
    cfg = small_cfg()
    a = run_scenario(cfg, "heuristic", seed=5)
    b = run_scenario(cfg, "heuristic", seed=5)
    assert epochs_as_text(a[1]) == epochs_as_text(b[1])
    assert a[0] == b[0]


def test_no_lookahead_prefix_property():
    cfg = small_cfg()
    trace = synth_intersection(cfg.scenario, 4)
    workers = default_workers(cfg, 5)
    _, full = run_simulation(trace, workers, "exact", cfg, seed=4)
    cut = 12
    prefix_trace = Trace(trace.records[:cut])
    _, prefix = run_simulation(prefix_trace, workers, "exact", cfg, seed=4)
    assert epochs_as_text(full[:cut]) == epochs_as_text(prefix)


def test_removing_a_worker_never_raises_exact_objective():
    cfg = small_cfg()
    trace = synth_intersection(cfg.scenario, 6)
    workers = default_workers(cfg, 7)
    _, full = run_simulation(trace, workers, "exact", cfg, seed=6)
    _, fewer = run_simulation(trace, workers[:-1], "exact", cfg, seed=6)
    for a, b in zip(full, fewer):
        assert b.objective <= a.objective + 1e-9


def test_default_workers_layout():
    cfg = RunConfig()
    workers = default_workers(cfg, 0)
    assert len(workers) == 8
    assert {w.position for w in workers} == {
        (0.0, 0.0), (100.0, 0.0), (200.0, 0.0), (200.0, 100.0),
        (200.0, 200.0), (100.0, 200.0), (0.0, 200.0), (0.0, 100.0)}
    base = cfg.scenario.worker_base_cpu_ghz * 1e9
    step = cfg.scenario.worker_cpu_step_ghz * 1e9
    allowed = {base + step, base + 2 * step, base + 3 * step}
    assert all(w.cpu_capacity in allowed for w in workers)


def test_draw_rates_within_range():
    cfg = RunConfig()
    rates = draw_rates(range(10), 8, cfg, 2)
    lo, hi = cfg.scenario.rate_mbps
    assert sorted(rates) == list(range(10))
    for row in rates.values():
        assert row.shape == (8,)
        assert all(lo * 1e6 <= r <= hi * 1e6 for r in row)


def test_make_synthetic_instance_shape():
    inst = make_synthetic_instance(15, seed=3)
    assert inst.n == 15 and inst.m == 8
    assert inst.allowed.shape == inst.distance.shape == inst.transmit.shape == (15, 8)
    assert inst.cpu.shape == (8,)
    assert (inst.workload, inst.kappa) == (2e8, 0.4)


def test_sweep_shape_and_determinism():
    cfg = small_cfg()
    cfg = dataclasses.replace(cfg, sweep=SweepSection(
        experiment="CpuCapacity", grid=(2.0,), seeds=(0,),
        schemes=("exact", "go")))
    records = sweep("CpuCapacity", (2.0,), (0,), cfg, ("exact", "go"))
    assert len(records) == 2
    assert {r["scheme"] for r in records} == {"exact", "go"}
    again = sweep("CpuCapacity", (2.0,), (0,), cfg, ("exact", "go"))
    assert records == again


def test_sweep_cpu_capacity_delay_trend():
    cfg = small_cfg()
    records = sweep("CpuCapacity", (1.0, 3.0), (0, 1), cfg, ("exact",))
    def mean_delay(value):
        vals = [r["report"]["delay"]["mean"] for r in records if r["value"] == value]
        return sum(vals) / len(vals)
    assert mean_delay(3.0) <= mean_delay(1.0) + 1e-9


def test_sweep_parallel_matches_sequential(monkeypatch):
    cfg = small_cfg()
    seq = sweep("UserCount", (8,), (0, 1), cfg, ("go",))
    monkeypatch.setenv("QCPTO_THREADS", "2")
    par = sweep("UserCount", (8,), (0, 1), cfg, ("go",))
    assert seq == par


def recording_pool(sizes):
    """A ProcessPoolExecutor stand-in that appends its size to ``sizes`` and
    runs the jobs in-process, starting no process."""
    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)
    return Pool


@pytest.mark.parametrize("threads,seeds,cpus,size", [
    ("5000", (0, 1), 64, 2),  # never more processes than jobs
    ("2", (0, 1, 2), 64, 2),
    ("5000", (0,), 64, None),  # one job runs in-process, without a pool
    ("5000", (0, 1, 2), 2, 2),  # nor more than the host's CPUs
], ids=["5000-seeds0-2", "2-seeds1-2", "5000-seeds2-None", "5000-cpus2"])
def test_sweep_pool_never_exceeds_the_job_count(monkeypatch, threads, seeds, cpus, size):
    sizes = []
    monkeypatch.setattr(sim, "ProcessPoolExecutor", recording_pool(sizes))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("QCPTO_THREADS", threads)
    records = sweep("UserCount", (4,), seeds, small_cfg(), ("go",))
    assert [r["seed"] for r in records] == list(seeds)
    assert sizes == ([] if size is None else [size])


def test_strict_deadline_holds_for_every_served_user():
    cfg = small_cfg()
    kappa = cfg.scenario.deadline_s
    for scheme in ("exact", "heuristic"):
        _, epochs = run_scenario(cfg, scheme, seed=8)
        for log in epochs:
            for r in log.report.records:
                if r.worker_id is not None:
                    assert r.latency_s <= kappa + 1e-9


def test_measurement_noise_flag_changes_predictions_deterministically():
    base = small_cfg()
    noisy_pred = dataclasses.replace(base.predictor, measurement_noise_std=0.5)
    noisy = dataclasses.replace(base, predictor=noisy_pred)
    r1 = run_scenario(noisy, "go", seed=3)
    r2 = run_scenario(noisy, "go", seed=3)
    assert epochs_as_text(r1[1]) == epochs_as_text(r2[1])
    clean = run_scenario(base, "go", seed=3)
    assert epochs_as_text(clean[1]) != epochs_as_text(r1[1])


@pytest.mark.parametrize("stage", ["build_epoch", "epoch_metrics"])
def test_a_failing_stage_names_its_epoch(monkeypatch, stage):
    cfg = small_cfg()
    trace = synth_intersection(cfg.scenario, 1)
    failing = trace.records[5].slot
    original = getattr(sim, stage)

    def fail_at_slot(slot, *args, **kwargs):
        if slot == failing:
            raise ValueError("stage failed")
        return original(slot, *args, **kwargs)
    monkeypatch.setattr(sim, stage, fail_at_slot)
    with pytest.raises(ValueError) as info:
        run_simulation(trace, default_workers(cfg, 0), "go", cfg, seed=0)
    assert str(info.value) == f"epoch {failing}: stage failed"


def test_run_simulation_rejects_bad_input():
    cfg = small_cfg()
    trace = synth_intersection(cfg.scenario, 1)
    with pytest.raises(ValueError):
        run_simulation(trace, [], "exact", cfg, seed=0)
    with pytest.raises(ValueError):
        run_simulation(trace, default_workers(cfg, 0), "bogus", cfg, seed=0)
    with pytest.raises(ValueError):
        run_simulation(Trace(()), default_workers(cfg, 0), "exact", cfg, seed=0)
