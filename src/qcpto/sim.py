"""Decision-epoch control loop: predict, queue, build the instance, solve, score.

Each epoch updates every user's filter with the slot's measurements, flags
the users predicted to turn into the offloading queue, builds the quadratic
knapsack instance over that queue (pairwise quality, capacity bound,
comm-range eligibility, latency data), solves it with the selected scheme,
applies the repair passes, and records the metrics. Filters of users absent
from a slot coast without measurements for a few slots before being dropped.
"""
from __future__ import annotations

import dataclasses
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .baselines import solve_cpto, solve_go
from .config import EXPERIMENT_KEYS, RunConfig, SCHEMES, sweep_threads
from .geometry import EpochRasters, GridSpec, build_quality_matrix, fov_triangle
from .metrics import EpochReport, RunReport, epoch_metrics, run_aggregate
from .model import Assignment, Roi, Turn, VehicleState, Worker
from .predict import FilterBank, coast, estimate_roi, run_predictor
from .qmkp import QmkpInstance, evaluate_objective, repair_deadline
from .solve_exact import solve_exact
from .solve_heur import solve_heuristic
from .trace import Trace, synth_intersection


def grid_spec(cfg: RunConfig) -> GridSpec:
    return GridSpec.for_region(cfg.scenario.region_w, cfg.scenario.region_h,
                               cfg.geometry.cell_size_m)


def _boundary_point(d: float, w: float, h: float) -> tuple[float, float]:
    """Point at ccw boundary distance d from the origin corner."""
    d = d % (2 * (w + h))
    if d <= w:
        return (d, 0.0)
    d -= w
    if d <= h:
        return (w, d)
    d -= h
    if d <= w:
        return (w - d, h)
    return (0.0, h - (d - w))


def default_workers(cfg: RunConfig, seed: int) -> list[Worker]:
    """Workers placed uniformly along the region boundary, seeded CPU draw."""
    sc = cfg.scenario
    rng = random.Random(seed)
    base = sc.worker_base_cpu_ghz * 1e9
    step = sc.worker_cpu_step_ghz * 1e9
    perimeter = 2 * (sc.region_w + sc.region_h)
    workers = []
    for j in range(sc.n_workers):
        pos = _boundary_point(j * perimeter / sc.n_workers, sc.region_w, sc.region_h)
        cpu = base + step * (1 + rng.randrange(3))
        workers.append(Worker(id=j, position=pos, cpu_capacity=cpu,
                              comm_range=sc.comm_range_m))
    return workers


def draw_rates(user_ids: Sequence[int], n_workers: int, cfg: RunConfig,
               seed: int) -> dict[int, np.ndarray]:
    """Seeded uplink rates R_ij (bits/s) to each worker, one row per user id."""
    lo, hi = cfg.scenario.rate_mbps
    ids = sorted(user_ids)
    rng = np.random.default_rng(seed)
    return dict(zip(ids, rng.uniform(lo * 1e6, hi * 1e6, size=(len(ids), n_workers))))


@dataclass(frozen=True)
class EpochContext:
    """Everything the solver sees for one decision epoch; the metrics score
    the same raster bank and instance (both None for an empty queue)."""

    slot: int
    queue_ids: tuple[int, ...]  # flagged users, ascending; instance row i = queue_ids[i]
    rois: dict
    fovs: dict
    instance: Optional[QmkpInstance]
    rasters: Optional[EpochRasters]


def build_epoch(slot: int, rois: dict[int, Roi], states: dict,
                rates: dict[int, np.ndarray], workers: Sequence[Worker],
                cfg: RunConfig, gspec: GridSpec) -> EpochContext:
    """Assemble the offloading instance for the users whose ROI follows a turn.

    ``rates`` maps each user id to its uplink rates to ``workers``.
    """
    queue_ids = tuple(sorted(uid for uid, roi in rois.items()
                             if roi.turn is not Turn.STRAIGHT))
    rois = {uid: rois[uid] for uid in queue_ids}
    geo = cfg.geometry
    half_angle = math.radians(geo.fov_half_angle_deg)
    fovs = {uid: fov_triangle(states[uid], geo.fov_range_m, half_angle)
            for uid in queue_ids}
    if not queue_ids:
        return EpochContext(slot, queue_ids, rois, fovs, None, None)

    rasters = EpochRasters(queue_ids, rois, fovs, gspec)
    quality = build_quality_matrix(rasters)
    # math.hypot per pair: np.hypot rounds differently in the last bit
    dist = np.array([[math.hypot(x - w.position[0], y - w.position[1]) for w in workers]
                     for x, y in (states[uid].position for uid in queue_ids)])
    sc = cfg.scenario
    inst = QmkpInstance.from_task(
        quality, cpu=[w.cpu_capacity for w in workers],
        rates=[rates[uid] for uid in queue_ids], workload=sc.workload_cycles,
        frame_bits=sc.frame_bits, deadline=sc.deadline_s,
        allowed=dist <= np.array([w.comm_range for w in workers]), distance=dist)
    return EpochContext(slot, queue_ids, rois, fovs, inst, rasters)


def solve_epoch(ctx: EpochContext, scheme: str, cfg: RunConfig,
                seed: int) -> Assignment:
    """Run the selected scheme on an epoch instance and apply the repairs.

    Returns an assignment over instance indices (queue positions).
    """
    inst = ctx.instance
    if inst is None:
        return Assignment.empty()
    # the two-user minimum is a constraint of the quality-aware formulation;
    # baselines ignore it and are evaluated on their raw assignments
    min_pair = scheme in ("exact", "heuristic")
    if scheme == "exact":
        a = solve_exact(inst, budget=cfg.solver.node_budget).assignment
    elif scheme == "heuristic":
        a = solve_heuristic(inst, cfg.solver, seed).assignment
    elif scheme == "go":
        a = solve_go(inst)
    elif scheme == "cpto":
        a = solve_cpto(inst)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return repair_deadline(a, inst, enforce_min_pair=min_pair)


@dataclass(frozen=True)
class EpochLog:
    report: EpochReport
    objective: float
    assignment: Assignment  # in user-id space
    queue: tuple[int, ...]
    decision_time_s: float


@contextmanager
def _epoch_errors(slot: int):
    """Prefix the message of any error raised inside with its epoch."""
    try:
        yield
    except Exception as exc:
        exc.args = (f"epoch {slot}: {exc}",)
        raise


def run_simulation(trace: Trace, workers: Sequence[Worker], scheme: str,
                   cfg: RunConfig, seed: int) -> tuple[RunReport, list[EpochLog]]:
    """Simulate every decision epoch of a trace under one offloading scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if trace.n_slots == 0:
        raise ValueError("trace is empty")
    if not workers:
        raise ValueError("need at least one worker")

    gspec = grid_spec(cfg)
    rates = draw_rates(trace.user_ids(), len(workers), cfg, seed + 2)
    noise_rng = np.random.default_rng(seed + 3)

    bank = FilterBank(cfg.predictor, cfg.scenario.delta_s)
    epochs: list[EpochLog] = []

    for rec in trace.records:
        slot = rec.slot
        with _epoch_errors(slot):
            rois = run_predictor(rec.states, bank, noise_rng)
            coast(bank)
            states = {s.user_id: s for s in rec.states}
            ctx = build_epoch(slot, rois, states, rates, workers, cfg, gspec)
            t0 = time.perf_counter()
            inst_assignment = solve_epoch(ctx, scheme, cfg, seed * 1_000_003 + slot)
            decision_time = time.perf_counter() - t0
            assignment = Assignment({ctx.queue_ids[i]: j
                                     for i, j in inst_assignment.items()})
            objective = (evaluate_objective(inst_assignment, ctx.instance.quality)
                         if ctx.instance is not None else 0.0)
            report = epoch_metrics(
                slot, ctx.rasters, ctx.instance, inst_assignment,
                [ctx.rois[u].turn for u in ctx.queue_ids], len(workers),
                phi=cfg.metrics.phi)
            epochs.append(EpochLog(report, objective, assignment, ctx.queue_ids,
                                   decision_time))

    return run_aggregate([e.report for e in epochs]), epochs


def run_scenario(cfg: RunConfig, scheme: str, seed: int) -> tuple[RunReport, list[EpochLog]]:
    """Synthesize the scenario for a seed and simulate it under one scheme."""
    trace = synth_intersection(cfg.scenario, seed)
    workers = default_workers(cfg, seed + 1)
    return run_simulation(trace, workers, scheme, cfg, seed)


def make_synthetic_instance(n_users: int, seed: int,
                            cfg: Optional[RunConfig] = None) -> QmkpInstance:
    """One offloading instance with n turning users placed near the intersection.

    Mirrors the geometry of the synthetic scenario; used for solver scaling
    studies at a fixed instance size.
    """
    cfg = cfg or RunConfig()
    rng = random.Random(seed)
    gspec = grid_spec(cfg)
    workers = default_workers(cfg, seed + 1)
    cx, cy = cfg.scenario.region_w / 2.0, cfg.scenario.region_h / 2.0
    states = {}
    rois = {}
    for uid in range(n_users):
        pos = (cx + rng.uniform(-40.0, 40.0), cy + rng.uniform(-40.0, 40.0))
        heading = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(5.0, cfg.scenario.max_speed_kmh / 3.6)
        st = VehicleState(uid, pos, heading, speed, 0)
        states[uid] = st
        turn = Turn.LEFT if rng.random() < 0.5 else Turn.RIGHT
        rois[uid] = estimate_roi(st, turn, cfg.predictor.roi_height_m)
    rates = draw_rates(range(n_users), len(workers), cfg, seed + 2)
    ctx = build_epoch(0, rois, states, rates, workers, cfg, gspec)
    assert ctx.instance is not None
    return ctx.instance


def _apply_experiment(cfg: RunConfig, experiment: str, value) -> RunConfig:
    if experiment not in EXPERIMENT_KEYS:
        raise ValueError(f"unknown experiment {experiment!r}")
    sc = dataclasses.replace(cfg.scenario, **{EXPERIMENT_KEYS[experiment]: value})
    return dataclasses.replace(cfg, scenario=sc)


def _sweep_job(args) -> dict:
    experiment, value, scheme, seed, cfg = args
    job_cfg = _apply_experiment(cfg, experiment, value)
    report, epochs = run_scenario(job_cfg, scheme, seed)
    record = {
        "experiment": experiment,
        "value": value,
        "scheme": scheme,
        "seed": seed,
        "report": report.to_dict(),
    }
    if experiment == "Runtime":
        times = [e.decision_time_s for e in epochs if e.queue]
        record["mean_decision_time_s"] = sum(times) / len(times) if times else 0.0
    return record


def sweep(experiment: str, grid: Sequence, seeds: Sequence[int],
          cfg: RunConfig, schemes: Optional[Sequence[str]] = None) -> list[dict]:
    """One run per (grid value, scheme, seed); canonical result order.

    The QCPTO_THREADS environment variable caps process parallelism;
    unset, empty or 1 runs sequentially. The pool never holds more processes
    than there are jobs or host CPUs: on fork it starts all of them at the
    first submit.
    """
    schemes = list(schemes if schemes is not None else cfg.sweep.schemes)
    jobs = [(experiment, value, scheme, seed, cfg)
            for value in grid for scheme in schemes for seed in seeds]
    threads = min(sweep_threads(), len(jobs), os.cpu_count() or 1)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_sweep_job, jobs))
    else:
        records = [_sweep_job(job) for job in jobs]
    return records
