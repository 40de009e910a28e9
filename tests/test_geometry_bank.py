"""The per-epoch raster bank against the cell-center oracle and the full-grid loop."""
import dataclasses
import functools
import math
import random

import numpy as np
import pytest

import oracles
from oracles import awareness_oracle, raster_cells, shared_interest_oracle
from qcpto import sim
from qcpto.config import RunConfig, ScenarioSection, SolverSection
from qcpto.geometry import (EpochRasters, GridSpec, build_quality_matrix,
                            rasterize_triangle)
from qcpto.metrics import epoch_metrics
from qcpto.model import Assignment, Roi, Turn, Worker
from qcpto.qmkp import QmkpInstance

GRID50 = GridSpec(0.0, 0.0, 1.0, 50, 50)
# not square, offset origin, half-meter cells: catches row/column mix-ups
ODD_GRID = GridSpec(-3.0, 2.0, 0.5, 40, 25)
WORKERS = [Worker(j, (25.0 * j, 0.0), 2e9, 200.0) for j in range(3)]


def vertex(rng, lo=-8.0, hi=58.0):
    # half of the vertices sit on cell centers, where edges pass through them
    x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
    if rng.random() < 0.5:
        x, y = math.floor(x) + 0.5, math.floor(y) + 0.5
    return (x, y)


def random_triangle(rng, kind=None):
    kind = kind or rng.choice(["plain", "plain", "plain", "edge", "off", "flat", "none"])
    if kind == "none":
        return None
    if kind == "off":  # entirely outside the grid: rasterizes empty
        return tuple(vertex(rng, 60.0, 90.0) for _ in range(3))
    if kind == "flat":  # collinear vertices
        (ax, ay), (bx, by) = vertex(rng), vertex(rng)
        return ((ax, ay), (bx, by), (2 * bx - ax, 2 * by - ay))
    if kind == "edge":  # straddles the grid boundary
        return ((rng.uniform(-15.0, 0.0), rng.uniform(0.0, 50.0)),
                (rng.uniform(0.0, 20.0), rng.uniform(-15.0, 0.0)),
                (rng.uniform(10.0, 40.0), rng.uniform(10.0, 65.0)))
    return tuple(vertex(rng) for _ in range(3))


def random_queue(rng):
    ids = rng.sample(range(100), rng.randint(2, 8))
    rois = {}
    for u in ids:
        tri = random_triangle(rng)
        rois[u] = Roi(triangle=tri, turn=Turn.STRAIGHT if tri is None else Turn.LEFT)
    fovs = {u: random_triangle(rng) for u in ids}
    return ids, rois, fovs


def queue_instance(bank, ids):
    shape = (len(ids), len(WORKERS))
    return QmkpInstance.from_task(
        build_quality_matrix(bank), cpu=[w.cpu_capacity for w in WORKERS],
        rates=np.full(shape, 1.5e7), workload=2e8, frame_bits=2e5, deadline=0.4,
        allowed=np.ones(shape, dtype=bool), distance=np.zeros(shape))


def test_random_queues_match_oracles(monkeypatch):
    # the oracles re-rasterize every triangle per pair; memoize the raster only,
    # handing out copies because awareness_oracle grows its cover set in place
    cached = functools.cache(oracles.raster_cells)
    monkeypatch.setattr(oracles, "raster_cells", lambda tri, spec: set(cached(tri, spec)))
    rng = random.Random(97)
    for _ in range(30):
        ids, rois, fovs = random_queue(rng)
        bank = EpochRasters(ids, rois, fovs, GRID50)
        inst = queue_instance(bank, ids)
        q = build_quality_matrix(bank).q
        for a, i in enumerate(ids):
            for b, k in enumerate(ids):
                if a != b:
                    assert q[a, b] == shared_interest_oracle(
                        rois[i].triangle, fovs[i], rois[k].triangle, fovs[k], GRID50)

        for _ in range(3):
            picks = {u: rng.randrange(len(WORKERS) + 1) for u in ids}
            assignment = Assignment({u: j for u, j in picks.items() if j < len(WORKERS)})
            rows = Assignment({ids.index(u): j for u, j in assignment.items()})
            report = epoch_metrics(0, bank, inst, rows, [rois[u].turn for u in ids],
                                   len(WORKERS))
            for rec in report.records:
                u = rec.user_id
                if not oracles.raster_cells(rois[u].triangle, GRID50):
                    assert rec.awareness == 0.0
                    continue
                wid = assignment.worker_of(u)
                others = ([fovs[k] for k in assignment.users_of(wid) if k != u]
                          if wid is not None else [])
                assert rec.awareness == awareness_oracle(rois[u].triangle, fovs[u],
                                                         others, GRID50)


def full_grid_quality(ids, rois, fovs, spec):
    """Quality matrix as computed before the raster bank: full-grid masks per pair."""
    roi = {u: rasterize_triangle(rois[u].triangle, spec) for u in ids}
    fov = {u: rasterize_triangle(fovs[u], spec) for u in ids}

    def gain(i, k):
        total = int(roi[i].sum())
        if total == 0:
            return 0.0
        return int((roi[i] & fov[k] & ~fov[i]).sum()) / total

    q = np.zeros((len(ids), len(ids)))
    for a, i in enumerate(ids):
        for b in range(a + 1, len(ids)):
            k = ids[b]
            q[a, b] = q[b, a] = gain(i, k) + gain(k, i)
    return q


def full_grid_awareness(i, collaborators, rois, fovs, spec):
    roi = rasterize_triangle(rois[i].triangle, spec)
    total = int(roi.sum())
    if total == 0:
        return 0.0
    cover = rasterize_triangle(fovs[i], spec)
    for k in sorted(set(collaborators) - {i}):
        cover = cover | rasterize_triangle(fovs[k], spec)
    return int((roi & cover).sum()) / total


def test_dense_go_scenario_matches_full_grid_loop(monkeypatch):
    cfg = dataclasses.replace(RunConfig(), scenario=ScenarioSection(n_vehicles=200),
                              solver=SolverSection(scheme="go"))
    contexts = []
    build_epoch = sim.build_epoch

    def recording(*args, **kwargs):
        ctx = build_epoch(*args, **kwargs)
        contexts.append(ctx)
        return ctx

    monkeypatch.setattr(sim, "build_epoch", recording)
    _, logs = sim.run_scenario(cfg, "go", 8000)
    spec = sim.grid_spec(cfg)
    assert len(contexts) == len(logs)
    assert max(len(ctx.queue_ids) for ctx in contexts) >= 15
    users = 0
    for ctx, log in zip(contexts, logs):
        if ctx.instance is not None:
            want = full_grid_quality(ctx.queue_ids, ctx.rois, ctx.fovs, spec)
            assert np.array_equal(ctx.instance.quality.q, want)
        for rec in log.report.records:
            collaborators = (log.assignment.users_of(rec.worker_id)
                             if rec.worker_id is not None else [])
            assert rec.awareness == full_grid_awareness(rec.user_id, collaborators,
                                                        ctx.rois, ctx.fovs, spec)
            users += 1
    assert users > 500


@pytest.mark.parametrize("spec", [GRID50, ODD_GRID], ids=["grid50", "odd"])
def test_bank_cells_match_raster_oracle(spec):
    rng = random.Random(7)
    kinds = ["plain", "edge", "off", "flat", "none"]
    for t in range(40):
        roi = random_triangle(rng, kinds[t % len(kinds)])
        fov = random_triangle(rng, "plain")
        bank = EpochRasters([3], {3: Roi(triangle=roi, turn=Turn.LEFT)}, {3: fov}, spec)
        cells = [divmod(c, spec.width) for c in bank.cells.tolist()]
        assert set(cells) == raster_cells(roi, spec)
        assert bank.roi.all() and bank.total[0] == len(cells)
        covered = {divmod(c, spec.width) for c in bank.cells[bank.fov[0]].tolist()}
        assert covered == raster_cells(roi, spec) & raster_cells(fov, spec)
