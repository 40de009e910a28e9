"""The per-epoch raster bank against the cell-center oracle and the full-grid loop."""
import dataclasses
import functools
import math
import random

import numpy as np
import pytest

import oracles
from oracles import awareness_oracle, raster_cells, shared_interest_oracle, users_of
from qcpto import sim
from qcpto.config import RunConfig, ScenarioSection, SolverSection
from qcpto.geometry import (EpochRasters, GridSpec, build_quality_matrix,
                            fov_triangle, rasterize_triangle)
from qcpto.metrics import epoch_metrics
from qcpto.model import Assignment, Roi, Turn, VehicleState, Worker
from qcpto.predict import estimate_roi
from qcpto.qmkp import QmkpInstance

GRID50 = GridSpec(0.0, 0.0, 1.0, 50, 50)
# not square, offset origin, half-meter cells: catches row/column mix-ups
ODD_GRID = GridSpec(-3.0, 2.0, 0.5, 40, 25)
# quarter-meter cells: a pipeline ROI or FOV spans dozens of cells
FINE_GRID = GridSpec(-1.0, 3.0, 0.25, 120, 100)
WORKERS = [Worker(j, (25.0 * j, 0.0), 2e9, 200.0) for j in range(3)]


def grid_point(spec, u, w):
    """The point u cells right of and w cells above the grid's origin."""
    return (spec.origin_x + u * spec.cell_size, spec.origin_y + w * spec.cell_size)


def vertex(rng, spec=GRID50, off=False):
    """A point in or around the grid, or entirely past it when ``off``; half
    of the points sit on cell centers, where edges pass through them."""
    if off:
        u = rng.uniform(spec.width + 10.0, spec.width + 40.0)
        w = rng.uniform(spec.height + 10.0, spec.height + 40.0)
    else:
        u = rng.uniform(-8.0, spec.width + 8.0)
        w = rng.uniform(-8.0, spec.height + 8.0)
    if rng.random() < 0.5:
        u, w = math.floor(u) + 0.5, math.floor(w) + 0.5
    return grid_point(spec, u, w)


def random_triangle(rng, kind=None, spec=GRID50):
    kind = kind or rng.choice(["plain", "plain", "plain", "edge", "off", "flat", "none"])
    if kind == "none":
        return None
    if kind == "off":  # entirely outside the grid: rasterizes empty
        return tuple(vertex(rng, spec, off=True) for _ in range(3))
    if kind == "flat":  # collinear vertices
        (ax, ay), (bx, by) = vertex(rng, spec), vertex(rng, spec)
        return ((ax, ay), (bx, by), (2 * bx - ax, 2 * by - ay))
    if kind == "edge":  # straddles the grid boundary; boxes in fiftieths of its extent
        sx, sy = spec.width / 50, spec.height / 50
        boxes = ((-15.0, 0.0, 0.0, 50.0), (0.0, 20.0, -15.0, 0.0), (10.0, 40.0, 10.0, 65.0))
        return tuple(grid_point(spec, rng.uniform(x0 * sx, x1 * sx), rng.uniform(y0 * sy, y1 * sy))
                     for x0, x1, y0, y1 in boxes)
    if kind in ("roi", "fov"):  # the pipeline's shapes, in meters whatever the cell
        state = VehicleState(0, vertex(rng, spec), rng.uniform(0.0, 2.0 * math.pi), 0.0, 0)
        if kind == "roi":
            return estimate_roi(state, rng.choice([Turn.LEFT, Turn.RIGHT]), 10.0).triangle
        return fov_triangle(state, 20.0, math.radians(30.0))
    return tuple(vertex(rng, spec) for _ in range(3))


def random_queue(rng, spec=GRID50):
    # pipeline-sized ROIs and FOVs beside random ones: windows of unequal
    # size share one padded batch
    kinds = ["plain", "plain", "edge", "off", "flat", "none", "roi", "roi", "fov", "fov"]
    ids = rng.sample(range(100), rng.randint(2, 8))
    rois = {}
    for u in ids:
        tri = random_triangle(rng, rng.choice(kinds), spec)
        rois[u] = Roi(triangle=tri, turn=Turn.STRAIGHT if tri is None else Turn.LEFT)
    fovs = {u: random_triangle(rng, rng.choice(kinds), spec) for u in ids}
    return ids, rois, fovs


def queue_instance(bank, ids):
    shape = (len(ids), len(WORKERS))
    return QmkpInstance.from_task(
        build_quality_matrix(bank), cpu=[w.cpu_capacity for w in WORKERS],
        rates=np.full(shape, 1.5e7), workload=2e8, frame_bits=2e5, deadline=0.4,
        allowed=np.ones(shape, dtype=bool), distance=np.zeros(shape))


@pytest.mark.parametrize("spec", [GRID50, ODD_GRID, FINE_GRID], ids=["grid50", "odd", "fine"])
def test_random_queues_match_oracles(monkeypatch, spec):
    # the oracles re-rasterize every triangle per pair; memoize the raster only,
    # handing out copies because awareness_oracle grows its cover set in place
    cached = functools.cache(oracles.raster_cells)
    monkeypatch.setattr(oracles, "raster_cells", lambda tri, spec: set(cached(tri, spec)))
    rng = random.Random(97)
    for _ in range(30):
        ids, rois, fovs = random_queue(rng, spec)
        bank = EpochRasters(ids, rois, fovs, spec)
        inst = queue_instance(bank, ids)
        q = build_quality_matrix(bank).q
        for a, i in enumerate(ids):
            for b, k in enumerate(ids):
                if a != b:
                    assert q[a, b] == shared_interest_oracle(
                        rois[i].triangle, fovs[i], rois[k].triangle, fovs[k], spec)

        for _ in range(3):
            picks = {u: rng.randrange(len(WORKERS) + 1) for u in ids}
            assignment = Assignment({u: j for u, j in picks.items() if j < len(WORKERS)})
            rows = Assignment({ids.index(u): j for u, j in assignment.items()})
            report = epoch_metrics(0, bank, inst, rows, [rois[u].turn for u in ids],
                                   len(WORKERS))
            for rec in report.records:
                u = rec.user_id
                if not oracles.raster_cells(rois[u].triangle, spec):
                    assert rec.awareness == 0.0
                    continue
                wid = assignment.worker_of(u)
                others = ([fovs[k] for k in users_of(assignment, wid) if k != u]
                          if wid is not None else [])
                assert rec.awareness == awareness_oracle(rois[u].triangle, fovs[u],
                                                         others, spec)


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
            q = ctx.instance.quality.q
            # the pipeline checks none of these properties of its matrices
            assert np.array_equal(q, q.T) and not np.diagonal(q).any()
            assert q.min() >= 0.0 and q.max() <= 2.0
            want = full_grid_quality(ctx.queue_ids, ctx.rois, ctx.fovs, spec)
            assert np.array_equal(q, want)
        for rec in log.report.records:
            collaborators = (users_of(log.assignment, rec.worker_id)
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
