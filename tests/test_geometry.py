import math
import random

import numpy as np
import pytest

from qcpto.geometry import (EpochRasters, GridSpec, build_quality_matrix,
                            detected_awareness, fov_triangle, rasterize_triangle)
from qcpto.model import Roi, Turn, VehicleState

from oracles import (awareness_oracle, raster_cells, shared_interest,
                     shared_interest_oracle)

GRID12 = GridSpec(0.0, 0.0, 1.0, 12, 12)
GRID50 = GridSpec(0.0, 0.0, 1.0, 50, 50)


def grid_cells(bits):
    rows, cols = np.nonzero(bits)
    return set(zip(rows.tolist(), cols.tolist()))


def random_triangle(rng, span=50.0):
    return tuple((rng.uniform(0, span), rng.uniform(0, span)) for _ in range(3))


def test_degenerate_triangle_rasterizes_empty():
    tri = ((0.0, 0.0), (5.0, 5.0), (10.0, 10.0))
    assert rasterize_triangle(tri, GRID12).sum() == 0


def test_none_triangle_rasterizes_empty():
    assert rasterize_triangle(None, GRID12).sum() == 0


def test_axis_aligned_right_triangle_cell_count():
    tri = ((0.0, 0.0), (10.0, 0.0), (0.0, 10.0))
    expected = raster_cells(tri, GRID12)
    assert len(expected) == 55  # computed by the cell-center oracle
    assert grid_cells(rasterize_triangle(tri, GRID12)) == expected


def test_integer_translation_equivariance():
    rng = random.Random(5)
    for _ in range(25):
        tri = random_triangle(rng, span=20.0)
        dx, dy = rng.randrange(1, 10), rng.randrange(1, 10)
        moved = tuple((x + dx, y + dy) for x, y in tri)
        base = grid_cells(rasterize_triangle(tri, GRID50))
        shifted = grid_cells(rasterize_triangle(moved, GRID50))
        assert shifted == {(r + dy, c + dx) for r, c in base
                           if 0 <= r + dy < 50 and 0 <= c + dx < 50}


def test_rasterize_matches_oracle_on_random_triangles():
    rng = random.Random(11)
    for _ in range(30):
        tri = random_triangle(rng)
        assert grid_cells(rasterize_triangle(tri, GRID50)) == raster_cells(tri, GRID50)


def test_fov_triangle_reference_geometry():
    state = VehicleState(0, (0.0, 0.0), 0.0, 5.0, 0)
    apex, b1, b2 = fov_triangle(state, 20.0, math.pi / 6)
    assert apex == (0.0, 0.0)
    half = 20.0 * math.tan(math.pi / 6)
    assert sorted([b1, b2], key=lambda p: p[1]) == pytest.approx(
        [(20.0, -half), (20.0, half)])


def test_fov_triangle_rotation_equivariance():
    rng = random.Random(2)
    for _ in range(20):
        heading = rng.uniform(0, 2 * math.pi)
        delta = rng.uniform(-1.0, 1.0)
        base = fov_triangle(VehicleState(0, (3.0, 4.0), heading, 1.0, 0), 15.0, 0.4)
        rotated = fov_triangle(VehicleState(0, (3.0, 4.0), heading + delta, 1.0, 0),
                               15.0, 0.4)
        c, s = math.cos(delta), math.sin(delta)
        for (x, y), (rx, ry) in zip(base, rotated):
            ex = 3.0 + (x - 3.0) * c - (y - 4.0) * s
            ey = 4.0 + (x - 3.0) * s + (y - 4.0) * c
            assert (rx, ry) == pytest.approx((ex, ey), abs=1e-9)


def tri_roi(tri):
    return Roi(triangle=tri, turn=Turn.LEFT)


def test_awareness_zero_when_fov_disjoint_and_no_collaborators():
    rois = {0: tri_roi(((5.0, 5.0), (15.0, 5.0), (10.0, 14.0)))}
    fovs = {0: ((30.0, 30.0), (40.0, 30.0), (35.0, 40.0))}
    assert detected_awareness(0, set(), rois, fovs, GRID50) == 0.0


def test_awareness_one_when_collaborator_covers_roi():
    rois = {0: tri_roi(((10.0, 10.0), (14.0, 10.0), (12.0, 14.0)))}
    fovs = {0: ((30.0, 30.0), (40.0, 30.0), (35.0, 40.0)),
            1: ((0.0, 0.0), (49.0, 0.0), (25.0, 49.0))}
    assert detected_awareness(0, {1}, rois, fovs, GRID50) == 1.0


def test_awareness_empty_roi_is_zero():
    rois = {0: Roi(triangle=None, turn=Turn.STRAIGHT)}
    fovs = {0: ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))}
    assert detected_awareness(0, set(), rois, fovs, GRID50) == 0.0


def test_awareness_matches_oracle_on_random_configs():
    rng = random.Random(23)
    for _ in range(30):
        roi = random_triangle(rng)
        if not raster_cells(roi, GRID50):
            continue
        fovs = {i: random_triangle(rng) for i in range(4)}
        got = detected_awareness(0, {1, 2, 3}, {0: tri_roi(roi)}, fovs, GRID50)
        want = awareness_oracle(roi, fovs[0], [fovs[1], fovs[2], fovs[3]], GRID50)
        assert got == want


def test_awareness_monotone_in_collaborators():
    rng = random.Random(31)
    for _ in range(100):
        roi = random_triangle(rng)
        if not raster_cells(roi, GRID50):
            continue
        fovs = {i: random_triangle(rng) for i in range(4)}
        rois = {0: tri_roi(roi)}
        subset = detected_awareness(0, {1}, rois, fovs, GRID50)
        superset = detected_awareness(0, {1, 2, 3}, rois, fovs, GRID50)
        assert superset >= subset


def test_shared_interest_disjoint_pair_is_zero():
    rois = {0: tri_roi(((0.0, 0.0), (5.0, 0.0), (2.0, 5.0))),
            1: tri_roi(((40.0, 40.0), (45.0, 40.0), (42.0, 45.0)))}
    fovs = {0: ((0.0, 0.0), (5.0, 0.0), (2.0, 5.0)),
            1: ((40.0, 40.0), (45.0, 40.0), (42.0, 45.0))}
    assert shared_interest(0, 1, rois, fovs, GRID50) == 0.0


def test_shared_interest_full_one_way_gain():
    # collaborator covers the whole ROI, own FOV is elsewhere, other ROI empty
    rois = {0: tri_roi(((10.0, 10.0), (14.0, 10.0), (12.0, 14.0))),
            1: Roi(triangle=None, turn=Turn.STRAIGHT)}
    fovs = {0: ((30.0, 30.0), (40.0, 30.0), (35.0, 40.0)),
            1: ((0.0, 0.0), (49.0, 0.0), (25.0, 49.0))}
    assert shared_interest(0, 1, rois, fovs, GRID50) == 1.0


def test_shared_interest_symmetric_and_matches_oracle():
    rng = random.Random(47)
    for _ in range(30):
        rois = {0: tri_roi(random_triangle(rng)), 1: tri_roi(random_triangle(rng))}
        fovs = {0: random_triangle(rng), 1: random_triangle(rng)}
        got = shared_interest(0, 1, rois, fovs, GRID50)
        assert got == shared_interest(1, 0, rois, fovs, GRID50)
        want = shared_interest_oracle(rois[0].triangle, fovs[0],
                                      rois[1].triangle, fovs[1], GRID50)
        assert got == want


def test_directional_gain_zero_when_own_fov_covers_roi():
    # identical ROI and FOV leaves nothing for a collaborator to add
    tri = ((10.0, 10.0), (20.0, 10.0), (15.0, 20.0))
    rois = {0: tri_roi(tri), 1: Roi(triangle=None, turn=Turn.STRAIGHT)}
    fovs = {0: tri, 1: ((0.0, 0.0), (49.0, 0.0), (25.0, 49.0))}
    assert shared_interest(0, 1, rois, fovs, GRID50) == 0.0


def test_quality_matrix_single_user():
    rois = {7: tri_roi(((1.0, 1.0), (5.0, 1.0), (3.0, 5.0)))}
    fovs = {7: ((0.0, 0.0), (6.0, 0.0), (3.0, 6.0))}
    qm = build_quality_matrix(EpochRasters([7], rois, fovs, GRID50))
    assert qm.n == 1 and qm.q[0, 0] == 0.0


def test_quality_matrix_matches_pairwise_calls_and_permutes():
    rng = random.Random(61)
    ids = [3, 8, 5]
    rois = {i: tri_roi(random_triangle(rng)) for i in ids}
    fovs = {i: random_triangle(rng) for i in ids}
    qm = build_quality_matrix(EpochRasters(ids, rois, fovs, GRID50))
    for a, i in enumerate(ids):
        for b, k in enumerate(ids):
            if a != b:
                assert qm.q[a, b] == shared_interest(i, k, rois, fovs, GRID50)
    perm = [8, 5, 3]
    qp = build_quality_matrix(EpochRasters(perm, rois, fovs, GRID50))
    for a, i in enumerate(perm):
        for b, k in enumerate(perm):
            if a != b:
                assert qp.q[a, b] == qm.q[ids.index(i), ids.index(k)]
