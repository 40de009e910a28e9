"""Brute-force reference implementations used to pin expected values.

These stay independent of the library code paths they check: plain Python
loops over every grid cell, no shared helpers with the production
rasterizer beyond the documented cell-membership rule.
"""
from __future__ import annotations

from qcpto.trace import Trace


def cross(ax, ay, bx, by, px, py):
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def point_in_triangle(px, py, tri) -> bool:
    (ax, ay), (bx, by), (cx, cy) = tri
    area2 = cross(ax, ay, bx, by, cx, cy)
    if area2 == 0.0:
        return False
    d1 = cross(ax, ay, bx, by, px, py)
    d2 = cross(bx, by, cx, cy, px, py)
    d3 = cross(cx, cy, ax, ay, px, py)
    if area2 > 0:
        return d1 >= 0 and d2 >= 0 and d3 >= 0
    return d1 <= 0 and d2 <= 0 and d3 <= 0


def raster_cells(tri, spec) -> set[tuple[int, int]]:
    """(row, col) of every cell whose center falls inside or on the triangle."""
    if tri is None:
        return set()
    cells = set()
    for row in range(spec.height):
        cy = spec.origin_y + (row + 0.5) * spec.cell_size
        for col in range(spec.width):
            cx = spec.origin_x + (col + 0.5) * spec.cell_size
            if point_in_triangle(cx, cy, tri):
                cells.add((row, col))
    return cells


def awareness_oracle(roi_tri, own_fov, other_fovs, spec) -> float:
    roi = raster_cells(roi_tri, spec)
    if not roi:
        raise ValueError("empty ROI")
    cover = raster_cells(own_fov, spec)
    for fov in other_fovs:
        cover |= raster_cells(fov, spec)
    return len(roi & cover) / len(roi)


def directional_gain_oracle(roi_tri, own_fov, other_fov, spec) -> float:
    roi = raster_cells(roi_tri, spec)
    if not roi:
        return 0.0
    gained = (roi & raster_cells(other_fov, spec)) - raster_cells(own_fov, spec)
    return len(gained) / len(roi)


def shared_interest_oracle(roi_i, fov_i, roi_k, fov_k, spec, mode="sum") -> float:
    g_ik = directional_gain_oracle(roi_i, fov_i, fov_k, spec)
    g_ki = directional_gain_oracle(roi_k, fov_k, fov_i, spec)
    if mode == "sum":
        return g_ik + g_ki
    if mode == "max":
        return max(g_ik, g_ki)
    return 0.5 * (g_ik + g_ki)


def first_route(trace):
    """A one-vehicle trace cut at the vehicle's first absence after it appears.

    The synthetic scenario sends a vehicle that leaves the region back in on
    a fresh route; the records before that first absence hold its first
    route alone.
    """
    seen = False
    for k, rec in enumerate(trace.records):
        if rec.states:
            seen = True
        elif seen:
            return Trace(trace.records[:k])
    return trace
