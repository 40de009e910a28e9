"""Occupancy-grid geometry: FOV/ROI rasterization and shared-interest values.

A single global grid covers the road region. A cell belongs to a triangle
iff the cell's *center* lies inside it or on its boundary (center-sampling
rule); degenerate triangles cover nothing. Coverage fractions are measured
over the in-grid cells of the region of interest.

The pairwise shared-interest value between users i and k is the sum of the
two directional coverage gains, g(i<-k) + g(k<-i), where

    g(i<-k) = |cells(ROI_i) & cells(FOV_k) \\ cells(FOV_i)| / |cells(ROI_i)|

is the fraction of i's region of interest that k's field of view covers
and i's own does not (non-redundant gain; 0 when ROI_i is empty).

Pipeline code rasterizes each queued user's ROI and FOV once per epoch into
an :class:`EpochRasters` bank, inside each triangle's bounding window, and
counts the quality matrix's gains and the metrics' awareness from that one
bank, over the union of the ROI cells only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .model import STRAIGHT_ROI, VehicleState

TriangleLike = Optional[Sequence[Sequence[float]]]


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the shared occupancy grid (origin at a cell corner)."""

    origin_x: float
    origin_y: float
    cell_size: float
    width: int   # cells along x
    height: int  # cells along y

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("grid must have positive extent")

    @classmethod
    def for_region(cls, width_m: float, height_m: float, cell_size: float = 1.0,
                   origin: tuple[float, float] = (0.0, 0.0)) -> "GridSpec":
        return cls(origin[0], origin[1], cell_size,
                   int(round(width_m / cell_size)), int(round(height_m / cell_size)))

    def center_x(self, col: np.ndarray | int):
        return self.origin_x + (np.asarray(col) + 0.5) * self.cell_size

    def center_y(self, row: np.ndarray | int):
        return self.origin_y + (np.asarray(row) + 0.5) * self.cell_size


def _edge_values(ax, ay, bx, by, px, py):
    # Cross product (b - a) x (p - a); same formula as the scalar oracle so
    # boundary cells resolve identically.
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _triangle_window(tri: TriangleLike, grid_spec: GridSpec):
    """Cells of a triangle inside its bounding window of the grid.

    Returns ``(lo_row, lo_col, inside)``, where ``inside`` is a bool array
    over the window's rows and columns starting at ``lo_row``/``lo_col``, or
    ``None`` when the triangle is missing, degenerate or off the grid.
    """
    if tri is None:
        return None
    (ax, ay), (bx, by), (cx, cy) = [(float(v[0]), float(v[1])) for v in tri]
    area2 = _edge_values(ax, ay, bx, by, cx, cy)
    if area2 == 0.0:
        return None

    cs, ox, oy = grid_spec.cell_size, grid_spec.origin_x, grid_spec.origin_y
    lo_col = max(0, int(math.floor((min(ax, bx, cx) - ox) / cs - 0.5)) - 1)
    hi_col = min(grid_spec.width - 1, int(math.ceil((max(ax, bx, cx) - ox) / cs)) + 1)
    lo_row = max(0, int(math.floor((min(ay, by, cy) - oy) / cs - 0.5)) - 1)
    hi_row = min(grid_spec.height - 1, int(math.ceil((max(ay, by, cy) - oy) / cs)) + 1)
    if lo_col > hi_col or lo_row > hi_row:
        return None

    cols = np.arange(lo_col, hi_col + 1)
    rows = np.arange(lo_row, hi_row + 1)
    px = grid_spec.center_x(cols)[None, :]
    py = grid_spec.center_y(rows)[:, None]
    d1 = _edge_values(ax, ay, bx, by, px, py)
    d2 = _edge_values(bx, by, cx, cy, px, py)
    d3 = _edge_values(cx, cy, ax, ay, px, py)
    if area2 > 0:
        inside = (d1 >= 0) & (d2 >= 0) & (d3 >= 0)
    else:
        inside = (d1 <= 0) & (d2 <= 0) & (d3 <= 0)
    return lo_row, lo_col, inside


def rasterize_triangle(tri: TriangleLike, grid_spec: GridSpec) -> np.ndarray:
    """Rasterize a triangle: cell set iff its center is inside or on the edge.

    Returns a row-major ``(height, width)`` bool array over the whole grid.
    """
    bits = np.zeros((grid_spec.height, grid_spec.width), dtype=bool)
    window = _triangle_window(tri, grid_spec)
    if window is not None:
        lo_row, lo_col, inside = window
        bits[lo_row:lo_row + inside.shape[0], lo_col:lo_col + inside.shape[1]] = inside
    return bits


_NO_CELLS = np.zeros(0, dtype=np.intp)
_NO_CELLS.setflags(write=False)


def _triangle_cells(tri: TriangleLike, grid_spec: GridSpec) -> np.ndarray:
    """Flat row-major indices (row * width + col) of a triangle's cells, ascending."""
    window = _triangle_window(tri, grid_spec)
    if window is None:
        return _NO_CELLS
    lo_row, lo_col, inside = window
    rows, cols = np.nonzero(inside)
    return (rows + lo_row) * grid_spec.width + (cols + lo_col)


def fov_triangle(v: VehicleState, range_m: float, half_angle: float) -> tuple:
    """Isosceles sensor triangle: apex at the vehicle, axis along its heading."""
    x, y = v.position
    ux, uy = math.cos(v.heading), math.sin(v.heading)
    # perpendicular (left of the axis)
    nx, ny = -uy, ux
    half_base = range_m * math.tan(half_angle)
    base_x, base_y = x + range_m * ux, y + range_m * uy
    return (
        (x, y),
        (base_x + half_base * nx, base_y + half_base * ny),
        (base_x - half_base * nx, base_y - half_base * ny),
    )


class EpochRasters:
    """The ROI and FOV cells of one epoch's users, each rasterized once.

    Every gain and awareness term is a subset of some user's ROI, so only
    the union of the users' ROI cells is kept: ``cells`` holds their flat
    grid indices in ascending order, and row ``a`` of the ``(n, U)`` bool
    matrices ``roi`` and ``fov`` marks which of those U cells the ROI and FOV
    of user ``ids[a]`` cover. Counts over these columns equal counts over
    the full grid, so every quotient is the same ``int / int``.
    """

    def __init__(self, ids: Sequence[int], rois: Mapping, fovs: Mapping,
                 grid_spec: GridSpec):
        self.ids = tuple(ids)
        self._row = {u: a for a, u in enumerate(self.ids)}
        roi_cells = [_triangle_cells(rois[u].triangle, grid_spec) for u in self.ids]
        fov_cells = [_triangle_cells(fovs[u], grid_spec) for u in self.ids]
        merged = np.sort(np.concatenate([_NO_CELLS, *roi_cells]))
        first = np.ones(merged.size, dtype=bool)
        first[1:] = merged[1:] != merged[:-1]
        self.cells = merged[first]
        shape = (len(self.ids), self.cells.size)
        self.roi = np.zeros(shape, dtype=bool)
        self.fov = np.zeros(shape, dtype=bool)
        for a in range(len(self.ids)):
            self.roi[a, np.searchsorted(self.cells, roi_cells[a])] = True
            self.fov[a, self._columns(fov_cells[a])] = True
        self.total = np.count_nonzero(self.roi, axis=1)

    def _columns(self, cells: np.ndarray) -> np.ndarray:
        """Columns of the given grid cells that lie in the ROI union."""
        if not self.cells.size:
            return _NO_CELLS
        pos = np.minimum(np.searchsorted(self.cells, cells), self.cells.size - 1)
        return pos[self.cells[pos] == cells]

    def quality(self) -> np.ndarray:
        """Pairwise shared interest of all users, rows/columns in ``ids`` order.

        ``g[a, b]`` is the directional gain g(a<-b) of user a from user b; the
        pair value is g(a<-b) + g(b<-a), so the result is ``g + g.T``.
        """
        need = self.roi & ~self.fov
        counts = np.count_nonzero(need[:, None, :] & self.fov[None, :, :], axis=2)
        total = self.total[:, None]
        g = np.zeros(counts.shape)
        np.divide(counts, total, out=g, where=total > 0)
        return g + g.T

    def awareness(self, i: int, collaborators: Iterable[int]) -> float:
        """Fraction of user i's ROI covered by its own FOV plus collaborators' FOVs;
        0.0 for an ROI with no cells (straight, degenerate or off the grid)."""
        a = self._row[i]
        total = int(self.total[a])
        if total == 0:
            return 0.0
        others = [self._row[k] for k in collaborators]
        cover = self.fov[a] | self.fov[others].any(axis=0)
        return int(np.count_nonzero(self.roi[a] & cover)) / total


def detected_awareness(i: int, collaborators: Iterable[int],
                       rois: Mapping, fovs: Mapping,
                       grid_spec: GridSpec) -> float:
    """Fraction of user i's ROI covered by its own FOV plus collaborators' FOVs."""
    others = sorted(set(collaborators) - {i})
    # collaborators' ROIs do not enter i's awareness
    only_i = {**dict.fromkeys(others, STRAIGHT_ROI), i: rois[i]}
    return EpochRasters([i, *others], only_i, fovs, grid_spec).awareness(i, others)


@dataclass(frozen=True)
class QualityMatrix:
    """Symmetric matrix of pairwise shared-interest values, zero diagonal."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("quality matrix must be square")
        if not np.array_equal(q, q.T):
            raise ValueError("quality matrix must be symmetric")
        if np.any(np.diagonal(q) != 0.0):
            raise ValueError("quality matrix diagonal must be zero")
        if q.size and (q.min() < 0.0 or q.max() > 2.0 + 1e-9):
            raise ValueError("quality values must lie in [0, 2]")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[0]


def build_quality_matrix(rasters: EpochRasters) -> QualityMatrix:
    """Pairwise shared interest for all unordered pairs of a raster bank's users.

    Row/column order follows ``rasters.ids``.
    """
    return QualityMatrix(rasters.quality())

