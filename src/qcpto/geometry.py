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

Pipeline code rasterizes an epoch's queued ROIs and FOVs into an
:class:`EpochRasters` bank, with one array pass covering all of the epoch's
triangles, and counts the quality matrix's gains and the metrics' awareness
from that one bank, over the union of the ROI cells only.
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


def _cells(triangles: Sequence[TriangleLike], grid_spec: GridSpec):
    """Owner and flat row-major index (row * width + col) of every covered cell.

    One padded ``(triangle, row, col)`` array pass tests all triangles over
    their bounding windows at once. The result is grouped by owner (the
    triangle's position in ``triangles``), ascending within each.
    """
    # each triangle's vertices a, b, c, a: edge a runs from vertex a to the next
    loop = np.array([((0.0, 0.0),) * 4 if tri is None else (*tri, tri[0])
                     for tri in triangles], dtype=float).reshape(-1, 4, 2)
    v, e = loop[:, :3], loop[:, 1:] - loop[:, :3]
    # (b - a) x (c - a), exactly: c - a is the negated third edge
    area2 = e[:, 0, 1] * e[:, 2, 0] - e[:, 0, 0] * e[:, 2, 1]
    # negating a clockwise triangle's edges negates each edge value exactly,
    # so inside is always >= 0; a degenerate one gets an empty window below
    e *= np.sign(area2)[:, None, None]
    # min((v - origin) / cell) is (min - origin) / cell: rounding is monotone
    s = (v - [grid_spec.origin_x, grid_spec.origin_y]) / grid_spec.cell_size
    lo = np.maximum(np.floor(s.min(axis=1) - 0.5).astype(np.intp) - 1, 0)
    hi = np.minimum(np.ceil(s.max(axis=1)).astype(np.intp) + 1,
                    [grid_spec.width - 1, grid_spec.height - 1])
    hi[area2 == 0.0] = -1
    span_cols, span_rows = np.maximum.reduce(hi - lo + 1)
    i, j = np.arange(span_rows), np.arange(span_cols)
    row, col = lo[:, 1:] + i, lo[:, :1] + j  # (k, span_rows), (k, span_cols)
    px = grid_spec.origin_x + (col + 0.5) * grid_spec.cell_size
    py = grid_spec.origin_y + (row + 0.5) * grid_spec.cell_size
    # (b - a) x (p - a) >= 0 on all three edges at once, the scalar oracle's
    # cross product; as a rounded difference of two products it is >= 0
    # exactly when the first product is >= the second
    first = e[..., 0, None, None] * (py[:, None, :, None] - v[..., 1, None, None])
    second = e[..., 1, None, None] * (px[:, None, None, :] - v[..., 0, None, None])
    inside = np.logical_and.reduce(first >= second, axis=1)
    inside &= (row <= hi[:, 1:])[:, :, None]  # the padding past each window
    inside &= (col <= hi[:, :1])[:, None, :]
    owner, at = np.divmod(np.flatnonzero(inside), span_rows * span_cols)
    offset = (i[:, None] * grid_spec.width + j).ravel()
    return owner, (lo[:, 1] * grid_spec.width + lo[:, 0])[owner] + offset[at]


def rasterize_triangle(tri: TriangleLike, grid_spec: GridSpec) -> np.ndarray:
    """Rasterize a triangle: cell set iff its center is inside or on the edge.

    Returns a row-major ``(height, width)`` bool array over the whole grid.
    """
    bits = np.zeros((grid_spec.height, grid_spec.width), dtype=bool)
    bits.flat[_cells([tri], grid_spec)[1]] = True
    return bits


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
    """The ROI and FOV cells of one epoch's users.

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
        n = len(self.ids)
        owner, flat = _cells([rois[u].triangle for u in self.ids]
                             + [fovs[u] for u in self.ids], grid_spec)
        split = np.searchsorted(owner, n)  # the ROIs' cells come first
        merged = np.sort(flat[:split])
        first = np.ones(merged.size, dtype=bool)
        first[1:] = merged[1:] != merged[:-1]
        self.cells = merged[first]
        # rows 0..n-1 the ROIs, n..2n-1 the FOVs; FOV cells outside the ROI
        # union have no column
        column = np.searchsorted(self.cells, flat)
        kept = np.concatenate((self.cells, [-1]))[column] == flat
        bits = np.zeros((2 * n, self.cells.size), dtype=bool)
        bits[owner[kept], column[kept]] = True
        self.roi, self.fov = bits[:n], bits[n:]
        self.total = np.bincount(owner[:split], minlength=n)

    def quality(self) -> np.ndarray:
        """Pairwise shared interest of all users, rows/columns in ``ids`` order.

        ``g[a, b]`` is the directional gain g(a<-b) of user a from user b; the
        pair value is g(a<-b) + g(b<-a), so the result is ``g + g.T``.
        """
        need = self.roi & ~self.fov
        counts = np.count_nonzero(need[:, None, :] & self.fov[None, :, :], axis=2)
        g = _share(counts, self.total[:, None])
        return g + g.T

    def awareness(self, workers: Sequence[int]) -> np.ndarray:
        """Each user's fraction of ROI covered by its own FOV plus the FOVs of
        the users its worker also serves; ``workers[a]`` serves row a, -1 for
        none. 0.0 for an ROI with no cells (straight, degenerate or off the grid)."""
        cover = self.fov.copy()
        for j in set(workers) - {-1}:
            team = [a for a, w in enumerate(workers) if w == j]
            cover[team] = self.fov[team].any(axis=0)
        return _share(np.count_nonzero(self.roi & cover, axis=1), self.total)


def _share(counts: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``counts / total`` elementwise, 0.0 where ``total`` is 0."""
    out = np.zeros(counts.shape)
    np.divide(counts, total, out=out, where=total > 0)
    return out


def detected_awareness(i: int, collaborators: Iterable[int],
                       rois: Mapping, fovs: Mapping,
                       grid_spec: GridSpec) -> float:
    """Fraction of user i's ROI covered by its own FOV plus collaborators' FOVs."""
    others = sorted(set(collaborators) - {i})
    # collaborators' ROIs do not enter i's awareness
    only_i = {**dict.fromkeys(others, STRAIGHT_ROI), i: rois[i]}
    bank = EpochRasters([i, *others], only_i, fovs, grid_spec)
    return float(bank.awareness([0] * len(bank.ids))[0])


@dataclass(frozen=True)
class QualityMatrix:
    """Symmetric matrix of pairwise shared-interest values, zero diagonal.

    Not re-checked here: ``EpochRasters.quality`` builds it as g + g^T with
    a zero diagonal and each g in [0, 1].
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("quality matrix must be square")
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

