"""Reference implementations and test-only helpers.

Three kinds of entry live here:

- The brute-force oracles (``raster_cells``, ``awareness_oracle``,
  ``directional_gain_oracle``, ``shared_interest_oracle``) stay independent
  of the library code paths they check: plain Python loops over every grid
  cell, no shared helpers with the production rasterizer beyond the
  documented cell-membership rule.
- The per-step reference filter (``KfState``, ``init_state``, ``kf_predict``,
  ``kf_update``) steps one filter at a time and checks every covariance with
  ``_check_psd``, a PSD test the pipeline does not run. It
  shares the filter bank's covariance helpers from ``qcpto.predict``
  (``_predict_cov``, ``_update_cov``) and reads P0 and the model matrices
  from a fresh ``FilterBank``, so it pins the bank's row arithmetic and its
  history table, not those formulas; the closed-form checks pin the
  formulas.
- Convenience wrappers over library code (``shared_interest``,
  ``users_of``, ``save_trace``, ``instance_from_json``, ``bare_instance``,
  ``first_route``), used to build inputs or to call one piece of the
  pipeline on its own.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from qcpto.config import PredictorSection
from qcpto.geometry import EpochRasters, QualityMatrix
from qcpto.model import Assignment
from qcpto.predict import FilterBank, _predict_cov, _update_cov
from qcpto.qmkp import QmkpInstance
from qcpto.trace import CSV_HEADER, Trace

PSD_TOL = 1e-9


def _check_psd(mat: np.ndarray, name: str, tol: float = PSD_TOL) -> None:
    if not np.allclose(mat, mat.T, atol=tol):
        raise ValueError(f"{name} must be symmetric")
    eig = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if eig.min() < -tol:
        raise ValueError(f"{name} must be positive semi-definite, min eig {eig.min():.3e}")


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


def shared_interest_oracle(roi_i, fov_i, roi_k, fov_k, spec) -> float:
    return (directional_gain_oracle(roi_i, fov_i, fov_k, spec)
            + directional_gain_oracle(roi_k, fov_k, fov_i, spec))


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


@dataclass(frozen=True)
class KfState:
    """One filter stepped on its own, every covariance checked: the plain
    per-step form of the arithmetic a ``FilterBank`` runs on its rows."""

    x_hat: np.ndarray   # (4,) [px, py, vx, vy]
    p_cov: np.ndarray   # (4, 4)
    a_mat: np.ndarray   # (4, 4) state transition
    h_mat: np.ndarray   # (2, 4) position-selecting measurement matrix
    q_proc: np.ndarray  # (4, 4) process noise covariance
    r_meas: np.ndarray  # (2, 2) measurement noise covariance
    updates: int = 0    # measurement updates consumed so far

    def __post_init__(self):
        for name in ("x_hat", "p_cov", "a_mat", "h_mat", "q_proc", "r_meas"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.x_hat.shape != (4,):
            raise ValueError("state must be a 4-vector")
        for name in ("p_cov", "q_proc", "r_meas"):
            _check_psd(getattr(self, name), name)


def init_state(first_pos, p: PredictorSection, delta: float) -> KfState:
    """Filter for a newly seen user: measured position, zero velocity."""
    bank = FilterBank(p, delta)
    x0 = np.array([float(first_pos[0]), float(first_pos[1]), 0.0, 0.0])
    return KfState(x0, bank.p[0], bank.a_mat, bank.h_mat, bank.q_proc, bank.r_meas,
                   updates=1)


def kf_predict(s: KfState) -> tuple[np.ndarray, np.ndarray]:
    """One-step-ahead state and covariance prediction."""
    return s.a_mat @ s.x_hat, _predict_cov(s.a_mat, s.p_cov, s.q_proc)


def kf_update(s: KfState, x_pred: np.ndarray, p_pred: np.ndarray,
              z: np.ndarray) -> KfState:
    """Fold measurement z into the predicted state.

    Raises SingularInnovation when the 2x2 innovation covariance is singular
    beyond tolerance 1e-12.
    """
    innovation = np.asarray(z, dtype=float) - s.h_mat @ x_pred
    gain, p_new = _update_cov(s.h_mat, p_pred, s.r_meas)
    return KfState(x_pred + gain @ innovation, p_new, s.a_mat, s.h_mat,
                   s.q_proc, s.r_meas, s.updates + 1)


def shared_interest(i, k, rois, fovs, grid_spec) -> float:
    """Symmetric pairwise value of information between users i and k."""
    if i == k:
        raise ValueError("shared interest is defined for distinct users")
    return float(EpochRasters([i, k], rois, fovs, grid_spec).quality()[0, 1])


def users_of(assignment: Assignment, worker) -> tuple[int, ...]:
    """The users an assignment gives to one worker, ascending."""
    return tuple(u for u, w in assignment.items() if w == worker)


def save_trace(trace: Trace, path) -> None:
    """Write a trace in the CSV schema that ``qcpto.trace.load_trace`` reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in trace.records:
            for s in rec.states:
                fh.write(f"{rec.slot},{s.user_id},{s.position[0]!r},"
                         f"{s.position[1]!r},{s.heading!r},{s.speed!r}\n")


def instance_from_json(text: str) -> QmkpInstance:
    """Inverse of ``qcpto.qmkp.instance_to_json``."""
    doc = json.loads(text)
    n = int(doc["n"])
    q = np.zeros((n, n))
    iu, ik = np.triu_indices(n, 1)
    vals = np.asarray(doc["q"], dtype=float)
    q[iu, ik] = vals
    q[ik, iu] = vals
    return QmkpInstance(
        quality=QualityMatrix(q),
        capacity=tuple(doc["capacities"]),
        allowed=np.asarray(doc["allowed"], dtype=bool),
        distance=np.asarray(doc["distance"], dtype=float),
        cpu=np.asarray(doc["cpu"], dtype=float),
        transmit=np.asarray(doc["transmit"], dtype=float),
        workload=doc["workload"],
        kappa=doc["kappa"],
    )


def bare_instance(quality: QualityMatrix, capacity, allowed=None, **task) -> QmkpInstance:
    """An instance of q and capacities on the oracle corpora's fixed task.

    As in ``qcpto.qmkp.random_instance``: every worker eligible (unless
    ``allowed`` says otherwise) at distance 0, unit CPU, no workload, a 1 s
    uplink and a 1 s deadline, so every response latency is exactly 1 s.
    Keywords in ``task`` replace single fields of that task.
    """
    n, m = quality.n, len(capacity)
    fields = {"allowed": np.ones((n, m), dtype=bool) if allowed is None else allowed,
              "distance": np.zeros((n, m)), "cpu": np.ones(m),
              "transmit": np.ones((n, m)), "workload": 0.0, "kappa": 1.0}
    fields.update(task)
    return QmkpInstance(quality, capacity, **fields)
