"""Next-position prediction, turn classification and ROI construction.

A constant-velocity Kalman filter tracks each user from its measured trace
positions. State is [px, py, vx, vy]; only positions are measured. After the
measurement update at slot tau, a one-step prediction gives the expected
position at tau+1. The signed angle between the reported heading and the
predicted displacement classifies the next movement as a left turn, a right
turn, or straight driving; turning users get a triangular region of interest
pointing sideways from their heading.

Every filter of one bank shares A, H, Q and R, so its covariance, one-step
predicted covariance and gain depend only on its history of measurement
updates and coasts, never on the measured data. They live in a tree of
``CovNode`` objects owned by the ``FilterBank``: the root holds P0, and each
node is computed once, on first use, then shared by every filter with that
history. The bank holds the tracked users as rows: a state vector, its node,
an update count and a missed-slot count. The bank reads the run config's
predictor section and the slot length.

No covariance is PSD-checked at run time. The config requires every entry
of ``p0_diag``, ``q_diag`` and ``r_diag`` to be >= 0, so P0, Q and R are PSD
by construction, and the transitions and updates keep each covariance
symmetric PSD up to rounding. ``tests/test_predict.py`` checks that property
on every node of seeded 40- and 200-vehicle runs, against the tolerance in
``tests/oracles.py``. Only a singular innovation covariance is caught here,
by ``_update_cov``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import SingularInnovation
from .model import STRAIGHT_ROI, Roi, Turn, VehicleState

if TYPE_CHECKING:
    from .config import PredictorSection

SINGULAR_DET = 1e-12  # smallest |det| of an innovation covariance an update accepts


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _predict_cov(a_mat: np.ndarray, p_cov: np.ndarray,
                 q_proc: np.ndarray) -> np.ndarray:
    """Covariance after one transition: A P A^T + Q, symmetrized."""
    p_pred = a_mat @ p_cov @ a_mat.T + q_proc
    return 0.5 * (p_pred + p_pred.T)


def _update_cov(h_mat: np.ndarray, p_pred: np.ndarray,
                r_meas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gain and posterior covariance of a measurement update.

    Raises SingularInnovation when the 2x2 innovation covariance is singular
    beyond tolerance SINGULAR_DET.
    """
    s_mat = h_mat @ p_pred @ h_mat.T + r_meas
    if abs(float(np.linalg.det(s_mat))) < SINGULAR_DET:
        raise SingularInnovation(f"innovation covariance is singular: {s_mat.tolist()}")
    gain = np.linalg.solve(s_mat.T, (p_pred @ h_mat.T).T).T
    p_new = (np.eye(4) - gain @ h_mat) @ p_pred
    return gain, 0.5 * (p_new + p_new.T)


@dataclass(frozen=True)
class FilterModel:
    """A, H, Q and R shared by every filter of one bank."""

    a_mat: np.ndarray
    h_mat: np.ndarray
    q_proc: np.ndarray
    r_meas: np.ndarray


class CovNode:
    """Covariance of one update/coast history, shared by all filters with it.

    The predicted covariance, the gain and the successors after an update
    or a coast are computed on first use and kept.
    """

    __slots__ = ("model", "p_cov", "_p_pred", "_gain", "_updated", "_coasted")

    def __init__(self, model: FilterModel, p_cov: np.ndarray):
        self.model = model
        self.p_cov = _readonly(p_cov)
        self._p_pred: Optional[np.ndarray] = None
        self._gain: Optional[np.ndarray] = None
        self._updated: Optional[CovNode] = None
        self._coasted: Optional[CovNode] = None

    @property
    def p_pred(self) -> np.ndarray:
        """One-step predicted covariance."""
        if self._p_pred is None:
            m = self.model
            self._p_pred = _readonly(_predict_cov(m.a_mat, self.p_cov, m.q_proc))
        return self._p_pred

    def update(self) -> tuple[np.ndarray, "CovNode"]:
        """Gain of the next measurement update and the node after it."""
        if self._updated is None:
            gain, p_new = _update_cov(self.model.h_mat, self.p_pred, self.model.r_meas)
            self._updated, self._gain = CovNode(self.model, p_new), _readonly(gain)
        return self._gain, self._updated

    def coast(self) -> "CovNode":
        """Node after one slot without a measurement."""
        if self._coasted is None:
            self._coasted = CovNode(self.model, self.p_pred)
        return self._coasted


def cv_transition(delta: float) -> np.ndarray:
    return np.array([
        [1.0, 0.0, delta, 0.0],
        [0.0, 1.0, 0.0, delta],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


MEASUREMENT_MATRIX = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
])


def _cov_root(p: PredictorSection, delta: float) -> CovNode:
    """Root of a covariance tree: P0 on the model with slot length delta."""
    model = FilterModel(
        a_mat=_readonly(cv_transition(delta)),
        h_mat=_readonly(MEASUREMENT_MATRIX.copy()),
        q_proc=_readonly(np.diag(p.q_diag).astype(float)),
        r_meas=_readonly(np.diag(p.r_diag).astype(float)),
    )
    return CovNode(model, np.diag(p.p0_diag).astype(float))


def classify_turn(current: VehicleState, predicted_pos,
                  theta_turn: float) -> Turn:
    """Left/Right/Straight from the signed angle, ccw positive, between the
    heading and the predicted displacement."""
    dx = float(predicted_pos[0]) - current.position[0]
    dy = float(predicted_pos[1]) - current.position[1]
    if dx == 0.0 and dy == 0.0:
        return Turn.STRAIGHT
    hx, hy = math.cos(current.heading), math.sin(current.heading)
    phi = math.atan2(hx * dy - hy * dx, hx * dx + hy * dy)
    if phi > theta_turn:
        return Turn.LEFT
    if phi < -theta_turn:
        return Turn.RIGHT
    return Turn.STRAIGHT


def estimate_roi(current: VehicleState, turn: Turn, roi_height: float) -> Roi:
    """Equilateral triangle of the given height pointing sideways from the heading.

    Apex sits at the current position; the triangle axis is the heading
    rotated +pi/2 for a left turn and -pi/2 for a right turn. Straight
    driving carries an empty ROI.
    """
    if turn is Turn.STRAIGHT:
        return STRAIGHT_ROI
    axis = current.heading + (math.pi / 2 if turn is Turn.LEFT else -math.pi / 2)
    ux, uy = math.cos(axis), math.sin(axis)
    nx, ny = -uy, ux
    half_base = roi_height / math.sqrt(3.0)  # equilateral: side = 2h/sqrt(3)
    x, y = current.position
    bx, by = x + roi_height * ux, y + roi_height * uy
    tri = ((x, y),
           (bx + half_base * nx, by + half_base * ny),
           (bx - half_base * nx, by - half_base * ny))
    return Roi(triangle=tri, turn=turn)


class FilterBank:
    """The filters of every tracked user, one row each.

    Row r tracks user ``uids[r]``: state ``x[r]`` ([px, py, vx, vy]) on the
    shared covariance ``nodes[r]``, ``updates[r]`` measurement updates and
    ``missed[r]`` slots since the last one. Per slot, ``run_predictor``
    measures the rows present and ``coast`` advances the rest. The bank's
    covariance tree is built from ``cfg`` on the model with slot length
    ``delta``.
    """

    def __init__(self, cfg: PredictorSection, delta: float):
        self.cfg = cfg
        self.theta_turn = math.radians(cfg.theta_turn_deg)
        self.root = _cov_root(cfg, delta)
        self.uids = np.empty(0, dtype=np.int64)
        self.x = np.empty((0, 4))
        self.nodes = np.empty(0, dtype=object)  # CovNode per row
        self.updates = np.empty(0, dtype=np.int64)
        self.missed = np.empty(0, dtype=np.int64)


def run_predictor(states: Sequence[VehicleState], bank: FilterBank,
                  rng: Optional[np.random.Generator] = None) -> dict[int, Roi]:
    """Measure every user of one slot's states and estimate its next ROI.

    A known user's row takes one measurement update; a new user gets a row
    at its first measurement with zero velocity. Every other row counts one
    more missed slot. Classification is suppressed (Straight) until a filter
    has consumed ``warmup_slots`` measurements.
    """
    cfg, model = bank.cfg, bank.root.model
    z = np.array([s.position for s in states], dtype=float).reshape(-1, 2)
    if states and cfg.measurement_noise_std > 0.0:
        if rng is None:
            raise ValueError("measurement noise enabled but no rng supplied")
        z = z + rng.normal(0.0, cfg.measurement_noise_std, size=z.shape)

    # known users ordered so that the rows on one covariance node, which share
    # one gain, are contiguous; every gain comes first, so a singular
    # innovation leaves the bank as it was
    ids = np.array([s.user_id for s in states], dtype=np.int64)
    row_of = {uid: r for r, uid in enumerate(bank.uids.tolist())}
    rows = np.array([row_of.get(uid, -1) for uid in ids.tolist()], dtype=np.intp)
    groups: dict[CovNode, list[int]] = {}
    for i, row in enumerate(rows.tolist()):
        if row >= 0:
            groups.setdefault(bank.nodes[row], []).append(i)
    steps = [(node.update(), len(members)) for node, members in groups.items()]
    known = np.array([i for members in groups.values() for i in members], dtype=np.intp)
    known_rows = rows[known]
    x_new = bank.x[known_rows] @ model.a_mat.T
    innovation = z[known] - x_new @ model.h_mat.T
    start = 0
    for (gain, node), size in steps:
        x_new[start:start + size] += innovation[start:start + size] @ gain.T
        bank.nodes[known_rows[start:start + size]] = node
        start += size
    bank.x[known_rows] = x_new
    bank.updates[known_rows] += 1

    new = np.flatnonzero(rows < 0)
    rows[new] = len(bank.uids) + np.arange(len(new))
    bank.uids = np.concatenate([bank.uids, ids[new]])
    bank.x = np.concatenate([bank.x, np.hstack([z[new], np.zeros((len(new), 2))])])
    bank.nodes = np.concatenate([bank.nodes, np.full(len(new), bank.root)])
    bank.updates = np.concatenate([bank.updates, np.ones(len(new), dtype=np.int64)])
    bank.missed = np.concatenate([bank.missed + 1, np.zeros(len(new), dtype=np.int64)])
    bank.missed[rows] = 0

    out: dict[int, Roi] = {}
    warm = (bank.updates[rows] >= cfg.warmup_slots).tolist()
    ahead = (bank.x[rows] @ model.a_mat.T)[:, :2].tolist()
    for state, is_warm, predicted_pos in zip(states, warm, ahead):
        turn = (classify_turn(state, predicted_pos, bank.theta_turn)
                if is_warm else Turn.STRAIGHT)
        out[state.user_id] = (STRAIGHT_ROI if turn is Turn.STRAIGHT
                              else estimate_roi(state, turn, cfg.roi_height_m))
    return out


def coast(bank: FilterBank) -> None:
    """Advance every row missed in this slot one step without a measurement.

    A row missed for more than ``coast_slots`` slots is dropped, so its user
    starts over when it is measured again.
    """
    keep = bank.missed <= bank.cfg.coast_slots
    for name in ("uids", "x", "nodes", "updates", "missed"):
        setattr(bank, name, getattr(bank, name)[keep])
    rows = np.flatnonzero(bank.missed > 0)
    bank.x[rows] = bank.x[rows] @ bank.root.model.a_mat.T
    bank.nodes[rows] = [node.coast() for node in bank.nodes[rows]]
