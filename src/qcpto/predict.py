"""Next-position prediction, turn classification and ROI construction.

A constant-velocity Kalman filter tracks each user from its measured trace
positions. State is [px, py, vx, vy]; only positions are measured. After the
measurement update at slot tau, a one-step prediction gives the expected
position at tau+1. The signed angle between the reported heading and the
predicted displacement classifies the next movement as a left turn, a right
turn, or straight driving; turning users get a triangular region of interest
pointing sideways from their heading.

Every filter of one bank shares A, H, Q and R, so its covariance and gain
depend only on its history of measurement updates and coasts, never on the
measured data. The ``FilterBank`` keeps them in one table indexed by history
id: ``p[k]`` is history k's covariance (history 0 holds P0), ``gain[k]`` the
gain of an update from it, and ``succ[k]`` the history after a coast and
after an update. Each entry is computed once, on first use, and shared by
every filter with that history. The bank holds the tracked users as rows: a
state vector, its history id, an update count and a missed-slot count. The
bank reads the run config's predictor section and the slot length.

No covariance is PSD-checked at run time. The config requires every entry
of ``p0_diag``, ``q_diag`` and ``r_diag`` to be >= 0, so P0, Q and R are PSD
by construction, and the transitions and updates keep each covariance
symmetric PSD up to rounding. ``tests/test_predict.py`` checks that property
on every history of seeded 40- and 200-vehicle runs, against the tolerance in
``tests/oracles.py``. Only a singular innovation covariance is caught here,
by ``_update_cov``.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import SingularInnovation
from .model import STRAIGHT_ROI, Roi, Turn, VehicleState

if TYPE_CHECKING:
    from .config import PredictorSection

SINGULAR_DET = 1e-12  # smallest |det| of an innovation covariance an update accepts


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
    shared covariance ``p[hist[r]]``, ``updates[r]`` measurement updates and
    ``missed[r]`` slots since the last one. Per slot, ``run_predictor``
    measures the rows present and ``coast`` advances the rest. The model
    matrices are built from ``cfg`` with slot length ``delta``.
    """

    def __init__(self, cfg: PredictorSection, delta: float):
        self.cfg = cfg
        self.theta_turn = math.radians(cfg.theta_turn_deg)
        self.a_mat = cv_transition(delta)
        self.h_mat = MEASUREMENT_MATRIX
        self.q_proc = np.diag(cfg.q_diag).astype(float)
        self.r_meas = np.diag(cfg.r_diag).astype(float)
        # the history table, row k for history k (0 is P0); -1 marks a
        # successor and NaN a gain not built yet
        self.p = np.diag(cfg.p0_diag).astype(float)[None]
        self.gain = np.full((1, 4, 2), np.nan)
        self.succ = np.full((1, 2), -1, dtype=np.intp)  # [after a coast, after an update]
        self.uids = np.empty(0, dtype=np.int64)
        self.x = np.empty((0, 4))
        self.hist = np.empty(0, dtype=np.intp)
        self.updates = np.empty(0, dtype=np.int64)
        self.missed = np.empty(0, dtype=np.int64)

    def advance(self, hist: np.ndarray, update: bool) -> np.ndarray:
        """The history ids after one coast, or one update, of each id in ``hist``.

        Missing successors are built once each, visiting the distinct
        histories in order of first appearance, and all of them before the
        table changes, so a singular innovation leaves the bank as it was.
        """
        step = int(update)
        missing = list(dict.fromkeys(hist[self.succ[hist, step] < 0].tolist()))
        if missing:
            covs, gains = [], []
            for k in missing:
                cov = _predict_cov(self.a_mat, self.p[k], self.q_proc)
                if update:
                    gain, cov = _update_cov(self.h_mat, cov, self.r_meas)
                    gains.append(gain)
                covs.append(cov)
            size = len(self.p)
            self.succ[missing, step] = np.arange(size, size + len(missing))
            self.succ = np.concatenate([self.succ, np.full((len(missing), 2), -1)])
            self.p = np.concatenate([self.p, covs])
            self.gain = np.concatenate([self.gain, np.full((len(missing), 4, 2), np.nan)])
            if update:
                self.gain[missing] = gains
        return self.succ[hist, step]


def run_predictor(states: Sequence[VehicleState], bank: FilterBank,
                  rng: Optional[np.random.Generator] = None) -> dict[int, Roi]:
    """Measure every user of one slot's states and estimate its next ROI.

    A known user's row takes one measurement update; a new user gets a row
    at its first measurement with zero velocity. Every other row counts one
    more missed slot. Classification is suppressed (Straight) until a filter
    has consumed ``warmup_slots`` measurements.
    """
    cfg = bank.cfg
    z = np.array([s.position for s in states], dtype=float).reshape(-1, 2)
    if states and cfg.measurement_noise_std > 0.0:
        if rng is None:
            raise ValueError("measurement noise enabled but no rng supplied")
        z = z + rng.normal(0.0, cfg.measurement_noise_std, size=z.shape)

    ids = np.array([s.user_id for s in states], dtype=np.int64)
    row_of = {uid: r for r, uid in enumerate(bank.uids.tolist())}
    rows = np.array([row_of.get(uid, -1) for uid in ids.tolist()], dtype=np.intp)
    known = np.flatnonzero(rows >= 0)
    known_rows = rows[known]
    hist = bank.hist[known_rows]
    updated = bank.advance(hist, update=True)  # raises before any row changes
    gain = bank.gain[hist]
    x_new = bank.x[known_rows] @ bank.a_mat.T
    innovation = z[known] - x_new @ bank.h_mat.T
    x_new += (innovation[:, None, :] @ gain.swapaxes(1, 2))[:, 0]
    bank.x[known_rows] = x_new
    bank.hist[known_rows] = updated
    bank.updates[known_rows] += 1

    new = np.flatnonzero(rows < 0)
    rows[new] = len(bank.uids) + np.arange(len(new))
    bank.uids = np.concatenate([bank.uids, ids[new]])
    bank.x = np.concatenate([bank.x, np.hstack([z[new], np.zeros((len(new), 2))])])
    bank.hist = np.concatenate([bank.hist, np.zeros(len(new), dtype=np.intp)])
    bank.updates = np.concatenate([bank.updates, np.ones(len(new), dtype=np.int64)])
    bank.missed = np.concatenate([bank.missed + 1, np.zeros(len(new), dtype=np.int64)])
    bank.missed[rows] = 0

    out: dict[int, Roi] = {}
    warm = (bank.updates[rows] >= cfg.warmup_slots).tolist()
    ahead = (bank.x[rows] @ bank.a_mat.T)[:, :2].tolist()
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
    for name in ("uids", "x", "hist", "updates", "missed"):
        setattr(bank, name, getattr(bank, name)[keep])
    rows = np.flatnonzero(bank.missed > 0)
    bank.x[rows] = bank.x[rows] @ bank.a_mat.T
    bank.hist[rows] = bank.advance(bank.hist[rows], update=False)
