"""Next-position prediction, turn classification and ROI construction.

A constant-velocity Kalman filter tracks each user from its measured trace
positions. State is [px, py, vx, vy]; only positions are measured. After the
measurement update at slot tau, a one-step prediction gives the expected
position at tau+1. The signed angle between the reported heading and the
predicted displacement classifies the next movement as a left turn, a right
turn, or straight driving; turning users get a triangular region of interest
pointing sideways from their heading.

Every filter of one predictor config shares A, H, Q and R, so its covariance,
one-step predicted covariance and gain depend only on its history of
measurement updates and coasts, never on the measured data. They live in a
tree of ``CovNode`` objects owned by the ``PredictorConfig``: the root holds
P0, and each node is computed and PSD-checked once, on first use, then shared
by every filter with that history. Only the state vector is per user.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from .errors import SingularInnovation
from .model import Roi, Turn, VehicleState

PSD_TOL = 1e-9


def _check_psd(mat: np.ndarray, name: str, tol: float = PSD_TOL) -> None:
    if not np.allclose(mat, mat.T, atol=tol):
        raise ValueError(f"{name} must be symmetric")
    eig = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if eig.min() < -tol:
        raise ValueError(f"{name} must be positive semi-definite, min eig {eig.min():.3e}")


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
    beyond tolerance 1e-12.
    """
    s_mat = h_mat @ p_pred @ h_mat.T + r_meas
    if abs(float(np.linalg.det(s_mat))) < 1e-12:
        raise SingularInnovation(f"innovation covariance is singular: {s_mat.tolist()}")
    gain = np.linalg.solve(s_mat.T, (p_pred @ h_mat.T).T).T
    p_new = (np.eye(4) - gain @ h_mat) @ p_pred
    return gain, 0.5 * (p_new + p_new.T)


@dataclass(frozen=True)
class FilterModel:
    """A, H, Q and R shared by every filter of one predictor config."""

    a_mat: np.ndarray
    h_mat: np.ndarray
    q_proc: np.ndarray
    r_meas: np.ndarray


class CovNode:
    """Covariance of one update/coast history, shared by all filters with it.

    ``p_cov`` is PSD-checked before the node is made. The predicted
    covariance, the gain and the successors after an update or a coast are
    computed on first use and kept.
    """

    __slots__ = ("model", "p_cov", "_p_pred", "_gain", "_updated", "_coasted")

    def __init__(self, model: FilterModel, p_cov: np.ndarray):
        self.model = model
        self.p_cov = _readonly(p_cov)
        self._p_pred: Optional[np.ndarray] = None
        self._gain: Optional[np.ndarray] = None
        self._updated: Optional[CovNode] = None
        self._coasted: Optional[CovNode] = None

    def _child(self, p_cov: np.ndarray) -> "CovNode":
        _check_psd(p_cov, "p_cov")
        return CovNode(self.model, p_cov)

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
            self._updated = self._child(p_new)
            self._gain = _readonly(gain)
        return self._gain, self._updated

    def coast(self) -> "CovNode":
        """Node after one slot without a measurement."""
        if self._coasted is None:
            self._coasted = self._child(self.p_pred)
        return self._coasted


@dataclass(frozen=True)
class KfState:
    """Filter state of one tracked user.

    A state built directly checks its covariances. The states the predictor
    builds sit on a shared ``CovNode`` whose covariances were checked once.
    """

    x_hat: np.ndarray   # (4,) [px, py, vx, vy]
    p_cov: np.ndarray   # (4, 4)
    a_mat: np.ndarray   # (4, 4) state transition
    h_mat: np.ndarray   # (2, 4) position-selecting measurement matrix
    q_proc: np.ndarray  # (4, 4) process noise covariance
    r_meas: np.ndarray  # (2, 2) measurement noise covariance
    updates: int = 0    # measurement updates consumed so far
    node = None         # shared covariance node; not a field, None when built directly

    def __post_init__(self):
        for name in ("x_hat", "p_cov", "a_mat", "h_mat", "q_proc", "r_meas"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.x_hat.shape != (4,):
            raise ValueError("state must be a 4-vector")
        _check_psd(self.p_cov, "p_cov")
        _check_psd(self.q_proc, "q_proc")
        _check_psd(self.r_meas, "r_meas")

    @classmethod
    def on_node(cls, x_hat: np.ndarray, node: CovNode, updates: int) -> "KfState":
        """State with a fresh 4-vector on an already checked shared node."""
        s = object.__new__(cls)
        m = node.model
        for name, value in (("x_hat", _readonly(x_hat)), ("p_cov", node.p_cov),
                            ("a_mat", m.a_mat), ("h_mat", m.h_mat),
                            ("q_proc", m.q_proc), ("r_meas", m.r_meas),
                            ("updates", updates), ("node", node)):
            object.__setattr__(s, name, value)
        return s


@dataclass(frozen=True)
class PredictorConfig:
    """Tunables of the mobility predictor; all values config-overridable."""

    delta: float = 1.0
    p0_diag: tuple[float, float, float, float] = (1.0, 1.0, 10.0, 10.0)
    q_diag: tuple[float, float, float, float] = (0.01, 0.01, 0.1, 0.1)
    r_diag: tuple[float, float] = (0.25, 0.25)
    theta_turn: float = math.radians(15.0)
    warmup_slots: int = 3
    roi_height: float = 10.0
    measurement_noise_std: float = 0.0  # optional additive noise, off by default

    @cached_property
    def cov_root(self) -> CovNode:
        """Root of this config's covariance tree; P0, Q and R are checked here once."""
        p0 = np.diag(self.p0_diag).astype(float)
        model = FilterModel(
            a_mat=_readonly(cv_transition(self.delta)),
            h_mat=_readonly(MEASUREMENT_MATRIX.copy()),
            q_proc=_readonly(np.diag(self.q_diag).astype(float)),
            r_meas=_readonly(np.diag(self.r_diag).astype(float)),
        )
        for name, mat in (("p_cov", p0), ("q_proc", model.q_proc),
                          ("r_meas", model.r_meas)):
            _check_psd(mat, name)
        return CovNode(model, p0)


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


def init_state(first_pos, cfg: PredictorConfig) -> KfState:
    """Filter for a newly seen user: measured position, zero velocity."""
    x0 = np.array([float(first_pos[0]), float(first_pos[1]), 0.0, 0.0])
    return KfState.on_node(x0, cfg.cov_root, updates=1)


def kf_predict(s: KfState) -> tuple[np.ndarray, np.ndarray]:
    """One-step-ahead state and covariance prediction."""
    x_pred = s.a_mat @ s.x_hat
    if s.node is not None:
        return x_pred, s.node.p_pred
    return x_pred, _predict_cov(s.a_mat, s.p_cov, s.q_proc)


def kf_update(s: KfState, x_pred: np.ndarray, p_pred: np.ndarray,
              z: np.ndarray) -> KfState:
    """Fold measurement z into the predicted state.

    Raises SingularInnovation when the 2x2 innovation covariance is singular
    beyond tolerance 1e-12.
    """
    z = np.asarray(z, dtype=float)
    innovation = z - s.h_mat @ x_pred
    # a state on a node, given that node's own prediction, takes the shared
    # gain and successor; any other covariance is updated and checked here
    if s.node is not None and p_pred is s.node.p_pred:
        gain, node = s.node.update()
        return KfState.on_node(x_pred + gain @ innovation, node, s.updates + 1)
    gain, p_new = _update_cov(s.h_mat, p_pred, s.r_meas)
    return KfState(x_pred + gain @ innovation, p_new, s.a_mat, s.h_mat,
                   s.q_proc, s.r_meas, s.updates + 1)


def coast(s: KfState) -> KfState:
    """Advance a filter one slot without a measurement."""
    x_pred, p_pred = kf_predict(s)
    if s.node is not None:
        return KfState.on_node(x_pred, s.node.coast(), s.updates)
    return KfState(x_pred, p_pred, s.a_mat, s.h_mat, s.q_proc, s.r_meas,
                   s.updates)


def signed_heading_angle(heading: float, displacement) -> float:
    """Signed angle from the heading vector to a displacement, ccw positive."""
    hx, hy = math.cos(heading), math.sin(heading)
    dx, dy = float(displacement[0]), float(displacement[1])
    return math.atan2(hx * dy - hy * dx, hx * dx + hy * dy)


def classify_turn(current: VehicleState, predicted_pos,
                  theta_turn: float) -> Turn:
    """Left/Right/Straight from the predicted displacement vs the heading."""
    dx = float(predicted_pos[0]) - current.position[0]
    dy = float(predicted_pos[1]) - current.position[1]
    if dx == 0.0 and dy == 0.0:
        return Turn.STRAIGHT
    phi = signed_heading_angle(current.heading, (dx, dy))
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
    if roi_height <= 0:
        raise ValueError(f"roi height must be positive, got {roi_height}")
    if turn is Turn.STRAIGHT:
        return Roi(triangle=None, turn=turn)
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


@dataclass(frozen=True)
class PredictorOutput:
    predicted_pos: tuple[float, float]
    turn: Turn
    roi: Roi
    state: KfState


def run_predictor(trace, slot: int, kf_bank: Mapping[int, KfState],
                  cfg: PredictorConfig,
                  rng: Optional[np.random.Generator] = None) -> dict[int, PredictorOutput]:
    """Advance every user present at the slot and classify its next movement.

    New users are initialized from their first measurement. Classification is
    suppressed (Straight) until a filter has consumed ``warmup_slots``
    measurements. Inputs are not mutated; callers merge the returned states
    into their bank.
    """
    record = trace.record_at(slot)
    out: dict[int, PredictorOutput] = {}
    if record is None:
        return out
    for state in record.states:
        uid = state.user_id
        z = np.array(state.position, dtype=float)
        if cfg.measurement_noise_std > 0.0:
            if rng is None:
                raise ValueError("measurement noise enabled but no rng supplied")
            z = z + rng.normal(0.0, cfg.measurement_noise_std, size=2)
        prior = kf_bank.get(uid)
        if prior is None:
            kf = init_state(z, cfg)
        else:
            x_pred, p_pred = kf_predict(prior)
            kf = kf_update(prior, x_pred, p_pred, z)
        ahead = kf.a_mat @ kf.x_hat
        predicted_pos = (float(ahead[0]), float(ahead[1]))
        if kf.updates >= cfg.warmup_slots:
            turn = classify_turn(state, predicted_pos, cfg.theta_turn)
        else:
            turn = Turn.STRAIGHT
        roi = estimate_roi(state, turn, cfg.roi_height)
        out[uid] = PredictorOutput(predicted_pos, turn, roi, kf)
    return out
