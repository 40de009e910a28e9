"""Response-latency terms and the worker capacity bound.

Response latency is computation plus transmission; propagation delay is
negligible at edge distances and the result frame sent back to the user is
small enough to ignore. Worker CPU is divided equally among the eta_j users
it is currently serving. ``QmkpInstance.latency_of`` evaluates the same sum,
``l * eta_j / c_j + lam / r_ij``, from an epoch's per-user and per-worker
arrays.
"""
from __future__ import annotations

import math

from .errors import DomainError


def compute_delay(l: float, c_j: float, eta_j: int) -> float:
    """Execution time of an l-cycle task on a worker shared by eta_j users."""
    if c_j <= 0:
        raise DomainError(f"cpu capacity must be positive, got {c_j}")
    if eta_j < 1:
        raise DomainError(f"eta_j must be >= 1, got {eta_j}")
    if l < 0:
        raise DomainError(f"workload must be >= 0, got {l}")
    return l * eta_j / c_j


def transmit_delay(lam: float, r_ij: float) -> float:
    """Uplink time of a lam-bit perception frame at rate r_ij."""
    if r_ij <= 0:
        raise DomainError(f"data rate must be positive, got {r_ij}")
    if lam < 0:
        raise DomainError(f"frame size must be >= 0, got {lam}")
    return lam / r_ij


def worker_capacity(kappa: float, c_j: float, l_bar: float) -> int:
    """Upper bound on the number of users a worker can serve by the deadline.

    l_bar is the mean workload over the queued users. Flooring is the
    feasibility-preserving rounding choice.
    """
    if kappa <= 0 or c_j <= 0 or l_bar <= 0:
        raise DomainError(
            f"kappa, c_j and l_bar must be positive, got {kappa}, {c_j}, {l_bar}")
    return int(math.floor(kappa * c_j / l_bar))
