"""Per-epoch evaluation metrics and run-level aggregation.

Metrics are scoped to the flagged queue (users with a turn-aligned region of
interest): detected awareness of each queue member, response latency of the
served ones, mean collaborator count over used workers, and the fraction of
queue members whose awareness meets the satisfaction threshold, all read from
the raster bank and instance the solver used. Epochs with an empty queue
report zero-valued, NaN-free aggregates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import EmptyRun
from .geometry import EpochRasters
from .model import Assignment, Turn
from .qmkp import QmkpInstance


@dataclass(frozen=True)
class UserEpochRecord:
    user_id: int
    turn: Turn
    worker_id: Optional[int]
    awareness: float
    latency_s: float  # 0.0 for unserved users
    satisfied: bool


@dataclass(frozen=True)
class EpochReport:
    slot: int
    records: tuple[UserEpochRecord, ...]
    eta: tuple[tuple[int, int], ...]  # (worker id, collaborator count)
    mean_awareness: float
    mean_delay: float
    perception_intensity: float
    satisfaction_ratio: float
    n_flagged: int
    n_assigned: int


def _safe_mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def epoch_metrics(slot: int, rasters: Optional[EpochRasters],
                  inst: Optional[QmkpInstance], assignment: Assignment,
                  turns: Sequence[Turn], n_workers: int, phi: float = 0.35) -> EpochReport:
    """Evaluate one decision epoch on its raster bank and instance (None for an
    empty queue); ``assignment`` and ``turns`` are over the rows of ``rasters.ids``."""
    eta = assignment.eta()
    aware = rasters.awareness(assignment.key(len(turns))).tolist() if turns else []
    records = []
    for i, (turn, awareness) in enumerate(zip(turns, aware)):
        j = assignment.worker_of(i)
        records.append(UserEpochRecord(
            user_id=rasters.ids[i],
            turn=turn,
            worker_id=j,
            awareness=awareness,
            latency_s=0.0 if j is None else inst.latency_of(i, j, eta[j]),
            satisfied=awareness >= phi,
        ))

    served = [r for r in records if r.worker_id is not None]
    # collaborating vehicles per worker, averaged over the deployment
    intensity = len(served) / n_workers if n_workers else 0.0
    return EpochReport(
        slot=slot,
        records=tuple(records),
        eta=tuple(sorted(eta.items())),
        mean_awareness=_safe_mean([r.awareness for r in records]),
        mean_delay=_safe_mean([r.latency_s for r in served]),
        perception_intensity=intensity,
        satisfaction_ratio=_safe_mean([1.0 if r.satisfied else 0.0 for r in records]),
        n_flagged=len(records),
        n_assigned=len(served),
    )


@dataclass(frozen=True)
class RunReport:
    n_epochs: int
    mean_awareness: float
    min_awareness: float
    max_awareness: float
    mean_delay: float
    min_delay: float
    max_delay: float
    mean_intensity: float
    min_intensity: float
    max_intensity: float
    mean_satisfaction: float
    min_satisfaction: float
    max_satisfaction: float

    def to_dict(self) -> dict:
        return {
            "n_epochs": self.n_epochs,
            "awareness": {"mean": self.mean_awareness, "min": self.min_awareness,
                          "max": self.max_awareness},
            "delay": {"mean": self.mean_delay, "min": self.min_delay,
                      "max": self.max_delay},
            "intensity": {"mean": self.mean_intensity, "min": self.min_intensity,
                          "max": self.max_intensity},
            "satisfaction": {"mean": self.mean_satisfaction,
                             "min": self.min_satisfaction,
                             "max": self.max_satisfaction},
        }


def run_aggregate(epochs: Sequence[EpochReport]) -> RunReport:
    """Unweighted means plus extrema over epochs; order-invariant."""
    if not epochs:
        raise EmptyRun("cannot aggregate zero epochs")
    aware = [e.mean_awareness for e in epochs]
    delay = [e.mean_delay for e in epochs]
    inten = [e.perception_intensity for e in epochs]
    satis = [e.satisfaction_ratio for e in epochs]
    return RunReport(
        n_epochs=len(epochs),
        mean_awareness=_safe_mean(aware), min_awareness=min(aware), max_awareness=max(aware),
        mean_delay=_safe_mean(delay), min_delay=min(delay), max_delay=max(delay),
        mean_intensity=_safe_mean(inten), min_intensity=min(inten), max_intensity=max(inten),
        mean_satisfaction=_safe_mean(satis), min_satisfaction=min(satis),
        max_satisfaction=max(satis),
    )
