"""Domain types shared by all modules.

Conventions used everywhere in this package: user and worker ids are dense
integers 0..n-1 / 0..m-1, tie-breaking is always "lowest id first", and all
types are immutable value objects after construction. The per-slot types are
plain records: their values are checked once where they enter, by the config
and by ``load_trace``, and stored as given.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

TWO_PI = 2.0 * math.pi


def normalize_heading(theta: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    t = math.fmod(float(theta), TWO_PI)
    if t < 0.0:
        t += TWO_PI
    return 0.0 if t == TWO_PI else t


class Turn(Enum):
    LEFT = "left"
    RIGHT = "right"
    STRAIGHT = "straight"


@dataclass(frozen=True)
class VehicleState:
    """Kinematic record of one user at one time slot."""

    user_id: int
    position: tuple[float, float]  # meters
    heading: float                 # rad, wrapped to [0, 2pi)
    speed: float                   # m/s
    slot: int


@dataclass(frozen=True)
class Worker:
    """An edge server attached to a roadside unit."""

    id: int
    position: tuple[float, float]
    cpu_capacity: float  # cycles/s
    comm_range: float    # meters


@dataclass(frozen=True)
class Roi:
    """Triangular region of interest aligned with a predicted turn.

    A STRAIGHT turn carries no triangle (``triangle is None``).
    """

    triangle: Optional[tuple[tuple[float, float], ...]]  # 3 vertices
    turn: Turn


STRAIGHT_ROI = Roi(triangle=None, turn=Turn.STRAIGHT)


class Assignment:
    """User -> worker decision map; each user served by at most one worker.

    Immutable. Unassigned users are simply absent from the map. Solvers work
    on the equivalent worker vector (:meth:`key`) and build an assignment
    only to score or return it.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[int, Optional[int]] | None = None):
        m: dict[int, int] = {}
        if mapping:
            for u, w in mapping.items():
                if w is None:
                    continue
                m[int(u)] = int(w)
        object.__setattr__(self, "_map", m)

    @classmethod
    def empty(cls) -> "Assignment":
        return cls()

    @classmethod
    def from_key(cls, key: Sequence[int]) -> "Assignment":
        """Inverse of :meth:`key`: user u goes to ``key[u]``, -1 leaves it out."""
        return cls({u: w for u, w in enumerate(key) if w >= 0})

    def worker_of(self, user: int) -> Optional[int]:
        return self._map.get(user)

    def assigned_users(self) -> tuple[int, ...]:
        return tuple(sorted(self._map))

    def eta(self) -> dict[int, int]:
        """Per-worker collaborator counts, recomputed from the map."""
        counts: dict[int, int] = {}
        for w in self._map.values():
            counts[w] = counts.get(w, 0) + 1
        return counts

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._map.items()))

    def key(self, n: int) -> tuple[int, ...]:
        """Canonical id-order vector for lexicographic comparisons.

        Unassigned encodes as -1 so that, on objective ties, leaving a user
        out is preferred over offloading it without benefit.
        """
        return tuple(self._map.get(u, -1) for u in range(n))

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Assignment) and self._map == other._map

    def __hash__(self) -> int:
        return hash(self.items())

    def __repr__(self) -> str:
        body = ", ".join(f"{u}->{w}" for u, w in self.items())
        return f"Assignment({{{body}}})"

