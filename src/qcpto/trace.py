"""Mobility trace ingestion and the synthetic intersection scenario.

Traces are per-slot lists of vehicle states. Files use the CSV schema
``slot,user_id,x_m,y_m,heading_rad,speed_mps`` with a literal header row,
UTF-8 and LF endings; rows must be grouped by non-decreasing slot. The
schema is producible from a SUMO FCD export by a trivial external script,
but SUMO itself is not a dependency: a deterministic generator synthesizes
the 200x200 m four-way intersection scenario directly.

Vehicles approach the central intersection along lanes, execute their turn
intent as a piecewise-linear path with a quarter-circle arc, and leave the
region. The reported heading is the *route* heading: it keeps the approach
direction through the arc and switches to the exit direction once the
vehicle has settled a few slots into the exit leg. Reporting the road
heading rather than the instantaneous arc tangent is what lets a filter
that extrapolates measured positions detect the turn with the correct sign.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import ConfigError, InvariantError, ParseError
from .model import VehicleState, normalize_heading

if TYPE_CHECKING:  # config imports check_routes from here
    from .config import ScenarioSection

CSV_HEADER = "slot,user_id,x_m,y_m,heading_rad,speed_mps"


@dataclass(frozen=True)
class SlotRecord:
    slot: int
    states: tuple[VehicleState, ...]  # ascending user id, each at most once


@dataclass(frozen=True)
class Trace:
    records: tuple[SlotRecord, ...]  # slots increasing by 1

    @property
    def n_slots(self) -> int:
        return len(self.records)

    def user_ids(self) -> tuple[int, ...]:
        ids = {s.user_id for r in self.records for s in r.states}
        return tuple(sorted(ids))

    def speed_violations(self, max_speed: float, delta: float,
                         tol: float = 0.10) -> list[str]:
        """Consecutive displacements exceeding max_speed*delta by more than tol."""
        out = []
        limit = max_speed * delta * (1.0 + tol)
        for prev, cur in zip(self.records, self.records[1:]):
            prev_pos = {s.user_id: s.position for s in prev.states}
            for s in cur.states:
                if s.user_id in prev_pos:
                    px, py = prev_pos[s.user_id]
                    step = math.hypot(s.position[0] - px, s.position[1] - py)
                    if step > limit:
                        out.append(
                            f"user {s.user_id} moved {step:.3f} m into slot "
                            f"{cur.slot}, limit {limit:.3f} m")
        return out


def load_trace(path, delta: float, max_speed: Optional[float] = None) -> Trace:
    """Parse a trace CSV; empty files yield an empty trace.

    Headings are wrapped to [0, 2*pi) and each slot's rows sorted by user
    id; interior slots with no rows are represented as empty records so the
    slot axis stays contiguous. Raises ParseError for malformed, non-finite
    or duplicate rows and InvariantError for decreasing slots or (with
    max_speed given) physically inconsistent steps.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return Trace(())
    if lines[0].strip() != CSV_HEADER:
        raise ParseError(1, f"expected header {CSV_HEADER!r}, got {lines[0]!r}")

    by_slot: dict[int, list[VehicleState]] = {}
    seen: set[tuple[int, int]] = set()
    last_slot: Optional[int] = None
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.strip() == "":
            continue
        parts = raw.split(",")
        if len(parts) != 6:
            raise ParseError(lineno, f"expected 6 fields, got {len(parts)}")
        try:
            slot = int(parts[0])
            uid = int(parts[1])
            x, y = float(parts[2]), float(parts[3])
            heading = float(parts[4])
            speed = float(parts[5])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
        if not all(map(math.isfinite, (x, y, heading, speed))):
            raise ParseError(lineno, f"non-finite value in {raw!r}")
        if speed < 0:
            raise ParseError(lineno, f"negative speed {speed}")
        if (slot, uid) in seen:
            raise ParseError(lineno, f"duplicate row for slot {slot}, user {uid}")
        seen.add((slot, uid))
        if last_slot is not None and slot < last_slot:
            raise InvariantError(
                f"line {lineno}: slots must be non-decreasing, got {slot} after {last_slot}")
        last_slot = slot
        by_slot.setdefault(slot, []).append(
            VehicleState(uid, (x, y), normalize_heading(heading), speed, slot))

    if not by_slot:
        return Trace(())
    lo, hi = min(by_slot), max(by_slot)
    records = tuple(SlotRecord(s, tuple(sorted(by_slot.get(s, ()), key=lambda v: v.user_id)))
                    for s in range(lo, hi + 1))
    trace = Trace(records)
    if max_speed is not None:
        violations = trace.speed_violations(max_speed, delta)
        if violations:
            raise InvariantError("; ".join(violations))
    return trace


# vehicles re-enter on a fresh route after leaving, keeping the vehicle
# population steady for the whole run; the gap, drawn uniformly in slots,
# lets trackers reset
RESPAWN_GAP_SLOTS = (5, 9)

_INTENTS = ("left", "right", "straight")

# approach travel directions: from south, north, west, east
_APPROACH_DIRS = ((0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0))


def _rot_left(v):
    return (-v[1], v[0])


def _rot_right(v):
    return (v[1], -v[0])


def _lane_line(center, direction, lane_offset):
    """A point on the lane's center line and its direction (right-hand traffic)."""
    right = _rot_right(direction)
    return (center[0] + right[0] * lane_offset,
            center[1] + right[1] * lane_offset), direction


def _boundary_distance(point, direction, w, h):
    """Distance along direction from point to the region boundary."""
    best = math.inf
    x, y = point
    dx, dy = direction
    if dx > 0:
        best = min(best, (w - x) / dx)
    elif dx < 0:
        best = min(best, (0.0 - x) / dx)
    if dy > 0:
        best = min(best, (h - y) / dy)
    elif dy < 0:
        best = min(best, (0.0 - y) / dy)
    return best


@dataclass(frozen=True)
class _Path:
    spawn: tuple[float, float]
    d_in: tuple[float, float]
    d_out: tuple[float, float]
    len_approach: float
    len_arc: float
    len_exit: float
    arc_center: tuple[float, float]
    arc_start: tuple[float, float]
    ccw: bool  # True for a left turn

    @property
    def total(self) -> float:
        return self.len_approach + self.len_arc + self.len_exit

    def position_at(self, s: float) -> tuple[float, float, float]:
        """(x, y, distance travelled into the exit leg) at path length s."""
        if s <= self.len_approach or self.len_arc == 0.0:
            return (self.spawn[0] + self.d_in[0] * s,
                    self.spawn[1] + self.d_in[1] * s, 0.0)
        s2 = s - self.len_approach
        if s2 <= self.len_arc:
            frac = s2 / self.len_arc
            ang = (math.pi / 2) * frac * (1.0 if self.ccw else -1.0)
            vx = self.arc_start[0] - self.arc_center[0]
            vy = self.arc_start[1] - self.arc_center[1]
            ca, sa = math.cos(ang), math.sin(ang)
            return (self.arc_center[0] + vx * ca - vy * sa,
                    self.arc_center[1] + vx * sa + vy * ca, 0.0)
        s3 = s2 - self.len_arc
        # exit tangency point: rotate arc start by the full quarter turn
        ang = (math.pi / 2) * (1.0 if self.ccw else -1.0)
        vx = self.arc_start[0] - self.arc_center[0]
        vy = self.arc_start[1] - self.arc_center[1]
        ca, sa = math.cos(ang), math.sin(ang)
        bx = self.arc_center[0] + vx * ca - vy * sa
        by = self.arc_center[1] + vx * sa + vy * ca
        return (bx + self.d_out[0] * s3, by + self.d_out[1] * s3, s3)


def _build_path(approach: int, lane: int, intent: str, sc: ScenarioSection) -> _Path:
    center = (sc.region_w / 2.0, sc.region_h / 2.0)
    d_in = _APPROACH_DIRS[approach]
    offset = sc.lane_width * (lane + 0.5)
    p_in, _ = _lane_line(center, d_in, offset)
    # spawn where the lane line enters the region (walk backwards to the boundary)
    back = _boundary_distance(p_in, (-d_in[0], -d_in[1]), sc.region_w, sc.region_h)
    spawn = (p_in[0] - d_in[0] * back, p_in[1] - d_in[1] * back)

    if intent == "straight":
        length = _boundary_distance(spawn, d_in, sc.region_w, sc.region_h)
        return _Path(spawn, d_in, d_in, length, 0.0, 0.0, (0.0, 0.0), (0.0, 0.0), False)

    ccw = intent == "left"
    d_out = _rot_left(d_in) if ccw else _rot_right(d_in)
    p_out, _ = _lane_line(center, d_out, offset)
    rad = sc.arc_radius_m
    # arc center sits at distance rad on the turn's inner side of both lane lines
    side_in = _rot_left(d_in) if ccw else _rot_right(d_in)
    side_out = _rot_left(d_out) if ccw else _rot_right(d_out)
    # solve center = p_in + t*d_in + rad*side_in = p_out + u*d_out + rad*side_out
    # exploit axis-alignment: one coordinate comes from each line
    if d_in[0] == 0.0:  # vertical approach, horizontal exit
        cx = p_in[0] + rad * side_in[0]
        cy = p_out[1] + rad * side_out[1]
    else:
        cx = p_out[0] + rad * side_out[0]
        cy = p_in[1] + rad * side_in[1]
    arc_center = (cx, cy)
    arc_start = (cx - rad * side_in[0], cy - rad * side_in[1])
    len_approach = ((arc_start[0] - spawn[0]) * d_in[0]
                    + (arc_start[1] - spawn[1]) * d_in[1])
    if len_approach < 0:
        raise ConfigError("arc radius too large for the configured region")
    len_arc = rad * math.pi / 2.0
    arc_end = (cx - rad * side_out[0], cy - rad * side_out[1])
    len_exit = _boundary_distance(arc_end, d_out, sc.region_w, sc.region_h)
    return _Path(spawn, d_in, d_out, len_approach, len_arc, len_exit,
                 arc_center, arc_start, ccw)


def check_routes(sc: ScenarioSection) -> None:
    """Build the turning routes at the extreme lanes of every approach.

    Raises ConfigError when an arc does not fit between the region boundary
    and its lane. The approach length is linear in the lane offset, so the
    innermost and outermost lanes bound every route the synthesizer draws.
    """
    for approach in range(len(_APPROACH_DIRS)):
        for lane in {0, sc.lanes_per_direction - 1}:
            for intent in ("left", "right"):
                _build_path(approach, lane, intent, sc)


def _speed_profile(path: _Path, cruise: float, sc: ScenarioSection,
                   turning: bool) -> list[tuple[float, float]]:
    """(segment end distance, speed) pairs; vehicles slow through the arc."""
    if not turning:
        return [(path.total, cruise)]
    slow = max(cruise * sc.turn_speed_frac, 0.1)
    s1 = max(0.0, path.len_approach - sc.slow_margin_m)
    s2 = min(path.total, path.len_approach + path.len_arc + sc.slow_margin_m)
    return [(s1, cruise), (s2, slow), (path.total, cruise)]


def _distance_at(profile: list[tuple[float, float]], t: float) -> tuple[float, float]:
    """(distance travelled, current speed) after t seconds along a profile."""
    s = 0.0
    for end, v in profile:
        seg_time = (end - s) / v if v > 0 else 0.0
        if t <= seg_time:
            return s + v * t, v
        s = end
        t -= seg_time
    return profile[-1][0] + 1e-9, profile[-1][1]  # past the end


def synth_intersection(sc: ScenarioSection, seed: int) -> Trace:
    """Deterministic synthetic trace of the four-way intersection scenario."""
    rng = random.Random(seed)
    n_slots = int(round(sc.duration_s / sc.delta_s))
    max_speed = sc.max_speed_kmh / 3.6  # m/s
    spawn_window = max(0, int(n_slots * sc.spawn_window_frac) - 1)
    probs = sc.turn_probs
    total_p = sum(probs)

    by_slot: dict[int, list[VehicleState]] = {s: [] for s in range(n_slots)}
    for uid in range(sc.n_vehicles):
        start_slot = rng.randint(0, spawn_window) if spawn_window else 0
        while start_slot < n_slots:
            approach = rng.randrange(4)
            lane = rng.randrange(sc.lanes_per_direction)
            r = rng.random() * total_p
            intent = _INTENTS[0] if r < probs[0] else (
                _INTENTS[1] if r < probs[0] + probs[1] else _INTENTS[2])
            cruise = max_speed * rng.uniform(*sc.speed_frac)
            jitter = rng.uniform(0.0, sc.spawn_jitter_m)

            turning = intent != "straight"
            path = _build_path(approach, lane, intent, sc)
            profile = _speed_profile(path, cruise, sc, turning)
            settle_dist = (sc.heading_settle_slots * cruise * sc.turn_speed_frac
                           * sc.delta_s)
            h_in = normalize_heading(math.atan2(path.d_in[1], path.d_in[0]))
            h_out = normalize_heading(math.atan2(path.d_out[1], path.d_out[0]))
            slot = start_slot
            for slot in range(start_slot, n_slots):
                t_rel = sc.delta_s * (slot - start_slot)
                s, speed = _distance_at(profile, t_rel)
                s += jitter
                if s > path.total:
                    break
                x, y, into_exit = path.position_at(s)
                heading = h_out if (turning and into_exit >= settle_dist) else h_in
                by_slot[slot].append(VehicleState(uid, (x, y), heading, speed, slot))
            start_slot = slot + rng.randint(*RESPAWN_GAP_SLOTS)

    records = tuple(SlotRecord(s, tuple(by_slot[s])) for s in range(n_slots))
    return Trace(records)
