"""Quadratic multiple knapsack instances and shared solver machinery.

An instance holds the pairwise quality matrix, per-worker capacities and
the one offloading task every user runs: the comm-range eligibility mask,
user-worker distances, worker CPU, uplink times, the task's workload l and
its deadline kappa. Every user weighs one unit, so a capacity is the number
of collaborators a worker may host. ``QmkpInstance.from_task`` derives both
from the offloading model: user i's response latency on worker j, shared by
eta users, is l * eta / C_j + lambda / R_ij (computation plus uplink;
propagation and the returned result are negligible), and worker j hosts at
most floor(kappa * C_j / l) users. Every field is checked once, on
construction.

The exhaustive enumerator here is the correctness oracle for the exact
solver: it scores every feasible assignment by brute force and never shares
code with the branch-and-bound search.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .geometry import QualityMatrix
from .model import Assignment

DEADLINE_TOL = 1e-12  # seconds a response time may exceed kappa by rounding


@dataclass(frozen=True)
class QmkpInstance:
    quality: QualityMatrix
    capacity: tuple[float, ...]   # (m,) per-worker collaborator count
    allowed: np.ndarray           # (n, m) bool, comm-range eligibility
    distance: np.ndarray          # (n, m) meters, used by the go baseline
    cpu: np.ndarray               # (m,) worker cycles/s C_j
    transmit: np.ndarray          # (n, m) seconds (lambda / R_ij)
    workload: float               # task cycles l
    kappa: float                  # deadline, seconds

    def __post_init__(self):
        caps = tuple(float(c) for c in self.capacity)
        if not caps:
            raise ValueError("capacity must name at least one worker")
        if not all(0 <= c < math.inf for c in caps):
            raise ValueError(f"capacities must be finite and >= 0, got {caps}")
        object.__setattr__(self, "capacity", caps)
        n, m = self.n, self.m
        # positive: whether 0 is out of range (a worker without CPU never
        # finishes); None for the eligibility mask, which has no range
        for name, shape, positive in (("allowed", (n, m), None), ("distance", (n, m), False),
                                      ("cpu", (m,), True), ("transmit", (n, m), False),
                                      ("workload", (), False), ("kappa", (), False)):
            arr = np.asarray(getattr(self, name), dtype=bool if positive is None else float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if positive is not None:
                in_domain = arr > 0 if positive else arr >= 0
                if not (np.isfinite(arr) & in_domain).all():
                    raise DomainError(f"{name} must be finite and {'>' if positive else '>='} 0, "
                                      f"got {arr.min()!r}")
            if shape:
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
            else:
                object.__setattr__(self, name, float(arr))

    @classmethod
    def from_task(cls, quality: QualityMatrix, cpu, rates, workload: float,
                  frame_bits: float, deadline: float, allowed: np.ndarray,
                  distance: np.ndarray) -> "QmkpInstance":
        """Instance of n users that all offload one task (l, lambda, kappa).

        ``cpu`` is C_j (cycles/s) per worker and ``rates`` R_ij (bits/s) per
        user and worker. Worker j hosts at most floor(kappa * C_j / l) users,
        the most equal shares of its CPU that each finish an l-cycle task by
        the deadline; user i's uplink time to worker j is lambda / R_ij.
        """
        cpu = np.asarray(cpu, dtype=float)
        return cls(quality, capacity=np.floor(deadline * cpu / workload),
                   allowed=allowed, distance=distance, cpu=cpu,
                   transmit=frame_bits / np.asarray(rates, dtype=float),
                   workload=workload, kappa=deadline)

    @property
    def n(self) -> int:
        return self.quality.n

    @property
    def m(self) -> int:
        return len(self.capacity)

    def latency_of(self, i: int, j: int, eta: int) -> float:
        """Response latency l * eta / C_j + lambda / R_ij of user i on worker j.

        The worker's CPU is shared equally by the eta users it serves; this
        is the latency the deadline repair checks and the metrics report.
        """
        return self.workload * eta / float(self.cpu[j]) + float(self.transmit[i, j])


@dataclass(frozen=True)
class Solution:
    assignment: Assignment
    objective: float
    nodes: int = 0
    iterations: int = 0
    budget_exceeded: bool = False
    trajectory: tuple[float, ...] = ()  # best-so-far objective per iteration


def evaluate_objective(assignment: Assignment, quality: QualityMatrix) -> float:
    """Sum of q_ik over unordered co-assigned pairs.

    Pairs are accumulated in global (i, k) id order so that assignments
    realizing the same pair set produce bit-identical objectives.
    """
    q = quality.q
    users = assignment.assigned_users()
    total = 0.0
    for a, i in enumerate(users):
        wi = assignment.worker_of(i)
        for k in users[a + 1:]:
            if assignment.worker_of(k) == wi:
                total += float(q[i, k])
    return total


def check_feasible(assignment: Assignment, inst: QmkpInstance,
                   strict_deadline: bool = False) -> tuple[bool, list[str]]:
    """Verify min-pair, capacity, eligibility and optionally deadlines.

    An unknown user or worker is reported once, and its row is not checked
    further.
    """
    violations: list[str] = []
    eta = assignment.eta()
    for j, count in sorted(eta.items()):
        if j < 0 or j >= inst.m:
            violations.append(f"worker {j} does not exist")
            continue
        if count == 1:
            violations.append(f"worker {j} hosts a single user (needs >= 2)")
        if count > inst.capacity[j]:
            violations.append(
                f"worker {j} hosts {count} users, capacity {inst.capacity[j]:g}")
    known: list[tuple[int, int]] = []
    for u, j in assignment.items():
        if u < 0 or u >= inst.n:
            violations.append(f"user {u} does not exist")
        elif 0 <= j < inst.m:
            known.append((u, j))
            if not inst.allowed[u, j]:
                violations.append(f"user {u} not eligible for worker {j}")
    if strict_deadline:
        for u, j in known:
            t = inst.latency_of(u, j, eta[j])
            if t > inst.kappa + DEADLINE_TOL:
                violations.append(
                    f"user {u} response time {t:.6f} s exceeds deadline {inst.kappa:g} s")
    return (not violations, violations)


def repair_min_pair(assignment: Assignment) -> Assignment:
    """Evict users that sit alone on a worker."""
    eta = assignment.eta()
    if 1 not in eta.values():
        return assignment
    return Assignment({u: j for u, j in assignment.items() if eta[j] != 1})


def repair_deadline(assignment: Assignment, inst: QmkpInstance,
                    enforce_min_pair: bool = True) -> Assignment:
    """Evict lowest-contribution users until every response time meets its deadline.

    A user's contribution is its quality toward its co-members, summed in id
    order. Evictions can leave singletons, so schemes bound by the two-user
    minimum finish with a min-pair pass; baselines that ignore that
    constraint pass ``enforce_min_pair=False``.
    """
    q = inst.quality.q
    limit = inst.kappa + DEADLINE_TOL
    current = assignment
    while True:
        placed = current.items()
        eta = current.eta()
        offenders = [u for u, j in placed if inst.latency_of(u, j, eta[j]) > limit]
        if not offenders:
            break

        def contribution(u: int) -> float:
            j = current.worker_of(u)
            return sum(float(q[u, k]) for k, w in placed if w == j and k != u)

        victim = min(offenders, key=lambda u: (contribution(u), u))
        current = Assignment({u: j for u, j in placed if u != victim})
    return repair_min_pair(current) if enforce_min_pair else current


def instance_to_json(inst: QmkpInstance) -> str:
    """Serialize for test corpora: upper-triangle q, capacities and the task."""
    iu, ik = np.triu_indices(inst.n, 1)
    doc = {
        "n": inst.n,
        "m": inst.m,
        "q": [float(v) for v in inst.quality.q[iu, ik]],
        "capacities": list(inst.capacity),
        "allowed": inst.allowed.astype(int).tolist(),
        "distance": inst.distance.tolist(),
        "cpu": inst.cpu.tolist(),
        "transmit": inst.transmit.tolist(),
        "workload": inst.workload,
        "kappa": inst.kappa,
    }
    return json.dumps(doc, sort_keys=True)


def random_instance(rng: np.random.Generator, max_n: int = 10,
                    max_m: int = 3) -> QmkpInstance:
    """Random instance for oracle corpora.

    Only q and the capacities are random. The task is fixed so that every
    response latency is exactly 1 s: every worker eligible at distance 0,
    no compute time, and a 1 s uplink against a 1 s deadline. The density
    order then divides by 1.0, which leaves each contribution bit for bit.
    """
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    upper = rng.uniform(0.0, 1.0, size=(n, n))
    q = np.triu(upper, 1)
    q = q + q.T
    caps = tuple(int(rng.integers(0, n + 1)) for _ in range(m))
    return QmkpInstance(quality=QualityMatrix(q), capacity=caps,
                        allowed=np.ones((n, m), dtype=bool), distance=np.zeros((n, m)),
                        cpu=np.ones(m), transmit=np.ones((n, m)), workload=0.0, kappa=1.0)


def enumerate_optimal(inst: QmkpInstance, chunk_size: int = 1 << 16) -> Solution:
    """Brute-force optimum over all (m+1)^n assignments.

    Independent of the branch-and-bound path: every assignment is scored
    directly. The winner's objective is re-evaluated canonically so it is
    comparable bit-for-bit with other solvers.
    """
    n, m = inst.n, inst.m
    q = inst.quality.q
    caps = np.asarray(inst.capacity)
    total = (m + 1) ** n
    iu, ik = np.triu_indices(n, 1)
    pair_q = q[iu, ik]
    allowed_ext = np.ones((n, m + 1), dtype=bool)
    allowed_ext[:, :m] = inst.allowed
    radix = (m + 1) ** np.arange(n)[::-1]

    # keep every row scoring within a tiny band of the running max, then pick
    # the true winner by canonical re-evaluation
    band = 1e-9
    max_candidates = 4096
    best_vec = -np.inf
    candidates: list[tuple[float, np.ndarray]] = []
    for start in range(0, total, chunk_size):
        idx = np.arange(start, min(start + chunk_size, total), dtype=np.int64)
        digits = (idx[:, None] // radix[None, :]) % (m + 1)
        feas = np.all(allowed_ext[np.arange(n)[None, :], digits], axis=1)
        for j in range(m):
            cnt = (digits == j).sum(axis=1)
            feas &= (cnt <= caps[j]) & (cnt != 1)
        if not feas.any():
            continue
        digits = digits[feas]
        same = (digits[:, iu] == digits[:, ik]) & (digits[:, iu] != m)
        obj = same @ pair_q
        chunk_best = float(obj.max())
        if chunk_best > best_vec:
            best_vec = chunk_best
            candidates = [(s, r) for s, r in candidates if s >= best_vec - band]
        for pos in np.nonzero(obj >= best_vec - band)[0]:
            candidates.append((float(obj[pos]), digits[pos].copy()))
        if len(candidates) > max_candidates:
            candidates.sort(key=lambda sr: -sr[0])
            del candidates[max_candidates:]

    best_sol: Optional[Assignment] = None
    best_obj = -math.inf
    for _, row in candidates:
        a = Assignment({u: int(row[u]) for u in range(n) if row[u] != m})
        val = evaluate_objective(a, inst.quality)
        if val > best_obj or (val == best_obj and
                              (best_sol is None or a.key(n) < best_sol.key(n))):
            best_obj = val
            best_sol = a
    if best_sol is None:  # only possible when nothing is feasible except empty
        best_sol, best_obj = Assignment.empty(), 0.0
    return Solution(best_sol, best_obj, nodes=total)
