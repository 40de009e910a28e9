"""Seeded solver outputs, pinned by digest.

Each digest is the sha256 of one row per solve: the assignment vector, the
objective's repr and the search counters. Any change to a solver's search
order, to the order of a float sum or to the work a search does changes the
digest. The synthetic queues carry the pipeline's task, so they pin the
density order that divides contribution by response time; the random
corpora carry a fixed task whose every response time is exactly 1 s, so
their density is the contribution bit for bit. The gap table of
``qcpto oracle --n 8 --m 3 --count 60 --seed 0`` is pinned whole; it was
recorded before the oracle instances carried a task. The digests were recorded
before the solvers moved to one worker-vector state, whose sums keep every
term and its order. The heuristic digest was re-recorded when the synthetic
queues' capacities became floor(kappa * C / l) from the one task: before,
the float mean of n equal deadlines read 0.39999999999999997 for n = 6 and
10, which gave the 4 and 5 GHz workers 7 and 9 slots instead of 8 and 10.
The other three digests did not move. The exact digest was re-recorded when
the search gained its predecessor-only bound and opened one empty worker
per class of interchangeable workers: the node counts fell from 54,051 to
44,893 and the budget hits from 12 to 7. Of the 70 rows, 66 kept their
assignment and objective; one budget-bound row scored higher and three kept
their objective under another assignment, and none scored lower.
"""
import hashlib

import numpy as np
import pytest

from qcpto.baselines import solve_cpto, solve_go
from qcpto.cli import main
from qcpto.config import SolverSection
from qcpto.qmkp import evaluate_objective, random_instance
from qcpto.sim import make_synthetic_instance
from qcpto.solve_exact import solve_exact
from qcpto.solve_heur import solve_heuristic

EXACT_BUDGET = 3000

DIGESTS = {
    "exact": "e2ddabf3cbb04de39467248270b2e99d9931a6fac70ed474e295e9c83f2cf57b",
    "heuristic": "f2d1057ec6ffa1bac040de13afeac633f2f6a248725ef06f5e5d09c722ed5d41",
    "go": "010aae0b4c66cfbb78168af3fc7f953e15e5ace7589e8235b594594116b18834",
    "cpto": "f8c4f4b26fa405b8072c4f66d60071615b48237e8aeca88d3bef346d8be23822",
}
GAP_TABLE = "b4d40ca515b6b45d8c27b3e688df7da731d761e756d2ae8fc344f20d2f14691a"


@pytest.fixture(scope="module")
def synthetic():
    return [make_synthetic_instance(n, seed) for n in (3, 6, 10, 16, 24) for seed in (0, 1)]


def row(sol, n):
    return repr((sol.assignment.key(n), repr(sol.objective), sol.nodes, sol.iterations,
                 sol.budget_exceeded))


def digest(rows):
    h = hashlib.sha256()
    for r in rows:
        h.update(r.encode())
    return h.hexdigest()


def test_exact_outputs_match_the_pinned_digest(synthetic):
    rows, hits = [], 0
    for corpus_seed in range(3):
        rng = np.random.default_rng(corpus_seed)
        for _ in range(20):
            inst = random_instance(rng)
            sol = solve_exact(inst, budget=EXACT_BUDGET)
            hits += sol.budget_exceeded
            rows.append(row(sol, inst.n))
    for inst in synthetic:
        sol = solve_exact(inst, budget=EXACT_BUDGET)
        hits += sol.budget_exceeded
        rows.append(row(sol, inst.n))
    assert 0 < hits < len(rows)  # both the budget path and the complete search
    assert digest(rows) == DIGESTS["exact"]


def test_heuristic_outputs_match_the_pinned_digest(synthetic):
    rows = [row(solve_heuristic(inst, SolverSection(), s), inst.n)
            for inst in synthetic for s in (0, 7)]
    assert digest(rows) == DIGESTS["heuristic"]


@pytest.mark.parametrize("name, scheme", [("go", solve_go), ("cpto", solve_cpto)])
def test_baseline_outputs_match_the_pinned_digest(synthetic, name, scheme):
    rows = []
    for inst in synthetic:
        a = scheme(inst)
        rows.append(repr((a.key(inst.n), repr(evaluate_objective(a, inst.quality)))))
    assert digest(rows) == DIGESTS[name]


def test_oracle_gap_table_matches_the_pinned_digest(tmp_path):
    assert main(["oracle", "--n", "8", "--m", "3", "--count", "60", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    table = (tmp_path / "gap_table.csv").read_bytes()
    assert hashlib.sha256(table).hexdigest() == GAP_TABLE
