"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The random corpora are seeded, so every number asserted here is
reproducible.
"""
import json
import random
import time
import numpy as np
import pytest

from qcpto.cli import main
from qcpto.config import PredictorSection, RunConfig, SolverSection
from qcpto.geometry import (EpochRasters, GridSpec, QualityMatrix,
                            build_quality_matrix, detected_awareness,
                            rasterize_triangle)
from qcpto.metrics import epoch_metrics
from qcpto.model import Assignment, Roi, Turn, Worker
from qcpto.qmkp import QmkpInstance, enumerate_optimal, random_instance
from qcpto.sim import make_synthetic_instance, run_scenario
from qcpto.solve_exact import solve_exact
from qcpto.solve_heur import solve_heuristic

from oracles import (KfState, awareness_oracle, init_state, kf_predict,
                     kf_update, raster_cells, shared_interest,
                     shared_interest_oracle)

CORPUS_SEED = 20240601


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    instances = [random_instance(rng, max_n=10, max_m=3) for _ in range(200)]
    t0 = time.perf_counter()
    optima = [enumerate_optimal(inst).objective for inst in instances]
    exact = [solve_exact(inst).objective for inst in instances]
    elapsed = time.perf_counter() - t0
    return {"instances": instances, "optima": optima, "exact": exact,
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def heuristic_runs(corpus):
    gaps = []
    monotone = 0
    total = 0
    for inst, opt in zip(corpus["instances"], corpus["optima"]):
        for seed in range(10):
            sol = solve_heuristic(inst, SolverSection(), seed)
            gaps.append((opt - sol.objective) / opt if opt > 0 else 0.0)
            total += 1
            traj = sol.trajectory
            if all(a <= b for a, b in zip(traj, traj[1:])):
                monotone += 1
    return {"gaps": np.asarray(gaps), "monotone": monotone, "total": total}


def test_criterion_1_oracle_equivalence(corpus):
    mismatches = sum(1 for e, o in zip(corpus["exact"], corpus["optima"])
                     if e != o)
    assert mismatches == 0
    assert corpus["elapsed"] < 60.0
    print(f"\n[PASS] criterion 1: exact matches exhaustive enumeration on "
          f"200 instances (0 mismatches, {corpus['elapsed']:.1f}s)")


def test_criterion_2_heuristic_gap(heuristic_runs):
    gaps = heuristic_runs["gaps"]
    assert gaps.mean() <= 0.05
    assert gaps.max() <= 0.15
    print(f"\n[PASS] criterion 2: heuristic gap over {len(gaps)} runs "
          f"mean={gaps.mean():.5f} (<=0.05) max={gaps.max():.5f} (<=0.15)")


def test_criterion_3_runtime_scaling():
    inst = make_synthetic_instance(40, seed=11)
    assert inst.n == 40 and inst.m == 8
    t0 = time.perf_counter()
    exact = solve_exact(inst)
    t_exact = time.perf_counter() - t0
    t0 = time.perf_counter()
    solve_heuristic(inst, SolverSection(), 0)
    t_heur = time.perf_counter() - t0
    ratio = t_heur / t_exact
    assert ratio <= 0.20
    assert exact.budget_exceeded  # the search is budget-bound at this size
    print(f"\n[PASS] criterion 3: n=40 m=8 heuristic {t_heur:.2f}s vs exact "
          f"{t_exact:.2f}s, ratio {ratio:.3f} (<=0.20)")


def test_criterion_4_metric_dominance():
    cfg = RunConfig()
    assert cfg.scenario.n_vehicles == 40
    for seed in range(10):
        reports = {scheme: run_scenario(cfg, scheme, seed)[0]
                   for scheme in ("exact", "go", "cpto")}
        e, g, c = reports["exact"], reports["go"], reports["cpto"]
        assert e.mean_awareness >= c.mean_awareness, f"seed {seed}: exact < cpto"
        assert e.mean_awareness >= g.mean_awareness, f"seed {seed}: exact < go"
        assert e.mean_intensity <= g.mean_intensity, f"seed {seed}: intensity"
        assert e.mean_satisfaction >= c.mean_satisfaction, f"seed {seed}: satisfaction"
    print("\n[PASS] criterion 4: awareness/intensity/satisfaction dominance "
          "holds in all 10 runs")


def test_criterion_5_latency_arithmetic():
    # one user, one 2 GHz worker at 15 Mbit/s; task of 2e8 cycles, 2e5 bits, 0.4 s
    inst = QmkpInstance.from_task(QualityMatrix(np.zeros((1, 1))), cpu=[2e9],
                                  rates=[[1.5e7]], workload=2e8, frame_bits=2e5,
                                  deadline=0.4, allowed=[[True]], distance=[[0.0]])
    transmit = float(inst.transmit[0, 0])
    assert inst.latency_of(0, 0, 4) - transmit == pytest.approx(0.4, abs=1e-12)
    assert transmit == pytest.approx(0.013333333333, abs=1e-9)
    assert inst.capacity == (4,)
    print("\n[PASS] criterion 5: latency arithmetic matches hand-derived values")


def test_criterion_6_kalman_correctness():
    # exact tracking with zero noise after a three-slot warm-up
    cfg = PredictorSection(q_diag=(0, 0, 0, 0), r_diag=(0, 0))
    pos, vel = np.array([4.0, -3.0]), np.array([2.0, 1.5])
    kf = init_state(pos, cfg, 1.0)
    for k in range(1, 3):
        x_pred, p_pred = kf_predict(kf)
        kf = kf_update(kf, x_pred, p_pred, pos + vel * k)
    state = kf
    worst = 0.0
    for k in range(3, 12):
        x_pred, p_pred = kf_predict(state)
        worst = max(worst, float(np.abs(x_pred[:2] - (pos + vel * k)).max()))
        state = KfState(x_pred, p_pred, state.a_mat, state.h_mat,
                        state.q_proc, state.r_meas, state.updates)
    assert worst <= 1e-9

    # covariance stays symmetric PSD through 1000 noisy cycles
    rng = np.random.default_rng(5)
    kf = init_state([0.0, 0.0], PredictorSection(), 1.0)
    for _ in range(1000):
        x_pred, p_pred = kf_predict(kf)
        kf = kf_update(kf, x_pred, p_pred, rng.normal(scale=25.0, size=2))
        assert np.linalg.eigvalsh(kf.p_cov).min() >= -1e-9

    # scalar gain equals the closed form p / (p + r)
    for p, r in ((1.0, 1.0), (2.5, 0.7), (0.3, 4.0)):
        s = KfState(np.zeros(4), np.eye(4), np.eye(4),
                    np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]),
                    np.zeros((4, 4)), r * np.eye(2))
        p_pred = np.diag([p, p, 0.0, 0.0])
        out = kf_update(s, np.zeros(4), p_pred, np.array([1.0, 1.0]))
        assert abs(out.x_hat[0] - p / (p + r)) <= 1e-12
    print(f"\n[PASS] criterion 6: zero-noise tracking error {worst:.2e} "
          "(<=1e-9), covariance PSD over 1000 cycles, scalar gain exact")


def test_criterion_7_geometry_oracle():
    grid = GridSpec(0.0, 0.0, 1.0, 50, 50)
    rng = random.Random(CORPUS_SEED)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        tris = [tuple((rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(3))
                for _ in range(4)]
        roi_i, fov_i, roi_k, fov_k = tris
        got = rasterize_triangle(roi_i, grid)
        rows, cols = np.nonzero(got)
        assert set(zip(rows.tolist(), cols.tolist())) == raster_cells(roi_i, grid)

        rois = {0: Roi(triangle=roi_i, turn=Turn.LEFT),
                1: Roi(triangle=roi_k, turn=Turn.RIGHT)}
        fovs = {0: fov_i, 1: fov_k}
        if raster_cells(roi_i, grid):
            assert detected_awareness(0, {1}, rois, fovs, grid) == \
                awareness_oracle(roi_i, fov_i, [fov_k], grid)
        assert shared_interest(0, 1, rois, fovs, grid) == \
            shared_interest_oracle(roi_i, fov_i, roi_k, fov_k, grid)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 100
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 7: geometry matches the cell-center oracle on "
          f"100 configurations ({elapsed:.1f}s)")


def test_criterion_8_cli_determinism(tmp_path):
    cfg_doc = {
        "seed": 7,
        "scenario": {"n_vehicles": 10, "duration_s": 20.0},
        "solver": {"scheme": "heuristic"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg_doc), encoding="utf-8")
    sweep_doc = {
        "seed": 7,
        "scenario": {"n_vehicles": 8, "duration_s": 15.0},
        "sweep": {"experiment": "UserCount", "grid": [6, 8], "seeds": [0],
                  "schemes": ["heuristic"]},
    }
    sweep_path = tmp_path / "sweep_config.json"
    sweep_path.write_text(json.dumps(sweep_doc), encoding="utf-8")

    pairs = []
    for tag in ("a", "b"):
        run_dir = tmp_path / f"run_{tag}"
        assert main(["run", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
        oracle_dir = tmp_path / f"oracle_{tag}"
        assert main(["oracle", "--n", "6", "--m", "2", "--count", "5",
                     "--seed", "3", "--out", str(oracle_dir)]) == 0
        sweep_dir = tmp_path / f"sweep_{tag}"
        assert main(["run", "--config", str(sweep_path), "--out", str(sweep_dir)]) == 0
        plot_dir = tmp_path / f"plot_{tag}"
        assert main(["plotdata", "--results", str(sweep_dir),
                     "--out", str(plot_dir)]) == 0
        pairs.append([
            (run_dir / "run.json"), (run_dir / "epochs.csv"),
            (run_dir / "resolved_config.json"), (oracle_dir / "gap_table.csv"),
            (sweep_dir / "sweep.json"), (plot_dir / "user_count.csv"),
        ])
    for fa, fb in zip(*pairs):
        assert fa.read_bytes() == fb.read_bytes(), f"{fa.name} differs"
    print("\n[PASS] criterion 8: run/oracle/plotdata outputs byte-identical "
          "across repeated seeded invocations")


def test_criterion_9_monotonicity(heuristic_runs):
    # satisfaction ratio never increases with the threshold
    grid = GridSpec(0.0, 0.0, 1.0, 50, 50)
    small = ((10.0, 10.0), (14.0, 10.0), (12.0, 14.0))
    big = ((0.0, 0.0), (49.0, 0.0), (25.0, 49.0))
    far = ((40.0, 40.0), (45.0, 40.0), (42.0, 45.0))
    workers = [Worker(0, (0.0, 0.0), 2e9, 200.0)]
    rng = random.Random(3)
    for _ in range(100):
        rois = {i: Roi(triangle=small, turn=Turn.LEFT) for i in range(4)}
        fovs = {i: (big if rng.random() < 0.5 else far) for i in range(4)}
        a = Assignment({0: 0, 1: 0}) if rng.random() < 0.5 else Assignment.empty()
        bank = EpochRasters(range(4), rois, fovs, grid)
        inst = QmkpInstance.from_task(build_quality_matrix(bank),
                                      cpu=[workers[0].cpu_capacity],
                                      rates=np.full((4, 1), 1.5e7), workload=2e8,
                                      frame_bits=2e5, deadline=0.4,
                                      allowed=np.ones((4, 1), dtype=bool),
                                      distance=np.zeros((4, 1)))
        ratios = [epoch_metrics(0, bank, inst, a, [Turn.LEFT] * 4, len(workers),
                                phi=phi).satisfaction_ratio
                  for phi in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(x >= y for x, y in zip(ratios, ratios[1:]))

    # detected awareness never decreases when collaborators are added
    for _ in range(100):
        roi = tuple((rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(3))
        if not raster_cells(roi, grid):
            continue
        fovs = {i: tuple((rng.uniform(0, 50), rng.uniform(0, 50))
                         for _ in range(3)) for i in range(4)}
        rois = {0: Roi(triangle=roi, turn=Turn.LEFT)}
        vals = [detected_awareness(0, set(range(1, k + 1)), rois, fovs, grid)
                for k in range(4)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))

    # best-so-far heuristic objective is monotone on every corpus run
    assert heuristic_runs["monotone"] == heuristic_runs["total"]
    print(f"\n[PASS] criterion 9: satisfaction/awareness monotone on 100 cases "
          f"each; heuristic best-so-far monotone on "
          f"{heuristic_runs['total']} runs")
