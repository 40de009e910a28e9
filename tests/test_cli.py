import json
from pathlib import Path

import pytest

from qcpto.cli import main
from qcpto.config import config_from_dict, config_to_dict, RunConfig
from qcpto.errors import ConfigError
from qcpto.model import Assignment
from qcpto.qmkp import Solution


def small_config_doc(**extra):
    doc = {
        "seed": 0,
        "scenario": {"n_vehicles": 10, "duration_s": 20.0},
        "solver": {"scheme": "heuristic"},
    }
    doc.update(extra)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read(path: Path) -> bytes:
    return path.read_bytes()


def test_run_happy_path(tmp_path):
    cfg = write_config(tmp_path, small_config_doc())
    out = tmp_path / "results"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "run.json").exists()
    assert (out / "epochs.csv").exists()
    assert (out / "resolved_config.json").exists()
    doc = json.loads((out / "run.json").read_text())
    assert doc["scheme"] == "heuristic"
    header = (out / "epochs.csv").read_text().splitlines()[0]
    assert header == "slot,user_id,turn,worker_id,awareness,latency_s,satisfied"


def test_run_unknown_scheme_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config_doc(solver={"scheme": "bogus"}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    assert "solver.scheme" in capsys.readouterr().err


def test_run_unknown_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config_doc(scenario={"n_vehicless": 5}))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
    assert "n_vehicless" in capsys.readouterr().err


def test_run_missing_config_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    out = tmp_path / "r"
    assert main(["run", "--config", str(missing), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error ({missing}): ") and "No such file" in err
    assert not out.exists()


def test_run_non_utf8_config_file_exits_1(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"seed": 0, "note": "\u00e9"}'.encode("latin-1"))
    out = tmp_path / "r"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error ({path}): invalid JSON in ")
    assert not out.exists()


def test_run_seed_override_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, small_config_doc())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", cfg, "--seed", "42", "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--seed", "42", "--out", str(out2)]) == 0
    for name in ("run.json", "epochs.csv", "resolved_config.json"):
        assert read(out1 / name) == read(out2 / name)


def test_resolved_config_reruns_identically(tmp_path):
    cfg = write_config(tmp_path, small_config_doc())
    out1 = tmp_path / "r1"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    out2 = tmp_path / "r2"
    assert main(["run", "--config", str(out1 / "resolved_config.json"),
                 "--out", str(out2)]) == 0
    assert read(out1 / "run.json") == read(out2 / "run.json")
    assert read(out1 / "epochs.csv") == read(out2 / "epochs.csv")


def test_oracle_happy_path(tmp_path):
    out = tmp_path / "oracle"
    assert main(["oracle", "--n", "6", "--m", "2", "--count", "5",
                 "--seed", "0", "--out", str(out)]) == 0
    lines = (out / "gap_table.csv").read_text().splitlines()
    assert len(lines) == 6
    assert all(row.split(",")[6] == "0" for row in lines[1:])  # no mismatches


def test_oracle_reports_an_infeasible_answer(tmp_path, capsys, monkeypatch):
    def lone_user(inst, budget=0):  # one user alone on a worker breaks min-pair
        return Solution(Assignment({0: 0}), 0.0)
    monkeypatch.setattr("qcpto.cli.solve_exact", lone_user)
    assert main(["oracle", "--n", "4", "--m", "2", "--count", "1",
                 "--out", str(tmp_path / "o")]) == 2
    assert "INFEASIBLE exact answer on instance 0: worker 0 hosts a single user" \
        in capsys.readouterr().err


def test_oracle_zero_count(tmp_path):
    out = tmp_path / "oracle0"
    assert main(["oracle", "--count", "0", "--out", str(out)]) == 0
    assert (out / "gap_table.csv").read_text().count("\n") == 1


def test_oracle_fixed_seed_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["oracle", "--n", "5", "--m", "2", "--count", "4",
                     "--seed", "9", "--out", str(out)]) == 0
    assert read(a / "gap_table.csv") == read(b / "gap_table.csv")


def test_oracle_rejects_intractable_bounds(tmp_path):
    assert main(["oracle", "--n", "20", "--m", "3", "--count", "1",
                 "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("args", [
    ["--n", "1"],
    ["--n", "0"],
    ["--m", "0"],
    ["--m", "-2"],
    ["--count", "-1"],
])
def test_oracle_rejects_sizes_below_the_minimum(tmp_path, capsys, args):
    out = tmp_path / "oracle"
    assert main(["oracle", *args, "--out", str(out)]) == 1
    assert "oracle bounds" in capsys.readouterr().err
    assert not out.exists()


def sweep_config_doc():
    return {
        "seed": 0,
        "scenario": {"n_vehicles": 8, "duration_s": 15.0},
        "sweep": {"experiment": "CpuCapacity", "grid": [1.5, 2.5],
                  "seeds": [0, 1], "schemes": ["exact", "go"]},
    }


def test_sweep_run_and_plotdata(tmp_path):
    cfg = write_config(tmp_path, sweep_config_doc())
    out = tmp_path / "sweepres"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "sweep.json").exists()

    plots = tmp_path / "plots"
    assert main(["plotdata", "--results", str(out), "--out", str(plots)]) == 0
    csv = (plots / "cpu_capacity.csv").read_text().splitlines()
    assert csv[0] == "sweep_var,scheme,metric,mean,ci95_lo,ci95_hi"
    # 2 grid values x 2 schemes x 4 metrics
    assert len(csv) == 1 + 2 * 2 * 4

    plots2 = tmp_path / "plots2"
    assert main(["plotdata", "--results", str(out), "--out", str(plots2)]) == 0
    assert read(plots / "cpu_capacity.csv") == read(plots2 / "cpu_capacity.csv")


def test_plotdata_missing_results(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["plotdata", "--results", str(empty), "--out",
                 str(tmp_path / "p")]) == 2
    assert "missing results" in capsys.readouterr().err


def test_plotdata_truncated_sweep_json_is_a_results_error(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_config_doc())
    res = tmp_path / "sweepres"
    assert main(["run", "--config", cfg, "--out", str(res)]) == 0
    sweep = res / "sweep.json"
    sweep.write_text(sweep.read_text()[:200], encoding="utf-8")
    plots = tmp_path / "plots"
    assert main(["plotdata", "--results", str(res), "--out", str(plots)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"results error: {sweep} ") and "JSONDecodeError" in err
    assert not plots.exists()


def test_plotdata_unreadable_sweep_json_is_a_results_error(tmp_path, capsys):
    res = tmp_path / "res"
    (res / "sweep.json").mkdir(parents=True)
    plots = tmp_path / "plots"
    assert main(["plotdata", "--results", str(res), "--out", str(plots)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"results error: cannot read {res / 'sweep.json'} ")
    assert "IsADirectoryError" in err
    assert not plots.exists()


@pytest.mark.parametrize("field", ["value", "report"])
def test_plotdata_record_without_a_field_is_a_results_error(tmp_path, capsys, field):
    record = {"experiment": "UserCount", "value": 8, "scheme": "go", "seed": 0,
              "report": {m: {"mean": 0.5} for m in
                         ("awareness", "delay", "intensity", "satisfaction")}}
    res = tmp_path / "res"
    res.mkdir()
    sweep = res / "sweep.json"
    sweep.write_text(json.dumps({"records": [record]}), encoding="utf-8")
    assert main(["plotdata", "--results", str(res), "--out", str(tmp_path / "ok")]) == 0
    del record[field]
    sweep.write_text(json.dumps({"records": [record]}), encoding="utf-8")
    plots = tmp_path / "plots"
    assert main(["plotdata", "--results", str(res), "--out", str(plots)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"results error: {sweep} ") and "KeyError" in err
    assert not plots.exists()


def test_config_round_trip_dict():
    cfg = RunConfig()
    doc = config_to_dict(cfg)
    assert config_from_dict(doc) == cfg


def test_config_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError):
        config_from_dict({"nonsense": 1})


@pytest.mark.parametrize("key,value", [
    ("p0_diag", [1.0, 1.0]),
    ("p0_diag", [1.0, 1.0, float("nan"), 10.0]),
    ("q_diag", [-1.0, 0.01, 0.1, 0.1]),
    ("q_diag", [0.01, 0.01, 0.1, "0.1"]),
    ("r_diag", [0.25, 0.25, 0.25]),
    ("r_diag", [0.25, float("inf")]),
    ("roi_height_m", 0.0),
    ("measurement_noise_std", -1.0),
    ("warmup_slots", 0),
    ("coast_slots", -1),
    ("coast_slots", 1.5),
])
def test_run_bad_predictor_value_exits_1(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, small_config_doc(predictor={key: value}))
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert f"predictor.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("cell_size_m", 0.0),
    ("cell_size_m", -1.0),
    ("cell_size_m", "x"),
    ("fov_range_m", 0.0),
    ("fov_range_m", float("inf")),
    ("fov_half_angle_deg", 0.0),
    ("fov_half_angle_deg", 90.0),
    ("fov_half_angle_deg", float("nan")),
    ("pair_mode", "sum"),  # a removed key, rejected as unknown
])
def test_run_bad_geometry_value_exits_1(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, small_config_doc(geometry={key: value}))
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert f"geometry.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_config_accepts_zero_process_and_measurement_noise():
    # each alone: the other keeps every innovation covariance regular
    cfg = config_from_dict({"predictor": {"q_diag": [0, 0, 0, 0]}})
    assert cfg.predictor.q_diag == (0, 0, 0, 0)
    cfg = config_from_dict({"predictor": {"r_diag": [0, 0]}})
    assert cfg.predictor.r_diag == (0, 0)


@pytest.mark.parametrize("p0_diag", [[1.0, 1.0, 10.0, 10.0], [0, 0, 0, 0]])
def test_run_singular_noise_exits_1(tmp_path, capsys, p0_diag):
    # zero q and r make the innovation covariance singular at epoch 3, or at
    # epoch 1 with a zero P0 as well
    doc = small_config_doc(predictor={"q_diag": [0, 0, 0, 0], "r_diag": [0, 0],
                                      "p0_diag": p0_diag})
    out = tmp_path / "r"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    assert "predictor.r_diag" in capsys.readouterr().err
    assert not out.exists()


def test_run_zero_measurement_noise_runs(tmp_path):
    doc = small_config_doc(predictor={"r_diag": [0, 0]})
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "r")]) == 0


def doc_with(path, value, **extra):
    """small_config_doc with one dotted key set, e.g. ``scenario.n_workers``."""
    doc = small_config_doc(**extra)
    *sections, key = path.split(".")
    body = doc
    for name in sections:
        body = body.setdefault(name, {})
    body[key] = value
    return doc


@pytest.mark.parametrize("key,value,experiment", [
    ("scenario.n_workers", 0, None),
    ("scenario.n_workers", 1.5, None),
    ("scenario.n_vehicles", -1, None),
    ("scenario.n_vehicles", "x", None),
    ("scenario.deadline_s", 0.0, None),
    ("scenario.deadline_s", float("nan"), None),
    ("scenario.workload_cycles", 0, None),
    ("scenario.frame_bits", -1.0, None),
    ("scenario.comm_range_m", float("inf"), None),
    ("scenario.worker_base_cpu_ghz", 0.0, None),
    ("scenario.worker_cpu_step_ghz", -1.0, None),
    ("scenario.rate_mbps", [0, 0], None),
    ("scenario.rate_mbps", [18.0, 15.0], None),
    ("scenario.rate_mbps", [15.0], None),
    ("scenario.region_w", 0.0, None),
    ("scenario.duration_s", 0.0, None),
    ("scenario.delta_s", 0.0, None),
    ("scenario.delta_s", 100.0, None),
    ("scenario.max_speed_kmh", -5.0, None),
    ("scenario.lanes_per_direction", 0, None),
    ("scenario.turn_probs", [0, 0, 0], None),
    ("scenario.speed_frac", [0.0, 1.0], None),
    ("seed", "abc", None),
    ("seed", 1.7, None),
    ("seed", -1, None),
    ("seed", True, None),
    ("metrics.phi", None, None),
    ("metrics.phi", 1.5, None),
    ("geometry.cell_size_m", 500.0, None),
    ("geometry.cell_size_m", 1e-320, None),
    ("sweep.grid", ["x"], "UserCount"),
    ("sweep.grid", [4, 7.5], "UserCount"),
    ("sweep.grid", [0.4, 0.0], "Deadline"),
    ("sweep.grid", [-1.0], "CpuCapacity"),
    ("sweep.grid", 5, "UserCount"),
    ("scenario.arc_radius_m", 150.0, None),
    ("scenario.region_w", -5.0, None),
    ("metrics.assigned_only", False, None),  # a removed key, rejected as unknown
])
def test_run_bad_scenario_value_exits_1(tmp_path, capsys, key, value, experiment):
    doc = doc_with(key, value)
    if experiment is not None:
        doc["sweep"]["experiment"] = experiment
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


# each loads on its own terms but overflows a quantity the instance derives
# at the first queued epoch: the capacity floor(kappa * C / l) or the uplink
# time lambda / R, or the range numpy draws R from
@pytest.mark.parametrize("scenario,key,experiment", [
    ({"deadline_s": 1e308}, "scenario.deadline_s", None),
    ({"workload_cycles": 1e-320}, "scenario.workload_cycles", None),
    ({"worker_base_cpu_ghz": 1e300, "worker_cpu_step_ghz": 1e300},
     "scenario.worker_base_cpu_ghz", None),
    ({"rate_mbps": [1e-310, 1e-310]}, "scenario.rate_mbps", None),
    ({"rate_mbps": [1.0, 1e303]}, "scenario.rate_mbps", None),
    ({}, "scenario.deadline_s", "Deadline"),
])
def test_run_overflowing_task_value_exits_1(tmp_path, capsys, scenario, key, experiment):
    doc = small_config_doc()
    doc["scenario"].update(scenario)
    if experiment is not None:
        doc["sweep"] = {"experiment": experiment, "grid": [0.4, 1e308]}
    out = tmp_path / "r"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert key in err and "run failed" not in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("alpha", 1.5),
    ("alpha", 1.0),
    ("alpha", 0.0),
    ("max_iters", -1),
    ("max_iters", 2.5),
    ("patience", 0),
    ("node_budget", 0),
    ("memory_capacity", 0),  # a removed key, rejected as unknown
    ("strict_deadline", "yes"),  # a removed key, rejected as unknown
    ("regen_alpha_each_iter", 1),  # a removed key, rejected as unknown
    ("latency_weights", True),
    ("go_worker_order", "farthest"),
])
def test_run_bad_solver_value_exits_1(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, doc_with(f"solver.{key}", value))
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert f"solver.{key}" in capsys.readouterr().err
    assert not out.exists()


def test_run_negative_seed_override_exits_1(tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["run", "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error (command line): seed must be")
    assert not out.exists()


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
def test_run_bad_threads_env_exits_1_before_writing(tmp_path, capsys,
                                                    monkeypatch, threads):
    doc = small_config_doc(sweep={"experiment": "UserCount", "grid": [4],
                                  "seeds": [0], "schemes": ["go"]})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "r"
    monkeypatch.setenv("QCPTO_THREADS", threads)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "config error (environment): QCPTO_THREADS" in capsys.readouterr().err
    assert not out.exists()


def test_run_empty_threads_env_means_one(tmp_path, monkeypatch):
    doc = small_config_doc(sweep={"experiment": "UserCount", "grid": [4],
                                  "seeds": [0], "schemes": ["go"]})
    cfg = write_config(tmp_path, doc)
    monkeypatch.setenv("QCPTO_THREADS", "")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    assert (tmp_path / "r" / "sweep.json").exists()
