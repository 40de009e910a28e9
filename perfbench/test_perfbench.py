"""Tests of the benchmark's own machinery (not of qcpto).

    python -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import sys
from itertools import count
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
from qcpto import sim  # noqa: E402
from qcpto.config import RunConfig, ScenarioSection  # noqa: E402
from qcpto.model import Assignment  # noqa: E402

SMALL = dataclasses.replace(RunConfig(),
                            scenario=ScenarioSection(n_vehicles=12, duration_s=30.0))


def _outputs(scheme="heuristic", seed=3):
    return child.outputs_text(*sim.run_scenario(SMALL, scheme, seed))


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9];
    # a second root a [12, 13] follows
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
             ["b", 2.0, 3.0, 1, 0], ["c", 5.0, 9.0, 0, 0], ["a", 12.0, 13.0, -1, 1]]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    stats = tracer.SpanStats()
    stats.add(spans)
    assert stats.calls["a"] == 2
    assert stats.total_s["a"] == 4.0
    assert stats.self_s["a"] == 3.0
    assert stats.max_s["a"] == 3.0
    assert stats.covered_s == 11.0
    rows = tracer.ranking(stats, wall_s=15.0)
    assert [r[0] for r in rows] == ["c", "root", "a", "b", "(glue: no span)"]
    assert rows[-1][1] == 4.0
    assert sum(r[1] for r in rows) == 15.0


def test_traced_spans_nest_and_self_times_add_up():
    ticks = count()
    t = tracer.Tracer(clock=lambda: float(next(ticks))).install()
    try:
        sim.run_scenario(SMALL, "heuristic", 3)
    finally:
        t.remove()
    spans = t.spans
    assert spans and not t.absent
    for k, s in enumerate(spans):
        if s[3] >= 0:
            parent = spans[s[3]]
            assert s[3] < k and parent[1] < s[1] <= s[2] < parent[2]
    roots = sum(s[2] - s[1] for s in spans if s[3] < 0)
    epochs = max(s[4] for s in spans) + 1
    stats = t.stats()
    assert not t.spans
    assert sum(stats.self_s.values()) == roots == stats.covered_s
    assert epochs == stats.calls["predict.run_predictor"]


def test_hooks_leave_run_scenario_output_identical():
    originals = {(h.module, h.attr): getattr(sys.modules[h.module], h.attr)
                 for h in tracer.HOOKS}
    before = _outputs()
    t = tracer.Tracer().install()
    try:
        assert sim.run_predictor is not originals[("qcpto.predict", "run_predictor")]
        during = _outputs()
    finally:
        t.remove()
    after = _outputs()
    assert before == during == after
    for (module, attr), fn in originals.items():
        assert getattr(sys.modules[module], attr) is fn
    assert sim.evaluate_objective is originals[("qcpto.qmkp", "evaluate_objective")]


def test_missing_target_is_an_absent_metric(monkeypatch):
    monkeypatch.delattr(sys.modules["qcpto.solve_exact"], "solve_exact")
    t = tracer.Tracer().install()
    t.remove()
    metrics = tracer.layer_metrics(t.stats())
    assert t.absent == {"solve_exact.solve_exact"}
    assert metrics["solve_exact.nodes"] is None
    assert metrics["solve_heur.calls"] == 0.0


def test_changed_result_shape_is_an_absent_metric():
    import qcpto.model
    hook = tracer.Hook("qcpto.model", "normalize_heading",
                       counter=lambda t, args, kwargs, result: result.nodes)
    t = tracer.Tracer().install((hook,))
    try:
        qcpto.model.normalize_heading(1.0)
    finally:
        t.remove()
    assert t.absent == {"model.normalize_heading"}
    assert t.stats().calls["model.normalize_heading"] == 1


def test_checks_catch_infeasible_and_misreported_epochs():
    report, epochs, marks, _, _, contexts = child.one_run(SMALL, "heuristic", 3)
    assert len(marks) == len(epochs) == len(contexts)
    assert child.check_epochs(epochs, contexts, "heuristic") == {}
    k = next(i for i, c in enumerate(contexts) if c.instance is not None)
    lone = Assignment({contexts[k].queue_ids[0]: 0})
    bad = list(epochs)
    bad[k] = dataclasses.replace(epochs[k], assignment=lone, objective=0.0)
    assert "single user" in child.check_epochs(bad, contexts, "heuristic")[k]
    assert child.check_epochs(bad, contexts, "go") == {}
    bad[k] = dataclasses.replace(epochs[k], objective=epochs[k].objective + 1.0)
    assert child.check_epochs(bad, contexts, "heuristic") == {
        k: "objective does not re-derive"}
    assert child.compare_runs((report, epochs), (report, bad)) == {
        k: "assignment or objective differs"}


def test_tail_leaves_ten_samples_above():
    for n in (11, 60, 780):
        assert n - 1 - bench.tail_index(n) == 10
    assert 420 - 1 - bench.tail_index(420, 7) == 70
    p = {"epoch_s": [float(i) for i in range(120)], "sizes": [60, 60]}
    assert bench.pass_tail(p) == 99.0


def test_benchmark_json_lists_what_the_code_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [
        (n, u) for n, u in bench.END_TO_END if n in bench.IN_JSON]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (n, u, b) for n, u, b, *_ in tracer.PER_LAYER] + [tracer.OVERHEAD]
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("mode", ["setup", "run"])
def test_child_refuses_a_checkout_without_sources(tmp_path, mode):
    import shutil
    import subprocess
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "child.py"), "--mode", mode,
         "--config", "{}", "--seeds", "0", "--spawned", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
