"""Every function in ``src/qcpto`` is reached by some CLI path, or says why not.

The test drives ``cli.main`` in-process under ``sys.setprofile`` through each
command and the config values that switch code paths, records the code
object of every Python frame entered in the package, and compares the set of
functions never entered against ``ALLOWLIST``. A function that only tests
call belongs in ``tests/oracles.py``; one that nothing calls belongs nowhere.
"""
import ast
import json
import sys
from pathlib import Path

import qcpto
from qcpto.cli import main

SRC = Path(qcpto.__file__).resolve().parent

# "module:qualname" of each function no CLI path calls, and why it stays
ALLOWLIST = {
    "errors:ParseError.__init__": "raised by load_trace, which no CLI path calls yet",
    "trace:load_trace": "library reader for external traces; no CLI option reads one yet",
    "trace:Trace.speed_violations": "called by load_trace only",
    "geometry:rasterize_triangle": "hooked by the benchmark tracer",
    "geometry:detected_awareness": "hooked by the benchmark tracer",
    "model:Assignment.__len__": "the benchmark's epoch checks count assignments",
    "model:Assignment.__eq__": "the benchmark's run comparison and tests compare assignments",
    "model:Assignment.__hash__": "kept consistent with __eq__",
    "model:Assignment.__repr__": "readable assertion messages",
    "qmkp:instance_to_json": "printed by qcpto oracle on a mismatch only",
    "sim:make_synthetic_instance": "synthetic solver instances for tests and oracle corpora",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> "module:qualname" of every def in the package.

    A decorated def's code object starts at its first decorator.
    """
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = (child.decorator_list[0].lineno if child.decorator_list
                        else child.lineno)
                out[(str(path), line)] = f"{path.stem}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def write_config(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def drive_cli(tmp_path):
    """Every command, each scheme and each path-switching config value."""
    short = {"duration_s": 20.0}
    # the heuristic at the defaults: 60 slots reach a filter coast, 20 do not
    runs = [["--scheme", "heuristic"]]
    for scheme in ("exact", "go", "cpto"):
        runs.append(["--config", write_config(tmp_path, scheme, {
            "scenario": short, "solver": {"scheme": scheme}})])
    runs.append(["--config", write_config(tmp_path, "noise", {
        "scenario": short, "predictor": {"measurement_noise_std": 0.5}})])
    for k, args in enumerate(runs):
        assert main(["run", *args, "--out", str(tmp_path / f"run{k}")]) == 0

    grids = {"CpuCapacity": [2.0, 3.0], "Deadline": [0.3, 0.4],
             "UserCount": [20, 40], "Runtime": [20, 40]}
    for experiment, grid in grids.items():
        cfg = write_config(tmp_path, experiment, {
            "scenario": short,
            "sweep": {"experiment": experiment, "grid": grid,
                      "schemes": ["heuristic", "go"]}})
        out = tmp_path / experiment
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert main(["plotdata", "--results", str(out),
                     "--out", str(tmp_path / f"{experiment}-plots")]) == 0

    assert main(["oracle", "--count", "5", "--out", str(tmp_path / "oracle")]) == 0


def test_every_function_is_reached_or_allowlisted(tmp_path, monkeypatch):
    monkeypatch.delenv("QCPTO_THREADS", raising=False)  # sweeps stay in-process
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        drive_cli(tmp_path)
    finally:
        sys.setprofile(previous)

    resolved = {f: str(Path(f).resolve()) for f, _ in entered}
    reached = {(resolved[f], line) for f, line in entered}
    never = {name for key, name in defined_functions().items() if key not in reached}
    unlisted = sorted(never - ALLOWLIST.keys())  # move, delete or allowlist these
    reached_listed = sorted(ALLOWLIST.keys() - never)  # drop these from ALLOWLIST
    assert (unlisted, reached_listed) == ([], [])
