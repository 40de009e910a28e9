"""Epoch-loop benchmark for qcpto.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

With ``--trace 0`` it times the untraced simulation and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
runs and prints the per-layer metrics, the tracing overhead and a ranking of
the layers by self time. ``all`` does both for every workload. The last line
of standard output is one JSON object. Every run is checked: the exit code
is 1 on any correctness violation and 2 when nothing could be measured.

A workload is a fixed config run on a batch of scenarios: seed N means
scenario seeds 1000*N .. 1000*N + k - 1. Each measurement runs in a fresh
Python process (child.py) importing qcpto from ``src/`` next to this
directory; set-up time is the median over several fresh processes.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import OVERHEAD, PER_LAYER  # noqa: E402

OUT = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170.0   # one invocation, well inside the 180 s allowed
SETUP_PROCESSES = 10   # extra fresh processes that only measure set-up

# name: (config document, scenarios per batch); a batch takes ~25 s on 2 cores
DENSE = {"n_vehicles": 200}
WORKLOADS = {
    "default-heuristic": ({"solver": {"scheme": "heuristic"}}, 16),
    "dense-exact": ({"scenario": DENSE,
                     "solver": {"scheme": "exact", "node_budget": 50_000}}, 5),
    "dense-go": ({"scenario": DENSE, "solver": {"scheme": "go"}}, 8),
}

# (name, unit) in print order
END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("epoch_p50_ms", "ms"),
    ("epoch_tail_ms", "ms"), ("slot_miss_frac", "frac"), ("slot_met_frac", "frac"),
    ("objective_total", "score"), ("awareness_mean", "frac"),
    ("satisfaction_mean", "frac"), ("peak_rss_mb", "MB"), ("failed_frac", "frac"),
)
# what the JSON line carries (BENCHMARK.json's end_to_end): the others read 0
# on healthy runs or depend on the seed far beyond any usable bound
IN_JSON = ("setup_s", "run_s", "epoch_p50_ms", "epoch_tail_ms", "slot_met_frac",
           "peak_rss_mb")
LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER + (OVERHEAD,)}


def scenario_seeds(workload: str, seed: int) -> list[int]:
    return [1000 * seed + i for i in range(WORKLOADS[workload][1])]


def tail_index(n: int, scenarios: int = 1) -> int:
    """Index of the highest order statistic with 10 samples per scenario above it."""
    return max(0, n - 1 - 10 * scenarios)


def pass_tail(p: dict) -> float:
    """The epoch time of a pass with 10 slower epochs per scenario beyond it.

    Over one 60-slot scenario this is p83.3; pooling the batch's epochs keeps
    the percentile and samples it k times as densely.
    """
    epochs = sorted(p["epoch_s"])
    return epochs[tail_index(len(epochs), len(p["sizes"]))]


def stamp(seed: int) -> dict:
    return {
        "commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def _version(dist: str) -> str:
    from importlib import metadata
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _child(mode: str, workload: str, seed: int, seconds: float,
           deadline: float, spans: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QCPTO_THREADS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    seeds = ",".join(map(str, scenario_seeds(workload, seed)))
    spawned = time.perf_counter()
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--config", json.dumps(WORKLOADS[workload][0]), "--seeds", seeds,
           "--spawned", repr(spawned), "--seconds", repr(seconds),
           "--deadline", repr(deadline - 60.0)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} process exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    """Run one workload in fresh processes; returns timings and check results.

    Set-up is sampled by fresh processes before and after the timed one, so
    that a slow spell of the host does not move all samples together.
    """
    if trace:
        spans = OUT / f"{workload}-seed{seed}-spans.json"
        res = _child("trace", workload, seed, seconds, deadline, spans)
        res["spans_file"] = str(spans.relative_to(ROOT))
        return res
    half = SETUP_PROCESSES // 2
    setups = [_child("setup", workload, seed, 0.0, deadline)["setup_s"]
              for _ in range(half)]
    res = _child("run", workload, seed, seconds, deadline)
    setups += [res["setup_s"]] + [_child("setup", workload, seed, 0.0, deadline)["setup_s"]
                                  for _ in range(SETUP_PROCESSES - half)]
    res["setups"] = setups
    return res


def end_to_end(res: dict) -> dict:
    passes = res["passes"]
    n = len(passes[0]["epoch_s"])
    per = passes[0]["sizes"][0]
    attempted = sum(len(p["epoch_s"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    missed = sum(sum(1 for i, t in enumerate(p["epoch_s"])
                     if t > res["delta_s"] or i in set(p["failed"])) for p in passes)
    med = statistics.median
    return {
        "setup_s": med(res["setups"]),
        "run_s": med(p["run_s"] for p in passes),
        "epoch_p50_ms": 1e3 * med(med(p["epoch_s"]) for p in passes),
        "epoch_tail_ms": 1e3 * med(pass_tail(p) for p in passes),
        "slot_miss_frac": missed / attempted,
        "slot_met_frac": 1.0 - missed / attempted,
        "objective_total": res["objective_total"],
        "awareness_mean": res["awareness_mean"],
        "satisfaction_mean": res["satisfaction_mean"],
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_frac": failed / attempted,
        "_notes": {
            "setup_s": f"median of {len(res['setups'])} fresh processes",
            "run_s": f"all {n} epochs of the batch; median of {len(passes)} passes",
            "epoch_p50_ms": f"median of {n} epochs; median of {len(passes)} passes",
            "epoch_tail_ms": (f"p{100.0 * (per - 10) / per:.1f} of {n} epochs "
                              f"(10 beyond it per {per}-epoch scenario); median of "
                              f"{len(passes)} passes"),
            "slot_miss_frac": f"{missed} of {attempted} epochs over "
                              f"{res['delta_s']:g} s or failed",
            "objective_total": "sum over the batch (run.json objective_total per scenario)",
            "awareness_mean": "mean of the scenarios' RunReport means",
            "satisfaction_mean": "mean of the scenarios' RunReport means",
            "failed_frac": f"{failed} of {attempted} epochs",
        },
        "_attempted": attempted, "_failed": failed,
    }


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def report_trace0(workload: str, res: dict) -> dict:
    e2e = end_to_end(res)
    print(f"== {workload}: end-to-end (untraced), scenario seeds "
          f"{res['seeds'][0]}..{res['seeds'][-1]}")
    for name, unit in END_TO_END:
        note = e2e["_notes"].get(name, "")
        print(f"  {name:<20} {_fmt(e2e[name]):>12} {unit:<6} {note}")
    print(f"  digest {res['digest']} (report, objectives, queues, assignments, "
          f"per-user records)")
    _print_violations(res["passes"])
    return e2e


def report_trace1(workload: str, res: dict) -> dict:
    untraced = statistics.median(r["run_s"] for r in res["passes"])
    traced = statistics.median(t["run_s"] for t in res["traced"])
    metrics = dict(res["layer_metrics"])
    metrics[OVERHEAD[0]] = (traced - untraced) / untraced
    print(f"== {workload}: per layer (traced), scenario seeds {res['seeds'][0]}.."
          f"{res['seeds'][-1]}; median of {len(res['traced'])} traced passes; run_s "
          f"{traced:.4g} s traced vs {untraced:.4g} s untraced")
    for name, value in metrics.items():
        print(f"  {name:<30} {_fmt(value):>14} {LAYER_UNITS[name]}")
    if res.get("absent"):
        print(f"  absent (hook target gone): {', '.join(res['absent'])}")
    first = res["traced"][0]
    print(f"  self-time ranking, share of the traced pass ({first['wall_s']:.4g} s "
          f"in run_scenario calls):")
    for name, secs, share in first["ranking"]:
        print(f"    {name:<34} {secs:10.4f} s {100 * share:6.1f}%")
    print(f"  spans: {res['spans_file']}")
    _print_violations(res["passes"] + res["traced"])
    return metrics


def _print_violations(passes) -> None:
    failed = sum(len(p["failed"]) for p in passes)
    if failed:
        msgs = sorted({m for p in passes for m in p["violations"]})
        print(f"  CORRECTNESS: {failed} failed epochs: {'; '.join(msgs)}")
    else:
        print(f"  checks: ok ({len(passes)} passes feasible with strict deadlines, "
              f"objectives re-derived, outputs identical across passes)")


def _entry(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> tuple[dict, int, int]:
    res = measure(workload, seed, seconds, trace, deadline)
    res["seeds"] = scenario_seeds(workload, seed)
    if trace:
        metrics = report_trace1(workload, res)
        attempted = 2 * sum(len(p["epoch_s"]) for p in res["passes"])
        failed = sum(len(r["failed"]) for r in res["passes"] + res["traced"])
        return ({k: _entry(v, LAYER_UNITS[k]) for k, v in metrics.items()},
                attempted, failed)
    e2e = report_trace0(workload, res)
    return ({name: _entry(e2e[name], unit) for name, unit in END_TO_END
             if name in IN_JSON}, e2e["_attempted"], e2e["_failed"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qcpto" / "__init__.py").is_file():
        print(f"no qcpto sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    info = stamp(args.seed)
    print("stamp: " + " ".join(f"{k}={v}" for k, v in info.items()))

    jobs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.workload == "all"
            else [(args.workload, bool(args.trace))])
    metrics: dict = {}
    attempted = failed = 0
    for workload, trace in jobs:
        deadline = time.perf_counter() + TIME_LIMIT_S
        try:
            got, n, bad = run_one(workload, args.seed, args.seconds, trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: measurement failed: {exc}", file=sys.stderr)
            return 2
        prefix = f"{workload}/" if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += n
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
