"""Command-line entry points: run experiments, verify solvers, export plot data.

``run`` executes a single simulation or a sweep from a JSON config, ``oracle``
cross-checks the exact solver against exhaustive enumeration on random
instances, and ``plotdata`` turns sweep results into tidy per-figure CSVs.
All outputs are deterministic for a fixed seed (measured wall times in
Runtime sweeps are the one inherent exception).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
from scipy import stats

from . import sim
from .config import (RunConfig, SCHEMES, SolverSection, config_to_dict,
                     load_config, sweep_threads, validate_config)
from .errors import ConfigError, MissingResults
from .qmkp import check_feasible, enumerate_optimal, instance_to_json, random_instance
from .solve_exact import solve_exact
from .solve_heur import solve_heuristic


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_epochs_csv(path: Path, epochs) -> None:
    lines = ["slot,user_id,turn,worker_id,awareness,latency_s,satisfied"]
    for log in epochs:
        for r in log.report.records:
            wid = "" if r.worker_id is None else str(r.worker_id)
            lines.append(f"{log.report.slot},{r.user_id},{r.turn.value},{wid},"
                         f"{r.awareness!r},{r.latency_s!r},{int(r.satisfied)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_run(config_path: str | None, scheme: str | None, seed: int | None,
            out_dir: str) -> int:
    source = config_path or "defaults"  # what the error below came from
    try:
        cfg = load_config(config_path) if config_path else RunConfig()
        source = "command line"
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=seed)
        if scheme is not None:
            solver = dataclasses.replace(cfg.solver, scheme=scheme)
            cfg = dataclasses.replace(cfg, solver=solver)
        validate_config(cfg)  # the overrides are checked like the file
        source = "environment"
        sweep_threads()
    except (ConfigError, OSError) as exc:  # OSError: an unreadable config file
        print(f"config error ({source}): {exc}", file=sys.stderr)
        return 1

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "resolved_config.json", config_to_dict(cfg))
        if cfg.sweep.experiment is None:
            report, epochs = sim.run_scenario(cfg, cfg.solver.scheme, cfg.seed)
            _write_json(out / "run.json", {
                "scheme": cfg.solver.scheme,
                "seed": cfg.seed,
                "report": report.to_dict(),
                "objective_total": sum(e.objective for e in epochs),
            })
            _write_epochs_csv(out / "epochs.csv", epochs)
        else:
            records = sim.sweep(cfg.sweep.experiment, cfg.sweep.grid,
                                cfg.sweep.seeds, cfg, cfg.sweep.schemes)
            _write_json(out / "sweep.json", {"records": records})
    except Exception as exc:  # runtime failure, not a config problem
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_oracle(n: int, m: int, count: int, seed: int, out_dir: str) -> int:
    """Cross-check exact search against brute-force enumeration.

    Generates ``count`` random instances with sizes drawn up to the given
    bounds; any exact-vs-enumeration objective mismatch, or an infeasible
    exact or heuristic answer, is reported with a nonzero exit.
    """
    if not (2 <= n <= 12 and 1 <= m <= 3 and count >= 0):
        print("oracle bounds: 2 <= n <= 12, 1 <= m <= 3 and count >= 0 "
              "(the upper bounds keep enumeration tractable)", file=sys.stderr)
        return 1
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = ["instance,n,m,enum_objective,exact_objective,heur_objective,"
            "exact_mismatch,heur_gap"]
    mismatches = 0
    for idx in range(count):
        inst = random_instance(rng, max_n=n, max_m=m)
        enum_sol = enumerate_optimal(inst)
        exact_sol = solve_exact(inst)
        heur_sol = solve_heuristic(inst, SolverSection(), seed + idx)
        mismatch = int(exact_sol.objective != enum_sol.objective)
        if mismatch:
            mismatches += 1
            print(f"MISMATCH on instance {idx}: enum {enum_sol.objective!r} "
                  f"vs exact {exact_sol.objective!r}", file=sys.stderr)
            print(instance_to_json(inst), file=sys.stderr)
        for name, sol in (("exact", exact_sol), ("heuristic", heur_sol)):
            ok, violations = check_feasible(sol.assignment, inst)
            if not ok:
                mismatches += 1
                print(f"INFEASIBLE {name} answer on instance {idx}: "
                      f"{'; '.join(violations)}", file=sys.stderr)
        gap = 0.0
        if enum_sol.objective > 0:
            gap = (enum_sol.objective - heur_sol.objective) / enum_sol.objective
        rows.append(f"{idx},{inst.n},{inst.m},{enum_sol.objective!r},"
                    f"{exact_sol.objective!r},{heur_sol.objective!r},"
                    f"{mismatch},{gap!r}")
    (out / "gap_table.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 0 if mismatches == 0 else 2


_METRICS = ("awareness", "delay", "intensity", "satisfaction")

_EXPERIMENT_FILES = {
    "CpuCapacity": "cpu_capacity.csv",
    "Deadline": "deadline.csv",
    "UserCount": "user_count.csv",
    "Runtime": "runtime.csv",
}


def _ci95(values: list[float]) -> tuple[float, float, float]:
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, mean, mean
    sem = stats.sem(values)
    if sem == 0.0:
        return mean, mean, mean
    half = float(stats.t.ppf(0.975, len(values) - 1)) * float(sem)
    return mean, mean - half, mean + half


def cmd_plotdata(results_dir: str, out_dir: str) -> int:
    src = Path(results_dir) / "sweep.json"
    try:
        if not src.exists():
            raise MissingResults(f"no sweep.json under {results_dir}")
        doc = json.loads(src.read_text(encoding="utf-8"))
        records = doc.get("records") if isinstance(doc, dict) else None
        if not records:
            raise MissingResults(f"{src} holds no records")
        tables = _plot_tables(records)
    except MissingResults as exc:
        print(f"missing results: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"results error: cannot read {src} ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, AttributeError) as exc:  # incl. JSONDecodeError
        print(f"results error: {src} does not hold sweep records "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return 2

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in tables.items():
        (out / name).write_text(text, encoding="utf-8")
    return 0


def _plot_tables(records: list[dict]) -> dict[str, str]:
    """One tidy CSV text per experiment, keyed by its file name."""
    tables = {}
    by_experiment: dict[str, list[dict]] = {}
    for rec in records:
        by_experiment.setdefault(rec["experiment"], []).append(rec)

    for experiment, recs in sorted(by_experiment.items()):
        grouped: dict[tuple, dict[str, list[float]]] = {}
        for rec in recs:
            key = (rec["value"], rec["scheme"])
            bucket = grouped.setdefault(key, {m: [] for m in _METRICS})
            for metric in _METRICS:
                bucket[metric].append(rec["report"][metric]["mean"])
            if "mean_decision_time_s" in rec:
                bucket.setdefault("decision_time", []).append(
                    rec["mean_decision_time_s"])
        lines = ["sweep_var,scheme,metric,mean,ci95_lo,ci95_hi"]
        for (value, scheme) in sorted(grouped, key=lambda k: (str(k[0]), k[1])):
            bucket = grouped[(value, scheme)]
            for metric in sorted(bucket):
                mean, lo, hi = _ci95(bucket[metric])
                lines.append(f"{value},{scheme},{metric},{mean!r},{lo!r},{hi!r}")
        name = _EXPERIMENT_FILES.get(experiment, f"{experiment.lower()}.csv")
        tables[name] = "\n".join(lines) + "\n"
    return tables


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcpto",
        description="Quality-aware cooperative-perception task offloading simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a simulation or sweep")
    p_run.add_argument("--config", default=None, help="JSON config path")
    p_run.add_argument("--scheme", default=None,
                       help=f"override solver scheme ({', '.join(SCHEMES)})")
    p_run.add_argument("--seed", type=int, default=None, help="override master seed")
    p_run.add_argument("--out", default="results", help="output directory")

    p_oracle = sub.add_parser("oracle", help="exact-vs-enumeration cross check")
    p_oracle.add_argument("--n", type=int, default=8, help="max users per instance")
    p_oracle.add_argument("--m", type=int, default=3, help="max workers per instance")
    p_oracle.add_argument("--count", type=int, default=50)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--out", default="results")

    p_plot = sub.add_parser("plotdata", help="export tidy CSVs from sweep results")
    p_plot.add_argument("--results", required=True)
    p_plot.add_argument("--out", default="plots")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.scheme, args.seed, args.out)
    if args.command == "oracle":
        return cmd_oracle(args.n, args.m, args.count, args.seed, args.out)
    if args.command == "plotdata":
        return cmd_plotdata(args.results, args.out)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
