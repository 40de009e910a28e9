"""One measurement in a fresh process; run.py starts it and reads its last line.

A workload is a batch of scenarios, one per seed, all with the same config.
Modes:
  setup  time from process start to the first epoch of the first scenario;
  run    repeat untraced passes over the batch for the given seconds;
  trace  alternate untraced and traced passes for the given seconds.

The end-to-end path calls only ``qcpto.config`` and ``qcpto.sim.run_scenario``.
Two light shims sit on it: one clock read at the start of each epoch (the
predictor call) and a reference kept to each epoch's instance (the return of
``build_epoch``) for the correctness checks, which run after the timed region.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, layer_metrics, median_metrics, patch, ranking, unpatch  # noqa: E402


class _FirstEpoch(Exception):
    """Raised at the first epoch boundary to end a setup-only process."""


def _epoch_clock(marks: list):
    def make(fn):
        def clocked(*args, **kwargs):
            marks.append(time.perf_counter())
            return fn(*args, **kwargs)
        return clocked
    return make


def _keep_contexts(contexts: list):
    def make(fn):
        def kept(*args, **kwargs):
            ctx = fn(*args, **kwargs)
            contexts.append(ctx)
            return ctx
        return kept
    return make


def outputs_text(report, epochs) -> str:
    """Canonical text of a run's deterministic outputs.

    Covers everything ``qcpto run`` writes to run.json and epochs.csv: the
    report, the objectives and each flagged user's record, plus every
    epoch's queue and assignment.
    """
    lines = [json.dumps(report.to_dict(), sort_keys=True),
             repr(sum(e.objective for e in epochs))]
    for e in epochs:
        lines.append(f"{e.report.slot}|{e.objective!r}|{e.assignment.items()}|{e.queue}")
        for r in e.report.records:
            lines.append(f" {r.user_id},{r.turn.value},{r.worker_id},"
                         f"{r.awareness!r},{r.latency_s!r},{int(r.satisfied)}")
    return "\n".join(lines)


def check_epochs(epochs, contexts, scheme: str) -> dict[int, str]:
    """Invariant checks per epoch; returns {epoch index: first violation}.

    Each final assignment must be feasible with strict deadlines (the
    two-user minimum is waived for the go/cpto baselines, as the simulator
    does), and each objective must re-derive through evaluate_objective.
    """
    from qcpto.model import Assignment
    from qcpto.qmkp import check_feasible, evaluate_objective

    bad: dict[int, str] = {}
    if len(contexts) != len(epochs):
        return {i: f"{len(contexts)} instances for {len(epochs)} epochs"
                for i in range(len(epochs))}
    min_pair = scheme in ("exact", "heuristic")
    for i, (e, ctx) in enumerate(zip(epochs, contexts)):
        if tuple(ctx.queue_ids) != tuple(e.queue) or ctx.slot != e.report.slot:
            bad[i] = "epoch log does not match its instance"
            continue
        if ctx.instance is None:
            if len(e.assignment) or e.objective != 0.0:
                bad[i] = "empty queue with a non-empty assignment"
            continue
        row = {uid: k for k, uid in enumerate(ctx.queue_ids)}
        if any(u not in row for u, _ in e.assignment.items()):
            bad[i] = "assignment names a user outside the queue"
            continue
        local = Assignment({row[u]: j for u, j in e.assignment.items()})
        _, violations = check_feasible(local, ctx.instance, strict_deadline=True)
        if not min_pair:
            violations = [v for v in violations if "single user" not in v]
        if violations:
            bad[i] = violations[0]
        elif evaluate_objective(local, ctx.instance.quality) != e.objective:
            bad[i] = "objective does not re-derive"
    return bad


def compare_runs(base, other) -> dict[int, str]:
    """Epochs where a second run differs from the first in any output."""
    (rep_a, ep_a), (rep_b, ep_b) = base, other
    if rep_a.to_dict() != rep_b.to_dict() or len(ep_a) != len(ep_b):
        return {i: "run report differs" for i in range(max(len(ep_a), len(ep_b)))}
    return {i: "assignment or objective differs" for i, (a, b) in enumerate(zip(ep_a, ep_b))
            if a.assignment != b.assignment or a.objective != b.objective
            or a.queue != b.queue}


def one_run(cfg, scheme: str, seed: int):
    """Run the scenario once; returns the outputs, epoch marks and instances."""
    from qcpto import sim

    marks: list[float] = []
    contexts: list = []
    undo = []
    for attr, make in (("run_predictor", _epoch_clock(marks)),
                       ("build_epoch", _keep_contexts(contexts))):
        done = patch("qcpto.sim", attr, make)
        if done is None:
            unpatch(undo)
            raise SystemExit(f"qcpto.sim.{attr} is gone: the epoch clock and "
                             "the correctness checks need it")
        undo += done
    try:
        t0 = time.perf_counter()
        report, epochs = sim.run_scenario(cfg, scheme, seed)
        t1 = time.perf_counter()
    finally:
        unpatch(undo)
    return report, epochs, marks, t0, t1, contexts


def run_pass(doc: dict, seeds, first=None, tracer=None, spans_file=None):
    """Simulate every scenario of the batch once and check each epoch.

    ``first`` holds the outputs of an earlier pass that this one must
    reproduce. With a tracer, the spans of the first scenario are written to
    ``spans_file`` and every scenario's spans are folded into its totals.
    """
    from qcpto.config import config_from_dict

    rec = {"run_s": 0.0, "wall_s": 0.0, "epoch_s": [], "sizes": [], "failed": [],
           "violations": []}
    outputs = []
    for k, seed in enumerate(seeds):
        cfg = config_from_dict(dict(doc, seed=seed))
        report, epochs, marks, t0, t1, contexts = one_run(cfg, cfg.solver.scheme, seed)
        bad = check_epochs(epochs, contexts, cfg.solver.scheme)
        if first is not None:
            for i, msg in compare_runs(first[k], (report, epochs)).items():
                bad.setdefault(i, msg)
        if k == 0:
            rec["first_epoch_at"] = marks[0]
        base = len(rec["epoch_s"])
        rec["failed"] += [base + i for i in sorted(bad)]
        rec["violations"] = sorted(set(rec["violations"]) | set(bad.values()))[:5]
        rec["run_s"] += t1 - marks[0]
        rec["wall_s"] += t1 - t0
        rec["epoch_s"] += [b - a for a, b in zip(marks, marks[1:] + [t1])]
        rec["sizes"].append(len(marks))
        outputs.append((report, epochs))
        if tracer is not None:
            if k == 0 and spans_file:
                Path(spans_file).parent.mkdir(parents=True, exist_ok=True)
                Path(spans_file).write_text(json.dumps({
                    "scenario_seed": seed,
                    "fields": ["name", "start", "end", "parent", "epoch"],
                    "spans": tracer.spans}))
            tracer.flush()
    return rec, outputs


def summary(outputs) -> dict:
    """Deterministic outputs of a batch: quality figures and a digest."""
    reports = [r for r, _ in outputs]
    text = "\n".join(outputs_text(r, e) for r, e in outputs)
    return {
        "objective_total": sum(e.objective for _, ep in outputs for e in ep),
        "awareness_mean": sum(r.mean_awareness for r in reports) / len(reports),
        "satisfaction_mean": sum(r.mean_satisfaction for r in reports) / len(reports),
        "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--config", required=True, help="config document as JSON")
    ap.add_argument("--seeds", required=True, help="scenario seeds, comma-separated")
    ap.add_argument("--spawned", type=float, required=True,
                    help="perf_counter reading of the parent just before spawning")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--deadline", type=float, default=float("inf"),
                    help="perf_counter reading after which no pass starts")
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qcpto" / "__init__.py").is_file():
        print(f"no qcpto sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import qcpto
    if Path(qcpto.__file__).resolve().parent != (ROOT / "src" / "qcpto").resolve():
        print(f"imported qcpto from {qcpto.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from qcpto import sim
    from qcpto.config import config_from_dict

    doc = json.loads(args.config)
    seeds = [int(s) for s in args.seeds.split(",")]

    if args.mode == "setup":
        cfg = config_from_dict(dict(doc, seed=seeds[0]))
        marks: list[float] = []

        def stop(fn):
            def first_epoch(*a, **k):
                marks.append(time.perf_counter())
                raise _FirstEpoch
            return first_epoch

        undo = patch("qcpto.sim", "run_predictor", stop)
        try:
            sim.run_scenario(cfg, cfg.solver.scheme, seeds[0])
        except _FirstEpoch:
            pass
        finally:
            unpatch(undo or [])
        if not marks:
            print("the scenario never reached its first epoch", file=sys.stderr)
            return 2
        print(json.dumps({"setup_s": marks[0] - args.spawned}))
        return 0

    result: dict = {"delta_s": config_from_dict(doc).scenario.delta_s,
                    "passes": [], "traced": []}
    first = None
    started = time.perf_counter()
    while True:
        gc.collect()
        rec, outputs = run_pass(doc, seeds, first)
        if first is None:
            first = outputs
            result["setup_s"] = rec["first_epoch_at"] - args.spawned
            result.update(summary(outputs))
        result["passes"].append(rec)

        if args.mode == "trace":
            gc.collect()
            tracer = Tracer().install()
            try:
                rec_t, _ = run_pass(doc, seeds, first, tracer,
                                    args.spans if len(result["traced"]) == 0 else None)
            finally:
                tracer.remove()
            stats = tracer.stats()
            rec_t["metrics"] = layer_metrics(stats)
            rec_t["ranking"] = ranking(stats, rec_t["wall_s"])
            del rec_t["epoch_s"]
            result["traced"].append(rec_t)

        now = time.perf_counter()
        per_pass = (now - started) / len(result["passes"])
        if now - started + per_pass > args.seconds or now + per_pass > args.deadline:
            break

    if result["traced"]:
        result["layer_metrics"] = median_metrics([t["metrics"] for t in result["traced"]])
        result["absent"] = sorted(k for k, v in result["layer_metrics"].items() if v is None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
