"""Spans and counts around qcpto's layer functions, installed from outside.

A hook replaces a public function by a wrapper in every loaded ``qcpto``
module that binds the same object, so both the defining module and the call
sites that imported the name (``sim`` imports most of them) see the wrapper.
Removing the hooks puts the original objects back. A target that no longer
exists, or whose result no longer has the shape a counter expects, is
recorded as absent and every metric that needs it reads ``None``.

Spans are kept in memory as ``[name, start, end, parent, epoch]`` lists; an
epoch starts with each call of the predictor. Between scenarios the caller
may write them out and fold them into per-name totals (``flush``). Self time
is a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


def patch(module_name: str, attr: str, make_wrapper: Callable) -> Optional[list]:
    """Rebind ``module_name.attr`` in every loaded qcpto module that binds it.

    Returns the undo list for :func:`unpatch`, or ``None`` when the target
    does not exist.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    original = getattr(module, attr, None)
    if not callable(original):
        return None
    wrapper = make_wrapper(original)
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qcpto" or name.startswith("qcpto.")):
            continue
        if vars(mod).get(attr) is original:
            setattr(mod, attr, wrapper)
            undo.append((mod, attr, original))
    return undo


def unpatch(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


# --- result counters: (tracer, args, kwargs, result) -> None -------------------

def _count_synth(t, args, kwargs, trace):
    t.counts["trace.vehicle_slots"] += sum(len(r.states) for r in trace.records)


def _count_predict(t, args, kwargs, outputs):
    t.counts["predict.filter_steps"] += len(outputs)
    t.counts["predict.flagged"] += sum(1 for o in outputs.values()
                                       if o.turn.name != "STRAIGHT")


def _count_epoch(t, args, kwargs, ctx):
    n = len(ctx.queue_ids)
    t.counts["sim.epochs"] += 1
    t.counts["sim.queued"] += n
    t.counts["sim.queue_max"] = max(t.counts["sim.queue_max"], n)
    t.counts["sim.epochs_solved"] += ctx.instance is not None


def _count_pairs(t, args, kwargs, quality):
    t.counts["geometry.pairs"] += quality.n * (quality.n - 1) // 2


def _count_heur(t, args, kwargs, sol):
    traj = sol.trajectory
    last = max((i for i in range(1, len(traj)) if traj[i] > traj[i - 1]), default=0)
    t.counts["solve_heur.iterations"] += sol.iterations
    t.counts["solve_heur.useful_iters"] += last


def _count_exact(t, args, kwargs, sol):
    t.counts["solve_exact.nodes"] += sol.nodes
    t.counts["solve_exact.budget_hits"] += bool(sol.budget_exceeded)


def _count_repair(t, args, kwargs, repaired):
    before = args[0] if args else kwargs["assignment"]
    t.counts["qmkp.repair_evictions"] += len(before) - len(repaired)


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    counter: Optional[Callable] = None
    starts_epoch: bool = False

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


HOOKS = (
    Hook("qcpto.trace", "synth_intersection", _count_synth),
    Hook("qcpto.predict", "run_predictor", _count_predict, starts_epoch=True),
    Hook("qcpto.predict", "coast"),
    Hook("qcpto.sim", "build_epoch", _count_epoch),
    Hook("qcpto.geometry", "build_quality_matrix", _count_pairs),
    Hook("qcpto.geometry", "rasterize_triangle"),
    Hook("qcpto.geometry", "detected_awareness"),
    Hook("qcpto.solve_exact", "solve_exact", _count_exact),
    Hook("qcpto.solve_heur", "solve_heuristic", _count_heur),
    Hook("qcpto.solve_heur", "fix_and_complete"),
    Hook("qcpto.solve_heur", "greedy_bin_packing"),
    Hook("qcpto.baselines", "solve_go"),
    Hook("qcpto.baselines", "solve_cpto"),
    Hook("qcpto.qmkp", "repair_deadline", _count_repair),
    Hook("qcpto.qmkp", "evaluate_objective"),
    Hook("qcpto.metrics", "epoch_metrics"),
)


class Tracer:
    """In-memory span and count recorder for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.totals = SpanStats()
        self.epoch = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock
        name = hook.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook.starts_epoch:
                self.epoch += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.epoch]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook.counter is not None and name not in self.absent:
                try:
                    hook.counter(self, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.absent.add(name)  # result shape changed: count unknown
            return result

        return wrapper

    def install(self, hooks=HOOKS) -> "Tracer":
        for hook in hooks:
            undo = patch(hook.module, hook.attr,
                         lambda fn, hook=hook: self._wrap(hook, fn))
            if undo is None:
                self.absent.add(hook.name)
            else:
                self._undo.extend(undo)
        return self

    def remove(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def flush(self) -> None:
        """Fold the recorded spans into the running totals and drop them."""
        if self._stack:
            raise RuntimeError("cannot flush while a span is open")
        self.totals.add(self.spans)
        self.spans.clear()

    def stats(self) -> "SpanStats":
        self.flush()
        self.totals.counts = dict(self.counts)
        self.totals.absent = set(self.absent)
        return self.totals


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


class SpanStats:
    """Per span name: calls, inclusive, self and longest time; plus counts."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.max_s: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0  # time under root spans
        self.counts: dict[str, float] = {}
        self.absent: set[str] = set()

    def add(self, spans) -> None:
        """Add a complete list of spans (parents index into the same list)."""
        for s, own in zip(spans, self_times(spans)):
            name, dur = s[0], s[2] - s[1]
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += own
            self.max_s[name] = max(self.max_s[name], dur)
            if s[3] < 0:
                self.covered_s += dur


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, better, span names needed, value from SpanStats)
PER_LAYER = (
    ("trace.synth_s", "s", "lower", ("trace.synth_intersection",),
     lambda s: s.total_s["trace.synth_intersection"]),
    ("trace.vehicle_slots", "count", "lower", ("trace.synth_intersection",),
     lambda s: s.counts.get("trace.vehicle_slots", 0)),
    ("predict.s", "s", "lower", ("predict.run_predictor", "predict.coast"),
     lambda s: s.total_s["predict.run_predictor"] + s.total_s["predict.coast"]),
    ("predict.filter_steps", "count", "lower", ("predict.run_predictor",),
     lambda s: s.counts.get("predict.filter_steps", 0)),
    ("predict.coasts", "count", "lower", ("predict.coast",),
     lambda s: s.calls["predict.coast"]),
    ("predict.us_per_step", "us", "lower", ("predict.run_predictor", "predict.coast"),
     lambda s: 1e6 * _ratio(s.total_s["predict.run_predictor"] + s.total_s["predict.coast"],
                            s.counts.get("predict.filter_steps", 0) + s.calls["predict.coast"])),
    ("predict.flagged", "count", "lower", ("predict.run_predictor",),
     lambda s: s.counts.get("predict.flagged", 0)),
    ("geometry.quality_s", "s", "lower", ("geometry.build_quality_matrix",),
     lambda s: s.total_s["geometry.build_quality_matrix"]),
    ("geometry.pairs", "count", "lower", ("geometry.build_quality_matrix",),
     lambda s: s.counts.get("geometry.pairs", 0)),
    ("geometry.rasters", "count", "lower", ("geometry.rasterize_triangle",),
     lambda s: s.calls["geometry.rasterize_triangle"]),
    ("geometry.raster_s", "s", "lower", ("geometry.rasterize_triangle",),
     lambda s: s.total_s["geometry.rasterize_triangle"]),
    ("geometry.rasters_per_flagged", "ratio", "lower",
     ("geometry.rasterize_triangle", "predict.run_predictor"),
     lambda s: _ratio(s.calls["geometry.rasterize_triangle"],
                      s.counts.get("predict.flagged", 0))),
    ("geometry.awareness_s", "s", "lower", ("geometry.detected_awareness",),
     lambda s: s.total_s["geometry.detected_awareness"]),
    ("sim.build_epoch_self_s", "s", "lower", ("sim.build_epoch",),
     lambda s: s.self_s["sim.build_epoch"]),
    ("sim.epochs_solved", "count", "higher", ("sim.build_epoch",),
     lambda s: s.counts.get("sim.epochs_solved", 0)),
    ("sim.queue_mean", "count", "lower", ("sim.build_epoch",),
     lambda s: _ratio(s.counts.get("sim.queued", 0), s.counts.get("sim.epochs", 0))),
    ("sim.queue_max", "count", "lower", ("sim.build_epoch",),
     lambda s: s.counts.get("sim.queue_max", 0)),
    ("qmkp.objective_calls", "count", "lower", ("qmkp.evaluate_objective",),
     lambda s: s.calls["qmkp.evaluate_objective"]),
    ("qmkp.objective_s", "s", "lower", ("qmkp.evaluate_objective",),
     lambda s: s.total_s["qmkp.evaluate_objective"]),
    ("qmkp.repair_s", "s", "lower", ("qmkp.repair_deadline",),
     lambda s: s.total_s["qmkp.repair_deadline"]),
    ("qmkp.repair_evictions", "count", "lower", ("qmkp.repair_deadline",),
     lambda s: s.counts.get("qmkp.repair_evictions", 0)),
    ("solve_heur.s", "s", "lower", ("solve_heur.solve_heuristic",),
     lambda s: s.total_s["solve_heur.solve_heuristic"]),
    ("solve_heur.calls", "count", "lower", ("solve_heur.solve_heuristic",),
     lambda s: s.calls["solve_heur.solve_heuristic"]),
    ("solve_heur.iterations", "count", "lower", ("solve_heur.solve_heuristic",),
     lambda s: s.counts.get("solve_heur.iterations", 0)),
    ("solve_heur.iters_per_s", "1/s", "higher", ("solve_heur.solve_heuristic",),
     lambda s: _ratio(s.counts.get("solve_heur.iterations", 0),
                      s.total_s["solve_heur.solve_heuristic"])),
    ("solve_heur.fc_calls", "count", "lower", ("solve_heur.fix_and_complete",),
     lambda s: s.calls["solve_heur.fix_and_complete"]),
    ("solve_heur.retry_ratio", "ratio", "lower",
     ("solve_heur.fix_and_complete", "solve_heur.solve_heuristic"),
     lambda s: _ratio(s.calls["solve_heur.fix_and_complete"]
                      - s.counts.get("solve_heur.iterations", 0),
                      s.counts.get("solve_heur.iterations", 0))),
    ("solve_heur.useful_iter_frac", "frac", "higher", ("solve_heur.solve_heuristic",),
     lambda s: _ratio(s.counts.get("solve_heur.useful_iters", 0),
                      s.counts.get("solve_heur.iterations", 0))),
    ("solve_exact.s", "s", "lower", ("solve_exact.solve_exact",),
     lambda s: s.total_s["solve_exact.solve_exact"]),
    ("solve_exact.calls", "count", "lower", ("solve_exact.solve_exact",),
     lambda s: s.calls["solve_exact.solve_exact"]),
    ("solve_exact.nodes", "count", "lower", ("solve_exact.solve_exact",),
     lambda s: s.counts.get("solve_exact.nodes", 0)),
    ("solve_exact.nodes_per_s", "1/s", "higher", ("solve_exact.solve_exact",),
     lambda s: _ratio(s.counts.get("solve_exact.nodes", 0),
                      s.total_s["solve_exact.solve_exact"])),
    ("solve_exact.budget_hits", "count", "lower", ("solve_exact.solve_exact",),
     lambda s: s.counts.get("solve_exact.budget_hits", 0)),
    ("solve_exact.max_call_s", "s", "lower", ("solve_exact.solve_exact",),
     lambda s: s.max_s["solve_exact.solve_exact"]),
    ("baselines.s", "s", "lower", ("baselines.solve_go", "baselines.solve_cpto"),
     lambda s: s.total_s["baselines.solve_go"] + s.total_s["baselines.solve_cpto"]),
    ("baselines.calls", "count", "lower", ("baselines.solve_go", "baselines.solve_cpto"),
     lambda s: s.calls["baselines.solve_go"] + s.calls["baselines.solve_cpto"]),
    ("metrics.s", "s", "lower", ("metrics.epoch_metrics",),
     lambda s: s.total_s["metrics.epoch_metrics"]),
    ("metrics.awareness_calls", "count", "lower", ("geometry.detected_awareness",),
     lambda s: s.calls["geometry.detected_awareness"]),
)

OVERHEAD = ("bench.trace_overhead_frac", "frac", "lower")


def layer_metrics(stats: SpanStats) -> dict[str, Optional[float]]:
    """Every per-layer metric; ``None`` where a needed hook is absent."""
    return {name: (None if stats.absent.intersection(needs) else float(fn(stats)))
            for name, _unit, _better, needs, fn in PER_LAYER}


def ranking(stats: SpanStats, wall_s: float) -> list[tuple[str, float, float]]:
    """(span name, self seconds, share of wall_s), largest first, plus glue."""
    rows = [(name, t, _ratio(t, wall_s)) for name, t in stats.self_s.items()]
    rows.sort(key=lambda r: -r[1])
    glue = wall_s - stats.covered_s
    rows.append(("(glue: no span)", glue, _ratio(glue, wall_s)))
    return rows


def median_metrics(runs: list[dict]) -> dict:
    """Per-metric median over traced runs (counts repeat exactly)."""
    return {k: (None if runs[0][k] is None
                else statistics.median(r[k] for r in runs)) for k in runs[0]}
