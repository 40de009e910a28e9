"""Property-based checks of the config boundary and the solvers.

Random config documents must either load or raise ConfigError, and a loaded
config must build every library object the pipeline builds from it. Random
small instances must give feasible heuristic results and exact objectives
equal to exhaustive enumeration, the exact search's bound must lie between
the optimum and the all-rows bound it replaced, and no assignment may score
above the all-on-one-worker sum at which the heuristic stops searching. The
runs are derandomized and keep no example database, so they repeat exactly.
"""
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from qcpto import sim
from qcpto.config import (EXPERIMENTS, SCHEMES, RunConfig, SolverSection, config_from_dict,
                          config_to_dict)
from qcpto.errors import ConfigError
from qcpto.geometry import QualityMatrix
from qcpto.model import Assignment
from qcpto.predict import FilterBank
from qcpto.qmkp import check_feasible, enumerate_optimal, evaluate_objective, repair_deadline
from qcpto.solve_exact import BOUND_SLACK, _suffix_bound, solve_exact
from qcpto.solve_heur import solve_heuristic
from qcpto.trace import check_routes

from oracles import bare_instance

# hypothesis caches the constants it reads from the code under test in its
# home directory, ./.hypothesis by default, even without an example database;
# set at import, the home is in place before the pytest plugin reads them
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "qcpto-hypothesis")

FUZZ = settings(database=None, derandomize=True, deadline=None)

DEFAULTS = config_to_dict(RunConfig())

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 300),
                    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3))
ANY_VALUE = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=6)

CHOICES = {
    "scheme": SCHEMES + ("bogus",),
    "experiment": EXPERIMENTS + (None, "bogus"),
}


def near(key, default):
    """Values of the default's type around it, so range limits get hit."""
    if key in CHOICES:
        return st.sampled_from(CHOICES[key])
    if key == "schemes":
        return st.lists(st.sampled_from(CHOICES["scheme"]), max_size=3)
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-2, 2 * default + 2)
    if isinstance(default, float):
        return st.floats(-1.0, 3.0 * default + 1.0)
    if isinstance(default, list):
        return st.lists(st.one_of(st.integers(-1, 300), st.floats(-1.0, 20.0)),
                        min_size=max(len(default) - 1, 0), max_size=len(default) + 1)
    return st.just(default)


KEYS = [(None, "seed")] + [(section, key) for section, body in DEFAULTS.items()
                           if section != "seed" for key in body]


@st.composite
def config_docs(draw):
    """Default documents with one to three keys changed, so every check is reached."""
    doc = {}
    for section, key in draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=3,
                                      unique=True)):
        default = DEFAULTS[key] if section is None else DEFAULTS[section][key]
        value = draw(st.one_of(near(key, default), ANY_VALUE))
        if section is None:
            doc[key] = value
        else:
            doc.setdefault(section, {})[key] = value
    if "grid" in doc.get("sweep", {}):  # a grid is only read by an experiment
        doc["sweep"].setdefault("experiment", draw(near("experiment", None)))
    # integers() favours its bounds, so the rare cases are picked from a list
    rare = draw(st.sampled_from([None] * 27 + ["object", "key", "section"]))
    if rare == "object":
        doc[draw(st.sampled_from(sorted(DEFAULTS)))] = draw(ANY_VALUE)
    elif rare == "key":
        doc.setdefault("solver", {})["no_such_key"] = 1
    elif rare == "section":
        doc["no_such_section"] = {}
    return doc


@settings(FUZZ, max_examples=300)
@given(config_docs())
def test_config_documents_load_or_raise_config_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    assert config_from_dict(config_to_dict(cfg)) == cfg
    # the library objects the pipeline builds from a loaded config check
    # what they build; none of those checks may fire on a config that loaded
    assert round(cfg.scenario.duration_s / cfg.scenario.delta_s) >= 1
    check_routes(cfg.scenario)
    FilterBank(cfg.predictor, cfg.scenario.delta_s)
    sim.grid_spec(cfg)
    assert len(sim.default_workers(cfg, cfg.seed + 1)) == cfg.scenario.n_workers


@st.composite
def instances(draw, max_n=8, max_m=3, latency=True):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, max_m))
    upper = draw(st.lists(st.floats(0.0, 1.0), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    q = np.zeros((n, n))
    iu, ik = np.triu_indices(n, 1)
    q[iu, ik] = upper
    q[ik, iu] = upper
    caps = tuple(draw(st.lists(st.integers(0, n), min_size=m, max_size=m)))
    allowed = None
    if draw(st.booleans()):
        allowed = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)),
                           dtype=bool).reshape(n, m)
    task = {}
    if latency and draw(st.booleans()):
        def matrix(lo, hi, shape):
            size = int(np.prod(shape))
            return np.array(draw(st.lists(st.floats(lo, hi), min_size=size,
                                          max_size=size))).reshape(shape)
        task = {"workload": draw(st.floats(1e7, 4e8)), "cpu": matrix(1e9, 4e9, (m,)),
                "transmit": matrix(0.001, 0.05, (n, m)), "kappa": draw(st.floats(0.05, 0.5))}
    return bare_instance(QualityMatrix(q), caps, allowed=allowed, **task)


solver_sections = st.builds(SolverSection, alpha=st.floats(0.05, 0.95),
                            max_iters=st.integers(0, 80), patience=st.integers(1, 30))


@settings(FUZZ, max_examples=150)
@given(instances(), solver_sections, st.integers(0, 2**16))
def test_heuristic_result_is_feasible(inst, solver, seed):
    sol = solve_heuristic(inst, solver, seed)
    assert sol.objective == evaluate_objective(sol.assignment, inst.quality)
    ok, violations = check_feasible(sol.assignment, inst)
    assert ok, violations
    # the repair the simulator applies keeps the result feasible under deadlines
    final = repair_deadline(sol.assignment, inst, enforce_min_pair=True)
    ok, violations = check_feasible(final, inst, strict_deadline=True)
    assert ok, violations


@settings(FUZZ, max_examples=100)
@given(instances(max_n=6, max_m=2, latency=False))
def test_exact_matches_enumeration(inst):
    assert solve_exact(inst).objective == enumerate_optimal(inst).objective


@st.composite
def symmetric_instances(draw, max_n=6, max_m=3):
    """Workers drawn from two capacities, so classes of twins are common."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, max_m))
    upper = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    q = np.zeros((n, n))
    iu, ik = np.triu_indices(n, 1)
    q[iu, ik] = upper
    q[ik, iu] = upper
    caps = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=m, max_size=m)))
    return bare_instance(quality=QualityMatrix(q), capacity=caps)


def all_rows_bound(q, order, caps):
    """The bound before the predecessor rule: every user's top max_cap-1 gains
    over its whole row, accumulated over the branching order."""
    n = len(order)
    top = min(max(max(caps, default=0) - 1, 0), max(n - 1, 0))
    bound = [0.0] * (n + 1)
    for t in range(n - 1, -1, -1):
        bound[t] = bound[t + 1] + sum(sorted(q[order[t]].tolist(), reverse=True)[:top])
    return bound


@settings(FUZZ, max_examples=150)
@given(st.one_of(instances(max_n=6, max_m=2, latency=False), symmetric_instances()),
       st.randoms(use_true_random=False))
def test_exact_bound_lies_between_the_optimum_and_the_all_rows_bound(inst, rnd):
    # the bound holds for any branching order, not only the solver's
    order = list(range(inst.n))
    rnd.shuffle(order)
    q = inst.quality.q
    caps = [int(c) for c in inst.capacity]
    bound = _suffix_bound(q, order, caps)
    assert bound[0] >= enumerate_optimal(inst).objective - BOUND_SLACK
    assert all(b <= r for b, r in zip(bound, all_rows_bound(q, order, caps)))


# mixed magnitudes make the rounding of each partial sum matter
magnitudes = st.builds(lambda mant, exp: mant * 10.0 ** exp,
                       st.floats(1.0, 2.0), st.integers(-17, 0))


@st.composite
def scored_assignments(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    upper = draw(st.lists(st.one_of(st.just(0.0), magnitudes),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    q = np.zeros((n, n))
    iu, ik = np.triu_indices(n, 1)
    q[iu, ik] = upper
    q[ik, iu] = upper
    workers = draw(st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=n,
                            max_size=n))
    return QualityMatrix(q), Assignment(dict(enumerate(workers)))


@settings(FUZZ, max_examples=200)
@given(scored_assignments())
def test_no_assignment_scores_above_all_on_one_worker(case):
    quality, assignment = case
    ceiling = evaluate_objective(Assignment({u: 0 for u in range(quality.n)}), quality)
    assert evaluate_objective(assignment, quality) <= ceiling
