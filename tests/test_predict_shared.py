"""The filter bank against a filter that checks every step.

The reference below is the per-vehicle filter written out in full: every
step builds a new, fully checked ``KfState`` with its own covariance. The
bank keeps its filters as array rows that share covariances between filters
with the same update/coast history, and must reproduce the reference bit for
bit.
"""
import dataclasses
import math
import random

import numpy as np
import pytest

from qcpto.config import PredictorSection, RunConfig, ScenarioSection
from qcpto.errors import SingularInnovation
from qcpto.model import Turn, VehicleState
from qcpto.predict import (MEASUREMENT_MATRIX, FilterBank, classify_turn,
                           coast, cv_transition, estimate_roi, run_predictor)
from qcpto.sim import default_workers, run_simulation
from qcpto.trace import SlotRecord, Trace, synth_intersection

from oracles import KfState

DELTA = 1.0  # slot length of every trace here


def ref_init(z, cfg):
    return KfState(np.array([float(z[0]), float(z[1]), 0.0, 0.0]),
                   np.diag(cfg.p0_diag).astype(float), cv_transition(DELTA),
                   MEASUREMENT_MATRIX.copy(), np.diag(cfg.q_diag).astype(float),
                   np.diag(cfg.r_diag).astype(float), 1)


def ref_predict(s):
    x_pred = s.a_mat @ s.x_hat
    p_pred = s.a_mat @ s.p_cov @ s.a_mat.T + s.q_proc
    return x_pred, 0.5 * (p_pred + p_pred.T)


def ref_update(s, x_pred, p_pred, z):
    h = s.h_mat
    innovation = z - h @ x_pred
    s_mat = h @ p_pred @ h.T + s.r_meas
    if abs(float(np.linalg.det(s_mat))) < 1e-12:
        raise SingularInnovation(f"innovation covariance is singular: {s_mat.tolist()}")
    gain = np.linalg.solve(s_mat.T, (p_pred @ h.T).T).T
    x_new = x_pred + gain @ innovation
    p_new = (np.eye(4) - gain @ h) @ p_pred
    p_new = 0.5 * (p_new + p_new.T)
    return KfState(x_new, p_new, s.a_mat, s.h_mat, s.q_proc, s.r_meas, s.updates + 1)


def ref_coast(s):
    x_pred, p_pred = ref_predict(s)
    return KfState(x_pred, p_pred, s.a_mat, s.h_mat, s.q_proc, s.r_meas, s.updates)


def ref_run_predictor(states, bank, cfg, rng):
    """Step each user of one slot's states: {uid: (filter, roi)}."""
    out = {}
    for state in states:
        z = np.array(state.position, dtype=float)
        if cfg.measurement_noise_std > 0.0:
            z = z + rng.normal(0.0, cfg.measurement_noise_std, size=2)
        prior = bank.get(state.user_id)
        if prior is None:
            kf = ref_init(z, cfg)
        else:
            x_pred, p_pred = ref_predict(prior)
            kf = ref_update(prior, x_pred, p_pred, z)
        ahead, _ = ref_predict(kf)
        predicted_pos = (float(ahead[0]), float(ahead[1]))
        turn = (classify_turn(state, predicted_pos, math.radians(cfg.theta_turn_deg))
                if kf.updates >= cfg.warmup_slots else Turn.STRAIGHT)
        out[state.user_id] = (kf, estimate_roi(state, turn, cfg.roi_height_m))
    return out


def drive(trace, cfg, seed=0):
    """Run the bank and the reference side by side, one slot at a time.

    Yields (slot, rois, want, bank, ref): the bank's ROIs, the reference's
    (filter, roi) per measured user, and after coasting a reference filter
    for every bank row, stepped from that row's previous reference filter.
    Which rows the bank keeps is its own decision; the tests check it.
    """
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    bank, ref = FilterBank(cfg, DELTA), {}
    for rec in trace.records:
        try:
            want = ref_run_predictor(rec.states, ref, cfg, ref_rng)
        except SingularInnovation as exc:
            # the bank fails in the same slot with the same message
            with pytest.raises(SingularInnovation) as info:
                run_predictor(rec.states, bank, rng)
            assert str(info.value) == str(exc)
            raise
        try:
            rois = run_predictor(rec.states, bank, rng)
        except SingularInnovation as exc:
            pytest.fail(f"slot {rec.slot}: only the bank failed: {exc}")
        coast(bank)
        ref = {uid: want[uid][0] if uid in want else ref_coast(ref[uid])
               for uid in bank.uids.tolist()}
        yield rec.slot, rois, want, bank, ref


def gappy(trace, drop, seed):
    """The trace with each vehicle state dropped with probability ``drop``."""
    rng = random.Random(seed)
    return Trace(tuple(
        SlotRecord(rec.slot, tuple(s for s in rec.states if rng.random() >= drop))
        for rec in trace.records))


def check_bank(trace, cfg):
    """Compare the bank with the reference on every slot of a trace.

    Returns the filter-slots seen, the distinct update/coast histories and
    the filters measured again after coasting.
    """
    steps = resumes = 0
    last_seen, history, shared = {}, {}, {}
    for slot, rois, want, bank, ref in drive(trace, cfg):
        assert rois == {uid: roi for uid, (_, roi) in want.items()}, slot
        last_seen.update(dict.fromkeys(rois, slot))
        # a row is dropped once missed for more than coast_slots slots
        assert set(bank.uids.tolist()) == {uid for uid, seen in last_seen.items()
                                           if slot - seen <= cfg.coast_slots}, slot
        for row, uid in enumerate(bank.uids.tolist()):
            kf, hist = ref[uid], int(bank.hist[row])
            assert np.array_equal(bank.x[row], kf.x_hat), (slot, uid)
            assert np.array_equal(bank.p[hist], kf.p_cov), (slot, uid)
            assert bank.updates[row] == kf.updates, (slot, uid)
            assert bank.missed[row] == slot - last_seen[uid], (slot, uid)
            if uid not in rois:
                history[uid] = (history[uid], "coast")
            elif kf.updates == 1:
                history[uid] = ("init",)
            else:
                # a filter measured again after coasting continues its updates
                resumes += history[uid][-1] == "coast"
                history[uid] = (history[uid], "update")
            # every filter with the same history holds the same history id
            assert shared.setdefault(history[uid], hist) == hist
        steps += len(bank.uids)
    return steps, len(shared), resumes


@pytest.mark.parametrize("noise_std", [0.0, 0.5])
def test_shared_covariances_match_checked_reference(noise_std):
    trace = synth_intersection(ScenarioSection(n_vehicles=200), 8000)
    cfg = PredictorSection(measurement_noise_std=noise_std)
    steps, histories, resumes = check_bank(trace, cfg)
    assert steps > 5000
    # the synthetic traces never bring a filter back within coast_slots
    assert resumes == 0
    assert histories * 50 < steps


# (vehicles, probability of dropping each state): the dropped states bring
# filters back after coasting, so coast-then-update runs
@pytest.mark.parametrize("n_vehicles, drop", [(40, 0.0), (200, 0.1), (200, 0.3)])
@pytest.mark.parametrize("noise_std", [0.0, 0.5])
def test_bank_matches_checked_reference_on_small_and_gappy_traces(n_vehicles, drop, noise_std):
    trace = gappy(synth_intersection(ScenarioSection(n_vehicles=n_vehicles), 8000),
                  drop, 8001)
    steps, _, resumes = check_bank(trace, PredictorSection(measurement_noise_std=noise_std))
    assert steps > 20 * n_vehicles
    assert (resumes > 0) == (drop > 0)


@pytest.mark.parametrize("beyond", [0, 1])
def test_filter_resumes_within_coast_slots_and_restarts_after(beyond):
    # one user driving east at 10 m/s, measured for four slots, then absent
    # for coast_slots (+1) slots, then measured again
    cfg = PredictorSection()
    absent = cfg.coast_slots + beyond
    seen = list(range(4)) + [4 + absent]
    trace = Trace(tuple(
        SlotRecord(t, (VehicleState(7, (10.0 * t, 5.0), 0.0, 10.0, t),)
                   if t in seen else ())
        for t in range(5 + absent)))
    bank = FilterBank(cfg, DELTA)
    for slot in range(seen[-1]):
        run_predictor(trace.records[slot].states, bank)
        coast(bank)
        kept = slot - 3 <= cfg.coast_slots
        assert bank.uids.tolist() == ([7] if kept else []), slot
        # coasting keeps the update count
        assert bank.updates.tolist() == ([min(slot + 1, 4)] if kept else []), slot
    run_predictor(trace.records[seen[-1]].states, bank)
    coast(bank)
    assert bank.uids.tolist() == [7]
    z = [10.0 * seen[-1], 5.0]
    if beyond:
        assert bank.updates[0] == 1
        assert np.array_equal(bank.x[0], [*z, 0.0, 0.0])
    else:
        assert bank.updates[0] == 5
        assert not np.array_equal(bank.x[0], [*z, 0.0, 0.0])


def test_singular_innovation_raised_in_same_epoch_with_same_message():
    cfg = dataclasses.replace(RunConfig(), predictor=dataclasses.replace(
        RunConfig().predictor, q_diag=(0, 0, 0, 0), r_diag=(0, 0)))
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, n_vehicles=20))
    trace = synth_intersection(cfg.scenario, 4)

    # drive checks that the bank fails in the reference's slot with its message
    ref_slot = None
    with pytest.raises(SingularInnovation) as info:
        for ref_slot, *_ in drive(trace, cfg.predictor):
            pass
    ref_msg = str(info.value)
    assert ref_msg.startswith("innovation covariance is singular")

    # the failing epoch is the record after the last completed one
    slots = [rec.slot for rec in trace.records]
    failing = slots[0] if ref_slot is None else slots[slots.index(ref_slot) + 1]
    with pytest.raises(SingularInnovation) as info:
        run_simulation(trace, default_workers(cfg, 5), "go", cfg, 4)
    assert str(info.value) == f"epoch {failing}: {ref_msg}"


def test_singular_innovation_leaves_the_bank_as_it_was():
    # unvalidated: zero Q and R make an update singular a few slots in
    cfg = dataclasses.replace(PredictorSection(), q_diag=(0, 0, 0, 0), r_diag=(0, 0))
    trace = synth_intersection(ScenarioSection(n_vehicles=20), 4)
    fields = ("uids", "x", "hist", "updates", "missed")
    bank = last_slot = before = None
    # drive fails in the reference's slot, after the bank failed there with
    # the reference's message
    with pytest.raises(SingularInnovation) as info:
        for last_slot, _, _, bank, _ in drive(trace, cfg):
            before = {name: getattr(bank, name).copy() for name in fields}
    assert bank is not None, "the first slot failed; no row was measured again"
    for name in fields:
        assert np.array_equal(getattr(bank, name), before[name]), name
    slots = [rec.slot for rec in trace.records]
    states = trace.records[slots.index(last_slot) + 1].states

    # the failing slot updates rows on more than one history
    row_of = {uid: r for r, uid in enumerate(bank.uids.tolist())}
    measured = [row_of[s.user_id] for s in states if s.user_id in row_of]
    assert len(set(bank.hist[measured].tolist())) >= 2

    with pytest.raises(SingularInnovation) as again:
        run_predictor(states, bank)
    assert str(again.value) == str(info.value)


def test_singular_innovation_names_the_first_singular_user_of_the_slot():
    # user 1 is seen at slots 0 and 2, user 2 at slots 1 and 2, so at slot 2
    # they update from two histories; with no y variance both innovation
    # covariances are singular, with different entries
    cfg = dataclasses.replace(PredictorSection(), p0_diag=(1, 0, 1, 0),
                              q_diag=(0, 0, 0, 0), r_diag=(0, 0))
    seen = {1: (0, 2), 2: (1, 2)}
    messages = set()
    for order in ((1, 2), (2, 1)):
        trace = Trace(tuple(
            SlotRecord(t, tuple(VehicleState(u, (10.0 * t, 5.0 * u), 0.0, 10.0, t)
                                for u in order if t in seen[u]))
            for t in range(3)))
        # drive checks that the bank fails with the reference's message
        with pytest.raises(SingularInnovation) as info:
            for _ in drive(trace, cfg):
                pass
        messages.add(str(info.value))
    assert len(messages) == 2
