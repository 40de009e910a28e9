"""The shared covariance tree against a filter that checks every step.

The reference below is the per-vehicle filter written out in full: every
step builds a new, fully checked ``KfState`` with its own covariance. The
predictor shares covariances between filters with the same update/coast
history, and must reproduce the reference bit for bit.
"""
import dataclasses

import numpy as np
import pytest

from qcpto.config import RunConfig
from qcpto.errors import SingularInnovation
from qcpto.model import Turn
from qcpto.predict import (MEASUREMENT_MATRIX, KfState, PredictorConfig,
                           PredictorOutput, classify_turn, coast,
                           cv_transition, estimate_roi, run_predictor)
from qcpto.sim import default_workers, run_simulation, scenario_config
from qcpto.trace import ScenarioConfig, synth_intersection

COAST_SLOTS = RunConfig().predictor.coast_slots


def ref_init(z, cfg):
    return KfState(np.array([float(z[0]), float(z[1]), 0.0, 0.0]),
                   np.diag(cfg.p0_diag).astype(float), cv_transition(cfg.delta),
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


def ref_run_predictor(trace, slot, bank, cfg, rng):
    out = {}
    record = trace.record_at(slot)
    if record is None:
        return out
    for state in record.states:
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
        turn = (classify_turn(state, predicted_pos, cfg.theta_turn)
                if kf.updates >= cfg.warmup_slots else Turn.STRAIGHT)
        out[state.user_id] = PredictorOutput(
            predicted_pos, turn, estimate_roi(state, turn, cfg.roi_height), kf)
    return out


def drive(trace, cfg, step, coast_fn, seed=0):
    """Yield (slot, outputs, bank) per slot, coasting absent users as sim does."""
    rng = np.random.default_rng(seed)
    bank, missed = {}, {}
    for rec in trace.records:
        outputs = step(trace, rec.slot, bank, cfg, rng)
        for uid in list(bank):
            if uid not in outputs:
                missed[uid] = missed.get(uid, 0) + 1
                if missed[uid] > COAST_SLOTS:
                    del bank[uid]
                    missed.pop(uid, None)
                else:
                    bank[uid] = coast_fn(bank[uid])
        for uid, out in outputs.items():
            bank[uid] = out.state
            missed[uid] = 0
        yield rec.slot, outputs, bank


@pytest.mark.parametrize("noise_std", [0.0, 0.5])
def test_shared_covariances_match_checked_reference(noise_std):
    trace = synth_intersection(ScenarioConfig(n_vehicles=200), 8000)
    cfg = PredictorConfig(measurement_noise_std=noise_std)
    steps = 0
    covs = set()
    for (slot, got, bank), (_, want, ref_bank) in zip(
            drive(trace, cfg, run_predictor, coast),
            drive(trace, cfg, ref_run_predictor, ref_coast)):
        assert got.keys() == want.keys(), slot
        for uid, g in got.items():
            w = want[uid]
            assert np.array_equal(g.state.x_hat, w.state.x_hat), (slot, uid)
            assert np.array_equal(g.state.p_cov, w.state.p_cov), (slot, uid)
            assert g.state.updates == w.state.updates
            assert g.predicted_pos == w.predicted_pos, (slot, uid)
            assert g.turn is w.turn, (slot, uid)
        assert bank.keys() == ref_bank.keys(), slot
        for uid, s in bank.items():
            assert np.array_equal(s.x_hat, ref_bank[uid].x_hat), (slot, uid)
            assert np.array_equal(s.p_cov, ref_bank[uid].p_cov), (slot, uid)
            covs.add(id(s.p_cov))
        steps += len(bank)
    assert steps > 5000
    # every filter with the same history holds the same covariance object
    assert len(covs) * 50 < steps


def test_singular_innovation_raised_in_same_epoch_with_same_message():
    cfg = dataclasses.replace(RunConfig(), predictor=dataclasses.replace(
        RunConfig().predictor, q_diag=(0, 0, 0, 0), r_diag=(0, 0)))
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, n_vehicles=20))
    trace = synth_intersection(scenario_config(cfg), 4)
    pcfg = PredictorConfig(q_diag=(0, 0, 0, 0), r_diag=(0, 0))

    def fail_slot(step, coast_fn):
        slot = None
        with pytest.raises(SingularInnovation) as info:
            for slot, _, _ in drive(trace, pcfg, step, coast_fn):
                pass
        return slot, str(info.value)

    ref_slot, ref_msg = fail_slot(ref_run_predictor, ref_coast)
    slot, msg = fail_slot(run_predictor, coast)
    assert (slot, msg) == (ref_slot, ref_msg)
    assert msg.startswith("innovation covariance is singular")

    # the failing epoch is the record after the last completed one
    slots = [rec.slot for rec in trace.records]
    failing = slots[0] if ref_slot is None else slots[slots.index(ref_slot) + 1]
    with pytest.raises(SingularInnovation) as info:
        run_simulation(trace, default_workers(cfg, 5), "go", cfg, 4)
    assert str(info.value) == f"epoch {failing}: {ref_msg}"
