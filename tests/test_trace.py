import dataclasses
import math

import pytest

from qcpto.config import RunConfig, ScenarioSection, validate_config
from qcpto.errors import ConfigError, InvariantError, ParseError
from qcpto.model import VehicleState
from qcpto.trace import (CSV_HEADER, SlotRecord, Trace, check_routes, load_trace,
                         synth_intersection)

from oracles import first_route, save_trace


def write(tmp_path, body):
    path = tmp_path / "trace.csv"
    path.write_text(body, encoding="utf-8")
    return path


def test_load_two_rows_one_vehicle(tmp_path):
    path = write(tmp_path, f"{CSV_HEADER}\n0,7,1.5,2.5,0.0,3.0\n1,7,4.5,2.5,0.0,3.0\n")
    trace = load_trace(path, delta=1.0)
    assert trace.n_slots == 2
    assert trace.records[0].states[0].user_id == 7
    assert trace.records[1].states[0].position == (4.5, 2.5)


def test_load_duplicate_row_raises_parse_error(tmp_path):
    path = write(tmp_path, f"{CSV_HEADER}\n0,7,1.0,2.0,0.0,3.0\n0,7,1.1,2.0,0.0,3.0\n")
    with pytest.raises(ParseError) as err:
        load_trace(path, delta=1.0)
    assert err.value.line == 3


def test_load_empty_file(tmp_path):
    path = write(tmp_path, "")
    assert load_trace(path, delta=1.0).n_slots == 0


def test_load_header_only(tmp_path):
    path = write(tmp_path, CSV_HEADER + "\n")
    assert load_trace(path, delta=1.0).n_slots == 0


def test_load_bad_field_count(tmp_path):
    path = write(tmp_path, f"{CSV_HEADER}\n0,7,1.0,2.0,0.0\n")
    with pytest.raises(ParseError):
        load_trace(path, delta=1.0)


def test_load_bad_header(tmp_path):
    path = write(tmp_path, "a,b,c\n")
    with pytest.raises(ParseError) as err:
        load_trace(path, delta=1.0)
    assert err.value.line == 1


@pytest.mark.parametrize("row", ["0,7,nan,2.0,0.0,3.0", "0,7,1.0,-inf,0.0,3.0",
                                 "0,7,1.0,2.0,inf,3.0", "0,7,1.0,2.0,0.0,nan"])
def test_load_non_finite_value_raises_parse_error(tmp_path, row):
    path = write(tmp_path, f"{CSV_HEADER}\n0,1,1.0,2.0,0.0,3.0\n{row}\n")
    with pytest.raises(ParseError) as err:
        load_trace(path, delta=1.0)
    assert err.value.line == 3


def test_load_decreasing_slots_raise_invariant_error(tmp_path):
    path = write(tmp_path, f"{CSV_HEADER}\n1,7,1.0,2.0,0.0,3.0\n0,7,0.0,2.0,0.0,3.0\n")
    with pytest.raises(InvariantError):
        load_trace(path, delta=1.0)


def test_load_fills_interior_gap_with_empty_slot(tmp_path):
    path = write(tmp_path, f"{CSV_HEADER}\n0,1,1.0,1.0,0.0,2.0\n2,1,5.0,1.0,0.0,2.0\n")
    trace = load_trace(path, delta=1.0)
    assert trace.n_slots == 3
    assert trace.records[1].states == ()


def test_load_speed_consistency_check(tmp_path):
    path = write(tmp_path, f"{CSV_HEADER}\n0,1,0.0,0.0,0.0,2.0\n1,1,50.0,0.0,0.0,2.0\n")
    with pytest.raises(InvariantError):
        load_trace(path, delta=1.0, max_speed=10.0)


def test_save_load_round_trip(tmp_path):
    hand = Trace((
        SlotRecord(0, (VehicleState(0, (0.125, 7.0), 0.3, 4.0, 0),)),
        SlotRecord(1, (VehicleState(0, (1.375, 7.0), 0.3, 4.0, 1),
                       VehicleState(2, (9.0, -1.0), 5.9, 2.0, 1))),
    ))
    path = tmp_path / "rt.csv"
    save_trace(hand, path)
    assert load_trace(path, delta=1.0) == hand

    synth = synth_intersection(ScenarioSection(n_vehicles=6), 4)
    occupied = [k for k, rec in enumerate(synth.records) if rec.states]
    synth = Trace(synth.records[occupied[0]:occupied[-1] + 1])
    save_trace(synth, path)
    assert load_trace(path, delta=1.0) == synth


def test_load_wraps_headings(tmp_path):
    path = write(tmp_path, f"{CSV_HEADER}\n0,1,0.0,0.0,-7.0,1.0\n0,2,5.0,0.0,7.0,1.0\n")
    first, second = load_trace(path, delta=1.0).records[0].states
    assert first.heading == pytest.approx(-7.0 + 4 * math.pi)
    assert second.heading == pytest.approx(7.0 - 2 * math.pi)
    assert all(0.0 <= s.heading < 2 * math.pi for s in (first, second))


def test_load_sorts_each_slot_by_user_id(tmp_path):
    path = write(tmp_path, f"{CSV_HEADER}\n0,9,1.0,0.0,0.0,1.0\n0,3,2.0,0.0,0.0,1.0\n"
                           "0,5,3.0,0.0,0.0,1.0\n1,5,4.0,0.0,0.0,1.0\n1,3,3.0,0.0,0.0,1.0\n")
    trace = load_trace(path, delta=1.0)
    assert [[s.user_id for s in rec.states] for rec in trace.records] == [[3, 5, 9], [3, 5]]
    assert [s.position for s in trace.records[0].states] == [(2.0, 0.0), (3.0, 0.0),
                                                             (1.0, 0.0)]


def test_synth_is_deterministic():
    cfg = ScenarioSection(n_vehicles=10)
    assert synth_intersection(cfg, 42) == synth_intersection(cfg, 42)
    assert synth_intersection(cfg, 42) != synth_intersection(cfg, 43)


def test_synth_zero_vehicles_gives_empty_slots():
    trace = synth_intersection(ScenarioSection(n_vehicles=0), 1)
    assert trace.n_slots == 60
    assert all(rec.states == () for rec in trace.records)


def test_synth_right_turn_heading_change():
    cfg = ScenarioSection(n_vehicles=1, turn_probs=(0, 1, 0))
    trace = first_route(synth_intersection(cfg, 7))
    states = [s for rec in trace.records for s in rec.states]
    assert states
    diff = ((states[-1].heading - states[0].heading + math.pi) % (2 * math.pi)
            - math.pi)
    assert diff == pytest.approx(-math.pi / 2, abs=0.1)


def test_synth_respects_speed_limit():
    cfg = ScenarioSection(n_vehicles=20)
    trace = synth_intersection(cfg, 9)
    max_speed = cfg.max_speed_kmh / 3.6
    assert all(s.speed <= max_speed + 1e-9
               for rec in trace.records for s in rec.states)
    assert trace.speed_violations(max_speed, cfg.delta_s) == []


def test_synth_positions_stay_in_region():
    cfg = ScenarioSection(n_vehicles=25)
    trace = synth_intersection(cfg, 13)
    for rec in trace.records:
        for s in rec.states:
            assert -1e-9 <= s.position[0] <= cfg.region_w + 1e-9
            assert -1e-9 <= s.position[1] <= cfg.region_h + 1e-9


@pytest.mark.parametrize("region,lanes,radius,fits", [
    (200.0, 2, 94.75, True),    # the outer right turn's approach is exactly 0 m
    (200.0, 2, 94.76, False),
    (200.0, 1, 98.25, True),
    (200.0, 1, 98.26, False),
    (60.0, 3, 21.25, True),
    (60.0, 3, 21.5, False),
])
def test_check_routes_accepts_exactly_the_radii_synth_can_build(region, lanes, radius,
                                                                fits):
    cfg = ScenarioSection(region_w=region, region_h=region, lanes_per_direction=lanes,
                          arc_radius_m=radius, n_vehicles=40)
    if fits:
        check_routes(cfg)
        for seed in range(3):
            synth_intersection(cfg, seed)
    else:
        with pytest.raises(ConfigError):
            check_routes(cfg)
        with pytest.raises(ConfigError):
            synth_intersection(cfg, 0)


# every key of the scenario section that synth_intersection reads, set to a
# valid value other than its default
TRACE_KEYS = {
    "region_w": 180.0,
    "region_h": 180.0,
    "lanes_per_direction": 3,
    "lane_width": 3.0,
    "max_speed_kmh": 50.0,
    "duration_s": 50.0,
    "delta_s": 0.5,
    "arc_radius_m": 10.0,
    "n_vehicles": 41,
    "turn_probs": (0.5, 0.25, 0.25),
    "spawn_window_frac": 0.5,
    "speed_frac": (0.6, 0.9),
    "turn_speed_frac": 0.4,
    "slow_margin_m": 6.0,
    "heading_settle_slots": 2.0,
    "spawn_jitter_m": 2.0,
}


def test_trace_keys_are_the_scenario_keys_before_the_task_keys():
    names = [f.name for f in dataclasses.fields(ScenarioSection)]
    assert list(TRACE_KEYS) == names[:names.index("workload_cycles")]


@pytest.mark.parametrize("key", list(TRACE_KEYS))
def test_each_trace_key_changes_the_seeded_trace(key):
    base = ScenarioSection(n_vehicles=40)
    changed = dataclasses.replace(base, **{key: TRACE_KEYS[key]})
    assert getattr(changed, key) != getattr(base, key)
    validate_config(dataclasses.replace(RunConfig(), scenario=changed))
    assert synth_intersection(changed, 3) != synth_intersection(base, 3)
