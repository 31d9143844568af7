"""Ride-through supervisor: state machine, latch, ramp, envelope."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from windcosim.errors import EnvelopeCoverageError, TraceError
from windcosim.frt import (DEFAULT_ENVELOPE_POINTS, FrtComponent, FrtControl,
                           FrtEnvelope, FrtParams, Mode, envelope_check)

DT = 1e-3


def make_control(**kw) -> FrtControl:
    c = FrtControl(FrtParams(**kw))
    c.seed(0.9)
    return c


# -- state machine ---------------------------------------------------------------


def test_normal_stays_normal_at_healthy_voltage():
    c = make_control()
    for _ in range(100):
        c.step(DT, 1.0, 0.9)
    assert c.mode is Mode.NORMAL
    assert not c.block_active and c.i_q_boost == 0.0


def test_entry_is_immediate_and_latches_previous_command():
    c = make_control()
    c.step(DT, 1.0, 0.9)
    # at the step where the dip shows up the command has already collapsed;
    # the latch must hold the pre-disturbance value from one step earlier
    c.step(DT, 0.3, 0.2)
    assert c.mode is Mode.FAULT
    assert c.block_active
    assert c.prefault_i_d == 0.9


def test_latch_happens_only_on_the_entry_edge():
    c = make_control()
    c.step(DT, 0.3, 0.5)                 # NORMAL -> FAULT, latch 0.9
    for cmd in (0.0, 0.1, 0.2):
        c.step(DT, 0.3, cmd)             # stays FAULT, latch untouched
    assert c.prefault_i_d == 0.9


def test_boost_is_proportional_to_shortfall():
    c = make_control(k_boost=2.0)
    c.step(DT, 0.3, 0.9)
    assert c.i_q_boost == pytest.approx(2.0 * (0.9 - 0.3), abs=1e-15)
    c.step(DT, 0.75, 0.0)
    assert c.i_q_boost == pytest.approx(2.0 * 0.15, abs=1e-15)


def test_exit_needs_the_full_deglitch_hold():
    c = make_control(deglitch=0.02)
    c.step(DT, 0.3, 0.9)
    for k in range(19):
        c.step(DT, 0.95, 0.0)
        assert c.mode is Mode.FAULT, f"left FAULT after only {k + 1} ms"
    c.step(DT, 0.95, 0.0)
    assert c.mode is Mode.RECOVERY


def test_deglitch_timer_resets_on_a_relapse():
    c = make_control(deglitch=0.02)
    c.step(DT, 0.3, 0.9)
    for _ in range(15):
        c.step(DT, 0.95, 0.0)
    c.step(DT, 0.5, 0.0)                 # drops below v_exit: hold starts over
    for _ in range(19):
        c.step(DT, 0.95, 0.0)
        assert c.mode is Mode.FAULT
    c.step(DT, 0.95, 0.0)
    assert c.mode is Mode.RECOVERY


def test_recovery_ramp_matches_closed_form():
    c = make_control(deglitch=0.0, ramp_rate=1.0)
    c.step(DT, 0.3, 0.9)                 # latch 0.9
    c.step(DT, 0.95, 0.0)                # zero deglitch: clears immediately
    assert c.mode is Mode.RECOVERY
    assert c.i_d_ref == 0.0              # ramp starts from the clearance command
    for k in range(1, 901):
        c.step(DT, 0.95, c.i_d_ref)
        assert c.i_d_ref == pytest.approx(min(k * 1e-3, 0.9), abs=1e-12)
    assert c.mode is Mode.NORMAL
    assert c.i_d_ref == 0.9              # snapped exactly onto the latch


def test_recovery_completes_on_the_expected_step():
    c = make_control(deglitch=0.0, ramp_rate=1.0)
    c.step(DT, 0.3, 0.9)
    c.step(DT, 0.95, 0.0)
    steps = 0
    while c.mode is Mode.RECOVERY:
        c.step(DT, 0.95, c.i_d_ref)
        steps += 1
    # 0.9 pu at 1 pu/s in 1 ms steps
    assert steps == 900


def test_disabled_ramp_restores_in_one_step():
    c = make_control(deglitch=0.0, ramp_enabled=False)
    c.step(DT, 0.3, 0.9)
    c.step(DT, 0.95, 0.0)
    c.step(DT, 0.95, 0.0)
    assert c.mode is Mode.NORMAL
    assert c.i_d_ref == 0.9


def test_redip_returns_to_fault_and_keeps_the_original_latch():
    c = make_control(deglitch=0.0)
    c.step(DT, 0.3, 0.9)
    c.step(DT, 0.95, 0.0)
    for _ in range(100):
        c.step(DT, 0.95, c.i_d_ref)
    assert c.mode is Mode.RECOVERY
    c.step(DT, 0.2, c.i_d_ref)           # second dip during the ramp
    assert c.mode is Mode.FAULT
    assert c.prefault_i_d == 0.9
    c.step(DT, 0.95, 0.0)
    assert c.mode is Mode.RECOVERY       # clears again toward the same target


def test_block_active_only_in_fault():
    c = make_control(deglitch=0.0)
    c.step(DT, 1.0, 0.9)
    assert not c.block_active
    c.step(DT, 0.3, 0.9)
    assert c.block_active
    c.step(DT, 0.95, 0.0)
    assert c.mode is Mode.RECOVERY and not c.block_active


def test_seed_sets_latch_reference_and_memory():
    c = FrtControl(FrtParams())
    c.seed(0.77)
    assert c.prefault_i_d == 0.77
    assert c.i_d_ref == 0.77
    c.step(DT, 0.3, 0.1)                 # immediate dip on the first step
    assert c.prefault_i_d == 0.77
    assert c.mode is Mode.FAULT


# the spec: staying put, plus the four moves of the module docstring
ALLOWED_EDGES = {(m, m) for m in Mode} | {
    (Mode.NORMAL, Mode.FAULT), (Mode.FAULT, Mode.RECOVERY),
    (Mode.RECOVERY, Mode.NORMAL), (Mode.RECOVERY, Mode.FAULT),
}


@given(st.lists(st.floats(min_value=0.0, max_value=1.1, allow_nan=False),
                min_size=1, max_size=300),
       st.sampled_from([0.0, 0.005]), st.booleans())
def test_any_voltage_walk_follows_allowed_edges(voltages, deglitch, ramp_enabled):
    c = make_control(deglitch=deglitch, ramp_enabled=ramp_enabled)
    cmd = 0.9
    seen = set()
    for v in voltages:
        prev = c.mode
        c.step(DT, v, cmd)
        seen.add((prev, c.mode))
        cmd = 0.0 if c.block_active else c.i_d_ref
    assert seen <= ALLOWED_EDGES


def test_params_validation():
    with pytest.raises(ValueError):
        FrtParams(v_enter=0.95, v_exit=0.9)
    with pytest.raises(ValueError):
        FrtParams(v_exit=1.0)
    with pytest.raises(ValueError):
        FrtParams(v_enter=0.0, v_exit=0.0)
    with pytest.raises(ValueError):
        FrtParams(deglitch=-1e-3)
    with pytest.raises(ValueError):
        FrtParams(ramp_rate=0.0)
    # every comparison with nan is False: each check must fail on it too
    for bad in ({"deglitch": math.nan}, {"deglitch": math.inf}, {"k_boost": math.nan},
                {"k_boost": math.inf}, {"k_boost": -1.0}, {"ramp_rate": math.nan},
                {"ramp_rate": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            FrtParams(**bad)


# -- component wrapper ------------------------------------------------------------


def test_component_equilibrate_seeds_from_measured_command():
    comp = FrtComponent("frt", FrtParams())
    comp.set("i_d_cmd_meas", 0.85)
    comp.equilibrate()
    assert comp.control.prefault_i_d == 0.85
    assert comp.get("i_d_ref_limited") == 0.85


def test_component_publishes_override_fields():
    comp = FrtComponent("frt", FrtParams())
    comp.set("i_d_cmd_meas", 0.85)
    comp.equilibrate()
    comp.set("v_meas", 0.3)
    comp.step(0.0, DT)
    assert comp.get("mode") == int(Mode.FAULT)
    assert comp.get("block_active") is True
    assert comp.get("i_q_boost") == pytest.approx(2.0 * 0.6, abs=1e-15)


def test_component_step_writes_declared_kinds_across_a_fault():
    # the step body writes its values directly: the mode must be a plain
    # int (not a Mode), the flag a bool and the references floats
    comp = FrtComponent("frt", FrtParams(deglitch=2 * DT, ramp_rate=100.0))
    comp.set("i_d_cmd_meas", 0.85)
    comp.equilibrate()
    modes = set()
    for k, v in enumerate([1.0, 0.3, 0.3] + [1.0] * 15):
        comp.set("v_meas", v)
        comp.set("i_d_cmd_meas", 0.85 if k == 0 else 0.0)
        comp.step(k * DT, DT)
        modes.add(comp.get("mode"))
        assert type(comp.get("mode")) is int
        assert type(comp.get("block_active")) is bool
        assert type(comp.get("i_q_boost")) is float
        assert type(comp.get("i_d_ref_limited")) is float
    assert modes == {int(Mode.NORMAL), int(Mode.FAULT), int(Mode.RECOVERY)}
    assert comp.get("mode") == int(Mode.NORMAL)


# -- envelope ---------------------------------------------------------------------


def test_envelope_validation():
    with pytest.raises(ValueError):
        FrtEnvelope(points=((0.0, 0.0),))
    with pytest.raises(ValueError):
        FrtEnvelope(points=((0.1, 0.0), (1.0, 0.5)))
    with pytest.raises(ValueError):
        FrtEnvelope(points=((0.0, 0.0), (0.5, 0.2), (0.5, 0.3)))
    with pytest.raises(ValueError):
        FrtEnvelope(points=((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError, match="finite"):
        FrtEnvelope(points=((0.0, 0.0), (math.nan, 0.95), (1.5, 0.9)))


def test_envelope_interpolation():
    env = FrtEnvelope()
    assert env.horizon == DEFAULT_ENVELOPE_POINTS[-1][0]
    assert env.min_voltage(0.0) == 0.0
    assert env.min_voltage(0.2) == 0.0
    assert env.min_voltage(0.85) == pytest.approx(0.45, abs=1e-12)
    assert env.min_voltage(1.5) == pytest.approx(0.9, abs=1e-12)
    assert env.min_voltage(99.0) == pytest.approx(0.9, abs=1e-12)


def test_envelope_check_compliant_flat_trace():
    t = np.arange(0.0, 3.0, 1e-3)
    v = np.full_like(t, 1.0)
    res = envelope_check(t, v, onset=1.0)
    assert res.compliant
    assert res.first_violation_time is None
    assert res.margin == pytest.approx(0.1, abs=1e-9)   # 1.0 vs 0.9 tail


def test_envelope_check_flags_first_violation():
    t = np.arange(0.0, 3.0, 1e-3)
    v = np.full_like(t, 1.0)
    dip = (t >= 1.0) & (t < 2.0)
    v[dip] = 0.1                          # still under the floor after 0.36 s
    res = envelope_check(t, v, onset=1.0)
    assert not res.compliant
    floor_hits_01 = 1.0 + 0.2 + 0.1 / 0.9 * 1.3
    assert res.first_violation_time == pytest.approx(floor_hits_01, abs=2e-3)
    assert res.margin < 0.0


def test_envelope_check_margin_value():
    env = FrtEnvelope(points=((0.0, 0.0), (1.0, 0.5)))
    t = np.arange(0.0, 2.0, 1e-3)
    v = 0.05 + np.array([env.min_voltage(max(0.0, x)) for x in t])
    res = envelope_check(t, v, onset=0.0, envelope=env)
    assert res.compliant
    assert res.margin == pytest.approx(0.05, abs=1e-12)


def test_envelope_check_rejects_a_sample_that_is_not_finite():
    t = np.arange(0.0, 3.0, 1e-3)
    v = np.full_like(t, 1.0)
    v[(t >= 1.05) & (t <= 1.2)] = math.nan          # would compare false against the floor
    with pytest.raises(TraceError, match=r"t = 1\.05 s is not finite"):
        envelope_check(t, v, onset=1.0)
    v[:] = 1.0
    v[0] = math.nan                                 # outside the window: not checked
    assert envelope_check(t, v, onset=1.0).compliant


def test_envelope_check_requires_full_coverage():
    t = np.arange(0.0, 1.0, 1e-3)
    v = np.ones_like(t)
    with pytest.raises(EnvelopeCoverageError):
        envelope_check(t, v, onset=0.5)   # horizon 1.5 extends past the trace
