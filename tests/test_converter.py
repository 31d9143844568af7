"""Converter control: limiter geometry, PI behavior, override handling."""

import math

import pytest
from hypothesis import given, strategies as st

from windcosim.converter import (ConverterComponent, ConverterControl,
                                 ConverterParams, Priority, QMode, current_limit)
from windcosim.errors import EquilibriumInfeasibleError
from windcosim.frt import Mode


# -- current limiter ------------------------------------------------------------


def test_limit_passthrough_inside_circle():
    i_d, i_q, clip_d, clip_q = current_limit(0.6, 0.5, 1.1, Priority.ACTIVE)
    assert (i_d, i_q) == (0.6, 0.5)
    assert not clip_d and not clip_q


def test_limit_passthrough_on_boundary():
    # hypot exactly at the limit is not a violation
    i_d, i_q, clip_d, clip_q = current_limit(1.1, 0.0, 1.1, Priority.ACTIVE)
    assert (i_d, i_q) == (1.1, 0.0)
    assert not clip_d and not clip_q


def test_limit_active_priority_clips_q_to_headroom():
    i_d, i_q, clip_d, clip_q = current_limit(0.8, 1.0, 1.0, Priority.ACTIVE)
    assert i_d == 0.8
    assert i_q == pytest.approx(math.sqrt(1.0 - 0.64), abs=1e-15)
    assert not clip_d and clip_q


def test_limit_active_priority_saturated_d_zeroes_q():
    i_d, i_q, clip_d, clip_q = current_limit(1.5, 0.3, 1.1, Priority.ACTIVE)
    assert i_d == 1.1
    assert i_q == 0.0
    assert clip_d and clip_q


def test_limit_reactive_priority_mirror():
    i_d, i_q, clip_d, clip_q = current_limit(1.0, 0.8, 1.0, Priority.REACTIVE)
    assert i_q == 0.8
    assert i_d == pytest.approx(math.sqrt(1.0 - 0.64), abs=1e-15)
    assert clip_d and not clip_q


def test_limit_preserves_signs():
    i_d, i_q, _, _ = current_limit(-1.5, -0.3, 1.1, Priority.ACTIVE)
    assert i_d == -1.1 and i_q == 0.0
    i_d, i_q, _, _ = current_limit(0.8, -1.0, 1.0, Priority.ACTIVE)
    assert i_d == 0.8 and i_q == pytest.approx(-0.6, abs=1e-15)


finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@given(i_d=finite, i_q=finite,
       i_max=st.floats(min_value=0.05, max_value=2.0),
       priority=st.sampled_from(list(Priority)))
def test_limit_properties(i_d, i_q, i_max, priority):
    od, oq, clip_d, clip_q = current_limit(i_d, i_q, i_max, priority)
    assert math.hypot(od, oq) <= i_max * (1.0 + 1e-12)
    # clipping never flips a sign or grows a magnitude
    assert od * i_d >= 0.0 and abs(od) <= abs(i_d) + 1e-15
    assert oq * i_q >= 0.0 and abs(oq) <= abs(i_q) + 1e-15
    assert clip_d == (abs(od) < abs(i_d))
    assert clip_q == (abs(oq) < abs(i_q))
    # the prioritized axis gives up nothing it could have kept
    kept = oq if priority is Priority.REACTIVE else od
    want = i_q if priority is Priority.REACTIVE else i_d
    assert abs(kept) == pytest.approx(min(abs(want), i_max), abs=1e-15)
    # idempotent: a limited pair passes through unchanged
    od2, oq2, c2d, c2q = current_limit(od, oq, i_max, priority)
    assert (od2, oq2) == (od, oq)
    assert not c2d and not c2q


# -- PI loops --------------------------------------------------------------------


def step_against_unit_grid(control, n, dt=1e-3, v=1.0):
    """Algebraic 1 pu grid: measured P, Q follow the commands instantly."""
    p = q = 0.0
    for _ in range(n):
        i_d, i_q = control.step(dt, v, p, q)
        p, q = i_d * v, i_q * v
    return p, q


def test_pi_tracks_references_in_q_mode():
    c = ConverterControl(ConverterParams(q_mode=QMode.REACTIVE_POWER),
                         p_ref=0.8, q_ref=0.1)
    p, q = step_against_unit_grid(c, 500)
    assert p == pytest.approx(0.8, abs=1e-9)
    assert q == pytest.approx(0.1, abs=1e-9)     # at v = v_ref: only the q loop moves q


def test_pi_tracks_voltage_reference_direction():
    # voltage mode pushes i_q up while the terminal runs below v_ref
    c = ConverterControl(ConverterParams(q_mode=QMode.VOLTAGE), p_ref=0.5)
    for _ in range(50):
        c.step(1e-3, 0.95, 0.5, 0.0)
    assert c.i_q_cmd > 0.0                        # at q = q_ref: only the v loop moves i_q


def test_equilibrium_is_a_fixed_point():
    c = ConverterControl(ConverterParams(q_mode=QMode.VOLTAGE), p_ref=0.85, q_ref=0.05)
    i_d, i_q = c.equilibrium(0.98)
    assert i_d == pytest.approx(0.85 / 0.98, abs=1e-15)
    assert i_q == pytest.approx(0.05 / 0.98, abs=1e-15)
    assert c.v_ref == 0.98            # voltage mode adapts the reference
    # steady measurements reproduce the commands bit for bit
    od, oq = c.step(1e-3, 0.98, 0.85, 0.05)
    assert od == i_d and oq == i_q


def test_equilibrium_keeps_q_reference_in_q_mode():
    c = ConverterControl(ConverterParams(q_mode=QMode.REACTIVE_POWER), p_ref=0.5, q_ref=0.0)
    c.equilibrium(0.97)
    assert c.v_ref == 1.0


def test_equilibrium_rejects_bad_voltage_and_excess_current():
    c = ConverterControl(ConverterParams(), p_ref=0.5)
    with pytest.raises(EquilibriumInfeasibleError):
        c.equilibrium(0.0)
    c = ConverterControl(ConverterParams(), p_ref=1.2)
    with pytest.raises(EquilibriumInfeasibleError):
        c.equilibrium(1.0)


def test_conditional_anti_windup_releases_quickly():
    c = ConverterControl(ConverterParams(q_mode=QMode.REACTIVE_POWER, i_max=1.0),
                         p_ref=0.0, q_ref=2.0)
    step_against_unit_grid(c, 200)
    assert c.i_q_cmd == pytest.approx(1.0, abs=1e-12)   # pinned at the limit
    frozen = c.integ_q
    step_against_unit_grid(c, 200)
    assert c.integ_q == frozen                           # no windup while clipped
    c.q_ref = 0.1
    p, q = 0.0, 1.0
    for k in range(1, 51):
        _, i_q = c.step(1e-3, 1.0, p, q)
        p, q = c.i_d_cmd, i_q
        if i_q < 0.99:
            break
    assert k < 10, "command stuck at the limit: integrator wound up"


# -- ride-through overrides -------------------------------------------------------


def test_fault_mode_forces_voltage_regulation():
    c = ConverterControl(ConverterParams(q_mode=QMode.REACTIVE_POWER), p_ref=0.5)
    _, i_q = c.step(1e-3, 0.4, 0.0, 0.0, Mode.FAULT, True, 0.0, 0.0)
    # the q loop acts on v_ref - v = 0.6, not on q_ref - q = 0
    assert i_q == pytest.approx((0.1 + 120.0 * 1e-3) * 0.6, abs=1e-15)


def test_block_zeroes_active_axis_and_integrator():
    c = ConverterControl(ConverterParams(), p_ref=0.8)
    c.equilibrium(1.0)
    i_d, _ = c.step(1e-3, 0.3, 0.8, 0.0, Mode.FAULT, True, 0.0, 0.0)
    assert i_d == 0.0
    assert c.integ_d == 0.0


def test_boost_enters_additively():
    c = ConverterControl(ConverterParams(kp_q=0.0, ki_q=0.0), p_ref=0.0)
    _, i_q = c.step(1e-3, 1.0, 0.0, 0.0, Mode.FAULT, True, 0.7, 0.0)
    assert i_q == pytest.approx(0.7, abs=1e-15)


def test_reactive_priority_during_override():
    p = ConverterParams(kp_q=0.0, ki_q=0.0, i_max=1.1)
    c = ConverterControl(p, p_ref=0.0)
    i_d, i_q = c.step(1e-3, 1.0, 0.0, 0.0, Mode.RECOVERY, False, 0.8, 1.0)
    assert i_q == pytest.approx(0.8, abs=1e-15)
    assert i_d == pytest.approx(math.sqrt(1.1 ** 2 - 0.8 ** 2), abs=1e-12)


def test_recovery_tracks_reference_bumplessly():
    c = ConverterControl(ConverterParams(), p_ref=0.9)
    c.equilibrium(1.0)
    i_d, _ = c.step(1e-3, 1.0, 0.9, 0.0, Mode.RECOVERY, False, 0.0, 0.37)
    assert i_d == 0.37
    assert c.integ_d == 0.37
    # back to normal regulation: next command continues from the override value
    i_d2, _ = c.step(1e-3, 1.0, 0.37, 0.0)
    err = 0.9 - 0.37
    assert i_d2 == pytest.approx(0.37 + (0.1 + 60.0 * 1e-3) * err, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        ConverterParams(i_max=0.0)
    for bad in ({"i_max": math.nan}, {"i_max": math.inf}, {"kp_d": -1.0}, {"ki_d": math.nan},
                {"kp_q": -math.inf}, {"ki_q": math.inf}):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be finite"):
            ConverterParams(**bad)
    assert ConverterParams(kp_d=0.0, ki_d=0.0, kp_q=0.0, ki_q=0.0).ki_q == 0.0
    assert ConverterParams(q_mode="voltage").q_mode is QMode.VOLTAGE
    assert ConverterParams(q_mode="reactive_power").q_mode is QMode.REACTIVE_POWER
    with pytest.raises(ValueError):
        ConverterParams(q_mode="volts")


# -- component wrapper ------------------------------------------------------------


def test_component_publishes_setpoints_then_equilibrium():
    comp = ConverterComponent("conv", ConverterParams(), p_ref=0.85, q_ref=0.05)
    assert comp.get("i_d_cmd") == 0.85
    assert comp.get("i_q_cmd") == 0.05
    comp.set("v_meas", 0.95)
    comp.equilibrate()
    assert comp.get("i_d_cmd") == pytest.approx(0.85 / 0.95, abs=1e-15)


def test_component_step_applies_override_inputs():
    comp = ConverterComponent("conv", ConverterParams(), p_ref=0.85)
    comp.set("v_meas", 1.0)
    comp.equilibrate()
    comp.set("frt_mode", int(Mode.FAULT))
    comp.set("block_active", True)
    comp.set("i_q_boost", 0.4)
    comp.step(0.0, 1e-3)
    assert comp.get("i_d_cmd") == 0.0
    assert comp.get("i_q_cmd") > 0.0


def test_component_step_writes_floats_across_a_fault():
    # the step body writes its commands directly; they must be Python
    # floats in every mode, clipped or not
    comp = ConverterComponent("conv", ConverterParams(), p_ref=0.85)
    comp.set("v_meas", 1.0)
    comp.set("p_meas", 0.85)
    comp.equilibrate()
    phases = [(Mode.NORMAL, False, 0.0, 0.0, 1.0),
              (Mode.FAULT, True, 1.2, 0.0, 0.3),      # reactive axis clipped
              (Mode.RECOVERY, False, 0.2, 0.4, 0.95),
              (Mode.NORMAL, False, 0.0, 0.0, 1.0)]
    for k, (mode, block, boost, i_d_ref, v) in enumerate(phases):
        comp.set("frt_mode", int(mode))
        comp.set("block_active", block)
        comp.set("i_q_boost", boost)
        comp.set("i_d_ref_frt", i_d_ref)
        comp.set("v_meas", v)
        comp.step(k * 1e-3, 1e-3)
        assert type(comp.get("i_d_cmd")) is float
        assert type(comp.get("i_q_cmd")) is float
        if mode is Mode.FAULT:
            assert comp.get("i_q_cmd") == 1.1


def test_component_step_rejects_unknown_frt_mode():
    comp = ConverterComponent("conv", ConverterParams(), p_ref=0.85)
    comp.set("v_meas", 1.0)
    comp.equilibrate()
    for mode in Mode:
        comp.set("frt_mode", int(mode))
        comp.step(int(mode) * 1e-3, 1e-3)
    comp.set("frt_mode", 7)
    with pytest.raises(ValueError, match="7 is not a valid FRT mode"):
        comp.step(3e-3, 1e-3)
