"""Grid component: staged init, flat runs, embedded-vs-coupled equivalence."""

from dataclasses import replace

import numpy as np
import pytest

from windcosim.converter import ConverterControl, ConverterParams
from windcosim.cosim import Direction, VarKind
from windcosim.dynamics import RmsModel
from windcosim.errors import UnknownVariableError
from windcosim.frt import FrtControl, FrtParams, Mode
from windcosim.gridcomp import GridComponent
from windcosim.network import FaultEvent, StaticGenerator
from windcosim.powerflow import solve_power_flow
from windcosim.scenario import (build_large_scale, build_monolithic, build_small_scale,
                                instantiate, run_scenario)
from windcosim.wscc9 import wscc9_without_g3

SETPOINT = {"wpp": (0.85, 0.0)}


def plant_network():
    return replace(wscc9_without_g3(), sgens=[StaticGenerator(id="wpp", bus=3, mva=100.0)])


def make_embedded():
    return {"wpp": (ConverterControl(ConverterParams(), 0.85, 0.0),
                    FrtControl(FrtParams()))}


def test_rejects_setpoint_for_unknown_generator():
    with pytest.raises(UnknownVariableError, match="ghost"):
        GridComponent("grid", RmsModel(plant_network()), {"ghost": (0.5, 0.0)})


def test_rejects_unknown_export_bus():
    with pytest.raises(UnknownVariableError, match="v_bus99"):
        GridComponent("grid", RmsModel(plant_network()), SETPOINT, extra_bus_voltages=(99,))


def test_variable_set_depends_on_embedding():
    coupled = GridComponent("grid", RmsModel(plant_network()), SETPOINT)
    names = {v.name for v in coupled.variables()}
    assert {"i_d_wpp", "i_q_wpp"} <= names
    assert "mode_wpp" not in names

    mono = GridComponent("grid", RmsModel(plant_network()), SETPOINT, embedded=make_embedded())
    names = {v.name for v in mono.variables()}
    assert "mode_wpp" in names
    # the embedded controllers drive the turbine: no input is left to connect
    assert all(v.direction is Direction.OUTPUT for v in mono.variables())


@pytest.mark.parametrize("build", [build_small_scale, build_large_scale])
def test_coupled_grid_inputs_are_the_turbine_currents(build):
    sc = build(t_end=0.01)
    grid = instantiate(sc).component("grid")
    inputs = {v.name: v.kind for v in grid.variables() if v.direction is Direction.INPUT}
    assert inputs == {f"i_{axis}_{w.id}": VarKind.REAL for w in sc.wtgs for axis in "dq"}


def test_equilibrate_publishes_power_flow_operating_point():
    net = plant_network()
    comp = GridComponent("grid", RmsModel(net), SETPOINT)
    comp.equilibrate()
    pf = solve_power_flow(net, comp.model.ybus, SETPOINT)
    v3 = pf.voltage(3)
    assert comp.get("v_wpp") == pytest.approx(abs(v3), abs=1e-12)
    assert comp.get("theta_wpp") == pytest.approx(float(np.angle(v3)), abs=1e-12)
    assert comp.get("p_wpp") == 0.85
    assert comp.get("q_wpp") == 0.0


def test_coupled_init_then_flat_run():
    net = plant_network()
    comp = GridComponent("grid", RmsModel(net, pcc_bus=3), SETPOINT)
    comp.equilibrate()
    v = comp.get("v_wpp")
    comp.set("i_d_wpp", 0.85 / v)
    comp.set("i_q_wpp", 0.0)
    comp.finish_init()
    v0 = comp.get("v_pcc")
    for k in range(100):
        comp.step(k * 1e-3, 1e-3)
        assert comp.get("p_balance_residual") < 1e-9
    assert comp.get("v_pcc") == pytest.approx(v0, abs=1e-9)
    assert comp.get("p_wpp_mw") == pytest.approx(85.0, abs=1e-6)


def test_monolithic_flat_run_stays_flat():
    sc = build_monolithic(t_end=0.1, fault=None)
    trace, _ = run_scenario(sc)
    v = trace["grid.v_pcc"]
    assert np.ptp(v) < 1e-9
    assert np.all(trace["grid.p_balance_residual"] < 1e-9)


def test_cosim_flat_run_stays_flat():
    sc = build_small_scale(t_end=0.1, fault=None)
    trace, _ = run_scenario(sc)
    assert np.ptp(trace["grid.v_pcc"]) < 1e-9
    assert np.ptp(trace["grid.p_wpp_mw"]) < 1e-6


def test_fault_dips_and_recovers_the_faulted_bus():
    trace, _ = run_scenario(build_monolithic())
    t = trace.time
    v6 = trace["grid.v_bus6"]
    during = v6[(t >= 1.01) & (t <= 1.17)]
    assert during.max() < 0.05           # bolted fault holds the bus near zero
    assert v6[t >= 1.5].min() > 0.8
    before = v6[t < 1.0]
    assert np.ptp(before) < 1e-9


def test_monolithic_equals_cosim_bitwise_when_steps_align():
    """With the exchange interval equal to the integrator step the serial
    co-simulation and the embedded-controller run produce the same grid
    trajectory bit for bit."""
    mono, cosim = build_monolithic(t_end=1.5), build_small_scale(t_end=1.5)
    mono, _ = run_scenario(mono, macro_step=mono.micro_step)
    cosim, _ = run_scenario(cosim, macro_step=cosim.micro_step)
    assert np.array_equal(mono.time, cosim.time)
    for ch in ("grid.v_pcc", "grid.p_wpp_mw", "grid.q_wpp_mvar",
               "grid.v_bus6", "grid.p_balance_residual"):
        assert np.array_equal(mono[ch], cosim[ch]), f"{ch} diverged"
    # the embedded pair mirrors the external components one sample early:
    # the coupled converter's output at sample k reaches the grid in the
    # next exchange, while the monolithic record holds the command that
    # was applied during the step ending at k
    assert np.array_equal(mono["grid.i_d_wpp"][1:], cosim["conv_wpp.i_d_cmd"][:-1])
    assert np.array_equal(mono["grid.mode_wpp"][1:], cosim["frt_wpp.mode"][:-1])


def test_embedded_converter_sees_the_supervisor_one_micro_step_late():
    # the converter reads the supervisor's outputs before the supervisor's
    # own step in the same micro step, as the serial exchange would
    conv, sup = make_embedded()["wpp"]
    model = RmsModel(plant_network(), pcc_bus=3,
                     events=[FaultEvent(bus=6, start=2e-3, duration=3e-3)])
    comp = GridComponent("grid", model, SETPOINT, embedded={"wpp": (conv, sup)})
    seen, outputs = [], []
    conv_step, sup_step = conv.step, sup.step

    def converter_step(dt, v, p, q, *frt):
        seen.append(frt)
        return conv_step(dt, v, p, q, *frt)

    def supervisor_step(dt, v, i_d):
        sup_step(dt, v, i_d)
        outputs.append((sup.mode, sup.block_active, sup.i_q_boost, sup.i_d_ref))

    conv.step, sup.step = converter_step, supervisor_step
    comp.equilibrate()
    seeded = sup.i_d_ref
    comp.finish_init()
    for k in range(8):
        comp.step(k * 1e-3, 1e-3)
    assert len(seen) == len(outputs) == 8 * 2 - 1      # the first micro step runs no controller
    assert seen[0] == (Mode.NORMAL, False, 0.0, seeded)
    assert seen[1:] == outputs[:-1]
    j = next(i for i, out in enumerate(outputs) if out[0] is Mode.FAULT)
    assert seen[j][0] is Mode.NORMAL
    assert seen[j + 1][:2] == (Mode.FAULT, True) and seen[j + 1][2] > 0.0


def test_step_outputs_have_declared_kinds_across_a_fault():
    # the step path writes straight into the values; a numpy scalar or an
    # IntEnum there would leak into the exchange and the trace
    kinds = {VarKind.REAL: float, VarKind.INT: int, VarKind.BOOL: bool}
    fault = [FaultEvent(bus=6, start=2e-3, duration=3e-3)]
    for embedded in (None, make_embedded()):
        model = RmsModel(plant_network(), events=fault, pcc_bus=3, pcc_branch=(3, 9))
        comp = GridComponent("grid", model, SETPOINT, extra_bus_voltages=(6,),
                             embedded=embedded)
        comp.equilibrate()
        if embedded is None:
            comp.set("i_d_wpp", 0.85 / comp.get("v_wpp"))
        comp.finish_init()
        v6 = []
        for k in range(8):
            comp.step(k * 1e-3, 1e-3)
            v6.append(comp.get("v_bus6"))
            for ref in comp.variables():
                if ref.direction is Direction.OUTPUT:
                    assert type(comp.get(ref.name)) is kinds[ref.kind], ref.name
        assert min(v6) < 0.05 and v6[-1] > 0.5


def test_sgen_variables_are_declared_as_runs_in_network_order():
    # each kind of sgen variable is one run of value references; the embedded
    # turbine has no inputs, so the input runs skip it
    net = replace(wscc9_without_g3(), sgens=[
        StaticGenerator(id=sid, bus=b, mva=20.0)
        for sid, b in (("a", 3), ("emb", 5), ("c", 8), ("d", 6))])
    setpoints = {sg.id: (0.5, 0.0) for sg in net.sgens}
    embedded = {"emb": (ConverterControl(ConverterParams(), 0.5, 0.0), FrtControl(FrtParams()))}
    comp = GridComponent("grid", RmsModel(net), setpoints, embedded=embedded)

    def run(prefix, sids):
        vrs = [comp.ref(f"{prefix}{sid}").vr for sid in sids]
        assert vrs == list(range(vrs[0], vrs[0] + len(sids))), prefix
        return slice(vrs[0], vrs[0] + len(sids))

    for prefix in ("i_d_", "i_q_"):
        run(prefix, ("a", "c", "d"))
    outputs = [run(prefix, ("a", "emb", "c", "d")) for prefix in ("v_", "theta_", "p_", "q_")]
    comp.equilibrate()
    for sid in ("a", "c", "d"):
        comp.set(f"i_d_{sid}", 0.5 / comp.get(f"v_{sid}"))
    comp.finish_init()
    comp.step(0.0, 1e-3)
    for out, column in zip(outputs, comp.model.last_measurements.sgen_columns):
        assert comp._values[out] == column


def test_column_commands_address_the_right_sgens():
    # the embedded turbine sits between the two commanded ones, so the
    # commanded positions (0 and 2) are not contiguous
    net = replace(wscc9_without_g3(), sgens=[StaticGenerator(id="a", bus=3, mva=20.0),
                                             StaticGenerator(id="emb", bus=5, mva=20.0),
                                             StaticGenerator(id="c", bus=8, mva=20.0)])
    setpoints = {"a": (0.6, 0.0), "emb": (0.5, 0.0), "c": (0.7, 0.1)}

    embedded = {"emb": (ConverterControl(ConverterParams(), 0.5, 0.0), FrtControl(FrtParams()))}
    comp = GridComponent("grid", RmsModel(net), setpoints, embedded=embedded)
    comp.equilibrate()
    for sid in ("a", "c"):
        p, q = setpoints[sid]
        comp.set(f"i_d_{sid}", p / comp.get(f"v_{sid}"))
        comp.set(f"i_q_{sid}", q / comp.get(f"v_{sid}"))
    comp.finish_init()
    comp.step(0.0, 1e-3)
    comp.set("i_d_a", 0.5 * comp.get("i_d_a"))     # a stale slot would keep the old value
    comp.step(1e-3, 1e-3)
    model = comp.model
    assert model.sgen_ids == ["a", "emb", "c"]
    assert model._s_cmd.tolist() == [comp.get(f"i_d_{sid}") - 1j * comp.get(f"i_q_{sid}")
                                     for sid in ("a", "emb", "c")]
    # each sgen injects its own command: halved at a, the setpoints elsewhere
    assert comp.get("p_a") == pytest.approx(0.5 * 0.6, rel=2e-2)
    assert comp.get("p_emb") == pytest.approx(0.5, rel=2e-2)
    assert comp.get("p_c") == pytest.approx(0.7, rel=2e-2)
    assert comp.get("q_c") == pytest.approx(0.1, rel=2e-2, abs=1e-3)
