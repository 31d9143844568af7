"""Scenario construction, validation and instantiation."""

import collections
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from windcosim import gridcomp, network
from windcosim.cosim import Scheme, SimComponent
from windcosim.dynamics import RmsModel
from windcosim.errors import (ScenarioValidationError, SinkAlreadyDrivenError,
                              UnknownVariableError, UnresolvedReferenceError)
from windcosim.network import FaultEvent, NetworkData, assemble_ybus, branch_stamps
from windcosim.powerflow import solve_power_flow
from windcosim.scenario import (DEFAULT_FAULT, ConnectionSpec, Scenario, build_large_scale,
                                build_monolithic, build_small_scale, instantiate,
                                run_scenario, standard_wiring)
from windcosim.scenario_io import parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def test_component_counts():
    assert build_monolithic().component_ids() == ["grid"]
    assert build_small_scale().component_ids() == ["grid", "conv_wpp", "frt_wpp"]
    large = build_large_scale().component_ids()
    assert len(large) == 65
    assert large[0] == "grid"
    assert sum(c.startswith("conv_") for c in large) == 32
    assert sum(c.startswith("frt_") for c in large) == 32


def test_standard_wiring_connection_count():
    assert len(standard_wiring(["a"])) == 11
    assert len(build_small_scale().connections) == 11
    assert len(build_large_scale().connections) == 11 * 32


def test_default_fault_is_shared():
    for build in (build_monolithic, build_small_scale, build_large_scale):
        sc = build()
        assert sc.events == (DEFAULT_FAULT,)
        assert sc.events[0].bus == 6
        assert sc.events[0].start == 1.0
        assert sc.events[0].duration == 0.18


def test_large_scale_rating_is_conserved():
    sc = build_large_scale()
    ratings = [sg.mva for sg in sc.network.sgens]
    assert len(ratings) == 32
    assert all(r == ratings[0] for r in ratings)
    assert sum(ratings) == pytest.approx(85.0, abs=1e-12)


def test_large_scale_collector_topology():
    sc = build_large_scale()
    net = sc.network
    assert len(net.buses) == 9 + 1 + 32
    assert len(net.branches) == 9 + 1 + 32
    collector_kv = [b for b in net.buses if b.base_kv == 33.0]
    assert len(collector_kv) == 33
    assert sc.pcc_branch == (3, 10)
    # four strings of eight: each string head hangs off the collector bus
    heads = [br for br in net.branches if br.from_bus == 10]
    assert len(heads) == 4


def test_validate_passes_for_all_builders():
    for build in (build_monolithic, build_small_scale, build_large_scale):
        build().validate()


@pytest.mark.parametrize("make", [build_small_scale,
                                  lambda: parse_scenario(SCENARIO_DIR / "small_scale.scn")])
def test_a_study_is_immutable_and_checks_each_derived_copy(make):
    sc = make()
    for obj, names in ((sc, ("wtgs", "events", "connections", "export_bus_v")),
                       (sc.network, ("buses", "branches", "machines", "sgens")),
                       (sc.master, ("record",))):
        for name in names:
            assert type(getattr(obj, name)) is tuple, name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
    assert dataclasses.replace(sc, pcc_branch=[3, 9]).pcc_branch == (3, 9)
    with pytest.raises(ScenarioValidationError, match="micro_step"):
        dataclasses.replace(sc, micro_step=0.0)


def test_validate_rejects_unknown_mode():
    sc = build_small_scale()
    with pytest.raises(ScenarioValidationError):
        dataclasses.replace(sc, mode="distributed")


def test_validate_rejects_duplicate_wtg_ids():
    sc = build_small_scale()
    with pytest.raises(ScenarioValidationError, match="duplicate"):
        dataclasses.replace(sc, wtgs=sc.wtgs + sc.wtgs)


def test_validate_rejects_wtg_without_generator():
    sc = build_small_scale()
    network = dataclasses.replace(sc.network, sgens=[])
    with pytest.raises(UnresolvedReferenceError):
        dataclasses.replace(sc, network=network)


def test_validate_rejects_rating_mismatch():
    sc = build_small_scale()
    for rating in (90.0, math.nan, math.inf):
        with pytest.raises(ScenarioValidationError, match="rated"):
            dataclasses.replace(sc, wpp_rating_mva=rating)


def test_validate_rejects_fault_at_unknown_bus():
    sc = build_small_scale()
    with pytest.raises(UnresolvedReferenceError):
        dataclasses.replace(sc, events=[FaultEvent(bus=77, start=1.0, duration=0.1)])


def test_validate_rejects_connections_on_monolithic():
    sc = build_monolithic()
    with pytest.raises(ScenarioValidationError):
        dataclasses.replace(sc, connections=[ConnectionSpec("grid.v_pcc", "grid.v_pcc")])


def test_validate_rejects_missing_mandatory_input():
    sc = build_small_scale()
    kept = [c for c in sc.connections if c.sink != "conv_wpp.v_meas"]
    with pytest.raises(ScenarioValidationError, match="conv_wpp.v_meas"):
        dataclasses.replace(sc, connections=kept)


def test_validate_rejects_connection_to_unknown_component():
    sc = build_small_scale()
    with pytest.raises(UnresolvedReferenceError):
        dataclasses.replace(sc, connections=[*sc.connections,
                                             ConnectionSpec("grid.v_pcc", "conv_x.v_meas")])


def test_validate_rejects_recording_unknown_component():
    sc = build_small_scale()
    master = dataclasses.replace(sc.master, record=[*sc.master.record, "ghost.value"])
    with pytest.raises(UnresolvedReferenceError):
        dataclasses.replace(sc, master=master)


@pytest.mark.parametrize("connection, record, message, cause", [
    (ConnectionSpec("grid.v_pcc", "frt_wpp.v_meas"), None,
     "connect grid.v_pcc frt_wpp.v_meas: .* already driven", SinkAlreadyDrivenError),
    (None, "grid.nope", "record: grid has no variable 'nope'", UnknownVariableError),
])
def test_instantiate_reports_wiring_errors_as_validation_errors(connection, record,
                                                                message, cause):
    sc = build_small_scale()
    if connection is not None:
        sc = dataclasses.replace(sc, connections=[*sc.connections, connection])
    if record is not None:
        sc = dataclasses.replace(sc, master=dataclasses.replace(
            sc.master, record=[*sc.master.record, record]))
    with pytest.raises(ScenarioValidationError, match=message) as info:
        instantiate(sc)
    assert type(info.value.__cause__) is cause


def test_instantiate_orders_grid_then_converters_then_supervisors(stepped_order):
    small = build_small_scale()
    master = instantiate(small)
    master.initialize()
    assert stepped_order(master) == ["grid", "conv_wpp", "frt_wpp"] == small.component_ids()
    large = build_large_scale()
    master = instantiate(large)
    master.initialize()
    order = stepped_order(master)
    assert order[0] == "grid"
    assert order[1:33] == [f"conv_wtg{k:02d}" for k in range(1, 33)]
    assert order[33:] == [f"frt_wtg{k:02d}" for k in range(1, 33)]
    assert order == large.component_ids()      # the layout is written in both places


def test_run_scenario_applies_overrides_and_reports_events():
    sc = build_monolithic(t_end=0.05, fault=None)
    trace, meta = run_scenario(sc, scheme="parallel", macro_step=5e-3, t_end=0.02)
    assert len(trace.time) == 5                    # 0 .. 0.02 in 5 ms steps
    assert trace.time[-1] == pytest.approx(0.02, abs=1e-12)
    assert meta.events == []
    # the scenario object is not mutated by the overrides
    assert sc.master.t_end == 0.05
    assert sc.master.scheme is Scheme.SERIAL

    sc2 = build_monolithic(t_end=0.02)
    _, meta2 = run_scenario(sc2)
    assert meta2.events == [dict(bus=6, start=1.0, duration=0.18, admittance=1e6)]


def test_run_scenario_rejects_an_unknown_scheme_name():
    sc = build_monolithic(t_end=0.02, fault=None)
    with pytest.raises(ValueError, match="'jacobi' is not a valid Scheme"):
        run_scenario(sc, scheme="jacobi")
    assert sc.master.scheme is Scheme.SERIAL


def test_off_grid_fault_times_are_reported_with_the_applied_times():
    off = FaultEvent(bus=6, start=0.0203, duration=0.01)
    trace, meta = run_scenario(build_small_scale(t_end=0.05, fault=off))
    assert len(meta.warnings) == 2
    assert "0.0203" in meta.warnings[0] and "0.0205" in meta.warnings[0]
    assert "0.0303" in meta.warnings[1] and "0.0305" in meta.warnings[1]
    on = FaultEvent(bus=6, start=0.0205, duration=0.01)
    trace_on, meta_on = run_scenario(build_small_scale(t_end=0.05, fault=on))
    assert meta_on.warnings == []
    # the warning only reports: the run is the one at the applied times
    assert trace.names() == trace_on.names()
    for name in trace.names():
        assert np.array_equal(trace[name], trace_on[name]), name


@pytest.mark.parametrize("start", [0.03, 5.0])
def test_fault_starting_at_or_after_the_end_of_the_run_is_reported(start):
    late = FaultEvent(bus=6, start=start, duration=0.01)
    _, meta = run_scenario(build_small_scale(t_end=0.03, fault=late))
    assert meta.warnings == [f"fault at bus 6: start {start:.12g} s is at or after the end "
                             f"of the run (0.03 s); it has no effect"]


def test_run_scenario_reports_init_diagnostics():
    sc = build_small_scale(t_end=0.01)
    trace, meta = run_scenario(sc)
    init = meta.init
    assert set(init) == {"iterations", "max_mismatch", "equilibrium_deviation"}
    # the same numbers as a power flow and an equilibrium done by hand
    grid = sc.network
    pf = solve_power_flow(grid, assemble_ybus(branch_stamps(grid), len(grid.buses)),
                          {w.id: (w.p_ref, w.q_ref) for w in sc.wtgs})
    assert init["iterations"] == pf.iterations >= 1
    assert init["max_mismatch"] == pf.max_mismatch < 1e-8
    assert 0.0 <= init["equilibrium_deviation"] < 1e-6
    assert json.loads(json.dumps(dataclasses.asdict(meta)))["init"] == init
    # reporting them does not touch the run
    direct, _ = instantiate(sc).run(scenario_name=sc.name)
    for name in trace.names():
        assert np.array_equal(trace[name], direct[name]), name


@pytest.mark.parametrize("fault", [FaultEvent(bus=6, start=0.0203, duration=0.01),
                                   FaultEvent(bus=6, start=0.03, duration=0.0101)])
def test_master_run_writes_the_same_record_as_run_scenario(fault):
    # the grid reports its own events, warnings and init block into Master.run's record
    sc = build_small_scale(t_end=0.03, fault=fault)
    _, direct = instantiate(sc).run(scenario_name=sc.name)
    _, via = run_scenario(sc)
    assert direct.warnings and direct.init and direct.events == [dataclasses.asdict(fault)]
    assert (dataclasses.replace(direct, wall_clock_s=0.0)
            == dataclasses.replace(via, wall_clock_s=0.0))


def test_readme_run_record_section_names_every_key_a_run_writes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Run record\n", 1)[1].split("\n## ", 1)[0]
    _, meta = run_scenario(build_small_scale(t_end=0.02, fault=FaultEvent(6, 0.005, 0.01)))
    record = dataclasses.asdict(meta)
    keys = [*record, *record["init"], *(key for ev in record["events"] for key in ev)]
    assert record["init"] and record["events"]
    assert [key for key in keys if f"`{key}`" not in section] == []


@pytest.mark.parametrize("build", [build_monolithic, build_small_scale])
def test_fault_at_time_zero_acts_from_the_first_step(build):
    fault = FaultEvent(bus=6, start=0.0, duration=0.01)
    trace, meta = run_scenario(build(t_end=0.03, fault=fault))
    clear, _ = run_scenario(build(t_end=0.03, fault=None))
    v = trace["grid.v_bus6"]
    # the run starts from the pre-fault equilibrium ...
    assert meta.init["equilibrium_deviation"] < 1e-6
    for name in trace.names():
        assert trace[name][0] == clear[name][0], name
    # ... the bolted fault holds bus 6 down from the first step until it clears at 10 ms ...
    assert np.all(v[1:10] < 1e-3)
    # ... and the voltage comes back afterwards
    assert v[-1] > 0.95


# Work per shipped study (parse and run), the same in both schemes: a change that
# adds work fails here on any host; one that removes work updates the row and says why.
WORK_BUDGET = {                               # monolithic, small_scale, large_scale
    "splu": (6, 6, 6),                        # 4 Newton iterations + 2 dynamic factorizations
    "power-flow iterations": (4, 4, 4),
    "RmsModel._lu_at": (6001, 6001, 6001),
    "RmsModel._measure": (2001, 2001, 2001),
    "RmsModel._sgen_columns": (4001, 2001, 2001),   # embedded controllers: also at micro steps
    "SimComponent.step": (2000, 6000, 130000),
    "NetworkData.validate": (1, 1, 1),        # once, when the parser builds the network
    "Scenario.validate": (2, 2, 2),           # when the parser builds the scenario and when
                                              # run_scenario derives it with the scheme override
    "assemble_ybus": (1, 1, 1),               # each network artefact is built once
    "branch_stamps": (1, 1, 1),
}


@pytest.mark.parametrize("scheme", ["serial", "parallel"])
def test_each_shipped_study_does_exactly_its_budgeted_work(scheme, monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    solve = gridcomp.solve_power_flow

    def power_flow(*args, **kwargs):
        result = solve(*args, **kwargs)
        calls["power-flow iterations"] += result.iterations
        return result

    monkeypatch.setattr(gridcomp, "solve_power_flow", power_flow)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted("splu", scipy.sparse.linalg.splu))
    for cls, method in ((RmsModel, "_lu_at"), (RmsModel, "_measure"),
                        (RmsModel, "_sgen_columns"), (SimComponent, "step"),
                        (NetworkData, "validate"), (Scenario, "validate")):
        name = f"{cls.__name__}.{method}"
        monkeypatch.setattr(cls, method, counted(name, vars(cls)[method]))
    # every package module that holds the function, under the name it imported
    for fn in (network.assemble_ybus, network.branch_stamps):
        wrapped = counted(fn.__name__, fn)
        for module in [m for k, m in sys.modules.items() if k.startswith("windcosim")]:
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapped)
    for k, name in enumerate(["monolithic", "small_scale", "large_scale"]):
        calls.clear()
        run_scenario(parse_scenario(SCENARIO_DIR / f"{name}.scn"), scheme=scheme)
        assert dict(calls) == {op: row[k] for op, row in WORK_BUDGET.items()}, name


def test_instantiate_rejects_overrides_that_break_a_check():
    # the parser checked the file, and run_scenario's overrides derive a scenario
    # that checks itself: 1e4 s at 1 ms macro steps and 0.5 ms micro steps is 2e7 micro steps
    sc = parse_scenario(SCENARIO_DIR / "small_scale.scn")
    with pytest.raises(ScenarioValidationError, match="micro steps, above the cap"):
        run_scenario(sc, t_end=1e4)
