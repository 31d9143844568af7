"""Study scenarios: declarative description and construction.

Three canonical configurations describe the same physical study (a
converter-based wind plant at bus 3 of the nine-bus system, bolted
fault at bus 6 at t = 1 s for 180 ms):

``monolithic``
    One grid component; the plant controllers run embedded at the
    micro-step rate.  Reference solution without exchange lag.

``small_scale``
    Grid, converter and ride-through supervisor as three coupled
    components (aggregated plant model).

``large_scale``
    32 turbines on four collector feeders behind a park transformer,
    each with its own converter and supervisor component: 65 components
    in total.  Per-turbine rating is the plant rating divided evenly.

A scenario owns everything a run needs; ``instantiate`` turns it into a
wired master.  Component naming is fixed: the grid is ``grid``, each
turbine ``<id>`` gets ``conv_<id>`` and ``frt_<id>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .collector import COLLECTOR_KV, WppLayout
from .converter import ConverterComponent, ConverterControl, ConverterParams, QMode
from .cosim import MAX_MACRO_STEPS, Master, MasterConfig, Scheme
from .dynamics import RmsModel, micro_grid
from .errors import (FINITE, POSITIVE, ScenarioValidationError, UnresolvedReferenceError,
                     WiringError, check_domains)
from .frt import FrtComponent, FrtControl, FrtParams
from .gridcomp import GridComponent
from .network import Bus, Branch, FaultEvent, NetworkData, StaticGenerator
from .wscc9 import wscc9_without_g3

PCC_BUS = 3                          # plant couples at the former generator-3 bus
COLLECTOR_BUS = 10
PLANT_MVA = 85.0                     # rating of every shipped plant
DEFAULT_FAULT = FaultEvent(bus=6, start=1.0, duration=0.18, admittance=1e6)
# 10% impedance on the 85 MVA plant rating, expressed on the 100 MVA system base
PARK_TRANSFORMER = Branch(from_bus=PCC_BUS, to_bus=COLLECTOR_BUS,
                          r=0.002, x=0.12, b=0.0)


@dataclass(frozen=True)
class WtgSpec:
    """One modeled turbine (or the aggregated plant): id doubles as the
    static generator id; references are on the machine base."""

    id: str
    p_ref: float = field(metadata=FINITE)
    q_ref: float = field(metadata=FINITE)
    converter: ConverterParams
    frt: FrtParams


@dataclass(frozen=True)
class ConnectionSpec:
    source: str
    sink: str


@dataclass(frozen=True)
class Scenario:
    """A study: it checks itself when built, and ``replace`` derives a changed one."""

    name: str
    mode: str                        # "monolithic" | "cosim"
    network: NetworkData
    wtgs: tuple[WtgSpec, ...]
    wpp_rating_mva: float
    pcc_bus: int
    master: MasterConfig
    micro_step: float = field(default=5e-4, metadata=POSITIVE)
    pcc_branch: tuple[int, int] | None = None
    events: tuple[FaultEvent, ...] = ()
    connections: tuple[ConnectionSpec, ...] = ()
    export_bus_v: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("wtgs", "events", "connections", "export_bus_v"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.pcc_branch is not None:
            object.__setattr__(self, "pcc_branch", tuple(self.pcc_branch))
        self.validate()

    def component_ids(self) -> list[str]:
        ids = ["grid"]
        if self.mode == "cosim":
            for w in self.wtgs:
                ids.append(f"conv_{w.id}")
            for w in self.wtgs:
                ids.append(f"frt_{w.id}")
        return ids

    def validate(self) -> None:
        if self.mode not in ("monolithic", "cosim"):
            raise ScenarioValidationError(f"unknown mode '{self.mode}'")
        if not self.wtgs:
            raise ScenarioValidationError("scenario declares no turbines")
        sgen_mva = {sg.id: sg.mva for sg in self.network.sgens}
        wtg_ids = [w.id for w in self.wtgs]
        if len(set(wtg_ids)) != len(wtg_ids):
            raise ScenarioValidationError("duplicate wtg ids")
        for w in self.wtgs:
            if w.id not in sgen_mva:
                raise UnresolvedReferenceError(w.id, "wtg has no static generator")
            check_domains(w, ScenarioValidationError, f"wtg '{w.id}'")
        rating = sum(sgen_mva[w.id] for w in self.wtgs)
        # written so that a nan or infinite rating on either side fails it
        if not (math.isfinite(self.wpp_rating_mva) and abs(rating - self.wpp_rating_mva)
                <= 1e-9 * max(1.0, self.wpp_rating_mva)):
            raise ScenarioValidationError(
                f"turbine ratings sum to {rating} MVA, plant is rated {self.wpp_rating_mva} MVA")
        ids = {b.id for b in self.network.buses}
        if self.pcc_bus not in ids:
            raise ScenarioValidationError(f"pcc bus {self.pcc_bus} not in network")
        for i, bus in enumerate(self.export_bus_v):
            if bus not in ids:
                raise ScenarioValidationError(f"export_bus_v: bus {bus} not in network")
            if bus in self.export_bus_v[:i]:
                raise ScenarioValidationError(f"export_bus_v: bus {bus} is repeated")
        if self.pcc_branch is not None:
            fb, tb = self.pcc_branch
            if self.network.branch_between(fb, tb) is None:
                raise ScenarioValidationError(f"pcc branch {fb}-{tb} not in network")
            if self.pcc_bus not in self.pcc_branch:
                raise ScenarioValidationError(
                    f"pcc branch {fb}-{tb} does not touch pcc bus {self.pcc_bus}")
        check_domains(self, ScenarioValidationError)
        per_macro = self.master.macro_step / self.micro_step
        if per_macro <= MAX_MACRO_STEPS:      # past the cap, micro_grid's count may overflow
            per_macro = micro_grid(self.master.macro_step, self.micro_step)[0]
        micro_steps = max(1.0, self.master.t_end / self.master.macro_step) * per_macro
        if micro_steps > MAX_MACRO_STEPS:
            raise ScenarioValidationError(f"micro_step {self.micro_step} gives {micro_steps:.3g} "
                                          f"micro steps, above the cap of {MAX_MACRO_STEPS}")
        for ev in self.events:
            if ev.bus not in ids:
                raise UnresolvedReferenceError(f"bus {ev.bus}", "fault at unknown bus")
            check_domains(ev, ScenarioValidationError, f"fault at bus {ev.bus}")
        comp_ids = set(self.component_ids())
        if self.mode == "monolithic":
            if self.connections:
                raise ScenarioValidationError("monolithic scenario cannot have connections")
        else:
            driven = set()
            for c in self.connections:
                for ref in (c.source, c.sink):
                    cid = ref.split(".", 1)[0]
                    if cid not in comp_ids:
                        raise UnresolvedReferenceError(ref, "unknown component")
                driven.add(c.sink)
            for w in self.wtgs:
                for needed in (f"grid.i_d_{w.id}", f"grid.i_q_{w.id}",
                               f"conv_{w.id}.v_meas", f"conv_{w.id}.p_meas",
                               f"frt_{w.id}.v_meas"):
                    if needed not in driven:
                        raise ScenarioValidationError(f"mandatory input {needed} is not driven")
        for ref in self.master.record:
            cid = ref.split(".", 1)[0]
            if cid not in comp_ids:
                raise UnresolvedReferenceError(ref, "recorded variable on unknown component")


def standard_wiring(wtg_ids: list[str]) -> list[ConnectionSpec]:
    """The fixed signal paths between grid, converter and supervisor."""
    conns: list[ConnectionSpec] = []
    for wid in wtg_ids:
        conv, frt = f"conv_{wid}", f"frt_{wid}"
        conns += [
            ConnectionSpec(f"grid.v_{wid}", f"{conv}.v_meas"),
            ConnectionSpec(f"grid.p_{wid}", f"{conv}.p_meas"),
            ConnectionSpec(f"grid.q_{wid}", f"{conv}.q_meas"),
            ConnectionSpec(f"grid.v_{wid}", f"{frt}.v_meas"),
            ConnectionSpec(f"{conv}.i_d_cmd", f"grid.i_d_{wid}"),
            ConnectionSpec(f"{conv}.i_q_cmd", f"grid.i_q_{wid}"),
            ConnectionSpec(f"{conv}.i_d_cmd", f"{frt}.i_d_cmd_meas"),
            ConnectionSpec(f"{frt}.mode", f"{conv}.frt_mode"),
            ConnectionSpec(f"{frt}.block_active", f"{conv}.block_active"),
            ConnectionSpec(f"{frt}.i_q_boost", f"{conv}.i_q_boost"),
            ConnectionSpec(f"{frt}.i_d_ref_limited", f"{conv}.i_d_ref_frt"),
        ]
    return conns


def _plant_scenario(name: str, mode: str, network: NetworkData, wtg_ids: list[str],
                    record: list[str], t_end: float, fault: FaultEvent | None, plant_mw: float,
                    frt_ramp: bool, pcc_branch: tuple[int, int] | None = None) -> Scenario:
    """The tail every shipped plant shares: voltage-mode turbines dispatched
    evenly at zero reactive power, the master, and the standard wiring."""
    conv = ConverterParams(q_mode=QMode.VOLTAGE)
    frt = FrtParams(ramp_enabled=frt_ramp)
    wtgs = [WtgSpec(id=wid, p_ref=plant_mw / PLANT_MVA, q_ref=0.0, converter=conv, frt=frt)
            for wid in wtg_ids]
    return Scenario(
        name=name, mode=mode, network=network, wtgs=wtgs,
        wpp_rating_mva=PLANT_MVA, pcc_bus=PCC_BUS, master=MasterConfig(t_end=t_end, record=record),
        pcc_branch=pcc_branch, events=[fault] if fault else [],
        connections=standard_wiring(wtg_ids) if mode == "cosim" else [], export_bus_v=(6,))


def _aggregated_scenario(name: str, mode: str, t_end: float, fault: FaultEvent | None,
                         plant_mw: float, frt_ramp: bool) -> Scenario:
    network = replace(wscc9_without_g3(),
                      sgens=[StaticGenerator(id="wpp", bus=PCC_BUS, mva=PLANT_MVA)])
    control = (["grid.i_d_wpp", "grid.i_q_wpp", "grid.mode_wpp"] if mode == "monolithic"
               else ["conv_wpp.i_d_cmd", "conv_wpp.i_q_cmd", "frt_wpp.mode"])
    record = ["grid.v_pcc", "grid.p_wpp_mw", "grid.q_wpp_mvar", "grid.v_bus6", *control,
              "grid.p_balance_residual"]
    return _plant_scenario(name, mode, network, ["wpp"], record, t_end, fault, plant_mw,
                           frt_ramp)


def build_monolithic(t_end: float = 2.0, fault: FaultEvent | None = DEFAULT_FAULT,
                     plant_mw: float = 85.0, frt_ramp: bool = True) -> Scenario:
    return _aggregated_scenario("monolithic", "monolithic", t_end, fault, plant_mw, frt_ramp)


def build_small_scale(t_end: float = 2.0, fault: FaultEvent | None = DEFAULT_FAULT,
                      plant_mw: float = 85.0, frt_ramp: bool = True) -> Scenario:
    return _aggregated_scenario("small_scale", "cosim", t_end, fault, plant_mw, frt_ramp)


def build_large_scale(t_end: float = 2.0, fault: FaultEvent | None = DEFAULT_FAULT,
                      plant_mw: float = 85.0, frt_ramp: bool = False,
                      layout: WppLayout | None = None) -> Scenario:
    layout = layout or WppLayout()
    network = wscc9_without_g3()
    r_seg, x_seg, b_seg = layout.segment_pu(network.base_mva)

    buses = list(network.buses)
    branches = list(network.branches)
    sgens: list[StaticGenerator] = []
    buses.append(Bus(id=COLLECTOR_BUS, base_kv=COLLECTOR_KV))
    branches.append(PARK_TRANSFORMER)
    wtg_ids = []
    for s in range(layout.n_strings):
        prev = COLLECTOR_BUS
        for j in range(layout.turbines_per_string):
            k = s * layout.turbines_per_string + j + 1
            bus_id = COLLECTOR_BUS + k
            wid = f"wtg{k:02d}"
            buses.append(Bus(id=bus_id, base_kv=COLLECTOR_KV))
            branches.append(Branch(from_bus=prev, to_bus=bus_id,
                                   r=r_seg, x=x_seg, b=b_seg))
            sgens.append(StaticGenerator(id=wid, bus=bus_id, mva=PLANT_MVA / layout.n_turbines))
            wtg_ids.append(wid)
            prev = bus_id
    network = replace(network, buses=buses, branches=branches, sgens=sgens)
    record = ["grid.v_pcc", "grid.p_wpp_mw", "grid.q_wpp_mvar", "grid.v_bus6",
              "grid.v_wtg01", "conv_wtg01.i_d_cmd", "conv_wtg01.i_q_cmd",
              "frt_wtg01.mode", "grid.p_balance_residual"]
    return _plant_scenario("large_scale", "cosim", network, wtg_ids, record, t_end, fault,
                           plant_mw, frt_ramp, pcc_branch=(PCC_BUS, COLLECTOR_BUS))


def instantiate(scenario: Scenario) -> Master:
    """Build and wire a master from a scenario description."""
    master = Master(scenario.master)
    setpoints = {w.id: (w.p_ref, w.q_ref) for w in scenario.wtgs}
    embedded = None
    if scenario.mode == "monolithic":
        embedded = {w.id: (ConverterControl(w.converter, w.p_ref, w.q_ref),
                           FrtControl(w.frt)) for w in scenario.wtgs}
    model = RmsModel(scenario.network, micro_step=scenario.micro_step, events=scenario.events,
                     pcc_bus=scenario.pcc_bus, pcc_branch=scenario.pcc_branch)
    grid = GridComponent("grid", model, setpoints,
                         extra_bus_voltages=scenario.export_bus_v, embedded=embedded)
    master.register(grid)
    if scenario.mode == "cosim":
        for w in scenario.wtgs:
            master.register(ConverterComponent(f"conv_{w.id}", w.converter, w.p_ref, w.q_ref))
        for w in scenario.wtgs:
            master.register(FrtComponent(f"frt_{w.id}", w.frt))
        for c in scenario.connections:
            try:
                master.connect(c.source, c.sink)
            except WiringError as exc:
                raise ScenarioValidationError(f"connect {c.source} {c.sink}: {exc}") from exc
    try:
        master.recorded()
    except WiringError as exc:
        raise ScenarioValidationError(f"record: {exc}") from exc
    return master


def run_scenario(scenario: Scenario, scheme: Scheme | str | None = None,
                 macro_step: float | None = None, t_end: float | None = None):
    """Convenience: apply overrides, instantiate, run.  Returns (trace, meta)."""
    overrides = dict(scheme=scheme, macro_step=macro_step, t_end=t_end)
    overrides = {key: value for key, value in overrides.items() if value is not None}
    sc = replace(scenario, master=replace(scenario.master, **overrides)) if overrides else scenario
    return instantiate(sc).run(scenario_name=sc.name)
