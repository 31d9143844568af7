"""Seeded scenario text for the benchmark workloads.

The benchmark writes scenario text itself, so the program under test
only ever receives the generated text, never ``build_*`` calls.  The
layout mirrors the shipped studies in ``scenarios/``: a converter-based
wind plant at bus 3 of the WSCC nine-bus system (the former G3 slot).

A seed picks the fault bus (4-9), the fault start and duration on the
0.5 ms micro-step grid, and the plant dispatch.  ``SHIPPED_SEED``
reproduces the shipped study exactly (bus 6, 1.0 s, 180 ms, 85 MW), so
its text is byte-identical to ``scenarios/monolithic.scn`` and
``scenarios/large_scale.scn``.  Every other seed keeps the step count,
the component graph and the recorded channels, so the work per study
stays nearly constant across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SHIPPED_SEED = 0

MICRO_STEP = 0.0005
MACRO_STEP = 0.001
T_END = 2.0
STEPS = 2000                      # T_END / MACRO_STEP
RATING_MVA = 85.0

# per-unit segment data of the 0.7 km, 33 kV collector cable on 100 MVA
# (the value ``WppLayout().segment_pu(100.0)`` gives)
_SEGMENT = ("r=0.006427915518824609 x=0.00771349862258953 "
            "b=0.00045501885516798483")
_N_STRINGS = 4
_PER_STRING = 8

_WSCC9_BUSES = """\
bus 1 16.5 slack v_set=1.04
bus 2 18.0 pv v_set=1.025 p_gen=1.63
bus 3 13.8 pq
bus 4 230.0 pq
bus 5 230.0 pq p_load=1.25 q_load=0.5
bus 6 230.0 pq p_load=0.9 q_load=0.3
bus 7 230.0 pq
bus 8 230.0 pq p_load=1.0 q_load=0.35
bus 9 230.0 pq"""

_WSCC9_BRANCHES = """\
branch 1 4 r=0.0 x=0.0576
branch 2 7 r=0.0 x=0.0625
branch 3 9 r=0.0 x=0.0586
branch 4 5 r=0.01 x=0.085 b=0.176
branch 4 6 r=0.017 x=0.092 b=0.158
branch 5 7 r=0.032 x=0.161 b=0.306
branch 6 9 r=0.039 x=0.17 b=0.358
branch 7 8 r=0.0085 x=0.072 b=0.149
branch 8 9 r=0.0119 x=0.1008 b=0.209"""

_WSCC9_MACHINES = """\
machine 1 h=23.64 xd_p=0.0608 d=6.0
machine 2 h=6.4 xd_p=0.1198 d=6.0"""

_CONVERTER = ("converter default kp_d=0.1 ki_d=60.0 kp_q=0.1 ki_q=120.0 "
              "i_max=1.1 q_mode=voltage")
_FRT = ("frt default v_enter=0.9 v_exit=0.9 deglitch=0.02 k_boost=2.0 "
        "ramp_rate=1.0 ramp_enabled={ramp}")


@dataclass(frozen=True)
class Fault:
    """What a seed picks: the disturbance and the plant dispatch."""

    bus: int
    start_ticks: int              # fault start in micro steps
    duration_ticks: int           # fault duration in micro steps
    plant_mw: int

    @property
    def start(self) -> float:
        return self.start_ticks / 2000

    @property
    def duration(self) -> float:
        return self.duration_ticks / 2000


@dataclass(frozen=True)
class Workload:
    name: str
    plant: bool                   # 32-turbine plant (True) or aggregated, embedded
    scheme: str
    why: str

    @property
    def mode_channel(self) -> str:
        return "frt_wtg01.mode" if self.plant else "grid.mode_wpp"


WORKLOADS = {
    w.name: w for w in (
        Workload("mono_embedded", plant=False, scheme="serial",
                 why="1 grid component with controllers embedded: the grid kernel "
                     "dominates and the exchange is bypassed"),
        Workload("plant65_serial", plant=True, scheme="serial",
                 why="65 components, 352 connections, serial exchange: master, "
                     "controller wrappers and grid share the loop; 42-bus power flow"),
        Workload("plant65_parallel", plant=True, scheme="parallel",
                 why="same plant under the Jacobi scheme, which latches every input "
                     "first: the exchange runs in a different order"),
    )
}


def pick_fault(seed: int) -> Fault:
    """The disturbance and dispatch for ``seed``; the same seed always
    gives the same choice, whatever the workload."""
    if seed == SHIPPED_SEED:
        return Fault(bus=6, start_ticks=2000, duration_ticks=360, plant_mw=85)
    rng = random.Random(seed)
    return Fault(bus=rng.randint(4, 9),
                 start_ticks=rng.randint(1000, 2400),       # 0.5 .. 1.2 s
                 duration_ticks=rng.randint(200, 500),      # 100 .. 250 ms
                 plant_mw=rng.randint(60, 85))


def _fmt(x: float) -> str:
    return repr(float(x))


def scenario_text(workload: Workload, seed: int) -> str:
    """Scenario file text for one workload and seed."""
    fault = pick_fault(seed)
    p_ref = _fmt(fault.plant_mw / RATING_MVA)
    if workload.plant:
        n = _N_STRINGS * _PER_STRING
        wtg_ids = [f"wtg{k:02d}" for k in range(1, n + 1)]
        buses = [_WSCC9_BUSES] + [f"bus {b} 33.0 pq" for b in range(10, 11 + n)]
        branches = [_WSCC9_BRANCHES, "branch 3 10 r=0.002 x=0.12"]
        for s in range(_N_STRINGS):
            prev = 10
            for j in range(_PER_STRING):
                bus = 11 + s * _PER_STRING + j
                branches.append(f"branch {prev} {bus} {_SEGMENT}")
                prev = bus
        sgens = [f"sgen {w} {11 + k} mva={_fmt(RATING_MVA / n)}"
                 for k, w in enumerate(wtg_ids)]
        wtg_head = ["rating_mva = 85.0", "pcc_bus = 3", "pcc_branch = 3 10",
                    "export_bus_v = 6"]
        connections = []
        for w in wtg_ids:
            conv, frt = f"conv_{w}", f"frt_{w}"
            connections += [
                f"connect grid.v_{w} {conv}.v_meas",
                f"connect grid.p_{w} {conv}.p_meas",
                f"connect grid.q_{w} {conv}.q_meas",
                f"connect grid.v_{w} {frt}.v_meas",
                f"connect {conv}.i_d_cmd grid.i_d_{w}",
                f"connect {conv}.i_q_cmd grid.i_q_{w}",
                f"connect {conv}.i_d_cmd {frt}.i_d_cmd_meas",
                f"connect {frt}.mode {conv}.frt_mode",
                f"connect {frt}.block_active {conv}.block_active",
                f"connect {frt}.i_q_boost {conv}.i_q_boost",
                f"connect {frt}.i_d_ref_limited {conv}.i_d_ref_frt",
            ]
        ramp = "false"
        name, mode = "large_scale", "cosim"
        record = ("grid.v_pcc grid.p_wpp_mw grid.q_wpp_mvar grid.v_bus6 grid.v_wtg01 "
                  "conv_wtg01.i_d_cmd conv_wtg01.i_q_cmd frt_wtg01.mode "
                  "grid.p_balance_residual")
    else:
        wtg_ids = ["wpp"]
        buses, branches = [_WSCC9_BUSES], [_WSCC9_BRANCHES]
        sgens = ["sgen wpp 3 mva=85.0"]
        wtg_head = ["rating_mva = 85.0", "pcc_bus = 3", "export_bus_v = 6"]
        connections = []
        ramp = "true"
        name, mode = "monolithic", "monolithic"
        record = ("grid.v_pcc grid.p_wpp_mw grid.q_wpp_mvar grid.v_bus6 grid.i_d_wpp "
                  "grid.i_q_wpp grid.mode_wpp grid.p_balance_residual")

    lines = ["[network]", "name = wscc9-wpp", "base_mva = 100.0", "frequency_hz = 60.0",
             *buses, *branches, _WSCC9_MACHINES, *sgens,
             "", "[wtg]", *wtg_head,
             *[f"wtg {w} p_ref={p_ref} q_ref=0.0" for w in wtg_ids],
             "", "[controller]", _CONVERTER, _FRT.format(ramp=ramp),
             "", "[connections]", *connections,
             "", "[events]",
             f"fault bus={fault.bus} start={_fmt(fault.start)} "
             f"duration={_fmt(fault.duration)} admittance=1000000.0",
             "", "[master]", f"name = {name}", f"mode = {mode}",
             f"scheme = {workload.scheme}", f"macro_step = {_fmt(MACRO_STEP)}",
             f"micro_step = {_fmt(MICRO_STEP)}", f"t_end = {_fmt(T_END)}",
             f"record = {record}"]
    return "\n".join(lines) + "\n"
