"""One study as ``windcosim run`` performs it, timed by phase, and the
checks its outputs must pass.

A study parses the scenario text, instantiates and initializes the
master, runs the macro-step loop and writes ``trace.csv`` and
``meta.json``.  Initialization is called before ``Master.run`` so the
set-up time (power flow and equilibrium included) is measured apart
from the stepping loop.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import windcosim.scenario as scenario
import windcosim.scenario_io as scenario_io
import windcosim.trace as trace

from workloads import STEPS, Fault, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
BALANCE_TOL = 1e-6        # pu, |grid.p_balance_residual|
REFERENCE_TOL = 1e-9      # pu, per channel against the committed reference


@dataclass
class StudyTimes:
    study_s: float        # parse .. outputs written
    setup_s: float        # parse + instantiate + initialize
    loop_s: float         # Master.run: stepping loop and trace sampling
    cpu_s: float          # process CPU time, all threads
    steps: int
    trace_csv: bytes      # the written trace file
    output_bytes: int     # trace.csv + meta.json


def setup(text: str):
    """Parse, instantiate and initialize; returns the ready master."""
    sc = scenario_io.parse_scenario_text(text)
    master = scenario.instantiate(sc)
    master.initialize()
    return sc, master


def run_study(text: str, out_dir: Path) -> StudyTimes:
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    sc, master = setup(text)
    t1 = time.perf_counter()
    tr, meta = master.run(scenario_name=sc.name)
    t2 = time.perf_counter()
    meta.events = [dict(bus=ev.bus, start=ev.start, duration=ev.duration,
                        admittance=ev.admittance) for ev in sc.events]
    csv_path, meta_path = out_dir / "trace.csv", out_dir / "meta.json"
    trace.write_csv(tr, csv_path)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(meta), fh, indent=2, sort_keys=True)
        fh.write("\n")
    t3 = time.perf_counter()
    cpu = time.process_time() - cpu0
    return StudyTimes(study_s=t3 - t0, setup_s=t1 - t0, loop_s=t2 - t1, cpu_s=cpu,
                      steps=meta.steps, trace_csv=csv_path.read_bytes(),
                      output_bytes=csv_path.stat().st_size + meta_path.stat().st_size)


def read_trace(data: bytes) -> tuple[list[str], list[list[float]]]:
    """Header and columns of a trace CSV."""
    lines = data.decode("utf-8").splitlines()
    names = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if any(len(r) != len(names) for r in rows):
        raise ValueError("ragged trace rows")
    return names, [list(col) for col in zip(*rows)] if rows else [[] for _ in names]


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.csv.gz"


def load_reference(workload: Workload) -> bytes:
    return gzip.decompress(reference_path(workload).read_bytes())


def check_study(result: StudyTimes, workload: Workload, fault: Fault,
                reference: bytes | None = None) -> list[str]:
    """Problems with a study's outputs; empty when it passes.

    ``reference`` is the shipped-study trace; pass it only when the
    study ran the shipped scenario.
    """
    problems = []
    if result.steps != STEPS:
        problems.append(f"{result.steps} macro steps, expected {STEPS}")
    names, cols = read_trace(result.trace_csv)
    data = dict(zip(names, cols))
    time_axis = data.get("time", [])
    if len(time_axis) != STEPS + 1:
        problems.append(f"{len(time_axis)} samples, expected {STEPS + 1}")
    if any(b <= a for a, b in zip(time_axis, time_axis[1:])):
        problems.append("time axis is not strictly increasing")
    for name, col in data.items():
        if not all(math.isfinite(x) for x in col):
            problems.append(f"channel {name} is not finite")
    residual = max((abs(x) for x in data.get("grid.p_balance_residual", [math.inf])))
    if not residual <= BALANCE_TOL:
        problems.append(f"|p_balance_residual| reaches {residual:.3e} pu > {BALANCE_TOL:g}")
    mode = data.get(workload.mode_channel, [])
    end = fault.start + fault.duration
    in_fault = [m for t, m in zip(time_axis, mode)
                if fault.start - 1e-9 <= t < end - 1e-9]
    if not any(m != 0.0 for m in in_fault):
        problems.append(f"{workload.mode_channel} never leaves 0 during the fault")
    if reference is not None:
        problems += compare_to_reference(names, cols, reference)
    return problems


def compare_to_reference(names: list[str], cols: list[list[float]],
                         reference: bytes) -> list[str]:
    ref_names, ref_cols = read_trace(reference)
    if names != ref_names:
        return [f"channels {names} differ from the reference {ref_names}"]
    problems = []
    for name, col, ref in zip(names, cols, ref_cols):
        if len(col) != len(ref):
            problems.append(f"{name}: {len(col)} samples, reference has {len(ref)}")
            continue
        dev = max((abs(a - b) for a, b in zip(col, ref)), default=0.0)
        if not dev <= REFERENCE_TOL:
            problems.append(f"{name} deviates {dev:.3e} pu from the reference")
    return problems
