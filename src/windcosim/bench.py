"""Timing harness for the scaling study.

Wall-clock numbers are machine specific; the deliverable is the shape
of the table (component counts vs median runtime) and the determinism
guarantee that timing a run does not change its result.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from .scenario import Scenario, run_scenario
from .trace import TraceSet


@dataclass
class BenchRow:
    scenario: str
    components: int
    steps: int
    median_wall_s: float
    min_wall_s: float
    max_wall_s: float
    steps_per_s: float
    trace: TraceSet = field(repr=False)


def bench_scaling(scenarios: list[Scenario], repetitions: int = 3) -> list[BenchRow]:
    """Run each scenario ``repetitions`` times, report the median time and
    keep the first repetition's trace.

    Runs are sequential (no overlap that would distort timing).  Each
    repetition instantiates fresh components, so repetitions are
    independent and must produce identical step counts.
    """
    if repetitions < 3:
        raise ValueError(f"need >= 3 repetitions for a median, got {repetitions}")
    rows = []
    for sc in scenarios:
        times = []
        steps = components = None
        for _ in range(repetitions):
            tr, meta = run_scenario(sc)
            times.append(meta.wall_clock_s)
            if steps is None:
                steps, components = meta.steps, meta.components
                trace = tr
            elif steps != meta.steps:
                raise AssertionError(
                    f"{sc.name}: step count changed between repetitions")
        med = statistics.median(times)
        rows.append(BenchRow(
            scenario=sc.name, components=components, steps=steps,
            median_wall_s=med, min_wall_s=min(times), max_wall_s=max(times),
            steps_per_s=steps / med if med > 0 else float("inf"),
            trace=trace))
    return rows


def format_bench_table(rows: list[BenchRow]) -> str:
    width = max([len(r.scenario) for r in rows] + [8])
    lines = [f"{'scenario':<{width}}  {'components':>10}  {'steps':>8}  "
             f"{'median [s]':>10}  {'min [s]':>8}  {'max [s]':>8}  {'steps/s':>10}"]
    for r in rows:
        lines.append(f"{r.scenario:<{width}}  {r.components:>10d}  {r.steps:>8d}  "
                     f"{r.median_wall_s:>10.3f}  {r.min_wall_s:>8.3f}  "
                     f"{r.max_wall_s:>8.3f}  {r.steps_per_s:>10.1f}")
    return "\n".join(lines)
