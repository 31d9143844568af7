"""Run the full co-simulation study and print the headline numbers.

Four parts, mirroring the acceptance criteria on the shipped scenarios:

1. fidelity     -- aggregated co-simulation against the monolithic twin,
                   at the shipped macro step and at half of it
2. ride-through -- FRT mode sequence, current ramp and envelope check
3. large plant  -- steady PCC power vs. analytic collector losses, and
                   the aggregated-vs-distributed ringdown contrast
4. bench        -- wall-clock table over the three shipped scenarios

Each study's trace lands in --out (default results/) as <name>.csv, with
its run record as <name>.meta.json.

    python3 scripts/run_study.py [--out results] [--reps 3]
"""

import argparse
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from windcosim.bench import MIN_REPETITIONS, bench_scaling, format_bench_table
from windcosim.cli import repetitions
from windcosim.collector import WppLayout
from windcosim.compare import compare_traces, fault_edge_times, oscillation_metrics
from windcosim.frt import Mode, envelope_check
from windcosim.scenario import (COLLECTOR_BUS, build_large_scale,
                                build_small_scale, run_scenario)
from windcosim.scenario_io import parse_scenario
from windcosim.trace import write_csv

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def save(out_dir: Path, name: str, trace, meta) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(trace, out_dir / f"{name}.csv")
    with open(out_dir / f"{name}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(meta), fh, indent=2, sort_keys=True)
        fh.write("\n")


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def fidelity(out_dir: Path) -> None:
    banner("fidelity: co-simulation vs monolithic")
    mono = parse_scenario(SCENARIO_DIR / "monolithic.scn")
    small = parse_scenario(SCENARIO_DIR / "small_scale.scn")
    for macro in (None, 5e-4):
        trace_a, meta_a = run_scenario(mono, macro_step=macro)
        trace_b, meta_b = run_scenario(small, macro_step=macro)
        rep = compare_traces(trace_a, trace_b, ["grid.p_wpp_mw", "grid.v_pcc"],
                             event_times=fault_edge_times(meta_a.events))
        print(f"macro step {meta_a.macro_step:g} s:")
        print(rep.format())
        if macro is None:
            save(out_dir, "monolithic", trace_a, meta_a)
            save(out_dir, "small_scale", trace_b, meta_b)


def ride_through(out_dir: Path) -> None:
    banner("fault ride-through sequence")
    sc = parse_scenario(SCENARIO_DIR / "small_scale.scn")
    dt = 5e-4
    trace, meta = run_scenario(sc, macro_step=dt, t_end=3.0)
    save(out_dir, "frt_sequence", trace, meta)

    t = trace.time
    mode = trace["frt_wpp.mode"]
    onset = fault_edge_times(meta.events)[0]
    for m in (Mode.FAULT, Mode.RECOVERY):
        k = np.argmax(mode == float(m))
        print(f"{m.name:<9} entered at t = {t[k]:.4f} s")
    back = np.where((mode == float(Mode.NORMAL)) & (t > onset))[0]
    t_norm = t[back[0]]
    print(f"NORMAL    restored at t = {t_norm:.4f} s")

    pre = t < onset - 1e-12
    latch = float(trace["conv_wpp.i_d_cmd"][pre][-1])
    rate = sc.wtgs[0].frt.ramp_rate
    t_rec = t[np.argmax(mode == float(Mode.RECOVERY))]
    print(f"latched i_d {latch:.4f} pu, ramp {t_norm - t_rec:.4f} s "
          f"(closed form {latch / rate:.4f} s at {rate:g} pu/s)")

    env = envelope_check(t, np.asarray(trace["grid.v_pcc"]), onset=onset)
    verdict = "compliant" if env.compliant else f"violated at {env.first_violation_time:.3f} s"
    print(f"ride-through envelope: {verdict} (margin {env.margin:.3f} pu)")


def large_plant(out_dir: Path) -> None:
    banner("large plant: losses and ringdown contrast")
    large = parse_scenario(SCENARIO_DIR / "large_scale.scn")
    trace, meta = run_scenario(large)
    save(out_dir, "large_scale", trace, meta)

    steady = (trace.time >= 0.5) & (trace.time < 1.0)
    p_meas = float(np.mean(trace["grid.p_wpp_mw"][steady]))
    base = large.network.base_mva
    z_coll = WppLayout().equivalent_impedance(base)
    park = next(br for br in large.network.branches
                if {br.from_bus, br.to_bus} == {large.pcc_bus, COLLECTOR_BUS})
    sgen_mva = {sg.id: sg.mva for sg in large.network.sgens}
    p_sched = sum(w.p_ref * sgen_mva[w.id] for w in large.wtgs)
    loss = (z_coll.real + park.r) * (p_sched / base) ** 2 * base
    print(f"steady PCC power {p_meas:.3f} MW; scheduled {p_sched:g} MW minus "
          f"equal-current losses {loss:.3f} MW = {p_sched - loss:.3f} MW "
          f"({100 * abs(p_meas - p_sched + loss) / (p_sched - loss):.3f}% apart)")

    # ringdown contrast needs the free post-fault response: ramp-off runs
    for label, build in (("aggregated", build_small_scale),
                         ("distributed", build_large_scale)):
        tr, met = run_scenario(build(frt_ramp=False, t_end=4.5))
        save(out_dir, f"ringdown_{label}", tr, met)
        m = oscillation_metrics(tr.time, tr["grid.p_wpp_mw"], 2.0, 4.5,
                                min_amplitude_frac=0.25)
        print(f"{label:<12} decay/cycle {m.decay_per_cycle:.4f} at "
              f"{m.frequency_hz:.2f} Hz ({m.n_extrema} crests)")


def bench(reps: int) -> None:
    banner("wall-clock scaling")
    scenarios = [parse_scenario(SCENARIO_DIR / name)
                 for name in ("monolithic.scn", "small_scale.scn", "large_scale.scn")]
    print(format_bench_table(bench_scaling(scenarios, repetitions=reps)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", type=Path,
                        help="directory for traces and metadata")
    parser.add_argument("--reps", default=MIN_REPETITIONS, type=repetitions,
                        help=f"benchmark repetitions (at least {MIN_REPETITIONS})")
    args = parser.parse_args()

    fidelity(args.out)
    ride_through(args.out)
    large_plant(args.out)
    bench(args.reps)
    print(f"\ntraces written to {args.out}/")


if __name__ == "__main__":
    main()
