"""FRT study benchmark: end-to-end times per workload, or a traced
per-layer split.

    python3 perfbench/run.py --workload plant65_serial --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ``windcosim``
from ``src/`` next to this directory and nowhere else.  The workload
seed picks the fault and dispatch (see ``workloads.py``); the program
only receives the generated scenario text.

Each run first replays the shipped study and checks it against the
committed reference traces.  That replay also absorbs first-use costs
(imports, BLAS thread start-up), so set-up is measured warm.

``--trace 0`` then runs rounds of the seeded scenario until
``--seconds`` have passed; each round sets the scenario up
``SETUPS_PER_ROUND`` times and runs one whole study.  Between rounds
it times the machine-speed probe (``probe.py``) and scales each round's
times to the probe's reference speed.  It reports the end-to-end
metrics as medians of the scaled values, and prints the unscaled
medians above the table.

``--trace 1`` alternates untraced and traced studies, then counts
``SimComponent.get/set`` calls in one more pass, and reports the
per-layer split, unscaled, as medians over the traced studies.  Traced
traces must be byte-identical to untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

from probe import REFERENCE_S, probe
from workloads import SHIPPED_SEED, WORKLOADS, pick_fault, scenario_text

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS_PER_ROUND = 5      # set-up-only repetitions before each study

END_TO_END_UNITS = {"study_s": "s", "setup_s": "s", "steps_per_s": "1/s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}


def load_program() -> None:
    """Import windcosim from this checkout's ``src/``, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import windcosim
    found = Path(windcosim.__file__).resolve().parent.parent
    if found != SRC:
        raise ImportError(f"windcosim was imported from {found}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        cfg = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return cfg.get("openblas configuration") or f"{cfg.get('name')} {cfg.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


# ``study`` and ``tracer`` import windcosim, so they are imported inside the
# functions below, after ``load_program`` has put this checkout's src/ first.
class Runs:
    """Runs studies of one workload, checks them and counts failures."""

    def __init__(self, workload, out_dir: Path):
        from study import load_reference
        self.workload = workload
        self.out_dir = out_dir
        self.reference = load_reference(workload)
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def study(self, text: str, fault, shipped: bool, instrument=None):
        """One checked study; None when it raised or failed a check."""
        from study import check_study, run_study
        self.attempted += 1
        try:
            with instrument or nullcontext():
                result = run_study(text, self.out_dir)
            problems = check_study(result, self.workload, fault,
                                   self.reference if shipped else None)
        except Exception:  # a study that raises is a failed run; keep measuring
            self.fail(f"study raised\n{traceback.format_exc()}")
            return None
        if problems:
            self.fail("; ".join(problems))
            return None
        return result


@contextmanager
def _traced(tracer):
    with tracer.installed(), tracer.span("study"):
        yield


def layer_metrics(tracer, result) -> dict:
    t = tracer
    return {
        "cosim.exchange_s": t.self_time("cosim.step_macro"),
        "cosim.record_s": t.self_time("cosim.run"),
        "cosim.initialize_s": t.total("cosim.initialize"),
        "cosim.run_s": t.total("cosim.run"),
        "cosim.component_steps": sum(
            t.calls(n) for n in ("gridcomp.step", "converter.component_step",
                                 "frt.component_step", "cosim.component_step")),
        "converter.control_steps": t.calls("converter.control_step"),
        "converter.control_s": t.total("converter.control_step"),
        "converter.component_self_s": t.self_time("converter.component_step"),
        "frt.control_steps": t.calls("frt.control_step"),
        "frt.control_s": t.total("frt.control_step"),
        "frt.component_self_s": t.self_time("frt.component_step"),
        "gridcomp.step_self_s": t.self_time("gridcomp.step"),
        "dynamics.advance_s": t.total("dynamics.advance"),
        "dynamics.advance_self_s": t.self_time("dynamics.advance"),
        "dynamics.lu_solves": t.calls("dynamics.lu_solve"),
        "dynamics.lu_solve_s": t.total("dynamics.lu_solve"),
        "dynamics.lu_factorizations": t.calls("dynamics.lu_factorize"),
        "network.fault_shunts_calls": t.calls("network.fault_shunts"),
        "network.fault_shunts_s": t.total("network.fault_shunts"),
        "powerflow.solve_s": t.total("powerflow.solve"),
        "powerflow.iterations": t.pf_iterations,
        "dynamics.init_equilibrium_s": t.total("dynamics.init_equilibrium"),
        "scenario_io.parse_s": t.total("scenario_io.parse"),
        "scenario.instantiate_s": t.total("scenario.instantiate"),
        "trace.write_s": t.total("trace.write_csv"),
        "trace.bytes": result.output_bytes,
        "traced.study_s": result.study_s,
    }


def _keep_going(started: float, seconds: float, rounds: list[float]) -> bool:
    """Start another round if it would end nearer the deadline than not."""
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * statistics.median(rounds) < seconds


def measure_end_to_end(runs: Runs, text: str, fault, shipped: bool, seconds: float) -> dict:
    from study import setup
    started = time.perf_counter()
    probes = [probe()]
    setups, scaled, rounds = [], [], []
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            t1 = time.perf_counter()
            setup(text)
            setups.append((time.perf_counter() - t1) * REFERENCE_S / probes[-1])
        result = runs.study(text, fault, shipped)
        probes.append(probe())
        rounds.append(time.perf_counter() - t0)
        if result is not None:
            scaled.append((result, REFERENCE_S / (0.5 * (probes[-2] + probes[-1]))))
        if not _keep_going(started, seconds, rounds):
            break
    if not scaled:
        return {}
    results = [r for r, _ in scaled]
    print(f"unscaled medians: study {statistics.median(r.study_s for r in results):.6g} s, "
          f"setup {statistics.median(r.setup_s for r in results):.6g} s, "
          f"{statistics.median(r.steps / r.loop_s for r in results):.6g} steps/s, "
          f"cpu {statistics.median(r.cpu_s for r in results):.6g} s; "
          f"probe {statistics.median(probes):.6g} s (reference {REFERENCE_S} s)")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "study_s": statistics.median(r.study_s * k for r, k in scaled),
        "setup_s": statistics.median(setups + [r.setup_s * k for r, k in scaled]),
        "steps_per_s": statistics.median(r.steps / (r.loop_s * k) for r, k in scaled),
        "cpu_s": statistics.median(r.cpu_s * k for r, k in scaled),
        "peak_rss_mb": rss_kib / 1024.0,
    }


def measure_layers(runs: Runs, text: str, fault, shipped: bool, seconds: float) -> dict:
    from tracer import CallCounter, Tracer
    started = time.perf_counter()
    plain, traced, rounds = [], [], []
    while True:
        t0 = time.perf_counter()
        untraced = runs.study(text, fault, shipped)
        tracer = Tracer()
        result = runs.study(text, fault, shipped, instrument=_traced(tracer))
        rounds.append(time.perf_counter() - t0)
        if untraced is not None and result is not None:
            if result.trace_csv != untraced.trace_csv:
                runs.fail("traced trace.csv differs from the untraced one")
            else:
                plain.append(untraced.study_s)
                traced.append(layer_metrics(tracer, result))
        if not _keep_going(started, seconds, rounds):
            break
    counter = CallCounter()
    counted = runs.study(text, fault, shipped, instrument=counter.installed())
    if counted is not None and untraced is not None \
            and counted.trace_csv != untraced.trace_csv:
        runs.fail("call-counted trace.csv differs from the untraced one")
    if not traced or counted is None:
        return {}
    # times vary per study, counts and sizes are taken as one study's value
    metrics = {name: (statistics.median if unit_of(name) == "s" else statistics.median_low)(
        m[name] for m in traced) for name in traced[0]}
    metrics["cosim.set_calls"] = counter.set_calls
    metrics["cosim.get_calls"] = counter.get_calls
    metrics["untraced.study_s"] = statistics.median(plain)
    metrics["tracing_overhead"] = metrics["traced.study_s"] / metrics["untraced.study_s"] - 1.0
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "tracing_overhead":
        return "ratio"
    if name == "trace.bytes":
        return "B"
    return "s" if name.endswith("_s") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot load the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    fault = pick_fault(args.seed)
    text = scenario_text(workload, args.seed)
    shipped = args.seed == SHIPPED_SEED

    print(f"workload {workload.name} seed {args.seed}: fault at bus {fault.bus}, "
          f"{fault.start:g} s for {fault.duration * 1e3:g} ms, {fault.plant_mw} MW; "
          f"{'traced per-layer split' if args.trace else 'end to end'}")
    print("env " + json.dumps(environment(), sort_keys=True))
    sys.stdout.flush()

    out_dir = HERE.parent / ".perfbench_work" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        runs = Runs(workload, out_dir)
        # replay the shipped study first: it checks every channel against the
        # committed reference traces and warms up imports and BLAS threads
        runs.study(scenario_text(workload, SHIPPED_SEED), pick_fault(SHIPPED_SEED), True)
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(runs, text, fault, shipped, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed_frac = runs.failed / runs.attempted
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit_of(name)}")
    print(f"  {'failed_frac':<28} {failed_frac:>16.6g} ratio "
          f"({runs.failed} of {runs.attempted} studies)")
    ok = runs.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": ok,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
