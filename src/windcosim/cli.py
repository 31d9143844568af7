"""Command-line front end.

Subcommands::

    run       --scenario FILE [--scheme serial|parallel] [--macro-step S]
              [--t-end S] --out DIR
    compare   --a TRACE --b TRACE [--channels a,b,...] [--tol PU]
              [--exclude-window STEPS] [--events t1,t2,...] [--meta FILE]
              [--out FILE]
    envelope  --trace FILE --onset S [--envelope FILE] [--channel NAME]
    bench     --scenarios f1,f2,... [--reps N] [--out FILE]

Exit codes: 0 success, 1 usage or input error, 2 run failure,
3 tolerance or envelope failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .bench import MIN_REPETITIONS, bench_scaling, format_bench_table
from .compare import compare_traces, fault_edge_times
from .errors import FINITE, NON_NEGATIVE, POSITIVE, CosimError, ScenarioError, TraceError
from .frt import DEFAULT_ENVELOPE_POINTS, FrtEnvelope, envelope_check
from .scenario import run_scenario
from .scenario_io import parse_scenario
from .trace import read_csv, write_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN_FAILURE = 2
EXIT_TOLERANCE = 3


def _checked(cast, low: float, closed: bool, text: str):
    """An argparse ``type``: a value outside its domain is a usage error naming the flag."""
    def parse(arg: str):
        value = cast(arg)
        if not (low <= value < math.inf if closed else low < value < math.inf):  # nan fails too
            raise argparse.ArgumentTypeError(f"must be {text}, got {arg}")
        return value
    parse.__name__ = cast.__name__           # a failed cast reads "invalid float value"
    return parse


_FINITE, _NON_NEGATIVE, _POSITIVE = (_checked(float, *domain["domain"])
                                     for domain in (FINITE, NON_NEGATIVE, POSITIVE))
repetitions = _checked(int, MIN_REPETITIONS, True, f"at least {MIN_REPETITIONS}")


def _times(arg: str) -> list[float]:
    return [_FINITE(t) for t in arg.split(",") if t]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windcosim",
        description="Run, compare and benchmark wind power plant co-simulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write trace + metadata")
    p_run.add_argument("--scenario", required=True, help="scenario file")
    p_run.add_argument("--scheme", choices=["serial", "parallel"], default=None)
    p_run.add_argument("--macro-step", type=_POSITIVE, default=None, metavar="S")
    p_run.add_argument("--t-end", type=_NON_NEGATIVE, default=None, metavar="S")
    p_run.add_argument("--out", required=True, help="output directory")

    p_cmp = sub.add_parser("compare", help="compare two trace files")
    p_cmp.add_argument("--a", required=True, help="first trace CSV")
    p_cmp.add_argument("--b", required=True, help="second trace CSV")
    p_cmp.add_argument("--channels", default=None,
                       help="comma-separated channel names (default: common channels)")
    p_cmp.add_argument("--tol", type=_NON_NEGATIVE, default=None,
                       help="max-abs tolerance; exit 3 when exceeded")
    p_cmp.add_argument("--exclude-window", type=_checked(int, *NON_NEGATIVE["domain"]),
                       default=3, metavar="STEPS")
    p_cmp.add_argument("--events", type=_times, default=None,
                       help="comma-separated event times to exclude around")
    p_cmp.add_argument("--meta", default=None,
                       help="metadata JSON supplying the event schedule "
                            "(default: meta.json beside --a when present)")
    p_cmp.add_argument("--out", default=None, help="also write the report here")

    p_env = sub.add_parser("envelope", help="check a voltage trace against an envelope")
    p_env.add_argument("--trace", required=True)
    p_env.add_argument("--envelope", default=None,
                       help="envelope file of 't v' lines (default: built-in)")
    p_env.add_argument("--onset", type=_FINITE, required=True, metavar="S")
    p_env.add_argument("--channel", default="grid.v_pcc")

    p_bench = sub.add_parser("bench", help="timing table over scenario files")
    p_bench.add_argument("--scenarios", required=True,
                         help="comma-separated scenario files")
    p_bench.add_argument("--reps", type=repetitions, default=MIN_REPETITIONS)
    p_bench.add_argument("--out", default=None, help="also write the table here")
    return parser


def _gnuplot_script(channels: list[str]) -> str:
    lines = [
        "# render with: gnuplot plots.gp",
        "set datafile separator \",\"",
        "set grid",
        "set xlabel \"time [s]\"",
        "set terminal pngcairo size 1200,400",
    ]
    for i, name in enumerate(channels):
        safe = name.replace(".", "_")
        lines.append(f"set output \"{safe}.png\"")
        lines.append(f"plot \"trace.csv\" using 1:{i + 2} with lines title \"{name}\"")
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    scenario = parse_scenario(args.scenario)
    trace, meta = run_scenario(scenario, scheme=args.scheme,
                               macro_step=args.macro_step, t_end=args.t_end)
    os.makedirs(args.out, exist_ok=True)
    write_csv(trace, os.path.join(args.out, "trace.csv"))
    with open(os.path.join(args.out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(meta), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out, "plots.gp"), "w", encoding="utf-8") as fh:
        fh.write(_gnuplot_script(trace.names()))
    print(f"wrote {meta.steps + 1} samples x {len(trace.names())} channels to {args.out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    a = read_csv(args.a)
    b = read_csv(args.b)
    channels = args.channels.split(",") if args.channels else None
    events = args.events
    if events is None:
        meta_path = args.meta
        if meta_path is None:
            candidate = os.path.join(os.path.dirname(os.path.abspath(args.a)), "meta.json")
            meta_path = candidate if os.path.exists(candidate) else None
        events = []
        if meta_path is not None:
            with open(meta_path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
            if not isinstance(record, dict):
                raise TraceError(f"{meta_path}: not a run record (a JSON object)")
            try:
                events = fault_edge_times(record.get("events", []))
            except TraceError as exc:
                raise TraceError(f"{meta_path}: {exc}") from None
    report = compare_traces(a, b, channels, events, args.exclude_window)
    text = report.format(args.tol)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.tol is not None and not report.within(args.tol):
        return EXIT_TOLERANCE
    return EXIT_OK


def _read_envelope(path: str) -> FrtEnvelope:
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise TraceError(f"{path}:{line_no}: expected 't v', got '{line}'")
            points.append((float(parts[0]), float(parts[1])))
    return FrtEnvelope(points=tuple(points))


def _cmd_envelope(args) -> int:
    trace = read_csv(args.trace)
    envelope = (_read_envelope(args.envelope) if args.envelope
                else FrtEnvelope(points=DEFAULT_ENVELOPE_POINTS))
    result = envelope_check(trace.time, np.asarray(trace[args.channel]),
                            args.onset, envelope)
    if result.compliant:
        print(f"compliant (margin {result.margin:.6g} pu)")
        return EXIT_OK
    print(f"violation at t = {result.first_violation_time:.6g} s "
          f"(margin {result.margin:.6g} pu)")
    return EXIT_TOLERANCE


def _cmd_bench(args) -> int:
    scenarios = [parse_scenario(path) for path in args.scenarios.split(",") if path]
    if not scenarios:
        raise ScenarioError("no scenarios given")
    rows = bench_scaling(scenarios, repetitions=args.reps)
    text = format_bench_table(rows)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; fold into our codes
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "envelope":
            return _cmd_envelope(args)
        return _cmd_bench(args)
    except (ScenarioError, TraceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CosimError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
