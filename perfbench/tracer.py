"""Outside-in span tracing of one study.

The benchmark does not change the program to trace it.  While a
``Tracer`` is installed it replaces the program's public functions and
methods with wrappers that time each call; uninstalling restores the
originals.  Spans nest: a call's self time is its duration minus the
durations of the wrapped calls made inside it, so the self times of all
spans in a study add up to the study's own duration.

Per-value accessors (``SimComponent.get/set``, about two million calls
in a 65-component study) are not timed: a timing wrapper there would
cost more than the work it measures.  ``CallCounter`` counts them in a
separate pass instead.
"""

from __future__ import annotations

import time
import types
from contextlib import contextmanager

import scipy.sparse.linalg as spla

import windcosim.cosim as cosim
import windcosim.dynamics as dynamics
import windcosim.gridcomp as gridcomp
import windcosim.scenario as scenario
import windcosim.scenario_io as scenario_io
import windcosim.trace as trace
from windcosim.converter import ConverterComponent, ConverterControl
from windcosim.frt import FrtComponent, FrtControl

_STEP_SPAN = {
    gridcomp.GridComponent: "gridcomp.step",
    ConverterComponent: "converter.component_step",
    FrtComponent: "frt.component_step",
}


@contextmanager
def _replaced(patches):
    """Set ``owner.attr = value`` for each patch; restore on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


class Tracer:
    """Call count, total time and self time per span name."""

    def __init__(self):
        self.spans: dict[str, list] = {}          # name -> [calls, total_s, self_s]
        self.pf_iterations = 0
        self._stack = [0.0]                       # child time of each open span

    def _record(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def _close(self, rec: list, t0: float) -> None:
        d = time.perf_counter() - t0
        child = self._stack.pop()
        self._stack[-1] += d
        rec[0] += 1
        rec[1] += d
        rec[2] += d - child

    def _timed(self, fn, rec_of):
        stack, clock, close = self._stack, time.perf_counter, self._close

        def wrapper(*args, **kwargs):
            rec = rec_of(args)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec, t0)
        return wrapper

    def wrap(self, name: str, fn):
        rec = self._record(name)
        return self._timed(fn, lambda args: rec)

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a span."""
        rec = self._record(name)
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(rec, t0)

    def total(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    @contextmanager
    def installed(self):
        step_recs = {cls: self._record(name) for cls, name in _STEP_SPAN.items()}
        other = self._record("cosim.component_step")
        solve_pf = self.wrap("powerflow.solve", gridcomp.solve_power_flow)

        def power_flow(*args, **kwargs):
            result = solve_pf(*args, **kwargs)
            self.pf_iterations += result.iterations
            return result

        factorize = self.wrap("dynamics.lu_factorize", spla.splu)

        def splu(*args, **kwargs):
            lu = factorize(*args, **kwargs)
            return types.SimpleNamespace(solve=self.wrap("dynamics.lu_solve", lu.solve))

        patches = [
            (scenario_io, "parse_scenario_text",
             self.wrap("scenario_io.parse", scenario_io.parse_scenario_text)),
            (scenario, "instantiate", self.wrap("scenario.instantiate", scenario.instantiate)),
            (trace, "write_csv", self.wrap("trace.write_csv", trace.write_csv)),
            (cosim.Master, "initialize",
             self.wrap("cosim.initialize", vars(cosim.Master)["initialize"])),
            (cosim.Master, "step_macro",
             self.wrap("cosim.step_macro", vars(cosim.Master)["step_macro"])),
            (cosim.Master, "run", self.wrap("cosim.run", vars(cosim.Master)["run"])),
            (cosim.SimComponent, "step",
             self._timed(vars(cosim.SimComponent)["step"],
                         lambda args: step_recs.get(type(args[0]), other))),
            (dynamics.RmsModel, "advance",
             self.wrap("dynamics.advance", vars(dynamics.RmsModel)["advance"])),
            (dynamics.RmsModel, "init_equilibrium",
             self.wrap("dynamics.init_equilibrium",
                       vars(dynamics.RmsModel)["init_equilibrium"])),
            (ConverterControl, "step",
             self.wrap("converter.control_step", vars(ConverterControl)["step"])),
            (FrtControl, "step", self.wrap("frt.control_step", vars(FrtControl)["step"])),
            (gridcomp, "solve_power_flow", power_flow),
            (dynamics, "fault_shunts", self.wrap("network.fault_shunts", dynamics.fault_shunts)),
            (spla, "splu", splu),
        ]
        with _replaced(patches):
            yield self


class CallCounter:
    """Counts ``SimComponent.get`` and ``SimComponent.set`` calls, untimed."""

    def __init__(self):
        self.get_calls = 0
        self.set_calls = 0

    @contextmanager
    def installed(self):
        get = vars(cosim.SimComponent)["get"]
        set_ = vars(cosim.SimComponent)["set"]

        def counted_get(comp, name):
            self.get_calls += 1
            return get(comp, name)

        def counted_set(comp, name, value):
            self.set_calls += 1
            return set_(comp, name, value)

        with _replaced([(cosim.SimComponent, "get", counted_get),
                        (cosim.SimComponent, "set", counted_set)]):
            yield self
