"""Fixed-step co-simulation master and component contract.

Components expose scalar variables (real, integer, boolean) through a
get/set interface and advance in fixed macro steps.  ``initialize``
compiles the wiring into a plan of input edges per component; every edge
is a copy, so ``-0.0`` passes unchanged.  Names are resolved once, when
it is wired: from then on the plan, the output check, the recording and
the step bodies address each value by its value reference
(``VariableRef.vr``, its index in the component's value list), as FMI
2.0 does with ``fmi2ValueReference``.  A refresh moves values along the
edges into the sink's values, and every hook's real outputs are checked
finite right after the hook, so a failing macro step names the first
component in registration order.  No re-wiring follows, and a master
that has stepped is not initialized or run again.  Two coupling schemes
are supported:

``serial``
    Components step once per macro step in registration order.
    Immediately before a component steps, each of its inputs is
    refreshed from the *latest available* value of its source.  A
    connection to a later-registered component therefore carries the
    current step's value (fresh), while a back-edge, to an earlier-
    registered one, carries the previous step's value (one-step lag).

``parallel``
    All inputs are latched from the previous macro step's outputs
    before any component steps, so every connection carries a
    one-step lag (Jacobi style).

Neither scheme iterates within a step and no component is ever asked to
roll back, so any topology, cyclic or not, completes without deadlock.

Initialization starts from the declared start values, which are every
component's nominal outputs (each real one is checked finite), and runs
two stages before the first step:

1. in registration order, with inputs refreshed before each call, every
   component solves its internal equilibrium (``equilibrate``) -- the
   grid runs a power flow here and publishes terminal voltages,
2. in registration order again, every component commits state consistent
   with the final exchanged values (``finish_init``).

A disturbance-free run started this way stays at its operating point.
"""

from __future__ import annotations

import enum
import math
import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import errors as err
from .trace import TraceSet


class VarKind(enum.Enum):
    REAL = "real"
    INT = "int"
    BOOL = "bool"

    # members are singletons: hash by identity in C, not by name in Enum.__hash__
    __hash__ = object.__hash__


_CASTS = {VarKind.REAL: float, VarKind.INT: int, VarKind.BOOL: bool}


class Direction(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


@dataclass(slots=True)
class VariableRef:
    """Fully qualified handle for one scalar variable of one component; ``vr``,
    its value reference, indexes the component's ``_values`` list and is not
    compared.  It hashes as ``(component_id, name)``: a component declares a name once."""

    component_id: str
    name: str
    direction: Direction
    kind: VarKind
    vr: int = field(default=-1, compare=False)

    def __hash__(self) -> int:
        return hash((self.component_id, self.name))

    def __str__(self) -> str:
        return f"{self.component_id}.{self.name}"


@dataclass(slots=True, unsafe_hash=True)
class Connection:
    """Directed signal path ``sink value := source value``."""

    source: VariableRef
    sink: VariableRef


class SimComponent:
    """Base class for steppable components.

    Subclasses declare variables in ``__init__`` and implement
    ``_do_step(t, dt)``.  The declared start values are the nominal
    outputs initialization starts from; the two initialization hooks and
    ``report`` default to no-ops, so trivial components only need the step body.

    ``get``/``set`` are the checked public contract: an undeclared name
    raises ``UnknownVariableError`` and ``set`` casts to the declared
    kind, as the declaration does with the start value.  A step body
    instead reads and writes ``self._values`` by value reference (each
    ``ref.vr`` resolved once, in ``__init__``), as the exchange does; a value
    it writes must be of the declared kind: the exchange never casts.
    """

    def __init__(self, component_id: str):
        self.component_id = component_id
        self.current_time = 0.0
        self._vars: dict[str, VariableRef] = {}
        self._values: list = []
        self._real_outputs: list[int] = []      # vr of each REAL output, in declaration order

    # -- declaration -------------------------------------------------------

    def declare_input(self, name: str, kind: VarKind = VarKind.REAL, start=0.0) -> VariableRef:
        return self._declare(name, Direction.INPUT, kind, start)

    def declare_output(self, name: str, kind: VarKind = VarKind.REAL, start=0.0) -> VariableRef:
        return self._declare(name, Direction.OUTPUT, kind, start)

    def _declare(self, name, direction, kind, start) -> VariableRef:
        if name in self._vars:
            raise err.WiringError(f"{self.component_id}: variable '{name}' declared twice")
        ref = VariableRef(self.component_id, name, direction, kind, len(self._values))
        self._vars[name] = ref
        if direction is Direction.OUTPUT and kind is VarKind.REAL:
            self._real_outputs.append(ref.vr)
        self._values.append(_CASTS[kind](start))
        return ref

    # -- access ------------------------------------------------------------

    def _unknown(self, name: str) -> err.UnknownVariableError:
        return err.UnknownVariableError(f"{self.component_id} has no variable '{name}'")

    def ref(self, name: str) -> VariableRef:
        try:
            return self._vars[name]
        except KeyError:
            raise self._unknown(name) from None

    def variables(self) -> list[VariableRef]:
        return list(self._vars.values())

    def get(self, name: str):
        try:
            return self._values[self._vars[name].vr]
        except KeyError:
            raise self._unknown(name) from None

    def set(self, name: str, value) -> None:
        ref = self.ref(name)
        self._values[ref.vr] = _CASTS[ref.kind](value)

    # -- lifecycle ---------------------------------------------------------

    def equilibrate(self) -> None:
        """Stage 1: solve internal equilibrium from current input values."""

    def finish_init(self) -> None:
        """Stage 2: commit state consistent with the final exchanged values."""

    def report(self, meta: RunMetadata) -> None:
        """After the run: add what this component knows to the run record."""

    def step(self, t: float, dt: float) -> None:
        if not dt > 0.0:          # written so that a NaN fails too
            raise err.ComponentStepError(self.component_id, t, f"non-positive dt {dt}")
        if not t >= self.current_time - 1e-12:
            raise err.ComponentStepError(
                self.component_id, t, f"time moved backwards (component at {self.current_time})"
            )
        self._do_step(t, dt)
        self.current_time = t + dt

    def _do_step(self, t: float, dt: float) -> None:
        raise NotImplementedError


class Scheme(enum.Enum):
    SERIAL = "serial"
    PARALLEL = "parallel"


MAX_MACRO_STEPS = 10**7    # longest run accepted: a mistyped t_end must not hang a run


@dataclass(frozen=True)
class MasterConfig:
    """Orchestration settings for one run, checked when built; ``scheme`` may be a name."""

    macro_step: float = field(default=1e-3, metadata=err.POSITIVE)
    t_end: float = field(default=2.0, metadata=err.NON_NEGATIVE)
    scheme: Scheme = Scheme.SERIAL
    record: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "record", tuple(self.record))
        err.check_domains(self, ValueError)
        repeated = sorted({name for name in self.record if self.record.count(name) > 1})
        if repeated:
            raise ValueError(f"record names {', '.join(repeated)} more than once")
        if self.t_end / self.macro_step > MAX_MACRO_STEPS:
            raise ValueError(f"t_end / macro_step is {self.t_end / self.macro_step:.3g} "
                             f"macro steps, above the cap of {MAX_MACRO_STEPS}")


@dataclass
class RunMetadata:
    scenario: str = ""
    scheme: str = ""
    macro_step: float = 0.0
    t_end: float = 0.0
    steps: int = 0
    components: int = 0
    wall_clock_s: float = 0.0
    events: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    init: dict = field(default_factory=dict)


def _refresh(values: list, copies: list[tuple]) -> None:
    """Set each input from its source's current output (without a cast:
    connected kinds match, and values keep their kind)."""
    for src, src_vr, vr in copies:
        values[vr] = src[src_vr]


def _check_finite(comp: SimComponent, values: list, outputs: list[int], t: float) -> None:
    for vr in outputs:
        if not math.isfinite(values[vr]):
            name = comp.variables()[vr].name
            raise err.ComponentStepError(comp.component_id, t,
                                         f"output '{name}' is not finite ({values[vr]!r})")


class Master:
    """Registers components, wires them, and drives the macro-step loop."""

    def __init__(self, config: MasterConfig):
        self.config = config
        self._components: dict[str, SimComponent] = {}
        self._by_sink: dict[str, list[Connection]] = {}
        self._driven: set[VariableRef] = set()
        self._plan: list[tuple] = []
        self._recorded: list[VariableRef] | None = None
        self._initialized = False
        self.current_step = 0

    # -- construction ------------------------------------------------------

    def register(self, component: SimComponent) -> SimComponent:
        if self._initialized:
            raise err.WiringError("register after initialize: the exchange plan is fixed")
        cid = component.component_id
        if cid in self._components:
            raise err.DuplicateComponentError(f"component id '{cid}' already registered")
        self._components[cid] = component
        return component

    def resolve(self, qualified: str | VariableRef) -> VariableRef:
        """Resolve a ``component.variable`` string, or a ref, against the registry."""
        if isinstance(qualified, VariableRef):
            comp_id, var = qualified.component_id, qualified.name
        else:
            comp_id, _, var = qualified.partition(".")
        if not var or comp_id not in self._components:
            raise err.UnknownVariableError(f"cannot resolve '{qualified}'")
        return self._components[comp_id].ref(var)

    def connect(self, source, sink) -> Connection:
        if self._initialized:
            raise err.WiringError("connect after initialize: the exchange plan is fixed")
        source, sink = self.resolve(source), self.resolve(sink)    # the declared refs, with vr
        if source.direction is not Direction.OUTPUT:
            raise err.DirectionMismatchError(f"connection source {source} is not an output")
        if sink.direction is not Direction.INPUT:
            raise err.DirectionMismatchError(f"connection sink {sink} is not an input")
        if source.kind is not sink.kind:
            raise err.KindMismatchError(
                f"{source} ({source.kind.value}) cannot drive {sink} ({sink.kind.value})"
            )
        if sink in self._driven:
            raise err.SinkAlreadyDrivenError(f"{sink} is already driven")
        conn = Connection(source, sink)
        self._by_sink.setdefault(sink.component_id, []).append(conn)
        self._driven.add(sink)
        return conn

    def recorded(self) -> list[VariableRef]:
        """The ``config.record`` channels, resolved on the first call."""
        if self._recorded is None:
            self._recorded = [self.resolve(name) for name in self.config.record]
        return self._recorded

    def component(self, component_id: str) -> SimComponent:
        return self._components[component_id]

    # -- value movement ----------------------------------------------------

    def _compile(self) -> None:
        """Per component in registration order (an edge to an earlier one lags):
        (component, values, copies, real outputs)."""
        self._plan = []
        for comp in self._components.values():
            copies = [(self._components[c.source.component_id]._values, c.source.vr, c.sink.vr)
                      for c in self._by_sink.get(comp.component_id, ())]
            self._plan.append((comp, comp._values, copies, list(comp._real_outputs)))

    # -- lifecycle ---------------------------------------------------------

    def initialize(self) -> None:
        if not self._components:
            raise err.InitializationError("no components registered")
        if self.current_step:
            raise err.InitializationError("master has already stepped; build a new Master")
        self._compile()
        for comp, values, _, outputs in self._plan:      # the declared start values
            _check_finite(comp, values, outputs, 0.0)
        for stage in ("equilibrate", "finish_init"):
            for comp, values, copies, outputs in self._plan:
                _refresh(values, copies)
                getattr(comp, stage)()
                _check_finite(comp, values, outputs, 0.0)
        for _, values, copies, _ in self._plan:
            _refresh(values, copies)
        self._initialized = True

    def step_macro(self) -> None:
        if not self._initialized:
            raise err.InitializationError("step_macro before initialize")
        dt = self.config.macro_step
        t = self.current_step * dt
        isfinite = math.isfinite
        serial = self.config.scheme is Scheme.SERIAL
        # _refresh and _check_finite inline; the check is called only to name a failure
        if not serial:              # latch every input before any component steps
            for _, values, copies, _ in self._plan:
                for src, src_vr, vr in copies:
                    values[vr] = src[src_vr]
        for comp, values, copies, outputs in self._plan:
            if serial:
                for src, src_vr, vr in copies:
                    values[vr] = src[src_vr]
            comp.step(t, dt)
            for vr in outputs:
                if not isfinite(values[vr]):
                    _check_finite(comp, values, outputs, t + dt)
        self.current_step += 1

    # -- recording ---------------------------------------------------------

    def run(self, scenario_name: str = "") -> tuple[TraceSet, RunMetadata]:
        if self.current_step:
            raise err.InitializationError("master has already run; build a new Master")
        meta = RunMetadata(
            scenario=scenario_name,
            scheme=self.config.scheme.value,
            macro_step=self.config.macro_step,
            t_end=self.config.t_end,
            components=len(self._components),
        )
        dt = self.config.macro_step
        n_steps = int(math.floor(self.config.t_end / dt + 1e-9))
        t_eff = n_steps * dt
        if abs(t_eff - self.config.t_end) > 1e-9 * max(1.0, abs(self.config.t_end)):
            meta.warnings.append(
                f"t_end {self.config.t_end} is not a multiple of macro_step {dt}; "
                f"running to {t_eff}"
            )
        meta.steps = n_steps

        started = _time.perf_counter()
        refs = self.recorded()         # before initializing: an unknown channel fails first
        if not self._initialized:
            self.initialize()
        sources = [(self._components[ref.component_id]._values, ref.vr) for ref in refs]
        rows = [[values[vr] for values, vr in sources]]
        for _ in range(n_steps):
            self.step_macro()
            rows.append([values[vr] for values, vr in sources])
        meta.wall_clock_s = _time.perf_counter() - started
        for comp in self._components.values():
            comp.report(meta)

        data = np.asarray(rows, dtype=float).reshape(n_steps + 1, len(refs))
        channels = {str(ref): data[:, i] for i, ref in enumerate(refs)}
        return TraceSet(time=np.arange(n_steps + 1) * dt, channels=channels), meta
