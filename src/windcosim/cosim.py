"""Fixed-step co-simulation master and component contract.

Components expose scalar variables (real, integer, boolean) through a
get/set interface and advance in fixed macro steps.  ``initialize``
compiles the wiring into a plan of input edges per component: plain
copies (gain 1, offset 0: every integer and boolean edge and each
identity real one, so ``-0.0`` passes as ``-0.0`` where ``1.0 * x + 0.0``
gives ``+0.0``) and affine real edges.  Names are resolved once, when it
is wired: from then on the plan, the output check, the recording and the
step bodies address each value by its value reference (``VariableRef.vr``,
its index in the component's value list), as FMI 2.0 does with
``fmi2ValueReference``.  A refresh moves values along the edges into the
sink's values, and every hook's real outputs are checked finite right
after the hook, so a failing macro step names the first component in
priority order.  No re-wiring follows, and a master that has stepped is
not initialized or run again.  Two coupling schemes are supported:

``serial``
    Components step once per macro step in ascending priority order.
    Immediately before a component steps, each of its inputs is
    refreshed from the *latest available* value of its source.  A
    connection from a lower-priority to a higher-priority component
    therefore carries the current step's value (fresh), while a
    back-edge carries the previous step's value (one-step lag).

``parallel``
    All inputs are latched from the previous macro step's outputs
    before any component steps, so every connection carries a
    one-step lag (Jacobi style).

Neither scheme iterates within a step and no component is ever asked to
roll back, so any topology, cyclic or not, completes without deadlock.

Initialization starts from the declared start values, which are every
component's nominal outputs (each real one is checked finite), and runs
two stages before the first step:

1. in priority order, with inputs refreshed before each call, every
   component solves its internal equilibrium (``equilibrate``) -- the
   grid runs a power flow here and publishes terminal voltages,
2. in priority order again, every component commits state consistent
   with the final exchanged values (``finish_init``).

A disturbance-free run started this way stays at its operating point.
"""

from __future__ import annotations

import enum
import math
import time as _time
from dataclasses import dataclass, field
from operator import attrgetter

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


class _ValueObject:
    """Slotted value object that nothing assigns to after construction: equal to one of its
    own class with equal ``_key`` fields, hashed by them, printed as a dataclass prints."""

    __slots__ = ()

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class VariableRef(_ValueObject):
    """Fully qualified handle for one scalar variable of one component; ``vr``,
    its value reference, indexes the component's ``_values`` list and is not
    compared.  It hashes as ``(component_id, name)``: a component declares a name once."""

    __slots__ = ("component_id", "name", "direction", "kind", "vr")
    _key = attrgetter("component_id", "name", "direction", "kind")

    def __init__(self, component_id: str, name: str, direction: Direction, kind: VarKind, vr=-1):
        self.component_id, self.name, self.direction = component_id, name, direction
        self.kind, self.vr = kind, vr

    def __hash__(self) -> int:
        return hash((self.component_id, self.name))

    def __str__(self) -> str:
        return f"{self.component_id}.{self.name}"


class Connection(_ValueObject):
    """Directed signal path ``sink value := gain * source value + offset``.

    The affine transform is only meaningful for real signals; integer and
    boolean connections must use the identity transform.
    """

    __slots__ = ("source", "sink", "gain", "offset")
    _key = attrgetter(*__slots__)

    def __init__(self, source: VariableRef, sink: VariableRef, gain=1.0, offset=0.0):
        self.source, self.sink, self.gain, self.offset = source, sink, gain, offset

    def apply(self, value):
        if self.source.kind is VarKind.REAL:
            return self.gain * value + self.offset
        return value


class SimComponent:
    """Base class for steppable components.

    Subclasses declare variables in ``__init__`` and implement
    ``_do_step(t, dt)``.  The declared start values are the nominal
    outputs initialization starts from; the two initialization hooks
    default to no-ops so trivial components only need the step body.

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


@dataclass
class MasterConfig:
    """Orchestration settings for one run."""

    macro_step: float = field(default=1e-3, metadata=err.POSITIVE)
    t_end: float = field(default=2.0, metadata=err.NON_NEGATIVE)
    scheme: Scheme = Scheme.SERIAL
    record: list[str] = field(default_factory=list)

    def __post_init__(self):
        if isinstance(self.scheme, str):
            self.scheme = Scheme(self.scheme)
        err.check_domains(self, ValueError)
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


def _refresh(values: list, copies: list[tuple], affine: list[tuple]) -> None:
    """Set each input from its source's current output, as ``Connection.apply``
    (without a cast: connected kinds match, and values keep their kind),
    except that a copy passes ``-0.0`` on where ``apply`` gives ``+0.0``."""
    for src, src_vr, vr in copies:
        values[vr] = src[src_vr]
    for src, src_vr, vr, gain, offset in affine:
        values[vr] = gain * src[src_vr] + offset


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
        self._by_priority: dict[int, SimComponent] = {}
        self._by_sink: dict[str, list[Connection]] = {}
        self._driven: set[VariableRef] = set()
        self._plan: list[tuple] = []
        self._recorded: list[VariableRef] | None = None
        self._initialized = False
        self.current_step = 0

    # -- construction ------------------------------------------------------

    def register(self, component: SimComponent, priority: int) -> SimComponent:
        if self._initialized:
            raise err.WiringError("register after initialize: the exchange plan is fixed")
        cid = component.component_id
        if cid in self._components:
            raise err.DuplicateComponentError(f"component id '{cid}' already registered")
        if priority in self._by_priority:
            raise err.DuplicatePriorityError(f"priority {priority} already taken")
        self._components[cid] = component
        self._by_priority[priority] = component
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

    def connect(self, source, sink, gain: float = 1.0, offset: float = 0.0) -> Connection:
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
        if not (math.isfinite(gain) and math.isfinite(offset)) or gain == 0.0:
            raise err.WiringError(f"transform gain={gain} offset={offset} is not usable")
        if source.kind is not VarKind.REAL and (gain != 1.0 or offset != 0.0):
            raise err.KindMismatchError(
                f"{source.kind.value} connection {source} -> {sink} must use the identity transform"
            )
        conn = Connection(source, sink, gain, offset)
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

    def execution_order(self) -> list[str]:
        return [self._by_priority[p].component_id for p in sorted(self._by_priority)]

    # -- value movement ----------------------------------------------------

    def _compile(self) -> None:
        """Per component in priority order: (component, values, copies, affine, real outputs)."""
        self._plan = []
        for _, comp in sorted(self._by_priority.items()):
            copies, affine = [], []
            for c in self._by_sink.get(comp.component_id, ()):
                src = self._components[c.source.component_id]._values
                if c.gain == 1.0 and c.offset == 0.0:      # every int and bool edge
                    copies.append((src, c.source.vr, c.sink.vr))
                else:
                    affine.append((src, c.source.vr, c.sink.vr, c.gain, c.offset))
            self._plan.append((comp, comp._values, copies, affine, list(comp._real_outputs)))

    # -- lifecycle ---------------------------------------------------------

    def initialize(self) -> None:
        if not self._components:
            raise err.InitializationError("no components registered")
        if self.current_step:
            raise err.InitializationError("master has already stepped; build a new Master")
        self._compile()
        for comp, values, _, _, outputs in self._plan:      # the declared start values
            _check_finite(comp, values, outputs, 0.0)
        for stage in ("equilibrate", "finish_init"):
            for comp, values, copies, affine, outputs in self._plan:
                _refresh(values, copies, affine)
                getattr(comp, stage)()
                _check_finite(comp, values, outputs, 0.0)
        for _, values, copies, affine, _ in self._plan:
            _refresh(values, copies, affine)
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
            for _, values, copies, affine, _ in self._plan:
                for src, src_vr, vr in copies:
                    values[vr] = src[src_vr]
                for src, src_vr, vr, gain, offset in affine:
                    values[vr] = gain * src[src_vr] + offset
        for comp, values, copies, affine, outputs in self._plan:
            if serial:
                for src, src_vr, vr in copies:
                    values[vr] = src[src_vr]
                for src, src_vr, vr, gain, offset in affine:
                    values[vr] = gain * src[src_vr] + offset
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
        times = [0.0]
        rows = [[float(values[vr]) for values, vr in sources]]
        for _ in range(n_steps):
            self.step_macro()
            times.append(self.current_step * dt)
            rows.append([float(values[vr]) for values, vr in sources])
        meta.wall_clock_s = _time.perf_counter() - started

        data = np.asarray(rows, dtype=float).reshape(len(times), len(refs))
        channels = {str(ref): data[:, i] for i, ref in enumerate(refs)}
        return TraceSet(time=np.asarray(times), channels=channels), meta
