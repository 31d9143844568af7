import dataclasses
import math
import random
from pathlib import Path

import numpy as np
import pytest

from windcosim.converter import ConverterComponent
from windcosim.cosim import (
    Connection,
    Direction,
    Master,
    MasterConfig,
    Scheme,
    SimComponent,
    VariableRef,
    VarKind,
    _check_finite,
)
from windcosim.errors import (
    ComponentStepError,
    DirectionMismatchError,
    DuplicateComponentError,
    InitializationError,
    KindMismatchError,
    SinkAlreadyDrivenError,
    UnknownVariableError,
    WiringError,
)
from windcosim.frt import FrtComponent
from windcosim.gridcomp import GridComponent
from windcosim.network import FaultEvent
from windcosim.scenario import (
    build_large_scale,
    build_monolithic,
    build_small_scale,
    instantiate,
    run_scenario,
)
from windcosim.scenario_io import parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


class Counter(SimComponent):
    """Publishes its own step index and the input value it saw while stepping."""

    def __init__(self, cid):
        super().__init__(cid)
        self.declare_input("inp", VarKind.INT, start=-1)
        self.declare_output("idx", VarKind.INT, start=0)
        self.declare_output("seen", VarKind.INT, start=-1)

    def _do_step(self, t, dt):
        self.set("seen", self.get("inp"))
        self.set("idx", self.get("idx") + 1)


def _counters(scheme, n_steps):
    cfg = MasterConfig(macro_step=1e-3, t_end=n_steps * 1e-3, scheme=scheme,
                       record=["a.idx", "a.seen", "b.idx", "b.seen", "c.seen"])
    master = Master(cfg)
    master.register(Counter("a"))
    master.register(Counter("b"))
    master.register(Counter("c"))
    master.connect("a.idx", "b.inp")   # forward edge: to a later-registered component
    master.connect("b.idx", "a.inp")   # back edge: to an earlier-registered component
    master.connect("c.idx", "c.inp")   # self-edge: the sink is its own source
    return master


def test_serial_lag_law():
    # Forward edges are fresh (same-step); back edges and self-edges lag one step.
    master = _counters(Scheme.SERIAL, 50)
    trace, meta = master.run()
    assert _split_edges(master) == ({"b.idx -> a.inp", "c.idx -> c.inp"}, {"a.idx -> b.inp"})
    for k in range(1, meta.steps + 1):
        assert trace["a.idx"][k] == k
        assert trace["b.idx"][k] == k
        assert trace["b.seen"][k] == k, "forward edge must carry the current step"
        assert trace["a.seen"][k] == k - 1, "back edge must carry the previous step"
        assert trace["c.seen"][k] == k - 1, "self-edge must carry the previous step"


def test_parallel_lag_law():
    # Every edge is latched before stepping: uniform one-step lag.
    master = _counters(Scheme.PARALLEL, 50)
    trace, meta = master.run()
    assert _split_edges(master) == ({"a.idx -> b.inp", "b.idx -> a.inp", "c.idx -> c.inp"},
                                    set())
    for k in range(1, meta.steps + 1):
        assert trace["a.seen"][k] == k - 1
        assert trace["b.seen"][k] == k - 1
        assert trace["c.seen"][k] == k - 1


class StageLogger(SimComponent):
    def __init__(self, cid, log):
        super().__init__(cid)
        self.log = log
        self.declare_input("inp", start=0.0)
        self.declare_output("out", start=0.0)

    def equilibrate(self):
        self.log.append(("equilibrate", self.component_id, self.get("inp")))
        if self.component_id == "a":
            self.set("out", 7.0)

    def finish_init(self):
        self.log.append(("finish", self.component_id, self.get("inp")))

    def _do_step(self, t, dt):
        pass


def test_staged_init_order_and_refresh():
    master = Master(MasterConfig(record=["a.out"]))
    log = []
    master.register(StageLogger("a", log))
    master.register(StageLogger("b", log))
    master.connect("a.out", "b.inp")
    master.initialize()

    stages = [entry[0] for entry in log]
    assert stages == ["equilibrate", "equilibrate", "finish", "finish"]
    order = [entry[1] for entry in log]
    assert order == ["a", "b"] * 2, "each stage runs in registration order"
    # b equilibrates after a republished in its own equilibrate, so it sees 7
    assert log[1] == ("equilibrate", "b", 7.0)
    assert log[3] == ("finish", "b", 7.0)


class NonFiniteStart(StageLogger):
    def __init__(self, cid, log):
        super().__init__(cid, log)
        self.declare_output("bad", start=math.nan)


def test_non_finite_start_value_fails_before_any_equilibrate():
    master = Master(MasterConfig())
    log = []
    master.register(StageLogger("a", log))
    master.register(NonFiniteStart("b", log))
    with pytest.raises(ComponentStepError, match="output 'bad' is not finite") as info:
        master.initialize()
    assert info.value.component_id == "b"
    assert log == [], "declared start values are checked before the first stage"


def test_kind_coercion_on_set():
    c = Counter("c")
    c.set("idx", 3.9)
    assert c.get("idx") == 3 and isinstance(c.get("idx"), int)
    c.declare_output("flag", VarKind.BOOL, start=False)
    c.set("flag", 1.0)
    assert c.get("flag") is True
    c.declare_output("x", VarKind.REAL)
    c.set("x", 2)
    assert isinstance(c.get("x"), float)


def test_duplicate_declaration_rejected():
    c = Counter("c")
    with pytest.raises(WiringError):
        c.declare_output("idx", VarKind.INT)


def test_equal_variable_refs_hash_equal_and_deduplicate():
    c = Counter("c")
    a, b = c.ref("idx"), VariableRef("c", "idx", Direction.OUTPUT, VarKind.INT)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert {a, b, c.ref("seen")} == {a, c.ref("seen")}
    assert len({a, b, c.ref("seen"), c.ref("inp")}) == 3


def test_variable_ref_prints_its_qualified_name_and_its_fields():
    ref = Counter("c").ref("idx")
    assert str(ref) == "c.idx"
    assert repr(ref) == ("VariableRef(component_id='c', name='idx', "
                         "direction=<Direction.OUTPUT: 'output'>, kind=<VarKind.INT: 'int'>, "
                         f"vr={ref.vr})")
    assert ref != ("c", "idx", Direction.OUTPUT, VarKind.INT)
    assert ref != VariableRef("c", "idx", Direction.INPUT, VarKind.INT)
    assert ref != VariableRef("c", "idx", Direction.OUTPUT, VarKind.REAL)


def test_connections_compare_and_hash_by_source_and_sink():
    master = Master(MasterConfig())
    master.register(Counter("a"))
    master.register(Counter("b"))
    made = master.connect("a.idx", "b.inp")
    src = VariableRef("a", "idx", Direction.OUTPUT, VarKind.INT)
    sink = VariableRef("b", "inp", Direction.INPUT, VarKind.INT)
    same = Connection(src, sink)                  # refs without vr
    assert made == same and made is not same and hash(made) == hash(same)
    assert len({made, same}) == 1
    others = [Connection(sink, src),
              Connection(src, VariableRef("b", "seen", Direction.INPUT, VarKind.INT))]
    assert all(made != other for other in others)
    assert len({made, *others}) == 3
    assert made != (src, sink)
    assert repr(same) == f"Connection(source={src!r}, sink={sink!r})"


def test_variable_refs_and_connections_are_slotted_dataclasses():
    ref = Counter("c").ref("idx")
    conn = Connection(ref, VariableRef("d", "inp", Direction.INPUT, VarKind.INT))
    for obj in (ref, conn):
        assert dataclasses.is_dataclass(obj) and not hasattr(obj, "__dict__")
    vr = {f.name: f for f in dataclasses.fields(VariableRef)}["vr"]
    assert vr.default == -1 and not vr.compare
    moved = dataclasses.replace(ref, vr=9)
    assert moved.vr == 9 and moved == ref and hash(moved) == hash(ref)


def test_unknown_variable():
    c = Counter("c")
    with pytest.raises(UnknownVariableError):
        c.get("nope")
    master = Master(MasterConfig())
    master.register(c)
    with pytest.raises(UnknownVariableError):
        master.resolve("c.nope")
    with pytest.raises(UnknownVariableError):
        master.resolve("ghost.idx")


def test_duplicate_registration_errors():
    master = Master(MasterConfig())
    master.register(Counter("a"))
    with pytest.raises(DuplicateComponentError):
        master.register(Counter("a"))


def test_connect_validation():
    master = Master(MasterConfig())
    master.register(Counter("a"))
    master.register(Counter("b"))
    with pytest.raises(DirectionMismatchError):
        master.connect("a.inp", "b.inp")          # source must be an output
    with pytest.raises(DirectionMismatchError):
        master.connect("a.idx", "b.idx")          # sink must be an input
    master.connect("a.idx", "b.inp")
    with pytest.raises(SinkAlreadyDrivenError):
        master.connect("a.seen", "b.inp")


class RealRelay(SimComponent):
    def __init__(self, cid):
        super().__init__(cid)
        self.declare_input("inp", start=0.0)
        self.declare_output("out", start=1.0)

    def _do_step(self, t, dt):
        self.set("out", self.get("inp"))


def test_refs_built_by_the_caller_wire_like_declared_ones():
    master = Master(MasterConfig(macro_step=1e-3, t_end=2e-3))
    a = master.register(RealRelay("a"))
    b = master.register(RealRelay("b"))
    a.declare_output("pad", start=-1.0)          # so a wrong slot would show
    master.connect(VariableRef("b", "out", Direction.OUTPUT, VarKind.REAL),
                   VariableRef("a", "inp", Direction.INPUT, VarKind.REAL))
    master.connect(a.ref("out"), b.ref("inp"))
    with pytest.raises(UnknownVariableError, match="ghost.out"):
        master.connect(VariableRef("ghost", "out", Direction.OUTPUT, VarKind.REAL), "b.inp")
    master.initialize()
    master.step_macro()
    assert (a.get("inp"), a.get("out"), b.get("out")) == (1.0, 1.0, 1.0)


def test_kind_mismatch_between_ends():
    master = Master(MasterConfig())
    master.register(Counter("a"))
    master.register(RealRelay("r"))
    with pytest.raises(KindMismatchError):
        master.connect("a.idx", "r.inp")


def test_step_before_initialize_rejected():
    master = Master(MasterConfig())
    master.register(Counter("a"))
    with pytest.raises(InitializationError):
        master.step_macro()


def test_initialize_without_components_rejected():
    with pytest.raises(InitializationError):
        Master(MasterConfig()).initialize()


def test_component_time_must_advance():
    c = RealRelay("r")
    c.step(0.0, 1e-3)
    with pytest.raises(ComponentStepError):
        c.step(0.0, 1e-3)  # t before the component's own clock
    with pytest.raises(ComponentStepError):
        c.step(1e-3, 0.0)  # non-positive dt
    with pytest.raises(ComponentStepError):
        c.step(1e-3, math.nan)  # NaN dt
    with pytest.raises(ComponentStepError):
        c.step(math.nan, 1e-3)  # NaN t
    assert c.current_time == 1e-3


class Exploder(SimComponent):
    def __init__(self, cid, blow_at):
        super().__init__(cid)
        self.blow_at = blow_at
        self.n = 0
        self.declare_output("out", start=0.0)

    def _do_step(self, t, dt):
        self.n += 1
        self.set("out", math.inf if self.n >= self.blow_at else float(self.n))


def test_non_finite_output_detected():
    cfg = MasterConfig(macro_step=1e-3, t_end=10e-3, record=["e.out"])
    master = Master(cfg)
    master.register(Exploder("e", blow_at=4))
    with pytest.raises(ComponentStepError, match="not finite"):
        master.run()


def test_t_end_rounding_warns():
    cfg = MasterConfig(macro_step=1e-3, t_end=0.0105, record=["a.idx"])
    master = Master(cfg)
    master.register(Counter("a"))
    trace, meta = master.run()
    assert meta.steps == 10
    assert meta.warnings and "not a multiple" in meta.warnings[0]
    assert trace.time[-1] == pytest.approx(0.010)


def test_exact_t_end_does_not_warn():
    cfg = MasterConfig(macro_step=1e-3, t_end=0.01, record=["a.idx"])
    master = Master(cfg)
    master.register(Counter("a"))
    _, meta = master.run()
    assert meta.steps == 10 and not meta.warnings


class Mixer(SimComponent):
    """Deterministic nonlinear map; output trajectory is sensitive to input timing."""

    def __init__(self, cid, coeff):
        super().__init__(cid)
        self.coeff = coeff
        self.declare_input("inp", start=0.0)
        self.declare_output("out", start=math.tanh(coeff))

    def _do_step(self, t, dt):
        v = math.sin(self.coeff * self.get("out") + 0.7 * self.get("inp")) + 0.01 * self.coeff
        self.set("out", v)


def build_random_graph(seed, n_steps=100, scheme=None):
    """Random cyclic component graph: every input driven, a 2-cycle forced;
    the scheme is drawn from the seed unless given."""
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    drawn = Scheme.SERIAL if rng.random() < 0.5 else Scheme.PARALLEL
    scheme = scheme or drawn
    names = [f"c{i}" for i in range(n)]
    cfg = MasterConfig(macro_step=1e-3, t_end=n_steps * 1e-3, scheme=scheme,
                       record=[f"{name}.out" for name in names])
    master = Master(cfg)
    for name in names:
        master.register(Mixer(name, coeff=rng.uniform(0.2, 2.0)))
    sources = [rng.randrange(n) for _ in range(n)]
    sources[0], sources[1] = 1, 0  # guarantee at least one cycle
    for i, src in enumerate(sources):
        master.connect(f"c{src}.out", f"c{i}.inp")
    return master


@pytest.mark.parametrize("seed", range(10))
def test_random_cyclic_graph_runs_and_repeats_bit_identically(seed):
    trace_a, meta_a = build_random_graph(seed).run()
    trace_b, meta_b = build_random_graph(seed).run()
    assert meta_a.steps == meta_b.steps == 100
    assert np.array_equal(trace_a.time, trace_b.time)
    for name in trace_a.names():
        assert np.array_equal(trace_a[name], trace_b[name]), name
        assert np.all(np.isfinite(trace_a[name]))


def test_execution_order_is_registration_order(stepped_order):
    master = Master(MasterConfig())
    master.register(Counter("z"))
    master.register(Counter("a"))
    master.register(Counter("m"))
    master.initialize()
    assert stepped_order(master) == ["z", "a", "m"]


def test_recording_inputs_reads_component_state():
    cfg = MasterConfig(macro_step=1.0, t_end=1.0, record=["b.inp"])
    master = Master(cfg)
    master.register(RealRelay("a"))
    master.register(RealRelay("b"))
    master.connect("a.out", "b.inp")
    trace, _ = master.run()
    # inputs are sampled from component state: init exchange put a.out=1.0 there,
    # the serial refresh before b's first step replaced it with the fresh 0.0
    assert trace["b.inp"][0] == 1.0
    assert trace["b.inp"][1] == 0.0


# -- lifecycle and settings ---------------------------------------------------------


def test_register_after_initialize_rejected(stepped_order):
    master = Master(MasterConfig())
    master.register(Counter("a"))
    master.initialize()
    with pytest.raises(WiringError, match="after initialize"):
        master.register(Counter("b"))
    assert stepped_order(master) == ["a"]


def test_connect_after_initialize_rejected():
    master = Master(MasterConfig())
    master.register(Counter("a"))
    master.register(Counter("b"))
    master.initialize()
    with pytest.raises(WiringError, match="after initialize"):
        master.connect("a.idx", "b.inp")


def test_second_run_rejected():
    master = _counters(Scheme.SERIAL, 3)
    trace, _ = master.run()
    assert list(trace.time) == pytest.approx([0.0, 0.001, 0.002, 0.003])
    with pytest.raises(InitializationError, match="already run"):
        master.run()


def test_initialize_after_run_rejected():
    # re-initializing would reset the step counter and let run() start
    # again at t=0 on components that have already advanced
    master = _counters(Scheme.SERIAL, 3)
    master.run()
    with pytest.raises(InitializationError, match="already stepped"):
        master.initialize()
    assert master.current_step == 3
    with pytest.raises(InitializationError, match="already run"):
        master.run()


def test_run_after_explicit_initialize_is_allowed():
    master = _counters(Scheme.SERIAL, 3)
    master.initialize()
    trace, _ = master.run()
    assert list(trace["a.idx"]) == [0, 1, 2, 3]


@pytest.mark.parametrize("settings", [
    dict(macro_step=math.nan),
    dict(t_end=math.nan),
    dict(t_end=math.inf),
])
def test_non_finite_master_settings_rejected(settings):
    with pytest.raises(ValueError, match="finite"):
        MasterConfig(**settings)


# -- exchange -----------------------------------------------------------------------


class Typed(SimComponent):
    """One input and one output of each kind; outputs start with foreign numeric types."""

    def __init__(self, cid):
        super().__init__(cid)
        self.declare_output("x", VarKind.REAL, start=3)
        self.declare_output("n", VarKind.INT, start=2.0)
        self.declare_output("flag", VarKind.BOOL, start=1)
        self.declare_input("x_in", VarKind.REAL, start=0)
        self.declare_input("n_in", VarKind.INT, start=0.0)
        self.declare_input("flag_in", VarKind.BOOL, start=0)

    def _do_step(self, t, dt):
        pass


@pytest.mark.parametrize("scheme", [Scheme.SERIAL, Scheme.PARALLEL])
def test_exchange_casts_to_sink_kind(scheme):
    cfg = MasterConfig(macro_step=1e-3, t_end=2e-3, scheme=scheme)
    master = Master(cfg)
    a, b = Typed("a"), Typed("b")
    master.register(a)
    master.register(b)
    master.connect("a.x", "b.x_in")
    master.connect("a.n", "b.n_in")
    master.connect("a.flag", "b.flag_in")
    master.connect("b.x", "a.x_in")
    master.initialize()
    for _ in range(2):
        for comp, src in ((b, a), (a, b)):
            assert type(comp.get("x_in")) is float and comp.get("x_in") == src.get("x")
        assert type(b.get("n_in")) is int and b.get("n_in") == 2
        assert b.get("flag_in") is True
        master.step_macro()


class Emitter(SimComponent):
    """Publishes row k of ``ROWS`` at its k-th step; row 0 holds the start values."""

    ROWS = [(0.25, 3, False), (-0.0, -4, True), (1e-310, 7, False), (-2.5, 0, True)]

    def __init__(self, cid):
        super().__init__(cid)
        x, n, flag = self.ROWS[0]
        self.declare_output("x", start=x)
        self.declare_output("n", VarKind.INT, start=n)
        self.declare_output("flag", VarKind.BOOL, start=flag)
        self.k = 0

    def _do_step(self, t, dt):
        self.k += 1
        for name, value in zip(("x", "n", "flag"), self.ROWS[self.k]):
            self._values[self.ref(name).vr] = value


class Receiver(SimComponent):
    """Records the inputs it sees at each step."""

    INPUTS = (("x_in", VarKind.REAL), ("n_in", VarKind.INT), ("flag_in", VarKind.BOOL))

    def __init__(self, cid):
        super().__init__(cid)
        for name, kind in self.INPUTS:
            self.declare_input(name, kind)
        self.seen = []

    def _do_step(self, t, dt):
        self.seen.append(tuple(self._values[self.ref(name).vr] for name, _ in self.INPUTS))


@pytest.mark.parametrize("scheme", [Scheme.SERIAL, Scheme.PARALLEL])
def test_every_edge_is_a_copy(scheme):
    master = Master(MasterConfig(macro_step=1e-3, t_end=3e-3, scheme=scheme))
    src = master.register(Emitter("src"))
    dst = master.register(Receiver("dst"))
    master.connect("src.x", "dst.x_in")
    master.connect("src.n", "dst.n_in")
    master.connect("src.flag", "dst.flag_in")
    master.initialize()
    (_, _, lagged, fresh, _), = [entry for entry in master._plan if entry[0] is dst]
    copies, none = (fresh, lagged) if scheme is Scheme.SERIAL else (lagged, fresh)
    assert none == ()
    assert [master._plan[s][0] for s, _, _ in copies] == [src] * 3
    assert [vr for _, _, vr in copies] == [dst.ref(name).vr for name, _ in Receiver.INPUTS]
    for _ in range(3):
        master.step_macro()
    lag = 0 if scheme is Scheme.SERIAL else 1
    assert len(dst.seen) == 3
    for k, (copy, n, flag) in enumerate(dst.seen, start=1):
        x, n_src, flag_src = Emitter.ROWS[k - lag]
        assert copy.hex() == x.hex(), k          # -0.0 arrives as -0.0, not 1.0 * x + 0.0
        assert type(n) is int and n == n_src, k
        assert type(flag) is bool and flag is flag_src, k


def _instantiated(sc, scheme):
    return instantiate(dataclasses.replace(sc, master=dataclasses.replace(sc.master,
                                                                          scheme=scheme)))


def _initialized(sc, scheme):
    master = _instantiated(sc, scheme)
    master.initialize()
    return master


def _split_edges(master):
    """The compiled plan's (lagged, fresh) edges, each as 'source -> sink' by name."""
    def name(comp, vr):
        return f"{comp.component_id}.{comp.variables()[vr].name}"

    split = (set(), set())
    for sink, _, *edges, _ in master._plan:
        for named, copies in zip(split, edges):
            named.update(f"{name(master._plan[s][0], src_vr)} -> {name(sink, vr)}"
                         for s, src_vr, vr in copies)
    return split


SMALL_SCALE_BACK_EDGES = {
    "conv_wpp.i_d_cmd -> grid.i_d_wpp",
    "conv_wpp.i_q_cmd -> grid.i_q_wpp",
    "frt_wpp.mode -> conv_wpp.frt_mode",
    "frt_wpp.block_active -> conv_wpp.block_active",
    "frt_wpp.i_q_boost -> conv_wpp.i_q_boost",
    "frt_wpp.i_d_ref_limited -> conv_wpp.i_d_ref_frt",
}


def test_compile_names_the_lagged_edges_of_small_scale():
    sc = parse_scenario(SCENARIO_DIR / "small_scale.scn")
    every = {f"{c.source} -> {c.sink}" for c in sc.connections}
    assert len(every) == 11
    lagged, fresh = _split_edges(_initialized(sc, Scheme.SERIAL))
    assert lagged == SMALL_SCALE_BACK_EDGES       # 2 converter -> grid, 4 FRT -> converter
    assert fresh == every - SMALL_SCALE_BACK_EDGES
    assert _split_edges(_initialized(sc, Scheme.PARALLEL)) == (every, set())


@pytest.mark.parametrize("scheme, n_lagged, n_fresh", [(Scheme.SERIAL, 192, 160),
                                                       (Scheme.PARALLEL, 352, 0)])
def test_compile_splits_the_large_scale_edges(scheme, n_lagged, n_fresh):
    lagged, fresh = _split_edges(_initialized(build_large_scale(t_end=0.01), scheme))
    assert (len(lagged), len(fresh)) == (n_lagged, n_fresh)


@pytest.mark.parametrize("build", [build_monolithic, build_small_scale])
def test_component_values_are_addressed_by_value_reference(build):
    sc = build(t_end=0.01)
    master = instantiate(sc)
    master.initialize()
    for _ in range(3):
        master.step_macro()
    comps = [master.component(cid) for cid in sc.component_ids()]
    kinds = {GridComponent} if build is build_monolithic else \
        {GridComponent, ConverterComponent, FrtComponent}
    assert {type(comp) for comp in comps} == kinds
    for comp in comps:
        refs = comp.variables()
        assert [ref.vr for ref in refs] == list(range(len(comp._values)))
        for ref in refs:
            assert comp._values[ref.vr] == comp.get(ref.name), ref
            assert comp.ref(ref.name) is ref
    # the step bodies wrote their outputs to their own slots
    grid = master.component("grid")
    assert grid.get("v_pcc") == grid.model.last_measurements.pcc_v
    assert grid.get("p_balance_residual") == grid.model.last_measurements.balance.residual
    if build is build_monolithic:
        conv, sup = grid.embedded["wpp"]
        assert (grid.get("i_d_wpp"), grid.get("i_q_wpp")) == (conv.i_d_cmd, conv.i_q_cmd)
        assert grid.get("mode_wpp") == int(sup.mode)
    else:
        conv = master.component("conv_wpp")
        assert (conv.get("i_d_cmd"), conv.get("i_q_cmd")) == \
            (conv.control.i_d_cmd, conv.control.i_q_cmd)
        sup = master.component("frt_wpp")
        assert (sup.get("mode"), sup.get("i_d_ref_limited")) == \
            (int(sup.control.mode), sup.control.i_d_ref)
    for comp in comps:
        for ref in comp.variables():       # set writes the same slot, cast to its kind
            before = list(comp._values)
            comp.set(ref.name, 1)
            cast = {VarKind.REAL: float, VarKind.INT: int, VarKind.BOOL: bool}[ref.kind]
            assert type(comp._values[ref.vr]) is cast and comp._values[ref.vr] == 1, ref
            assert comp._values[:ref.vr] + comp._values[ref.vr + 1:] == \
                before[:ref.vr] + before[ref.vr + 1:], ref
        for access in (comp.get, comp.ref, lambda name: comp.set(name, 0.0)):
            with pytest.raises(UnknownVariableError, match="nope"):
                access("nope")


def _poison_embedded_converter(master):
    master.component("grid").embedded["wpp"][0].p_ref = math.nan


def _poison_grid_command(master):
    master.component("conv_wpp").set("i_d_cmd", math.nan)


def _poison_converter(master):
    master.component("conv_wpp").control.p_ref = math.nan


def _poison_supervisor(master):
    master.component("frt_wpp").control.i_d_ref = math.nan


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("scheme", [Scheme.SERIAL, Scheme.PARALLEL])
@pytest.mark.parametrize("build, poison, cid, output", [
    (build_monolithic, _poison_embedded_converter, "grid", "i_d_wpp"),
    (build_small_scale, _poison_grid_command, "grid", "v_wpp"),
    (build_small_scale, _poison_converter, "conv_wpp", "i_d_cmd"),
    (build_small_scale, _poison_supervisor, "frt_wpp", "i_d_ref_limited"),
])
def test_nan_output_fails_the_macro_step_naming_it(scheme, build, poison, cid, output):
    master = _initialized(build(t_end=0.01), scheme)
    master.step_macro()
    poison(master)
    with pytest.raises(ComponentStepError, match=f"output '{output}' is not finite") as exc:
        master.step_macro()
    assert exc.value.component_id == cid
    comp = master.component(cid)
    first_bad = next(ref.name for ref in comp.variables()
                     if ref.kind is VarKind.REAL and ref.direction is Direction.OUTPUT
                     and not math.isfinite(comp.get(ref.name)))
    assert first_bad == output


class EquilibriumExploder(RealRelay):
    def equilibrate(self):
        self.set("out", math.nan)


def test_non_finite_output_detected_during_initialization():
    master = Master(MasterConfig())
    master.register(RealRelay("a"))
    master.register(EquilibriumExploder("b"))
    master.connect("a.out", "b.inp")
    with pytest.raises(ComponentStepError, match="'out' is not finite") as exc:
        master.initialize()
    assert exc.value.component_id == "b"


class SecondOutputExploder(SimComponent):
    """Its first real output stays finite; the second is NaN from step ``blow_at`` on."""

    def __init__(self, cid, blow_at):
        super().__init__(cid)
        self.blow_at = blow_at
        self.n = 0
        self.declare_output("fine", start=0.0)
        self.declare_output("out", start=0.0)

    def _do_step(self, t, dt):
        self.n += 1
        self.set("fine", float(self.n))
        self.set("out", math.nan if self.n >= self.blow_at else float(self.n))


def _assert_first_failure_named(scheme):
    # both exploders fail in the fourth step; only the one registered first,
    # which steps first, is named
    master = Master(MasterConfig(macro_step=1e-3, t_end=10e-3, scheme=scheme))
    master.register(SecondOutputExploder("early", blow_at=4))
    master.register(Exploder("late", blow_at=4))
    master.register(RealRelay("r"))
    master.connect("early.fine", "r.inp")
    with pytest.raises(ComponentStepError, match=r"output 'out' is not finite \(nan\)") as exc:
        master.run()
    assert exc.value.component_id == "early"
    assert exc.value.time == 3e-3 + 1e-3          # t + dt of the failing step
    assert "at t=0.004000" in str(exc.value)
    assert master.current_step == 3


def test_non_finite_output_detected_in_parallel_scheme():
    _assert_first_failure_named(Scheme.PARALLEL)


def test_non_finite_output_detected_in_serial_scheme():
    _assert_first_failure_named(Scheme.SERIAL)


@pytest.mark.parametrize("scheme", [Scheme.SERIAL, Scheme.PARALLEL])
def test_large_scale_repeats_bit_identically(scheme):
    sc = build_large_scale(t_end=0.02, fault=FaultEvent(bus=6, start=0.005, duration=0.005))
    trace_a, _ = run_scenario(sc, scheme=scheme)
    trace_b, _ = run_scenario(sc, scheme=scheme)
    assert trace_a.names() == trace_b.names()
    for name in trace_a.names():
        assert np.array_equal(trace_a[name], trace_b[name]), name


# -- compiled macro step ------------------------------------------------------------


def _step_by_loops(master):
    """Reference macro step: the plan walked by interpreted loops (lagged edges,
    then per component its fresh edges, its step and its output check)."""
    dt = master.config.macro_step
    t = master.current_step * dt
    isfinite = math.isfinite
    sources = [values for _, values, *_ in master._plan]
    for _, values, lagged, _, _ in master._plan:
        for s, src_vr, vr in lagged:
            values[vr] = sources[s][src_vr]
    for comp, values, _, fresh, outputs in master._plan:
        for s, src_vr, vr in fresh:
            values[vr] = sources[s][src_vr]
        comp.step(t, dt)
        for vr in outputs:
            if not isfinite(values[vr]):
                _check_finite(comp, values, outputs, t + dt)
    master.current_step += 1


def _bits(master):
    """Every component's value list, each value as its type and exact bits."""
    return [[(type(v).__name__, v.hex() if type(v) is float else v) for v in values]
            for _, values, *_ in master._plan]


class Ticker(SimComponent):
    """No inputs and no real outputs: counts its steps on an integer output."""

    def __init__(self, cid):
        super().__init__(cid)
        self.declare_output("ticks", VarKind.INT, start=0)

    def _do_step(self, t, dt):
        self.set("ticks", self.get("ticks") + 1)


def _typed_graph(scheme):
    # REAL, INT and BOOL edges into a sink registered before the source (lagged
    # under both schemes) and one registered after it (fresh under serial)
    master = Master(MasterConfig(macro_step=1e-3, t_end=3e-3, scheme=scheme))
    master.register(Receiver("before"))
    master.register(Ticker("tick"))
    master.register(Emitter("src"))
    master.register(Receiver("after"))
    for sink in ("before", "after"):
        for name in ("x", "n", "flag"):
            master.connect(f"src.{name}", f"{sink}.{name}_in")
    return master


def _unconnected(scheme):
    master = Master(MasterConfig(scheme=scheme))
    master.register(Mixer("m0", coeff=0.4))
    master.register(Mixer("m1", coeff=1.3))
    return master


def _large_scale(scheme):
    return _instantiated(parse_scenario(SCENARIO_DIR / "large_scale.scn"), scheme)


@pytest.mark.parametrize("scheme", [Scheme.SERIAL, Scheme.PARALLEL])
@pytest.mark.parametrize("build, n_steps", [
    *((lambda scheme, seed=seed: build_random_graph(seed, scheme=scheme), 30)
      for seed in range(6)),
    (_typed_graph, 3),
    (lambda scheme: _counters(scheme, 5), 5),
    (_unconnected, 5),
    (_large_scale, 20),
], ids=[*(f"random{seed}" for seed in range(6)), "typed", "self_edge", "no_edges",
        "large_scale"])
def test_compiled_step_matches_the_interpreted_loops_bit_for_bit(build, n_steps, scheme):
    compiled, looped = build(scheme), build(scheme)
    for master in (compiled, looped):
        master.initialize()
    assert _bits(compiled) == _bits(looped)
    for k in range(n_steps):
        compiled.step_macro()
        _step_by_loops(looped)
        assert _bits(compiled) == _bits(looped), k
    assert compiled.current_step == looped.current_step == n_steps


def test_compiled_step_is_shared_by_plan_shape():
    a, b = (_initialized(parse_scenario(SCENARIO_DIR / "large_scale.scn"), Scheme.SERIAL)
            for _ in range(2))
    assert a._step is not b._step and a._step.__code__ is b._step.__code__
    others = [_initialized(parse_scenario(SCENARIO_DIR / "large_scale.scn"), Scheme.PARALLEL),
              _initialized(parse_scenario(SCENARIO_DIR / "small_scale.scn"), Scheme.SERIAL)]
    assert len({a._step.__code__, *(m._step.__code__ for m in others)}) == 3
    # the source holds the plan's integers and nothing else
    assert {type(c) for c in a._step.__code__.co_consts} <= {int, type(None)}


def test_a_component_id_never_reaches_the_compiled_step():
    def mixer_pair(cid):
        master = Master(MasterConfig(macro_step=1e-3, t_end=5e-3,
                                     record=[f"{cid}.out", "m.out"]))
        master.register(Mixer(cid, coeff=0.7))
        master.register(Mixer("m", coeff=1.1))
        master.connect(f"{cid}.out", "m.inp")
        master.connect("m.out", f"{cid}.inp")
        return master

    odd = "q'\"\n#x"
    odd_trace, meta = mixer_pair(odd).run()
    plain_trace, _ = mixer_pair("plain").run()
    assert meta.steps == 5 and odd_trace.names() == [f"{odd}.out", "m.out"]
    assert np.array_equal(odd_trace[f"{odd}.out"], plain_trace["plain.out"])
    assert np.array_equal(odd_trace["m.out"], plain_trace["m.out"])


class Tally(RealRelay):
    """A relay that counts its steps; its second real output turns NaN at step ``blow_at``."""

    def __init__(self, cid, blow_at=None):
        super().__init__(cid)
        self.declare_output("bad", start=0.0)
        self.blow_at = blow_at
        self.n = 0

    def _do_step(self, t, dt):
        super()._do_step(t, dt)
        self.n += 1
        if self.n == self.blow_at:
            self.set("bad", math.nan)


@pytest.mark.parametrize("scheme", [Scheme.SERIAL, Scheme.PARALLEL])
def test_a_poisoned_middle_component_stops_the_macro_step_after_it(scheme):
    master = Master(MasterConfig(macro_step=1e-3, t_end=10e-3, scheme=scheme))
    comps = [master.register(Tally(f"r{i}", blow_at=3 if i == 2 else None)) for i in range(5)]
    for i in range(5):                        # a ring: four forward edges and one back-edge
        master.connect(f"r{i - 1 if i else 4}.out", f"r{i}.inp")
    master.initialize()
    master.step_macro()
    master.step_macro()
    with pytest.raises(ComponentStepError, match=r"output 'bad' is not finite \(nan\)") as exc:
        master.step_macro()
    assert exc.value.component_id == "r2"
    assert exc.value.time == 2e-3 + 1e-3      # t + dt of the failing step
    assert [comp.n for comp in comps] == [3, 3, 3, 2, 2]
    assert master.current_step == 2
