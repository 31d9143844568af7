"""Acceptance run: eight end-to-end criteria, one verdict line each.

Every test exercises one criterion at its stated tolerance and wall-clock
budget and prints a single ``acceptance k/8 <name>: PASS|FAIL`` line with
the measured numbers.  Run ``pytest tests/test_acceptance.py -v -s`` to
see the verdicts; a plain ``pytest`` run still enforces them.
"""

import math
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from oracles import branch_loss_pu, naive_power_flow, two_bus_voltage
from windcosim.collector import CollectorString, WppLayout, string_equivalent
from windcosim.compare import compare_traces, fault_edge_times, oscillation_metrics
from windcosim.converter import Priority, current_limit
from windcosim.cosim import Master, MasterConfig, Scheme, SimComponent, VarKind
from windcosim.dynamics import RmsModel
from windcosim.frt import Mode, envelope_check
from windcosim.network import (Branch, Bus, FaultEvent, NetworkData,
                               StaticGenerator, SynchronousMachine, assemble_ybus,
                               branch_stamps)
from windcosim.powerflow import solve_power_flow
from windcosim.scenario import (COLLECTOR_BUS, build_large_scale,
                                build_small_scale, run_scenario)
from windcosim.scenario_io import parse_scenario
from windcosim.wscc9 import wscc9_without_g3

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _ybus(net):
    return assemble_ybus(branch_stamps(net), len(net.buses))


def _verdict(num: int, name: str, checks: dict[str, bool], detail: str,
             wall: float, budget_s: float) -> None:
    checks = dict(checks)
    checks[f"wall clock under {budget_s:g} s"] = wall < budget_s
    ok = all(checks.values())
    line = (f"acceptance {num}/8 {name}: {'PASS' if ok else 'FAIL'}  "
            f"{detail}  [wall {wall:.2f} s / budget {budget_s:g} s]")
    print("\n" + line)
    failed = [k for k, v in checks.items() if not v]
    assert ok, f"{line}\n  failed: {failed}"


def _shipped(name: str):
    return parse_scenario(str(SCENARIO_DIR / name))


# -- 1: exchange lag laws -------------------------------------------------------


class _Probe(SimComponent):
    """Publishes its step index and the input value it saw while stepping."""

    def __init__(self, cid):
        super().__init__(cid)
        self.declare_input("inp", VarKind.INT, start=-1)
        self.declare_output("idx", VarKind.INT, start=0)
        self.declare_output("seen", VarKind.INT, start=-1)

    def _do_step(self, t, dt):
        self.set("seen", self.get("inp"))
        self.set("idx", self.get("idx") + 1)


def _probe_pair(scheme, n_steps):
    cfg = MasterConfig(macro_step=1e-3, t_end=n_steps * 1e-3, scheme=scheme,
                       record=["a.seen", "b.seen"])
    master = Master(cfg)
    master.register(_Probe("a"))
    master.register(_Probe("b"))
    master.connect("a.idx", "b.inp")   # forward edge: to a later-registered component
    master.connect("b.idx", "a.inp")   # back edge closes the cycle
    return master.run()


def test_c1_exchange_lag_laws():
    t0 = time.perf_counter()
    n = 1000
    serial, meta_s = _probe_pair(Scheme.SERIAL, n)
    par, meta_p = _probe_pair(Scheme.PARALLEL, n)
    k = np.arange(n + 1, dtype=float)
    checks = {
        "at least 1000 steps": meta_s.steps == n and meta_p.steps == n,
        "serial forward edge carries the current step":
            np.array_equal(serial["b.seen"][1:], k[1:]),
        "serial back edge lags exactly one step":
            np.array_equal(serial["a.seen"][1:], k[:-1]),
        "parallel edges all lag exactly one step":
            np.array_equal(par["a.seen"][1:], k[:-1])
            and np.array_equal(par["b.seen"][1:], k[:-1]),
    }
    _verdict(1, "exchange-lag-laws", checks,
             f"{n} steps checked sample-by-sample in both schemes",
             time.perf_counter() - t0, 1.0)


# -- 2: random cyclic graphs ----------------------------------------------------


class _Mixer(SimComponent):
    """Deterministic nonlinear map, sensitive to input timing."""

    def __init__(self, cid, coeff):
        super().__init__(cid)
        self.coeff = coeff
        self.declare_input("inp", start=0.0)
        self.declare_output("out", start=math.tanh(coeff))

    def _do_step(self, t, dt):
        v = math.sin(self.coeff * self.get("out") + 0.7 * self.get("inp"))
        self.set("out", v + 0.01 * self.coeff)


def _random_graph(seed, n_steps=50):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    scheme = Scheme.SERIAL if rng.random() < 0.5 else Scheme.PARALLEL
    cfg = MasterConfig(macro_step=1e-3, t_end=n_steps * 1e-3, scheme=scheme,
                       record=[f"c{i}.out" for i in range(n)])
    master = Master(cfg)
    for i in range(n):
        master.register(_Mixer(f"c{i}", coeff=rng.uniform(0.2, 2.0)))
    sources = [rng.randrange(n) for _ in range(n)]
    sources[0], sources[1] = 1, 0      # force at least one cycle
    for i, src in enumerate(sources):
        master.connect(f"c{src}.out", f"c{i}.inp")
    return master


def test_c2_random_cyclic_graphs():
    t0 = time.perf_counter()
    n_graphs = 100
    finite = identical = True
    for seed in range(n_graphs):
        trace_a, meta_a = _random_graph(seed).run()
        trace_b, meta_b = _random_graph(seed).run()
        identical &= meta_a.steps == meta_b.steps == 50
        for name in trace_a.names():
            finite &= bool(np.all(np.isfinite(trace_a[name])))
            identical &= bool(np.array_equal(trace_a[name], trace_b[name]))
    checks = {
        "all graphs complete with finite outputs": finite,
        "reruns are bit-identical": identical,
    }
    _verdict(2, "random-cyclic-graphs", checks,
             f"{n_graphs} seeded graphs, 2-8 components, both schemes",
             time.perf_counter() - t0, 30.0)


# -- 3: power flow against oracles ------------------------------------------------


def test_c3_power_flow_oracles():
    t0 = time.perf_counter()
    worst_two_bus = 0.0
    iters_ok = True
    for p, q in [(0.5, 0.1), (0.8, -0.2), (0.0, 0.0), (0.3, 0.4)]:
        net = NetworkData(
            name="radial",
            buses=[Bus(id=1, base_kv=110.0, btype="slack", v_set=1.0),
                   Bus(id=2, base_kv=110.0)],
            branches=[Branch(from_bus=1, to_bus=2, r=0.02, x=0.08)],
            sgens=[StaticGenerator(id="inj", bus=2, mva=100.0)])
        res = solve_power_flow(net, _ybus(net), {"inj": (p, q)})
        expected = two_bus_voltage(p, q, r=0.02, x=0.08)
        worst_two_bus = max(worst_two_bus, abs(res.voltage(2) - expected))
        iters_ok &= res.iterations <= 10

    net9 = replace(wscc9_without_g3(), sgens=[StaticGenerator(id="wpp", bus=3, mva=100.0)])
    res9 = solve_power_flow(net9, _ybus(net9), {"wpp": (0.85, 0.0)})
    bus_ids, v_oracle = naive_power_flow(net9, {"wpp": (0.85, 0.0)})
    nine_dev = float(np.max(np.abs(res9.v - v_oracle)))
    checks = {
        "two-bus solution within 1e-8 of closed form": worst_two_bus < 1e-8,
        "nine-bus solution within 1e-6 of dense oracle":
            bus_ids == res9.bus_ids and nine_dev < 1e-6,
        "Newton converges in at most 10 iterations":
            iters_ok and res9.iterations <= 10,
    }
    _verdict(3, "power-flow-oracles", checks,
             f"two-bus dev {worst_two_bus:.2e}, nine-bus dev {nine_dev:.2e}, "
             f"{res9.iterations} iterations",
             time.perf_counter() - t0, 1.0)


# -- 4: aggregated co-simulation vs monolithic -------------------------------------


def test_c4_cosim_matches_monolithic():
    t0 = time.perf_counter()
    mono = _shipped("monolithic.scn")
    small = _shipped("small_scale.scn")
    tol_p = 0.02 * mono.wpp_rating_mva     # 2 % of rated power, in MW
    tol_v = 0.03

    def deviations(macro):
        trace_a, meta = run_scenario(mono, macro_step=macro)
        trace_b, _ = run_scenario(small, macro_step=macro)
        events = []
        for ev in meta.events:
            events += [ev["start"], ev["start"] + ev["duration"]]
        rep = compare_traces(trace_a, trace_b, ["grid.p_wpp_mw", "grid.v_pcc"],
                             event_times=events, exclude_steps=3)
        return {c.channel: c.max_abs for c in rep.channels}

    full = deviations(None)                # shipped 1 ms macro step
    half = deviations(5e-4)
    checks = {
        "plant power within 2% of rating outside fault edges":
            full["grid.p_wpp_mw"] < tol_p,
        "PCC voltage within 3% outside fault edges": full["grid.v_pcc"] < tol_v,
        "halving the macro step reduces the power deviation":
            half["grid.p_wpp_mw"] < full["grid.p_wpp_mw"],
        "halving the macro step reduces the voltage deviation":
            half["grid.v_pcc"] < full["grid.v_pcc"],
    }
    _verdict(4, "cosim-vs-monolithic", checks,
             f"dP {full['grid.p_wpp_mw']:.3g}->{half['grid.p_wpp_mw']:.3g} MW "
             f"(tol {tol_p:g}), dV {full['grid.v_pcc']:.3g}->"
             f"{half['grid.v_pcc']:.3g} pu (tol {tol_v:g})",
             time.perf_counter() - t0, 60.0)


def test_coupling_error_converges():
    """The co-simulation error is first order in the macro step ``h``.

    The shipped serial plan steps the grid first, so only the grid's back-edge
    lags and the plant is bit-identical to the monolithic run at 0.5 ms.  The
    parallel scheme lags every edge, which costs about one more ``h``.  A window
    of ``max(10 ms, 3 h)`` around each fault edge is excluded.
    """
    mono = _shipped("monolithic.scn")
    small = _shipped("small_scale.scn")

    def deviation(h, scheme):
        ref, meta = run_scenario(mono, macro_step=h)
        trace, _ = run_scenario(small, macro_step=h, scheme=scheme)
        rep = compare_traces(ref, trace, ["grid.p_wpp_mw"],
                             event_times=fault_edge_times(meta.events),
                             exclude_steps=max(round(10e-3 / h), 3))
        return rep.channels[0].max_abs, rep.channels[0].rms

    steps = (1e-3, 2e-3, 4e-3)
    dev = {(h, scheme): deviation(h, scheme) for h in steps for scheme in Scheme}
    for scheme in Scheme:
        for h in steps[:-1]:
            for coarse, fine in zip(dev[2 * h, scheme], dev[h, scheme]):
                assert coarse >= 1.8 * fine, (scheme, h, dev)
    for h in steps[:-1]:
        for lagged, serial in zip(dev[h, Scheme.PARALLEL], dev[2 * h, Scheme.SERIAL]):
            assert abs(lagged - serial) <= 0.1 * serial, (h, dev)
    assert deviation(5e-4, Scheme.SERIAL) == (0.0, 0.0)


# -- 5: fault ride-through sequence -------------------------------------------------


def test_c5_frt_sequence_and_ramp():
    t0 = time.perf_counter()
    sc = _shipped("small_scale.scn")
    dt = 5e-4
    trace, meta = run_scenario(sc, macro_step=dt, t_end=3.0)
    t = trace.time
    mode = trace["frt_wpp.mode"]
    i_d = trace["conv_wpp.i_d_cmd"]
    i_q = trace["conv_wpp.i_q_cmd"]
    ev = meta.events[0]
    t_on = ev["start"]
    t_clear = ev["start"] + ev["duration"]

    pre = t < t_on - 1e-12
    latch = float(i_d[pre][-1])            # last healthy active command
    # the converter sees the blocking signal one exchange after fault entry,
    # so the strict window starts one macro step past the onset sample
    strict = (t >= t_on + dt - 1e-12) & (t <= t_clear + 1e-12)

    checks = {}
    checks["mode is FAULT throughout the dip"] = \
        bool(np.all(mode[strict] == float(Mode.FAULT)))
    checks["active command identically zero while faulted"] = \
        bool(np.all(i_d[strict] == 0.0))
    checks["reactive command elevated while faulted"] = \
        float(np.min(i_q[strict])) > float(np.max(np.abs(i_q[pre]))) + 0.5

    rec = np.where(mode == float(Mode.RECOVERY))[0]
    checks["controller enters RECOVERY after clearance"] = rec.size > 0
    t_rec = float(t[rec[0]])
    back = np.where((mode == float(Mode.NORMAL)) & (t > t_rec))[0]
    checks["controller returns to NORMAL"] = back.size > 0
    t_norm = float(t[back[0]])

    rate = sc.wtgs[0].frt.ramp_rate
    ramp_time = t_norm - t_rec
    closed_form = latch / rate
    checks["ramp duration within one micro step of closed form"] = \
        abs(ramp_time - closed_form) <= sc.micro_step + 1e-9
    k_mid = int(rec[rec.size // 2])
    on_slope = rate * (t[k_mid] - t_rec)
    checks["mid-ramp command on the configured slope"] = \
        abs(i_d[k_mid] - min(on_slope, latch)) <= rate * 2 * dt
    k_after = int(round((t_norm + 10 * dt) / dt))
    checks["post-ramp command lands on the latched value"] = \
        abs(float(i_d[k_after]) - latch) < 0.02

    env = envelope_check(t, np.asarray(trace["grid.v_pcc"]), onset=t_on)
    checks["PCC voltage complies with the ride-through envelope"] = env.compliant

    _verdict(5, "frt-sequence-and-ramp", checks,
             f"latch {latch:.4f} pu, ramp {ramp_time:.4f} s vs closed form "
             f"{closed_form:.4f} s, envelope margin {env.margin:.3f} pu",
             time.perf_counter() - t0, 60.0)


# -- 6: full plant power and damping ------------------------------------------------


def test_c6_large_plant_power_and_damping():
    t0 = time.perf_counter()
    large = _shipped("large_scale.scn")
    trace, meta = run_scenario(large)
    p = trace["grid.p_wpp_mw"]
    steady = (trace.time >= 0.5) & (trace.time < 1.0)
    p_meas = float(np.mean(p[steady]))

    # independent equal-current estimate of the collection losses: the lumped
    # string equivalent plus the park transformer resistance at rated current
    base = large.network.base_mva
    z_coll = WppLayout().equivalent_impedance(base)
    park = next(br for br in large.network.branches
                if {br.from_bus, br.to_bus} == {large.pcc_bus, COLLECTOR_BUS})
    sgen_mva = {sg.id: sg.mva for sg in large.network.sgens}
    p_sched_mw = sum(w.p_ref * sgen_mva[w.id] for w in large.wtgs)
    i_pu = p_sched_mw / base
    loss_mw = (z_coll.real + park.r) * i_pu ** 2 * base
    expected_mw = p_sched_mw - loss_mw
    rel = abs(p_meas - expected_mw) / expected_mw

    small_free = build_small_scale(frt_ramp=False, t_end=4.5)
    large_free = build_large_scale(frt_ramp=False, t_end=4.5)
    tr_s, _ = run_scenario(small_free)
    tr_l, _ = run_scenario(large_free)
    m_s = oscillation_metrics(tr_s.time, tr_s["grid.p_wpp_mw"], 2.0, 4.5,
                              min_amplitude_frac=0.25)
    m_l = oscillation_metrics(tr_l.time, tr_l["grid.p_wpp_mw"], 2.0, 4.5,
                              min_amplitude_frac=0.25)

    checks = {
        "65-component scenario completes the 2 s study":
            meta.components == 65 and meta.steps == 2000
            and bool(np.all(np.isfinite(p))),
        "steady PCC power matches rating minus collector losses within 1%":
            rel < 0.01,
        "both post-fault ringdowns decay":
            m_s.decay_per_cycle > 1.0 and m_l.decay_per_cycle > 1.0,
        "distributed plant decays visibly faster than aggregated":
            m_l.decay_per_cycle >= m_s.decay_per_cycle + 0.005,
    }
    _verdict(6, "large-plant-power-and-damping", checks,
             f"PCC {p_meas:.3f} MW vs {expected_mw:.3f} MW ({100 * rel:.3f}%), "
             f"decay/cycle {m_s.decay_per_cycle:.4f} (aggregated) vs "
             f"{m_l.decay_per_cycle:.4f} (distributed) at "
             f"{m_l.frequency_hz:.2f} Hz",
             time.perf_counter() - t0, 600.0)


# -- 7: numerical integrity -----------------------------------------------------------


def _smib(d=0.0):
    return NetworkData(
        name="smib",
        buses=[Bus(id=1, base_kv=110.0, btype="slack", v_set=1.0),
               Bus(id=2, base_kv=110.0, btype="pv", v_set=1.0, p_gen=0.3)],
        branches=[Branch(from_bus=1, to_bus=2, r=0.0, x=0.1)],
        machines=[SynchronousMachine(bus=2, h=3.0, d=d, xd_p=0.1)])


def _equilibrated(net, sgen_pq, micro_step=5e-4, events=None):
    model = RmsModel(net, micro_step=micro_step, events=events or [])
    pf = solve_power_flow(net, model.ybus, sgen_pq)
    for k, sg in enumerate(net.sgens):
        p, q = sgen_pq.get(sg.id, (0.0, 0.0))
        vm = abs(pf.voltage(sg.bus))
        model.set_sgen_commands(k, p / vm, q / vm, True)
    model.init_equilibrium(pf)
    return model


def test_c7_numerical_integrity():
    t0 = time.perf_counter()

    def delta_at_end(h):
        model = _equilibrated(_smib(), {}, micro_step=h)
        model.delta = model.delta + 0.05
        model.advance(0.0, 0.1)
        return model.delta[0]

    steps = [2e-3, 1e-3, 5e-4, 2.5e-4]
    ref = delta_at_end(2.5e-4 / 16.0)
    errs = [abs(delta_at_end(h) - ref) for h in steps]
    slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])

    trace, _ = run_scenario(_shipped("small_scale.scn"))
    worst_residual = float(np.max(np.abs(trace["grid.p_balance_residual"])))

    rng = np.random.default_rng(20260815)
    i_max = 1.1
    cmds = rng.normal(0.0, 2.0, size=(100_000, 2))
    worst_norm = 0.0
    for k, (d, q) in enumerate(cmds):
        pr = Priority.ACTIVE if k % 2 == 0 else Priority.REACTIVE
        od, oq, _, _ = current_limit(d, q, i_max, pr)
        worst_norm = max(worst_norm, math.hypot(od, oq))

    net = replace(wscc9_without_g3(), sgens=[StaticGenerator(id="wpp", bus=3, mva=100.0)])
    model = _equilibrated(net, {"wpp": (0.85, 0.0)},
                          events=[FaultEvent(bus=6, start=0.05, duration=0.1)])
    v_pre = model.solve_network(0.0)
    v_during = model.solve_network(0.08)
    v_post = model.solve_network(0.3)

    checks = {
        "integrator convergence order at least 3.5": slope >= 3.5,
        "power balance residual below 1e-6 at every recorded step":
            worst_residual < 1e-6,
        "limiter bound holds for 1e5 random commands":
            worst_norm <= i_max * (1.0 + 1e-12),
        "fault application and removal are bitwise exact":
            np.array_equal(v_pre, v_post)
            and not np.array_equal(v_pre, v_during),
    }
    _verdict(7, "numerical-integrity", checks,
             f"order {slope:.2f}, residual {worst_residual:.2e}, "
             f"limiter worst norm {worst_norm:.12f}",
             time.perf_counter() - t0, 60.0)


# -- 8: collector lumping --------------------------------------------------------------


def _string_network(n, z, explicit):
    buses = [Bus(id=1, base_kv=33.0, btype="slack", v_set=1.0),
             Bus(id=2, base_kv=33.0)]
    branches = [Branch(from_bus=1, to_bus=2, r=0.001, x=0.01)]
    sgens = []
    if explicit:
        prev = 2
        for k in range(n):
            bus = 3 + k
            buses.append(Bus(id=bus, base_kv=33.0))
            branches.append(Branch(from_bus=prev, to_bus=bus, r=z.real, x=z.imag))
            sgens.append(StaticGenerator(id=f"t{k + 1}", bus=bus, mva=2.0))
            prev = bus
    else:
        zeq = string_equivalent(CollectorString(segments=(z,) * n))
        buses.append(Bus(id=3, base_kv=33.0))
        branches.append(Branch(from_bus=2, to_bus=3, r=zeq.real, x=zeq.imag))
        sgens.append(StaticGenerator(id="agg", bus=3, mva=2.0 * n))
    return NetworkData(name="string", base_mva=100.0, frequency_hz=50.0,
                       buses=buses, branches=branches, sgens=sgens, machines=[])


def _collector_loss(net, result):
    total = 0.0
    for br in net.branches:
        if br.from_bus == 1:
            continue                       # common feeder branch
        total += branch_loss_pu(br, result.voltage(br.from_bus),
                                result.voltage(br.to_bus))
    return total


def test_c8_collector_lumping():
    t0 = time.perf_counter()
    z = 0.004 + 0.006j
    z_two = string_equivalent(CollectorString(segments=(z, z)))
    exact = z_two == 1.25 * z

    zc = 0.0045 + 0.0054j
    full = _string_network(8, zc, explicit=True)
    res_full = solve_power_flow(full, _ybus(full), {f"t{k}": (0.9, 0.1) for k in range(1, 9)})
    loss_full = _collector_loss(full, res_full)
    lumped = _string_network(8, zc, explicit=False)
    res_lump = solve_power_flow(lumped, _ybus(lumped), {"agg": (0.9, 0.1)})
    loss_lump = _collector_loss(lumped, res_lump)
    rel = abs(loss_lump - loss_full) / loss_full

    checks = {
        "two-turbine equivalent is exactly 1.25 Z": exact,
        "eight-turbine lumped loss within 5% of explicit":
            loss_full > 0.0 and rel < 0.05,
    }
    _verdict(8, "collector-lumping", checks,
             f"Z_eq/Z = {z_two / z:.6g}, loss {loss_full:.5g} vs "
             f"{loss_lump:.5g} pu ({100 * rel:.2f}%)",
             time.perf_counter() - t0, 10.0)
