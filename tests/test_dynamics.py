import dataclasses
import math
import types

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from windcosim import dynamics
from windcosim.dynamics import RmsModel
from windcosim.errors import InitializationError
from windcosim.network import (
    Branch,
    Bus,
    FaultEvent,
    NetworkData,
    StaticGenerator,
    SynchronousMachine,
    fault_shunts,
    ybus_with_shunts,
)
from windcosim.powerflow import solve_power_flow
from windcosim.wscc9 import wscc9_without_g3

from oracles import branch_loss_pu, smib_frequency_hz


def nine_bus_with_plant():
    net = wscc9_without_g3()
    return dataclasses.replace(net, sgens=[StaticGenerator(id="wpp", bus=3, mva=100.0)])


def equilibrated(net, sgen_pq, micro_step=5e-4, events=None, **kw):
    model = RmsModel(net, micro_step=micro_step, events=events or [], **kw)
    pf = solve_power_flow(net, model.ybus, sgen_pq)
    for k, sg in enumerate(net.sgens):
        p, q = sgen_pq.get(sg.id, (0.0, 0.0))
        vm = abs(pf.voltage(sg.bus))
        model.set_sgen_commands(k, p / vm, q / vm)
    model.init_equilibrium(pf)
    return model, pf


def test_equilibrium_is_flat():
    net = nine_bus_with_plant()
    model, pf = equilibrated(net, {"wpp": (0.85, 0.0)})
    v0 = model.last_measurements.v.copy()
    for k in range(100):
        model.advance(k * 1e-3, 1e-3)
    meas = model.last_measurements
    assert np.max(np.abs(meas.v - v0)) < 1e-9
    assert np.max(np.abs(model.domega)) < 1e-12
    assert abs(meas.balance.residual) < 1e-9


def test_init_requires_matching_power_flow():
    net = nine_bus_with_plant()
    model = RmsModel(net)
    pf = solve_power_flow(net, model.ybus, {"wpp": (0.85, 0.0)})
    # commands left at zero contradict the scheduled injection
    with pytest.raises(InitializationError):
        model.init_equilibrium(pf)


def test_use_before_init_rejected():
    with pytest.raises(InitializationError):
        RmsModel(nine_bus_with_plant()).solve_network()


def test_bad_micro_step_rejected():
    with pytest.raises(ValueError):
        RmsModel(nine_bus_with_plant(), micro_step=0.0)


@pytest.mark.parametrize("micro_step", [math.nan, math.inf, -1e-3])
def test_non_finite_or_negative_micro_step_rejected(micro_step):
    with pytest.raises(ValueError):
        RmsModel(nine_bus_with_plant(), micro_step=micro_step)


@pytest.mark.parametrize("duration, micro_step", [
    (1e-3, 5e-324), (1e-3, 0.0), (math.inf, 5e-4), (math.nan, 5e-4)])
def test_micro_grid_rejects_a_split_without_a_finite_step_count(duration, micro_step):
    with pytest.raises(ValueError):
        dynamics.micro_grid(duration, micro_step)


def smib_network(d=0.0, h=3.0, xd_p=0.1, x_line=0.1, p_gen=0.3):
    return NetworkData(
        name="smib",
        buses=[Bus(id=1, base_kv=110.0, btype="slack", v_set=1.0),
               Bus(id=2, base_kv=110.0, btype="pv", v_set=1.0, p_gen=p_gen)],
        branches=[Branch(from_bus=1, to_bus=2, r=0.0, x=x_line)],
        machines=[SynchronousMachine(bus=2, h=h, d=d, xd_p=xd_p)],
    )


def _zero_cross_times(t, y):
    out = []
    for i in range(len(y) - 1):
        if y[i] == 0.0 or y[i] * y[i + 1] < 0.0:
            frac = y[i] / (y[i] - y[i + 1])
            out.append(t[i] + frac * (t[i + 1] - t[i]))
    return out


def test_swing_frequency_matches_closed_form():
    # undamped machine against the stiff slack source: measured ringdown
    # frequency must match the linearized synchronizing-torque formula
    net = smib_network(d=0.0)
    model, pf = equilibrated(net, {})
    model.delta = model.delta + 0.01    # small kick
    ts, ys = [], []
    dt = 1e-3
    for k in range(4000):
        model.advance(k * dt, dt)
        ts.append(model.last_measurements.t)
        ys.append(model.domega[0])
    crossings = _zero_cross_times(np.array(ts), np.array(ys))
    assert len(crossings) > 10
    f_measured = (len(crossings) - 1) / (2.0 * (crossings[-1] - crossings[0]))

    x_total = 0.1 + 0.1 + 1e-6          # xd_p + line + stiff source
    delta0 = model.delta[0] - 0.01 - np.angle(complex(np.real(model._slack_e),
                                                      np.imag(model._slack_e)))
    f_expected = smib_frequency_hz(h_s=3.0, e1=model.e_mag[0],
                                   e2=abs(model._slack_e),
                                   x_total=x_total, delta0=delta0,
                                   omega_s=net.omega_s)
    assert f_measured == pytest.approx(f_expected, rel=0.02)


def test_damping_removes_energy():
    # sigma = D/(4H); D=30, H=3 damps the swing by ~exp(-2.5) over 1 s
    def swing_energy(d):
        model, _ = equilibrated(smib_network(d=d), {})
        model.delta = model.delta + 0.05
        total = 0.0
        for k in range(1500):
            model.advance(k * 1e-3, 1e-3)
            total += model.domega[0] ** 2
        return total

    assert swing_energy(30.0) < 0.3 * swing_energy(0.0)


def test_rk4_convergence_order():
    # one smooth swing, no faults: global error at T must shrink ~h^4
    T = 0.1
    steps = [2e-3, 1e-3, 5e-4, 2.5e-4]

    def delta_at_end(h):
        model, _ = equilibrated(smib_network(d=0.0), {}, micro_step=h)
        model.delta = model.delta + 0.05
        model.advance(0.0, T)
        return model.delta[0]

    ref = delta_at_end(2.5e-4 / 16.0)
    errs = [abs(delta_at_end(h) - ref) for h in steps]
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert slope > 3.5, f"observed order {slope:.2f}"


def test_balance_residual_through_fault():
    net = nine_bus_with_plant()
    events = [FaultEvent(bus=6, start=0.05, duration=0.1, admittance=1e6)]
    model, _ = equilibrated(net, {"wpp": (0.85, 0.0)}, events=events)
    worst = 0.0
    for k in range(400):
        model.advance(k * 5e-4, 5e-4)
        worst = max(worst, abs(model.last_measurements.balance.residual))
        assert np.all(np.isfinite(model.last_measurements.v))
    assert worst < 1e-6


def test_fault_add_remove_restores_factorization():
    net = nine_bus_with_plant()
    events = [FaultEvent(bus=6, start=0.05, duration=0.1)]
    model, _ = equilibrated(net, {"wpp": (0.85, 0.0)}, events=events)
    lu_pre, shunts_pre = model._lu_at(0.0)
    lu_fault, shunts_fault = model._lu_at(0.08)
    lu_post, shunts_post = model._lu_at(0.2)
    assert shunts_pre == {} and shunts_post == {}
    assert shunts_fault != {}
    assert lu_post is lu_pre, "clearing the fault must reuse the pre-fault factorization"
    assert lu_fault is not lu_pre
    # identical states + identical factorization => bitwise identical solves
    va = model.solve_network(0.0)
    vb = model.solve_network(0.0)
    assert np.array_equal(va, vb)


def test_on_micro_callback_drives_commands():
    net = nine_bus_with_plant()
    model, pf = equilibrated(net, {"wpp": (0.85, 0.0)})
    calls = []

    def on_micro(t, meas, h):
        calls.append((t, h))
        model.set_sgen_commands(0, 0.0, 0.0)

    model.advance(0.0, 2e-3, on_micro=on_micro)
    assert len(calls) == 4
    assert calls[0] == (0.0, pytest.approx(5e-4))
    # the command issued at the first micro step is live immediately
    assert model.last_measurements.sgen_columns[2] == [0.0]


def test_measurement_without_callback_matches_per_micro_step_commit():
    # without on_micro only the last micro step of each interval is
    # measured; the fault starts inside an interval and clears on an
    # interval boundary, so the factorization carried between micro steps
    # and across intervals changes topology both ways
    events = [FaultEvent(bus=6, start=0.005, duration=0.005)]
    kw = dict(events=events, pcc_bus=3, pcc_branch=(3, 9))
    lazy, _ = equilibrated(nine_bus_with_plant(), {"wpp": (0.85, 0.0)}, **kw)
    eager, _ = equilibrated(nine_bus_with_plant(), {"wpp": (0.85, 0.0)}, **kw)
    for k in range(8):
        a = lazy.advance(k * 2e-3, 2e-3)
        b = eager.advance(k * 2e-3, 2e-3, on_micro=lambda t, meas, h: None)
        assert a is lazy.last_measurements and b is eager.last_measurements
        assert a.t == b.t
        assert np.array_equal(a.v, b.v)
        assert a.sgen_columns == b.sgen_columns
        assert (a.pcc_v, a.pcc_theta, a.p_wpp_mw, a.q_wpp_mvar) == \
            (b.pcc_v, b.pcc_theta, b.p_wpp_mw, b.q_wpp_mvar)
        assert a.balance == b.balance
    assert a.p_wpp_mw != 0.0 and a.balance.loss != 0.0


def test_micro_step_commits_measurement_time():
    model, _ = equilibrated(nine_bus_with_plant(), {"wpp": (0.85, 0.0)})
    model.advance(0.0, 1e-3)
    assert model.last_measurements.t == pytest.approx(1e-3)


def test_branch_losses_match_oracle():
    net = nine_bus_with_plant()
    model, pf = equilibrated(net, {"wpp": (0.85, 0.0)})
    losses = model.branch_losses()
    v = model.last_measurements.v
    idx = net.bus_index()
    for k, br in enumerate(net.branches):
        expected = branch_loss_pu(br, v[idx[br.from_bus]], v[idx[br.to_bus]])
        assert losses[k] == pytest.approx(expected, abs=1e-12)
    assert np.all(losses > -1e-12)


def test_pcc_branch_measurement_consistent_with_losses():
    net = NetworkData(
        name="export",
        buses=[Bus(id=1, base_kv=110.0, btype="slack", v_set=1.0),
               Bus(id=2, base_kv=110.0)],
        branches=[Branch(from_bus=1, to_bus=2, r=0.02, x=0.08)],
        sgens=[StaticGenerator(id="w", bus=2, mva=100.0)],
    )
    sgen_pq = {"w": (0.6, 0.1)}
    model, _ = equilibrated(net, sgen_pq, pcc_bus=1, pcc_branch=(1, 2))
    meas = model.last_measurements
    loss = float(model.branch_losses().sum())
    p_sgen_sys = meas.sgen_columns[2][0]    # machine base == system base here
    assert meas.p_wpp_mw == pytest.approx((p_sgen_sys - loss) * net.base_mva, abs=1e-9)


def test_unknown_pcc_branch_rejected():
    with pytest.raises(InitializationError):
        RmsModel(nine_bus_with_plant(), pcc_branch=(1, 99))


def test_unknown_pcc_bus_rejected():
    with pytest.raises(InitializationError, match="pcc bus 99 not in network"):
        RmsModel(nine_bus_with_plant(), pcc_bus=99)


def test_pcc_branch_is_measured_at_the_pcc_end_in_either_order():
    events = [FaultEvent(bus=6, start=0.002, duration=0.002)]
    runs = []
    for pcc_branch in ((3, 9), (9, 3)):
        model, _ = equilibrated(nine_bus_with_plant(), {"wpp": (0.85, 0.0)}, events=events,
                                pcc_bus=3, pcc_branch=pcc_branch)
        runs.append([(m.p_wpp_mw, m.q_wpp_mvar) for m in
                     (model.advance(k * 1e-3, 1e-3) for k in range(6))])
    assert runs[0] == runs[1]
    assert abs(runs[0][0][0]) > 80.0      # the plant sits on the PCC bus: it exports into the branch
    with pytest.raises(InitializationError, match="does not touch pcc bus 3"):
        RmsModel(nine_bus_with_plant(), pcc_bus=3, pcc_branch=(4, 5))


def test_sgen_currents_match_the_separate_command_formula_bit_for_bit():
    # the stored phasor i_d - 1j i_q gives the bits of (i_d - 1j i_q) * unit * s_scale,
    # also for signed zeros
    net = dataclasses.replace(wscc9_without_g3(), sgens=[
        StaticGenerator(id=f"w{b}", bus=b, mva=10.0 * b) for b in (3, 5, 6, 8, 9)])
    model, _ = equilibrated(net, {sg.id: (0.3, 0.1) for sg in net.sgens})
    n, rng = len(net.sgens), np.random.default_rng(7)
    i_d, i_q = np.zeros(n), np.zeros(n)

    def draw(size):
        x = rng.normal(0.0, 1.0, size)
        x[rng.random(size) < 0.3] = 0.0
        return np.where(rng.random(size) < 0.5, x, -x)      # -x: also -0.0

    def check():
        old = (i_d - 1j * i_q) * model._s_unit * model.s_scale
        assert model._sgen_currents().tobytes() == old.tobytes()

    for _ in range(50):
        d, q = draw(n), draw(n)
        for k in range(n):                                  # each sgen at its position
            model.set_sgen_commands(k, d[k], q[k])
        i_d[:], i_q[:] = d, q
        check()
        k = rng.permutation(n)[:3]                          # several by position
        i_d[k], i_q[k] = draw(3), draw(3)
        model.set_sgen_commands(k, i_d[k], i_q[k])
        check()
        k = int(rng.integers(n))                            # one by position, as numbers
        i_d[k], i_q[k] = float(draw(1)[0]), float(draw(1)[0])
        model.set_sgen_commands(k, float(i_d[k]), float(i_q[k]))
        check()


@settings(max_examples=25, deadline=None)
@given(p=st.floats(-0.9, 0.9), q=st.floats(-0.5, 0.5))
def test_sgen_dq_frame_round_trip(p, q):
    # dispatching (P, Q) on the machine base and commanding the matching
    # d/q currents must reproduce (P, Q) in the committed measurements
    net = NetworkData(
        name="frame",
        buses=[Bus(id=1, base_kv=110.0, btype="slack", v_set=1.0),
               Bus(id=2, base_kv=110.0)],
        branches=[Branch(from_bus=1, to_bus=2, r=0.01, x=0.05)],
        sgens=[StaticGenerator(id="w", bus=2, mva=50.0)],
    )
    sgen_pq = {"w": (p, q)}
    model, pf = equilibrated(net, sgen_pq)
    _, _, (p_meas,), (q_meas,) = model.last_measurements.sgen_columns
    assert p_meas == pytest.approx(p, abs=2e-6)
    assert q_meas == pytest.approx(q, abs=2e-6)
    # and the d/q projections recover the commands
    vm = abs(pf.voltage(2))
    assert p_meas / max(vm, 1e-9) == pytest.approx(p / vm, abs=2e-6)


def test_fault_schedule_matches_fault_shunts(monkeypatch):
    # overlapping faults (buses 6 and 5), back-to-back ones (5, then 8) and
    # two accumulating on bus 6, one of them starting off the micro-step grid
    events = [FaultEvent(bus=6, start=0.002, duration=0.004),
              FaultEvent(bus=5, start=0.004, duration=0.004),
              FaultEvent(bus=8, start=0.008, duration=0.002),
              FaultEvent(bus=6, start=0.00325, duration=0.0015, admittance=5e5)]
    net = nine_bus_with_plant()
    model, _ = equilibrated(net, {"wpp": (0.85, 0.0)}, events=events)
    boundaries = []
    lu_at = model._lu_at

    def recording(t):
        boundaries.append(t)
        return lu_at(t)

    def recomputed(*args):
        raise AssertionError("fault_shunts called while stepping")

    with monkeypatch.context() as patch:
        patch.setattr(model, "_lu_at", recording)
        patch.setattr(dynamics, "fault_shunts", recomputed)
        for k in range(12):
            model.advance(k * 1e-3, 1e-3)
    assert len(boundaries) == 12 * 3          # start plus two micro-step ends per call
    edges = [t for ev in events for t in (ev.start, ev.clearance)]
    probes = list(boundaries)
    for t in edges + [t - 1e-9 for t in edges]:
        probes += [t - 1e-12, t, t + 1e-12,
                   math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    for t in probes:
        assert model._lu_at(t)[1] == fault_shunts(net, events, t), t
    idx = net.bus_index()
    assert model._lu_at(0.0045)[1] == {idx[6]: complex(1.5e6), idx[5]: complex(1e6)}


# -- network solution -------------------------------------------------------------


def smib():
    # a machine against a slack bus without one: the slack is a stiff source
    return NetworkData(
        name="smib",
        buses=[Bus(id=1, base_kv=110.0, btype="slack", v_set=1.0),
               Bus(id=2, base_kv=110.0, btype="pv", v_set=1.0, p_gen=0.3)],
        branches=[Branch(from_bus=1, to_bus=2, r=0.0, x=0.1)],
        machines=[SynchronousMachine(bus=2, h=3.0, d=0.0, xd_p=0.1)])


def machineless():
    # a feeder string of converter plant behind a stiff slack
    return NetworkData(
        name="string",
        buses=[Bus(id=1, base_kv=33.0, btype="slack", v_set=1.0),
               Bus(id=2, base_kv=33.0), Bus(id=3, base_kv=33.0), Bus(id=4, base_kv=33.0)],
        branches=[Branch(from_bus=1, to_bus=2, r=0.001, x=0.01),
                  Branch(from_bus=2, to_bus=3, r=0.0045, x=0.0054),
                  Branch(from_bus=3, to_bus=4, r=0.0045, x=0.0054)],
        sgens=[StaticGenerator(id="t1", bus=3, mva=2.0),
               StaticGenerator(id="t2", bus=4, mva=2.0)])


def three_machines():
    # the nine-bus network with its third machine restored at the plant bus
    net = nine_bus_with_plant()
    return dataclasses.replace(
        net, buses=[*net.buses[:2], dataclasses.replace(net.buses[2], btype="pv", v_set=1.025,
                                                        p_gen=0.85), *net.buses[3:]],
        machines=[*net.machines, SynchronousMachine(bus=3, h=3.01, d=6.0, xd_p=0.1813)])


def direct_solve(model, t, cur, delta=None):
    """The network solved from the full injection vector at the machine angles
    ``delta`` (the model's committed ones if None), with its own factorization
    of ``Y`` and the shunts active at ``t``."""
    delta = model.delta if delta is None else delta
    i_inj = np.zeros(len(model.network.buses), dtype=complex)
    np.add.at(i_inj, model.m_bus, model.e_mag * np.exp(1j * delta) * model.y_m)
    if model._stiff_slack:
        i_inj[model._slack_idx] += model._slack_e * model._y_stiff
    np.add.at(i_inj, model.s_bus, cur)
    y = ybus_with_shunts(model._y_dyn, fault_shunts(model.network, model.events, t))
    return spla.spsolve(y.tocsc(), i_inj)


NETWORKS = pytest.mark.parametrize("net, sgen_pq, fault_bus", [
    (nine_bus_with_plant(), {"wpp": (0.85, 0.0)}, 6),
    (smib(), {}, 2),
    (machineless(), {"t1": (0.9, 0.1), "t2": (0.9, 0.1)}, 2),
    (three_machines(), {"wpp": (0.4, 0.0)}, 6),
], ids=["nine_bus_with_plant", "smib", "machineless", "three_machines"])


@NETWORKS
def test_committed_voltages_match_a_direct_solve(monkeypatch, net, sgen_pq, fault_bus):
    # the fault starts and clears on micro-step boundaries inside macro steps
    events = [FaultEvent(bus=fault_bus, start=0.0035, duration=0.003, admittance=50.0)]
    model, _ = equilibrated(net, sgen_pq, events=events)
    factorized, solves = [], []
    splu = spla.splu

    def counting_splu(y):
        lu = splu(y)
        factorized.append(y)

        def solve(rhs):
            solves.append(rhs.shape)
            return lu.solve(rhs)
        return types.SimpleNamespace(solve=solve)

    worst, checked = 0.0, 0
    cur = model._sgen_currents()
    at = [model.sgen_ids.index(sid) for sid in sgen_pq]
    i_d = model._s_cmd.real[at]            # the equilibrium currents the micro steps keep
    # the machine states at the start of the micro step, and that start: the model
    # commits its states once per advance, so inside one the test steps its own copy
    state = t_prev = None

    def check(t, v):
        nonlocal worst, checked
        worst = max(worst, float(np.max(np.abs(v - direct_solve(model, t, cur)))))
        checked += 1

    def on_micro(t, columns, h):
        # the sgen columns committed at t against those of a direct solve
        nonlocal worst, checked, cur, state, t_prev
        if state is None:
            state = model.delta, model.domega
        else:
            state = array_rk4_step(model, model._lu_at(t_prev)[0], cur, h, *state)
        t_prev = t
        vb = direct_solve(model, t, cur, state[0])[model.s_bus]
        s_mach = vb * np.conj(cur) / model.s_scale
        for got, want in zip(columns, (np.abs(vb), s_mach.real, s_mach.imag)):
            worst = max(worst, float(np.max(np.abs(np.array(got) - want), initial=0.0)))
        checked += 1
        model.set_sgen_commands(at, i_d, 0.1 + 0.05 * math.sin(2e3 * t))
        cur = model._sgen_currents()       # what enters this micro step's network

    monkeypatch.setattr(spla, "splu", counting_splu)
    macro, n = 2e-3, 4
    for k in range(5):
        factorized.clear()
        solves.clear()
        state = None
        meas = model.advance(k * macro, macro, on_micro=on_micro)
        check(meas.t, meas.v)
        # one multi-column solve per newly built factorization, none per micro step
        columns = len(net.machines) + len(net.sgens) + 1
        assert solves == [(len(net.buses), columns)] * len(factorized), (k, solves)
        # the faulted topology is factorized once; clearing reuses the pre-fault one
        assert len(factorized) == (1 if k == 1 else 0), k
    assert checked == 5 * (n + 1)
    assert worst <= 1e-12


def reduced_power(lu, cur, delta):
    """The machines' ``Pe = Im(u conj(A u + b))``, ``u = exp(j delta)``, from a
    cached factor's ``a``, ``r_c`` and ``r_0`` and the sgen currents, in NumPy arrays."""
    nm = len(delta)
    a = np.array(lu.a, dtype=complex).reshape(nm, nm)
    b = lu.r_0[:nm] + lu.r_c[:nm] @ cur
    u = np.exp(1j * delta)
    return (u * (a.dot(u) + b).conj()).imag


@NETWORKS
def test_stage_power_matches_a_full_network_solve(net, sgen_pq, fault_bus):
    # the reduced Pe an RK4 stage evaluates, from the cached factor, against
    # Im(e conj(v)) / x' at the machine buses of a full network solve; each
    # micro step's stages are tied to this form by test_micro_step_matches_an_array_rk4
    events = [FaultEvent(bus=fault_bus, start=0.01, duration=0.01, admittance=50.0)]
    model, _ = equilibrated(net, sgen_pq, events=events)
    nm = len(net.machines)
    rng = np.random.default_rng(7)
    for t in (0.0, 0.015):
        for _ in range(3):
            model.delta = model.delta + rng.uniform(-0.3, 0.3, nm)
            for sid in sgen_pq:
                model.set_sgen_commands(model.sgen_ids.index(sid), rng.uniform(0.2, 1.0),
                                        rng.uniform(-0.2, 0.2))
            cur = model._sgen_currents()
            e = model.e_mag * np.exp(1j * model.delta)
            v_m = direct_solve(model, t, cur)[model.m_bus]
            pe_full = (e * np.conj(v_m)).imag / model.xd_p
            pe_stage = reduced_power(model._lu_at(t)[0], cur, model.delta)
            assert pe_stage.shape == (nm,)
            assert np.all(np.abs(pe_stage - pe_full) <= 1e-12), (t, pe_stage, pe_full)
            model.advance(t, model.micro_step)


@NETWORKS
@pytest.mark.parametrize("flip", [False, True], ids=["from_to", "to_from"])
def test_measure_matches_per_branch_bookkeeping(net, sgen_pq, fault_bus, flip):
    # the committed loss and PCC flow against the per-branch flows, with a
    # fault shunt active; the PCC sits at the to side of the first branch
    events = [FaultEvent(bus=fault_bus, start=0.0025, duration=0.003, admittance=50.0)]
    br = net.branches[0]
    pcc_branch = (br.to_bus, br.from_bus) if flip else (br.from_bus, br.to_bus)
    model, _ = equilibrated(net, sgen_pq, events=events, pcc_bus=br.to_bus, pcc_branch=pcc_branch)
    faulted = 0
    for k in range(8):
        meas = model.advance(k * 1e-3, 1e-3)
        v, shunts = meas.v, fault_shunts(net, events, meas.t)
        faulted += bool(shunts)
        # relative to the flows a sum or product cancels down from: a loss is the
        # difference of two branch-end flows, a PCC flow's part the difference of products
        sf, st = model._branch_flows(v)
        loss = model.branch_losses(v).sum() + sum(abs(v[i]) ** 2 * y.real
                                                  for i, y in shunts.items())
        gross = np.abs(sf).sum() + np.abs(st).sum()
        assert meas.balance.loss == pytest.approx(loss, rel=1e-13, abs=1e-13 * gross), k
        s_into_pcc = -st[0] * net.base_mva
        for got, want in ((meas.p_wpp_mw, s_into_pcc.real), (meas.q_wpp_mvar, s_into_pcc.imag)):
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13 * abs(s_into_pcc)), k
    assert faulted == 3
    # each factorization holds its responses once: every term is a view of one array
    n, nm, ns = len(net.buses), len(net.machines), len(net.sgens)
    assert len(model._lu_cache) == 2
    for lu in model._lu_cache.values():
        base = lu.r_c.base
        assert base.shape == (nm + n, nm + ns + 1)
        for view in (lu.z_m, lu.r_0):
            assert view.base is base
        assert lu.z_m.shape == (n, nm) and lu.r_c.shape == (nm + n, ns)
        assert lu.r_0.shape == (nm + n,)


def array_rk4_step(model, lu, cur, h, delta, domega):
    """One micro step of the swing equation from ``delta`` and ``domega`` in NumPy
    arrays: the same RK4 with ``y = [delta, domega]``,
    ``dy/dt = rate_lin y + rate_acc (Pm - Pe)``."""
    nm = len(model.pm)
    rate_acc = np.vstack([np.zeros((nm, nm)), np.diag(0.5 / model.h)])
    rate_lin = np.hstack([np.zeros((2 * nm, nm)), np.vstack(
        [model.omega_s * np.eye(nm), -model.d * rate_acc[nm:]])])

    def rates(y):
        return rate_lin.dot(y) + rate_acc.dot(model.pm - reduced_power(lu, cur, y[:nm]))

    y0 = np.concatenate((delta, domega))
    k1 = rates(y0)
    k2 = rates(y0 + 0.5 * h * k1)
    k3 = rates(y0 + 0.5 * h * k2)
    k4 = rates(y0 + h * k3)
    y = y0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y[:nm], y[nm:]


@NETWORKS
def test_micro_step_matches_an_array_rk4(net, sgen_pq, fault_bus):
    events = [FaultEvent(bus=fault_bus, start=0.01, duration=0.01, admittance=50.0)]
    h = 5e-4
    model, _ = equilibrated(net, sgen_pq, micro_step=h, events=events)
    nm = len(net.machines)
    rng = np.random.default_rng(11)
    for t in (0.0, 0.015):
        for _ in range(3):
            model.delta = model.delta + rng.uniform(-0.3, 0.3, nm)
            model.domega = rng.uniform(-0.01, 0.01, nm)
            for sid in sgen_pq:
                model.set_sgen_commands(model.sgen_ids.index(sid), rng.uniform(0.2, 1.0),
                                        rng.uniform(-0.2, 0.2))
            delta, domega = array_rk4_step(model, model._lu_at(t)[0], model._sgen_currents(), h,
                                           model.delta, model.domega)
            meas = model.advance(t, h)
            assert meas.t == t + h
            assert model.delta.shape == model.domega.shape == (nm,)
            assert np.all(np.abs(model.delta - delta) <= 1e-13), (t, model.delta, delta)
            assert np.all(np.abs(model.domega - domega) <= 1e-13), (t, model.domega, domega)


def test_sgen_measurements_inside_a_macro_step_match_a_full_measure():
    # the columns handed to on_micro against a twin that commits a full
    # measurement after every micro step; the fault switches inside macro steps
    events = [FaultEvent(bus=6, start=0.0035, duration=0.003)]
    kw = dict(events=events, pcc_bus=3, pcc_branch=(3, 9))
    model, _ = equilibrated(nine_bus_with_plant(), {"wpp": (0.85, 0.0)}, **kw)
    fine, _ = equilibrated(nine_bus_with_plant(), {"wpp": (0.85, 0.0)}, **kw)
    seen = []

    def bits(columns):
        return [[x.hex() for x in column] for column in columns]

    def on_micro(t, columns, h):
        v_mag, _, p, q = fine.last_measurements.sgen_columns
        assert fine.last_measurements.t == pytest.approx(t, abs=1e-15)
        assert len(columns) == 3 and bits(columns) == bits((v_mag, p, q)), t
        seen.append(t)
        fine.advance(t, h)

    for k in range(5):
        model.advance(k * 2e-3, 2e-3, on_micro=on_micro)
    assert len(seen) == 5 * 4


def test_last_measurements_stays_the_boundary_measurement_inside_a_macro_step():
    model, _ = equilibrated(nine_bus_with_plant(), {"wpp": (0.85, 0.0)},
                            pcc_bus=3, pcc_branch=(3, 9))
    boundary, held = model.last_measurements, []
    model.advance(0.0, 2e-3, on_micro=lambda t, columns, h: held.append(model.last_measurements))
    assert len(held) == 4 and all(meas is boundary for meas in held)
    assert model.last_measurements is not boundary
    assert model.last_measurements.t == pytest.approx(2e-3)
