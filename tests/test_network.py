from dataclasses import replace

import numpy as np
import pytest

from windcosim.dynamics import RmsModel
from windcosim.errors import TopologyError
from windcosim.network import (
    Branch,
    Bus,
    FaultEvent,
    NetworkData,
    StaticGenerator,
    SynchronousMachine,
    assemble_ybus,
    branch_stamps,
    fault_shunts,
    ybus_with_shunts,
)
from windcosim.wscc9 import wscc9_without_g3

from oracles import dense_ybus


def ybus(net):
    return assemble_ybus(branch_stamps(net), len(net.buses))


def two_bus(tap=1.0, b=0.0):
    return NetworkData(
        name="two-bus",
        buses=[Bus(id=1, base_kv=110.0, btype="slack"), Bus(id=2, base_kv=110.0)],
        branches=[Branch(from_bus=1, to_bus=2, r=0.01, x=0.1, b=b, tap=tap)],
    )


def test_ybus_matches_dense_oracle_on_nine_bus():
    net = wscc9_without_g3()
    y = ybus(net).toarray()
    assert np.max(np.abs(y - dense_ybus(net))) == 0.0


def test_ybus_matches_dense_oracle_with_tap_and_charging():
    net = two_bus(tap=0.975, b=0.25)
    y = ybus(net).toarray()
    assert np.max(np.abs(y - dense_ybus(net))) < 1e-15


@pytest.mark.parametrize("net", [wscc9_without_g3(), two_bus(tap=0.975, b=0.25)],
                         ids=["nine_bus", "two_bus_tap"])
def test_branch_flows_add_up_to_the_bus_injections(net):
    # the per-bus sum of the power entering each branch end is v conj(Y v),
    # for the package's Y and for the independent dense one
    flows = RmsModel(net)._branch_flows
    idx, n = net.bus_index(), len(net.buses)
    f = [idx[br.from_bus] for br in net.branches]
    t = [idx[br.to_bus] for br in net.branches]
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.uniform(0.5, 1.5, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        sf, st = flows(v)
        s = np.zeros(n, dtype=complex)
        np.add.at(s, f, sf)
        np.add.at(s, t, st)
        for y in (ybus(net), dense_ybus(net)):
            assert np.max(np.abs(s - v * np.conj(y @ v))) < 1e-12


def test_branch_between_names_the_branch_in_either_order():
    net = two_bus()
    assert net.branch_between(1, 2) == (0, True)
    assert net.branch_between(2, 1) == (0, False)
    assert net.branch_between(1, 1) is None


def test_ybus_two_bus_closed_form():
    net = two_bus()
    y = ybus(net).toarray()
    ys = 1.0 / complex(0.01, 0.1)
    assert y[0, 0] == pytest.approx(ys)
    assert y[0, 1] == pytest.approx(-ys)
    assert np.allclose(y, y.T)


def test_ybus_row_sums_vanish_without_shunts():
    # pure series network: each row of Y sums to zero
    net = wscc9_without_g3()
    series_only = NetworkData(
        name=net.name, buses=net.buses,
        branches=[Branch(b.from_bus, b.to_bus, b.r, b.x) for b in net.branches],
    )
    y = ybus(series_only).toarray()
    assert np.max(np.abs(y.sum(axis=1))) < 1e-12


def test_fault_shunt_window_half_open():
    net = two_bus()
    ev = FaultEvent(bus=2, start=1.0, duration=0.18, admittance=1e6)
    assert fault_shunts(net, [ev], 0.9995) == {}
    assert fault_shunts(net, [ev], 1.0) == {1: 1e6 + 0j}
    assert fault_shunts(net, [ev], 1.1795) == {1: 1e6 + 0j}
    # clearance instant is outside the window (half open, small tolerance)
    assert fault_shunts(net, [ev], 1.18) == {}


def test_fault_shunts_accumulate_and_check_bus():
    net = two_bus()
    events = [FaultEvent(bus=2, start=0.0, duration=1.0, admittance=100.0),
              FaultEvent(bus=2, start=0.5, duration=1.0, admittance=50.0)]
    assert fault_shunts(net, events, 0.7) == {1: 150.0 + 0j}
    with pytest.raises(TopologyError):
        fault_shunts(net, [FaultEvent(bus=99, start=0.0, duration=1.0)], 0.5)


def test_ybus_with_shunts_identity_when_empty():
    y = ybus(two_bus())
    assert ybus_with_shunts(y, {}) is y


def test_ybus_with_shunts_adds_diagonal():
    y = ybus(two_bus())
    y2 = ybus_with_shunts(y, {1: 1e6 + 0j})
    d = (y2 - y).toarray()
    assert d[1, 1] == 1e6 + 0j
    assert np.count_nonzero(d) == 1


def test_clearance_property():
    assert FaultEvent(bus=1, start=1.0, duration=0.18).clearance == pytest.approx(1.18)


def test_validate_accepts_nine_bus():
    wscc9_without_g3().validate()


def _invalid_cases():
    """Each case builds an invalid network when called: a network checks itself
    when it is built, so the call is what raises."""
    base = wscc9_without_g3()

    def net(buses, branches):
        return lambda: NetworkData(buses=buses, branches=branches)

    def derived(**fields):      # the nine-bus network with some fields replaced
        return lambda: replace(base, **fields)

    def machine(**params):
        return derived(machines=[
            SynchronousMachine(**{"bus": 1, "h": 5.0, "d": 1.0, "xd_p": 0.1, **params})])

    def branch(**params):       # on branch 4-5
        return derived(branches=[replace(br, **params) if k == 3 else br
                                 for k, br in enumerate(base.branches)])

    def bus(**params):          # on bus 4
        return derived(buses=[replace(b, **params) if k == 3 else b
                              for k, b in enumerate(base.buses)])

    def sgen(sid="w", bus=3, mva=10.0):
        return StaticGenerator(id=sid, bus=bus, mva=mva)

    return {
        "duplicate-bus": net([Bus(1, 110.0, "slack"), Bus(1, 110.0)], [Branch(1, 1, 0.01, 0.1)]),
        "no-slack": net([Bus(1, 110.0), Bus(2, 110.0)], [Branch(1, 2, 0.01, 0.1)]),
        "two-slack": net([Bus(1, 110.0, "slack"), Bus(2, 110.0, "slack")],
                         [Branch(1, 2, 0.01, 0.1)]),
        "bad-bus-type": net([Bus(1, 110.0, "slak")], []),
        "ghost-branch-bus": net([Bus(1, 110.0, "slack"), Bus(2, 110.0)],
                                [Branch(1, 3, 0.01, 0.1)]),
        "zero-impedance": net([Bus(1, 110.0, "slack"), Bus(2, 110.0)], [Branch(1, 2, 0.0, 0.0)]),
        "bad-tap": net([Bus(1, 110.0, "slack"), Bus(2, 110.0)],
                       [Branch(1, 2, 0.01, 0.1, tap=0.0)]),
        "isolated-bus": net([Bus(1, 110.0, "slack"), Bus(2, 110.0), Bus(3, 110.0)],
                            [Branch(1, 2, 0.01, 0.1)]),
        "disconnected": net([Bus(1, 110.0, "slack"), Bus(2, 110.0), Bus(3, 110.0), Bus(4, 110.0)],
                            [Branch(1, 2, 0.01, 0.1), Branch(3, 4, 0.01, 0.1)]),
        "ghost-machine-bus": machine(bus=99),
        "bad-machine-params": machine(h=-5.0),
        "ghost-sgen-bus": derived(sgens=[sgen(bus=99)]),
        "bad-sgen-mva": derived(sgens=[sgen(mva=0.0)]),
        "duplicate-sgen-id": derived(sgens=[sgen(), sgen()]),
        # an sgen id is part of variable names (conv_<id>.v_meas) and trace column headers
        "comma-in-sgen-id": derived(sgens=[sgen(sid="w,p")]),
        "dot-in-sgen-id": derived(sgens=[sgen(sid="w.p")]),
        "empty-sgen-id": derived(sgens=[sgen(sid="")]),
        "space-in-sgen-id": derived(sgens=[sgen(sid="w p")]),
        "non-ascii-sgen-id": derived(sgens=[sgen(sid="w\u00e9")]),
        "inf-sgen-mva": derived(sgens=[sgen(mva=float("inf"))]),
        "nan-sgen-mva": derived(sgens=[sgen(mva=float("nan"))]),
        "zero-base-mva": derived(base_mva=0.0),
        "nan-base-mva": derived(base_mva=float("nan")),
        "zero-frequency": derived(frequency_hz=0.0),
        "negative-frequency": derived(frequency_hz=-1.0),
        "infinite-frequency": derived(frequency_hz=float("inf")),
        "inf-machine-h": machine(h=float("inf")),
        "nan-machine-h": machine(h=float("nan")),
        "inf-machine-xd_p": machine(xd_p=float("inf")),
        "negative-machine-d": machine(d=-1.0),
        "inf-machine-d": machine(d=float("inf")),
        "nan-machine-d": machine(d=float("nan")),
        "inf-branch-r": branch(r=float("inf")),
        "negative-branch-r": branch(r=-1.0),
        "nan-branch-r": branch(r=float("nan")),
        "minus-inf-branch-x": branch(x=-float("inf")),
        "nan-branch-x": branch(x=float("nan")),
        "inf-branch-b": branch(b=float("inf")),
        "nan-branch-b": branch(b=float("nan")),
        "inf-branch-tap": branch(tap=float("inf")),
        "nan-branch-tap": branch(tap=float("nan")),
        "nan-bus-base-kv": bus(base_kv=float("nan")),
        "inf-bus-base-kv": bus(base_kv=float("inf")),
        "zero-bus-base-kv": bus(base_kv=0.0),
        "negative-bus-base-kv": bus(base_kv=-1.0),
        "nan-bus-p-load": bus(p_load=float("nan")),
        "inf-bus-v-set": bus(v_set=float("inf")),
        "zero-bus-v-set": bus(v_set=0.0),
        "negative-bus-v-set": bus(v_set=-1.0),
        "zero-slack-v-set": derived(buses=[replace(base.buses[0], v_set=0.0), *base.buses[1:]]),
    }


@pytest.mark.parametrize("label", sorted(_invalid_cases()))
def test_validate_rejects(label):
    build = _invalid_cases()[label]
    with pytest.raises(TopologyError):
        build()


@pytest.mark.parametrize("sid", ["wpp", "wtg01", "a", "emb", "t1", "w_p", "W-1"])
def test_validate_accepts_an_sgen_id_of_letters_digits_underscores_and_hyphens(sid):
    net = replace(wscc9_without_g3(), sgens=[StaticGenerator(id=sid, bus=3, mva=10.0)])
    assert [sg.id for sg in net.sgens] == [sid]


def test_model_rejects_a_zero_base_before_dividing_by_it():
    net = wscc9_without_g3()
    with pytest.raises(TopologyError, match="base_mva must be finite and positive"):
        replace(net, base_mva=0.0)


def test_bus_and_sgen_lookup():
    net = wscc9_without_g3()
    assert net.bus_index()[1] == 0


def test_omega_s():
    assert wscc9_without_g3().omega_s == pytest.approx(2 * np.pi * 60.0)
