from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from windcosim.collector import WppLayout
from windcosim.errors import PowerFlowDivergedError, SingularNetworkError
from windcosim.network import (Branch, Bus, NetworkData, StaticGenerator, assemble_ybus,
                               branch_stamps)
from windcosim.powerflow import scheduled_injections, solve_power_flow
from windcosim.scenario import build_large_scale
from windcosim.wscc9 import wscc9_without_g3

from oracles import naive_power_flow, two_bus_voltage


def ybus(net):
    return assemble_ybus(branch_stamps(net), len(net.buses))


def radial_two_bus(p=0.5, q=0.1, r=0.02, x=0.08):
    return NetworkData(
        name="radial",
        buses=[Bus(id=1, base_kv=110.0, btype="slack", v_set=1.0),
               Bus(id=2, base_kv=110.0)],
        branches=[Branch(from_bus=1, to_bus=2, r=r, x=x)],
        sgens=[StaticGenerator(id="inj", bus=2, mva=100.0)],
    ), {"inj": (p, q)}


@pytest.mark.parametrize("p,q", [(0.5, 0.1), (0.8, -0.2), (0.0, 0.0), (0.3, 0.4)])
def test_two_bus_against_closed_form(p, q):
    net, pq = radial_two_bus(p, q)
    res = solve_power_flow(net, ybus(net), pq)
    expected = two_bus_voltage(p_inj=p, q_inj=q, r=0.02, x=0.08)
    assert abs(res.voltage(2) - expected) < 1e-8
    assert res.voltage(1) == 1.0 + 0j


def test_nine_bus_against_naive_oracle():
    net = replace(wscc9_without_g3(), sgens=[StaticGenerator(id="wpp", bus=3, mva=100.0)])
    pq = {"wpp": (0.85, 0.0)}
    res = solve_power_flow(net, ybus(net), pq)
    bus_ids, v_oracle = naive_power_flow(net, pq)
    assert bus_ids == res.bus_ids
    assert np.max(np.abs(res.v - v_oracle)) < 1e-6
    assert res.iterations <= 10
    assert res.max_mismatch < 1e-8


def plant(n_strings):
    """The large-scale plant's network with strings of eight turbines, and its dispatch."""
    sc = build_large_scale(t_end=0.0, layout=WppLayout(n_strings=n_strings,
                                                        turbines_per_string=8))
    return sc.network, {w.id: (w.p_ref, w.q_ref) for w in sc.wtgs}


@pytest.mark.parametrize("n_strings, n_bus", [(4, 42), (16, 138)])
def test_plant_against_naive_oracle(n_strings, n_bus):
    net, pq = plant(n_strings)
    assert len(net.buses) == n_bus
    res = solve_power_flow(net, ybus(net), pq)
    bus_ids, v_oracle = naive_power_flow(net, pq)
    assert bus_ids == res.bus_ids
    assert np.max(np.abs(res.v - v_oracle)) < 1e-8
    assert res.iterations == 4


def test_newton_step_factorizes_a_sparse_jacobian(monkeypatch):
    net, pq = plant(16)
    y = ybus(net)
    factored, splu = [], scipy.sparse.linalg.splu

    def recording_splu(a, *args, **kwargs):
        factored.append((sp.issparse(a), a.shape, a.nnz))
        return splu(a, *args, **kwargs)

    def no_dense_solve(*args, **kwargs):
        raise AssertionError("the power flow solved a dense system")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
    res = solve_power_flow(net, y, pq)
    # angles at every bus but the slack, magnitudes at the PQ buses
    n_unknowns = 2 * (len(net.buses) - 1) - sum(b.btype == "pv" for b in net.buses)
    assert len(factored) == res.iterations == 4
    for is_sparse, shape, nnz in factored:
        assert is_sparse and shape == (n_unknowns, n_unknowns)
        assert nnz <= 4 * y.nnz


def test_unsorted_admittance_indices_give_the_same_flow():
    net = wscc9_without_g3()
    y = ybus(net)
    # the same matrix with each column's row indices reversed
    rev = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(y.indptr[:-1], y.indptr[1:])])
    shuffled = sp.csc_matrix((y.data[rev], y.indices[rev], y.indptr), shape=y.shape)
    assert not shuffled.has_sorted_indices
    a, b = solve_power_flow(net, y), solve_power_flow(net, shuffled)
    assert a.iterations == b.iterations
    assert np.max(np.abs(a.v - b.v)) < 1e-14


def test_zero_admittance_matrix_is_singular():
    # a zero Y stores no entry at all, not even a diagonal: the Jacobian is zero
    net = NetworkData(
        buses=[Bus(id=1, base_kv=110.0, btype="slack"),
               Bus(id=2, base_kv=110.0, p_load=0.5)],
        branches=[Branch(1, 2, 0.01, 0.1)],
    )
    with pytest.raises(SingularNetworkError):
        solve_power_flow(net, sp.csc_matrix((2, 2), dtype=complex))


def test_pv_and_slack_magnitudes_held():
    net = wscc9_without_g3()
    res = solve_power_flow(net, ybus(net))
    assert abs(res.voltage(1)) == pytest.approx(1.04, abs=1e-12)
    assert abs(res.voltage(2)) == pytest.approx(1.025, abs=1e-12)
    assert np.angle(res.voltage(1)) == 0.0


def test_power_balance_at_solution():
    # every non-slack equation is satisfied by the converged voltages
    net = wscc9_without_g3()
    res = solve_power_flow(net, ybus(net))
    s = res.v * np.conj(ybus(net) @ res.v)
    sched = scheduled_injections(net)
    idx = net.bus_index()
    for bus in net.buses:
        i = idx[bus.id]
        if bus.btype == "pq":
            assert abs(s[i] - sched[i]) < 1e-8
        elif bus.btype == "pv":
            assert abs(s[i].real - sched[i].real) < 1e-8


def test_sgen_injection_scaled_by_machine_base():
    net, _ = radial_two_bus()
    net = replace(net, sgens=[StaticGenerator(id="inj", bus=2, mva=50.0)])
    s = scheduled_injections(net, {"inj": (1.0, 0.5)})
    # machine base 50 MVA on 100 MVA system base: half the per-unit value
    assert s[1] == complex(0.5, 0.25)
    assert s[0] == 0.0 + 0j


def test_sgens_add_to_their_bus_in_network_order_and_undispatched_ones_inject_nothing():
    net = NetworkData(
        buses=[Bus(id=7, base_kv=110.0, btype="slack"),
               Bus(id=3, base_kv=110.0, p_load=0.9, q_load=0.3)],
        branches=[Branch(7, 3, 0.01, 0.1)],
        sgens=[StaticGenerator(id="a", bus=3, mva=30.0), StaticGenerator(id="b", bus=7, mva=10.0),
               StaticGenerator(id="c", bus=3, mva=70.0)],
    )
    s = scheduled_injections(net, {"c": (0.1, 0.7), "a": (0.3, 0.2)})
    assert s.tolist() == [0j, complex(-0.9, -0.3) + complex(0.3, 0.2) * 30.0 / 100.0
                          + complex(0.1, 0.7) * 70.0 / 100.0]


def test_load_enters_negative():
    net = NetworkData(
        buses=[Bus(id=1, base_kv=110.0, btype="slack"),
               Bus(id=2, base_kv=110.0, p_load=0.9, q_load=0.3)],
        branches=[Branch(1, 2, 0.01, 0.1)],
    )
    s = scheduled_injections(net)
    assert s[1] == complex(-0.9, -0.3)


def test_divergence_raises():
    # load far beyond the line's transfer capability cannot converge
    net = NetworkData(
        buses=[Bus(id=1, base_kv=110.0, btype="slack"),
               Bus(id=2, base_kv=110.0, p_load=50.0)],
        branches=[Branch(1, 2, 0.01, 0.1)],
    )
    with pytest.raises(PowerFlowDivergedError):
        solve_power_flow(net, ybus(net))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_newton_step_is_a_divergence_naming_the_iteration():
    # a finite but absurd dispatch: the first update overflows, and that is no singular Jacobian
    net, _ = radial_two_bus()
    with pytest.raises(PowerFlowDivergedError, match="mismatch overflowed at iteration 1 "):
        solve_power_flow(net, ybus(net), {"inj": (1e300, 0.0)})


def test_flat_network_converges_immediately():
    net = NetworkData(
        buses=[Bus(id=1, base_kv=110.0, btype="slack", v_set=1.0),
               Bus(id=2, base_kv=110.0)],
        branches=[Branch(1, 2, 0.01, 0.1)],
    )
    res = solve_power_flow(net, ybus(net))
    assert res.iterations == 0
    assert res.voltage(2) == 1.0 + 0j
