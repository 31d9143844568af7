"""Collector strings, their lumped equivalent, and the loss it preserves."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from oracles import branch_loss_pu
from windcosim.collector import (CableData, CollectorString, WppLayout,
                                 plant_equivalent, string_equivalent)
from windcosim.errors import TopologyError
from windcosim.network import (Branch, Bus, NetworkData, StaticGenerator, assemble_ybus,
                               branch_stamps)
from windcosim.powerflow import solve_power_flow

Z = 0.004 + 0.006j


def ybus(net):
    return assemble_ybus(branch_stamps(net), len(net.buses))


def test_single_turbine_equivalent_is_the_segment():
    assert string_equivalent(CollectorString(segments=(Z,))) == Z


def test_two_turbine_equivalent_is_five_quarters():
    # segment 1 carries both turbine currents: (2^2 * Z + 1^2 * Z) / 2^2
    assert string_equivalent(CollectorString(segments=(Z, Z))) == 1.25 * Z


def test_equivalent_with_distinct_segments():
    za, zb, zc = 0.01 + 0.02j, 0.005 + 0.01j, 0.002 + 0.004j
    got = string_equivalent(CollectorString(segments=(za, zb, zc)))
    assert got == pytest.approx((9 * za + 4 * zb + zc) / 9.0, abs=1e-18)


def test_parallel_strings_combine_as_admittances():
    s = CollectorString(segments=(Z, Z))
    assert plant_equivalent([s, s]) == pytest.approx(1.25 * Z / 2.0, abs=1e-18)
    za = CollectorString(segments=(0.01 + 0.02j,))
    zb = CollectorString(segments=(0.03 + 0.01j,))
    want = 1.0 / (1.0 / (0.01 + 0.02j) + 1.0 / (0.03 + 0.01j))
    assert plant_equivalent([za, zb]) == pytest.approx(want, abs=1e-18)


def test_plant_equivalent_needs_strings():
    with pytest.raises(TopologyError):
        plant_equivalent([])


def test_string_validation():
    with pytest.raises(TopologyError):
        CollectorString(segments=())
    with pytest.raises(TopologyError):
        CollectorString(segments=(0j,))
    with pytest.raises(TopologyError):
        CollectorString(segments=(-0.01 + 0.02j,))
    ok = CollectorString(segments=(Z, Z))
    assert ok.size == 2


seg = st.complex_numbers(min_magnitude=1e-4, max_magnitude=0.05,
                         allow_nan=False, allow_infinity=False).map(
    lambda z: complex(abs(z.real), abs(z.imag) + 1e-5))


@given(st.lists(seg, min_size=1, max_size=12),
       st.floats(min_value=0.01, max_value=1.0))
def test_equal_current_loss_identity(segments, i_per_turbine):
    """With every turbine injecting the same current, the lumped impedance
    dissipates exactly the summed per-segment loss."""
    string = CollectorString(segments=tuple(segments))
    n = string.size
    explicit = sum((n - k) ** 2 * z.real * i_per_turbine ** 2
                   for k, z in enumerate(segments))
    lumped = string_equivalent(string).real * (n * i_per_turbine) ** 2
    assert lumped == pytest.approx(explicit, rel=1e-12)


# -- cable data and layout ---------------------------------------------------------


def test_cable_pu_conversion():
    cable = CableData(r_ohm_per_km=0.10, x_ohm_per_km=0.12, c_uf_per_km=0.19,
                      rating_frequency_hz=50.0)
    r, x, b = cable.pu_per_km(base_mva=100.0, base_kv=33.0)
    z_base = 33.0 ** 2 / 100.0
    assert r == pytest.approx(0.10 / z_base, abs=1e-15)
    assert x == pytest.approx(0.12 / z_base, abs=1e-15)
    assert b == pytest.approx(2 * math.pi * 50.0 * 0.19e-6 * z_base, abs=1e-15)


def test_layout_validation_and_counts():
    with pytest.raises(TopologyError):
        WppLayout(n_strings=0)
    with pytest.raises(TopologyError):
        WppLayout(turbines_per_string=0)
    with pytest.raises(TopologyError):
        WppLayout(spacing_km=0.0)
    lay = WppLayout(n_strings=4, turbines_per_string=8)
    assert lay.n_turbines == 32


@pytest.mark.parametrize("name, value", [
    ("spacing_km", math.nan), ("spacing_km", -0.5), ("collector_kv", math.inf),
    ("collector_kv", 0.0),
])
def test_layout_rejects_a_spacing_or_voltage_that_is_not_finite_and_positive(name, value):
    # the layout names its own field, not a collector branch built from it later
    with pytest.raises(TopologyError, match=f"layout: {name} must be finite and positive"):
        WppLayout(**{name: value})


@pytest.mark.parametrize("name, value, domain", [
    ("r_ohm_per_km", math.nan, "finite and non-negative"),
    ("r_ohm_per_km", -0.1, "finite and non-negative"),
    ("x_ohm_per_km", math.inf, "finite"),
    ("c_uf_per_km", -1.0, "finite and non-negative"),
    ("c_uf_per_km", math.nan, "finite and non-negative"),
    ("rating_frequency_hz", 0.0, "finite and positive"),
    ("rating_frequency_hz", math.inf, "finite and positive"),
])
def test_cable_rejects_a_constant_outside_its_domain(name, value, domain):
    # the cable names its own field, not a collector branch built from it later
    with pytest.raises(TopologyError, match=f"cable: {name} must be {domain}, got"):
        WppLayout(cable=CableData(**{name: value}))


def test_layout_segment_scales_with_spacing():
    a = WppLayout(spacing_km=0.5).segment_pu(100.0)
    b = WppLayout(spacing_km=1.0).segment_pu(100.0)
    assert all(y == pytest.approx(2 * x, rel=1e-12) for x, y in zip(a, b))


def test_layout_equivalent_matches_manual_combination():
    lay = WppLayout(n_strings=3, turbines_per_string=5, spacing_km=0.6)
    r, x, _ = lay.segment_pu(100.0)
    z = complex(r, x)
    per_string = sum(m * m for m in range(1, 6)) / 25.0 * z
    assert lay.equivalent_impedance(100.0) == pytest.approx(per_string / 3.0, abs=1e-18)


# -- lumped vs explicit under a solved power flow -----------------------------------


def string_network(n: int, z: complex, explicit: bool) -> NetworkData:
    """Slack feeding a collector bus; behind it either n turbine buses in a
    radial string or one aggregated bus over the lumped equivalent."""
    buses = [Bus(id=1, base_kv=33.0, btype="slack", v_set=1.0),
             Bus(id=2, base_kv=33.0)]
    branches = [Branch(from_bus=1, to_bus=2, r=0.001, x=0.01, b=0.0)]
    sgens = []
    if explicit:
        prev = 2
        for k in range(n):
            bus = 3 + k
            buses.append(Bus(id=bus, base_kv=33.0))
            branches.append(Branch(from_bus=prev, to_bus=bus, r=z.real, x=z.imag, b=0.0))
            sgens.append(StaticGenerator(id=f"t{k+1}", bus=bus, mva=2.0))
            prev = bus
    else:
        zeq = string_equivalent(CollectorString(segments=(z,) * n))
        buses.append(Bus(id=3, base_kv=33.0))
        branches.append(Branch(from_bus=2, to_bus=3, r=zeq.real, x=zeq.imag, b=0.0))
        sgens.append(StaticGenerator(id="agg", bus=3, mva=2.0 * n))
    return NetworkData(name="string", base_mva=100.0, frequency_hz=50.0,
                       buses=buses, branches=branches, sgens=sgens,
                       machines=[])


def collector_loss(net: NetworkData, result) -> float:
    total = 0.0
    for br in net.branches:
        if br.from_bus == 1:
            continue                      # feeder branch is common to both
        total += branch_loss_pu(br, result.voltage(br.from_bus), result.voltage(br.to_bus))
    return total


def test_eight_turbine_lumped_loss_within_five_percent():
    z = 0.0045 + 0.0054j                 # 0.7 km of 33 kV cable on 100 MVA
    full = string_network(8, z, explicit=True)
    dispatch = {f"t{k}": (0.9, 0.1) for k in range(1, 9)}
    res_full = solve_power_flow(full, ybus(full), dispatch)
    loss_full = collector_loss(full, res_full)

    lumped = string_network(8, z, explicit=False)
    res_lump = solve_power_flow(lumped, ybus(lumped), {"agg": (0.9, 0.1)})
    loss_lump = collector_loss(lumped, res_lump)

    assert loss_full > 0.0
    assert loss_lump == pytest.approx(loss_full, rel=0.05)
