"""Positive-sequence network model and admittance assembly.

All impedances and powers are per unit on the common system base
(``base_mva``); machine and converter quantities carry their own MVA
rating and are rescaled where they touch the network.  Branches use the
standard pi model with an off-nominal tap on the ``from`` side.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import FINITE, NON_NEGATIVE, POSITIVE, TopologyError, check_domains

# an sgen id is part of variable names (conv_<id>.v_meas) and trace column headers
_SGEN_ID = re.compile(r"[A-Za-z0-9_-]+")


@dataclass(frozen=True)
class Bus:
    """Network node.  ``btype`` is one of ``slack``, ``pv``, ``pq``.

    ``v_set`` pins the voltage magnitude at slack and PV buses; ``p_gen``
    is the scheduled machine injection at a PV bus.  Loads are consumed
    as constant power in the power flow and converted to constant
    impedance for dynamic simulation.
    """

    id: int
    base_kv: float = field(metadata=POSITIVE)
    btype: str = "pq"
    v_set: float = field(default=1.0, metadata=POSITIVE)
    p_gen: float = field(default=0.0, metadata=FINITE)
    p_load: float = field(default=0.0, metadata=FINITE)
    q_load: float = field(default=0.0, metadata=FINITE)


@dataclass(frozen=True)
class Branch:
    """Pi-model series element: line or (with ``tap``) transformer."""

    from_bus: int
    to_bus: int
    r: float = field(metadata=NON_NEGATIVE)
    x: float = field(metadata=FINITE)               # negative: a series capacitor
    b: float = field(default=0.0, metadata=FINITE)
    tap: float = field(default=1.0, metadata=POSITIVE)


@dataclass(frozen=True)
class SynchronousMachine:
    """Classical second-order machine on the system base."""

    bus: int
    h: float = field(metadata=POSITIVE)             # inertia constant, s
    d: float = field(metadata=NON_NEGATIVE)         # damping torque coefficient, pu/pu speed
    xd_p: float = field(metadata=POSITIVE)          # transient reactance, pu


@dataclass(frozen=True)
class StaticGenerator:
    """Converter-interfaced source injecting a commanded current.

    Sign convention: with the d axis aligned to the terminal voltage
    phasor, positive ``i_d`` injects active power and positive ``i_q``
    injects reactive power (raises the local voltage).  The network-frame
    current is ``(i_d - j*i_q) * exp(j*angle(V))`` rescaled from the
    machine base ``mva`` to the system base.
    """

    id: str
    bus: int
    mva: float = field(metadata=POSITIVE)


@dataclass(frozen=True)
class FaultEvent:
    """Shunt admittance added at ``bus`` during ``[start, start+duration)``."""

    bus: int
    start: float = field(metadata=NON_NEGATIVE)
    duration: float = field(metadata=POSITIVE)
    admittance: float = field(default=1e6, metadata=POSITIVE)

    @property
    def clearance(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class NetworkData:
    """A network: it checks itself when built, and ``replace`` derives a changed one."""

    name: str = ""
    base_mva: float = field(default=100.0, metadata=POSITIVE)
    frequency_hz: float = field(default=60.0, metadata=POSITIVE)
    buses: tuple[Bus, ...] = ()
    branches: tuple[Branch, ...] = ()
    machines: tuple[SynchronousMachine, ...] = ()
    sgens: tuple[StaticGenerator, ...] = ()

    def __post_init__(self):
        for name in ("buses", "branches", "machines", "sgens"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        self.validate()

    @property
    def omega_s(self) -> float:
        return 2.0 * np.pi * self.frequency_hz

    def bus_index(self) -> dict[int, int]:
        return {bus.id: i for i, bus in enumerate(self.buses)}

    def branch_between(self, bus_a: int, bus_b: int) -> tuple[int, bool] | None:
        """The first branch joining two buses, in either order: its index and
        whether ``bus_a`` is its from side; None if no branch joins them."""
        for i, br in enumerate(self.branches):
            if (br.from_bus, br.to_bus) in ((bus_a, bus_b), (bus_b, bus_a)):
                return i, br.from_bus == bus_a
        return None

    def validate(self) -> None:
        check_domains(self, TopologyError)
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise TopologyError("duplicate bus ids")
        slacks = [b for b in self.buses if b.btype == "slack"]
        if len(slacks) != 1:
            raise TopologyError(f"need exactly one slack bus, found {len(slacks)}")
        for b in self.buses:
            if b.btype not in ("slack", "pv", "pq"):
                raise TopologyError(f"bus {b.id}: unknown type '{b.btype}'")
            check_domains(b, TopologyError, f"bus {b.id}")
        index = self.bus_index()
        touched = set()
        for br in self.branches:
            if br.from_bus not in index or br.to_bus not in index:
                raise TopologyError(f"branch {br.from_bus}-{br.to_bus} references unknown bus")
            check_domains(br, TopologyError, f"branch {br.from_bus}-{br.to_bus}")
            if br.r == 0.0 and br.x == 0.0:
                raise TopologyError(f"branch {br.from_bus}-{br.to_bus} has zero impedance")
            touched.add(br.from_bus)
            touched.add(br.to_bus)
        if len(self.buses) > 1:
            isolated = set(ids) - touched
            if isolated:
                raise TopologyError(f"isolated buses: {sorted(isolated)}")
            if not self._connected(index):
                raise TopologyError("network is not a single connected component")
        for m in self.machines:
            if m.bus not in index:
                raise TopologyError(f"machine at unknown bus {m.bus}")
            check_domains(m, TopologyError, f"machine at bus {m.bus}")
        seen = set()
        for sg in self.sgens:
            if not _SGEN_ID.fullmatch(sg.id):
                raise TopologyError(f"static generator id '{sg.id}' may hold only letters, "
                                    f"digits, '_' and '-'")
            if sg.bus not in index:
                raise TopologyError(f"static generator '{sg.id}' at unknown bus {sg.bus}")
            check_domains(sg, TopologyError, f"static generator '{sg.id}'")
            if sg.id in seen:
                raise TopologyError(f"duplicate static generator id '{sg.id}'")
            seen.add(sg.id)

    def _connected(self, index: dict[int, int]) -> bool:
        adj: dict[int, set[int]] = {i: set() for i in range(len(index))}
        for br in self.branches:
            adj[index[br.from_bus]].add(index[br.to_bus])
            adj[index[br.to_bus]].add(index[br.from_bus])
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(index)


def branch_stamps(network: NetworkData) -> tuple[np.ndarray, ...]:
    """Pi-model stamps of a network's branches: six arrays aligned with
    ``network.branches``, the end bus indices ``f``, ``t`` and the admittances
    ``y_ff``, ``y_ft``, ``y_tf``, ``y_tt``.  The current entering a branch is
    ``y_ff v_f + y_ft v_t`` at its from side and ``y_tt v_t + y_tf v_f`` at
    its to side.  With series admittance ``y``, total charging ``b`` and
    from-side tap ``a``:  y_ff = (y + jb/2)/a^2,  y_tt = y + jb/2,
    y_ft = y_tf = -y/a.
    """
    index = network.bus_index()
    ends, stamps = [], []
    for br in network.branches:
        y = 1.0 / complex(br.r, br.x)
        y_end = y + 0.5j * br.b         # series plus half the charging
        a = br.tap
        ends.append((index[br.from_bus], index[br.to_bus]))
        stamps.append((y_end / (a * a), -y / a, -y / a, y_end))
    return (*np.array(ends, dtype=int).reshape(-1, 2).T,
            *np.array(stamps, dtype=complex).reshape(-1, 4).T)


def assemble_ybus(stamps: tuple[np.ndarray, ...], n_bus: int) -> sp.csc_matrix:
    """Bus admittance matrix of ``n_bus`` buses: the sum of ``branch_stamps``,
    entered per branch in the order ff, tt, ft, tf (the order fixes the
    rounding of the sums).  The caller owns the stamps of a network, which
    checked itself when it was built; ``RmsModel`` builds the one matrix a run uses."""
    f, t, y_ff, y_ft, y_tf, y_tt = stamps
    rows = np.column_stack((f, t, f, t)).ravel()
    cols = np.column_stack((f, t, t, f)).ravel()
    vals = np.column_stack((y_ff, y_tt, y_ft, y_tf)).ravel()
    return sp.csc_matrix(
        sp.coo_matrix((vals, (rows, cols)), shape=(n_bus, n_bus), dtype=complex)
    )


_FAULT_TOL = 1e-9


def fault_shunts(network: NetworkData, events: list[FaultEvent], t: float) -> dict[int, complex]:
    """Active fault admittances (by bus index) at time ``t``.

    Fault windows are half open, ``start <= t < start + duration``, with
    a small tolerance so event times landing on step boundaries resolve
    deterministically.  The admittance is stamped as a pure conductance.
    """
    index = network.bus_index()
    active: dict[int, complex] = {}
    for ev in events:
        if ev.start - _FAULT_TOL <= t < ev.clearance - _FAULT_TOL:
            if ev.bus not in index:
                raise TopologyError(f"fault at unknown bus {ev.bus}")
            i = index[ev.bus]
            active[i] = active.get(i, 0.0) + complex(ev.admittance, 0.0)
    return active


def fault_breakpoints(events: list[FaultEvent]) -> list[float]:
    """Sorted finite times at which ``fault_shunts`` can change its result.

    The active set is constant on each half-open interval between
    consecutive breakpoints.
    """
    return sorted({b for ev in events
                   for b in (ev.start - _FAULT_TOL, ev.clearance - _FAULT_TOL)
                   if math.isfinite(b)})


def fault_switch_time(t: float, h: float) -> float:
    """Time at which a fault edge requested at ``t`` takes effect on a grid
    of micro-step boundaries spaced ``h``: the first boundary ``fault_shunts``
    resolves at or after ``t``."""
    return math.ceil((t - _FAULT_TOL) / h) * h


def ybus_with_shunts(ybus: sp.csc_matrix, shunts: dict[int, complex]) -> sp.csc_matrix:
    """Base matrix plus diagonal shunt admittances.

    With no shunts the base matrix itself is returned, so an
    apply-then-remove cycle reproduces the original object bit for bit.
    """
    if not shunts:
        return ybus
    n = ybus.shape[0]
    diag = np.zeros(n, dtype=complex)
    for i, y in shunts.items():
        diag[i] += y
    return (ybus + sp.diags(diag)).tocsc()
