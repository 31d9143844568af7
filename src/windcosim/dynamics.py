"""RMS (phasor) dynamic simulation of the network.

Model structure
---------------
* Synchronous machines are classical second-order models behind their
  transient reactance, folded into the admittance matrix as Norton
  equivalents:  ``d(delta)/dt = w_s * dw``,
  ``2H d(dw)/dt = Pm - Pe - D*dw``.
* Loads are converted to constant impedance at the power-flow operating
  point and stamped into the dynamic admittance matrix.
* Static generators (converter-interfaced plant) inject commanded
  currents.  Commands are given as d/q projections on the terminal
  voltage phasor; the rotation angle is taken from the previous
  committed network solve (one micro-step lag), which is exact at any
  equilibrium.  Setting a command stores it as one phasor ``i_d - 1j i_q``
  per sgen, so the injected current, ``phasor * unit * s_scale``, is two
  multiplies per micro step.
* If the power-flow slack bus hosts no machine it is retained as a
  stiff Norton source (constant EMF behind a very small reactance), so
  source-free test networks stay energized.

Integration is fixed-step RK4.  The admittance matrix ``Y`` (and its
factorization) is frozen over each micro step, with fault shunts applied
and removed exactly at micro-step boundaries; removing a fault restores
the pre-fault factorization, so apply/remove cycles are bit-exact.  One
multi-column solve per factorization gives the bus voltages
``v = z_m e + z_s i_s + w_0`` in the machine EMFs ``e`` and the sgen
currents ``i_s`` (``w_0``: the stiff slack's response), so no micro step
solves the network.  Each RK4 stage evaluates the reduced-network swing
equation ``Pe = Im(e conj(v_m)) / x' = Im(u conj(A u + b))``, with
``u = exp(j delta)``, ``A = diag(E/x') z_mm diag(E)`` per factorization
and ``b = (E/x') w_m = b_s i_s + b_0``.  Stacked, ``r_c = [b_s; z_s]``
and ``r_0 = [b_0; w_0]`` give ``b`` and the sgen part of ``v`` in one
``r_c i_s + r_0`` per micro step (``i_s`` is fixed over it).  The stages
run over Python numbers: on a few machines NumPy's per-call overhead
would cost more than the arithmetic: each stage is one comprehension for
the accelerations, with ``Pe`` inline.  The sgen angle lag is the unit
phasor ``v / |v|`` of the previous terminal voltage.

A ``GridMeasurements`` is committed only at a macro-step boundary; inside
a macro step the embedded controllers' callback gets the sgens' ``v_mag``,
``p`` and ``q`` lists alone.  The measured power balance never uses
``Y``: generation comes from terminal currents, load from ``|v|^2`` and
the load conductances, loss from one sum over the currents entering the
branches at both ends, stacked.  The boundary measurement reuses the
final micro step's sgen voltages and machine EMFs.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InitializationError, SingularNetworkError
from .network import (FaultEvent, NetworkData, assemble_ybus, branch_stamps,
                      fault_breakpoints, fault_shunts, ybus_with_shunts)
from .powerflow import PowerFlowResult

_STIFF_SLACK_X = 1e-6


@dataclass
class PowerBalance:
    """Independently accumulated generation, load and loss, pu system base."""

    generation: float
    load: float
    loss: float

    @property
    def residual(self) -> float:
        return self.generation - self.load - self.loss


@dataclass
class GridMeasurements:
    """The network solution committed at a macro-step boundary."""

    t: float
    v: np.ndarray
    sgen_columns: tuple[list[float], ...]       # v_mag, theta, p, q lists, as sgen_ids
    pcc_v: float
    pcc_theta: float
    p_wpp_mw: float
    q_wpp_mvar: float
    balance: PowerBalance


class _Factor(NamedTuple):
    """One factorized ``Y``'s responses and reduced terms, ``[b; v - z_m e] = r_c i_s + r_0``."""

    z_m: np.ndarray
    r_c: np.ndarray                 # [b_s; z_s], one array with z_m
    r_0: np.ndarray                 # [b_0; w_0]
    a: list[list[complex]]


def micro_grid(duration: float, micro_step: float) -> tuple[int, float]:
    """Split ``duration`` evenly into the fewest steps no longer than
    ``micro_step``: returns their number and their length."""
    if not (micro_step > 0.0 and math.isfinite(duration / micro_step)):
        raise ValueError(f"cannot split {duration} s into micro steps of {micro_step} s")
    n = max(1, math.ceil(duration / micro_step - 1e-9))
    return n, duration / n


class RmsModel:
    """Time-domain network model stepping machines and injections together."""

    def __init__(self, network: NetworkData, micro_step: float = 5e-4,
                 events: list[FaultEvent] | None = None,
                 pcc_bus: int | None = None,
                 pcc_branch: tuple[int, int] | None = None):
        if not (math.isfinite(micro_step) and micro_step > 0.0):
            raise ValueError(f"micro_step must be finite and positive, got {micro_step}")
        self.network = network
        self.micro_step = micro_step
        self.events = list(events or [])
        self.pcc_bus = pcc_bus
        self.omega_s = network.omega_s

        self._index = network.bus_index()
        self._n = len(network.buses)
        f, t, y_ff, y_ft, y_tf, y_tt = branches = branch_stamps(network)
        self.ybus = assemble_ybus(branches, self._n)
        # from then to sides stacked: end bus, other bus, y_self, y_mutual of the current
        self._ends = (np.concatenate((f, t)), np.concatenate((t, f)),
                      np.concatenate((y_ff, y_tt)), np.concatenate((y_ft, y_tf)))

        machines = network.machines
        self.m_bus = np.array([self._index[m.bus] for m in machines], dtype=int)
        self.h = np.array([m.h for m in machines])
        self.d = np.array([m.d for m in machines])
        self.xd_p = np.array([m.xd_p for m in machines])
        self.y_m = 1.0 / (1j * self.xd_p)
        # swing-equation terms: d(domega)/dt = (Pm - Pe) / 2H - (D / 2H) domega
        self._inv_2h = (0.5 / self.h).tolist()
        self._d_2h = (self.d * (0.5 / self.h)).tolist()
        # dynamic states and setpoints, filled by init_equilibrium
        self.delta = np.zeros(len(machines))
        self.domega = np.zeros(len(machines))
        self.e_mag = np.ones(len(machines))
        self.pm = np.zeros(len(machines))

        self.sgen_ids = [sg.id for sg in network.sgens]
        self.s_bus = np.array([self._index[sg.bus] for sg in network.sgens], dtype=int)
        # complex, as are _load_g and _at_pcc: NumPy would cast a float array at each use
        self.s_scale = np.array([sg.mva / network.base_mva for sg in network.sgens], dtype=complex)
        self._s_cmd = np.zeros(len(network.sgens), dtype=complex)   # i_d - 1j i_q
        self._s_unit = np.ones(len(network.sgens), dtype=complex)

        self._slack_idx = next(i for i, b in enumerate(network.buses) if b.btype == "slack")
        self._stiff_slack = self._slack_idx not in self.m_bus
        self._slack_e = complex(network.buses[self._slack_idx].v_set, 0.0)
        self._y_stiff = 1.0 / (1j * _STIFF_SLACK_X)

        self._load_g = np.zeros(self._n, dtype=complex)  # load conductances, by init_equilibrium
        self._y_dyn: sp.csc_matrix | None = None
        self._lu_cache: dict[tuple, _Factor] = {}
        # fault schedule: the shunts, and their factorization cache key, on
        # each interval [b_{j-1}, b_j) between consecutive breakpoints
        self._fault_bounds = fault_breakpoints(self.events)
        self._fault_schedule = []
        for t in [-math.inf] + self._fault_bounds:
            shunts = fault_shunts(network, self.events, t)
            key = tuple(sorted((i, y.real, y.imag) for i, y in shunts.items()))
            self._fault_schedule.append((shunts, key))
        self._initialized = False
        self.last_measurements: GridMeasurements | None = None
        self.init_diagnostics: dict[str, float] = {}   # set by init_equilibrium

        # the PCC end's position in the stacked branch ends, or None to sum the power of
        # the sgens on the PCC bus (1 in _at_pcc); the flow is taken at the PCC end
        self._pcc_end = None
        if pcc_bus is not None and pcc_bus not in self._index:
            raise InitializationError(f"pcc bus {pcc_bus} not in network")
        self._at_pcc = np.array([sg.bus == pcc_bus for sg in network.sgens], dtype=complex)
        if pcc_branch is not None:
            a, b = pcc_branch
            if pcc_bus not in pcc_branch:
                raise InitializationError(f"pcc branch {a}-{b} does not touch pcc bus {pcc_bus}")
            found = network.branch_between(pcc_bus, b if a == pcc_bus else a)
            if found is None:
                raise InitializationError(f"pcc branch {a}-{b} not found in network")
            self._pcc_end = found[0] + (0 if found[1] else len(network.branches))

    # -- commands ------------------------------------------------------------

    def set_sgen_commands(self, k: np.ndarray | int, i_d, i_q) -> None:
        """Set the currents of the sgens at position(s) ``k`` of ``sgen_ids``:
        numbers at one position, arrays at several."""
        self._s_cmd[k] = i_d - 1j * i_q

    def _sgen_currents(self) -> np.ndarray:
        """Injected network-frame currents on the system base."""
        return self._s_cmd * self._s_unit * self.s_scale

    # -- initialization --------------------------------------------------------

    def init_equilibrium(self, pf: PowerFlowResult) -> None:
        """Back-solve machine states from a solved power flow and freeze loads.

        Static generator commands must already be set to their equilibrium
        values.  Afterwards a disturbance-free run holds the operating
        point (machine accelerating power is zero to solver precision).
        """
        v = pf.v
        vm2 = np.abs(v) ** 2
        if np.any(vm2 < 1e-12):
            raise InitializationError("power-flow voltage collapsed at some bus")
        load_y = np.array([complex(bus.p_load, -bus.q_load) / x
                           for bus, x in zip(self.network.buses, vm2.tolist())])
        self._load_g = load_y.real.astype(complex)

        # machine power per bus = net injection - (schedule - scheduled machine power);
        # the bracket is exactly 0 at a machine bus with no load and no sgen
        p_gen = np.array([b.p_gen for b in self.network.buses])
        s_gen_bus = v * np.conj(self.ybus @ v) - (pf.s_sched - p_gen)

        vt = v[self.m_bus]
        e = vt + 1j * self.xd_p * np.conj(s_gen_bus[self.m_bus] / vt)
        self.delta, self.e_mag = np.angle(e), np.abs(e)
        self.domega = np.zeros_like(self.delta)
        if self._stiff_slack:
            vs = v[self._slack_idx]
            i_s = np.conj(s_gen_bus[self._slack_idx] / vs)
            self._slack_e = vs + 1j * _STIFF_SLACK_X * i_s

        v_s = v[self.s_bus]
        self._s_unit = v_s / np.abs(v_s)

        diag = load_y
        np.add.at(diag, self.m_bus, self.y_m)
        if self._stiff_slack:
            diag[self._slack_idx] += self._y_stiff
        self._y_dyn = (self.ybus + sp.diags(diag)).tocsc()
        self._lu_cache.clear()
        self._initialized = True

        # on the pre-fault network, also when a fault starts at t = 0: the
        # equilibrium is the power flow's, and the fault acts from the first step
        v_dyn = self.solve_network(-math.inf)
        deviation = float(np.max(np.abs(v_dyn - v)))
        if deviation > 1e-6:
            raise InitializationError(
                "dynamic network solution does not reproduce the power flow "
                f"(max deviation {deviation:.3e} pu)")
        self.init_diagnostics = {"iterations": pf.iterations, "max_mismatch":
                                 float(pf.max_mismatch), "equilibrium_deviation": deviation}
        self.pm = (e * v_dyn[self.m_bus].conj()).imag / self.xd_p
        vb = v_dyn[self.s_bus]
        self._measure(0.0, v_dyn, {}, self._sgen_currents(), vb, np.abs(vb), [
            x * cmath.rect(1.0, d) for x, d in zip(self.e_mag.tolist(), self.delta.tolist())])

    # -- network solution --------------------------------------------------

    def _lu_at(self, t: float) -> tuple[_Factor, dict[int, complex]]:
        shunts, key = self._fault_schedule[bisect.bisect_right(self._fault_bounds, t)]
        lu = self._lu_cache.get(key)
        if lu is None:
            nm, ns = len(self.m_bus), len(self.s_bus)
            rhs = np.zeros((self._n, nm + ns + 1), dtype=complex)
            rhs[self.m_bus, np.arange(nm)] = self.y_m
            rhs[self.s_bus, nm + np.arange(ns)] = 1.0
            rhs[self._slack_idx, -1] = self._slack_e * self._y_stiff if self._stiff_slack else 0.0
            try:
                z = spla.splu(ybus_with_shunts(self._y_dyn, shunts)).solve(rhs)
            except RuntimeError as exc:
                raise SingularNetworkError(f"dynamic admittance matrix: {exc}") from exc
            # the machine rows times E/x' stacked above the bus rows
            r = np.vstack(((self.e_mag / self.xd_p)[:, None] * z[self.m_bus], z))
            lu = self._lu_cache[key] = _Factor(r[nm:, :nm], r[:, nm:-1], r[:, -1],
                                               (r[:nm, :nm] * self.e_mag).tolist())
        return lu, shunts

    def solve_network(self, t: float = 0.0) -> np.ndarray:
        """The bus voltages at the current states (public, for inspection)."""
        self._require_init()
        lu, cur, nm = self._lu_at(t)[0], self._sgen_currents(), len(self.m_bus)
        return lu.z_m.dot(self.e_mag * np.exp(1j * self.delta)) + (
            lu.r_c[nm:].dot(cur) + lu.r_0[nm:])

    # -- integration ---------------------------------------------------------

    def advance(self, t0: float, duration: float, on_micro=None) -> GridMeasurements:
        """Integrate ``[t0, t0+duration]`` in micro steps and return the
        measurement committed at its end, which ``last_measurements`` holds.

        ``on_micro(t, (v_mag, p, q), h)`` runs before each micro step with
        the sgens' terminal voltage magnitudes and machine-base powers
        committed at its start, as lists in ``sgen_ids`` order; it may
        update static generator commands (used by embedded plant
        controllers), not the machine states, which the interval carries
        as numbers and commits to ``delta`` and ``domega`` at its end.
        """
        self._require_init()
        n, h = micro_grid(duration, self.micro_step)
        nm, hh, h6, w_s = len(self.m_bus), 0.5 * h, h / 6.0, self.omega_s
        pm, inv_2h, d_2h, e_mag = self.pm.tolist(), self._inv_2h, self._d_2h, self.e_mag.tolist()
        y = self.delta.tolist() + self.domega.tolist()       # [delta, domega]
        lu = self._lu_at(t0)[0]
        if on_micro is not None:
            v_mag, _, p, q = self.last_measurements.sgen_columns
            columns = v_mag, p, q
        for m in range(n):
            if on_micro is not None:
                on_micro(t0 + m * h, columns, h)
            # commands, the angle lag and the topology are fixed over the micro step
            cur = self._sgen_currents()
            r = lu.r_c.dot(cur) + lu.r_0
            a, b = lu.a, r[:nm].tolist()

            def rates(z):
                # Pe_i = Im(u_i conj(sum_j a_ij u_j + b_i)), u = exp(j delta), inline
                u, dw = [cmath.rect(1.0, d) for d in z[:nm]], z[nm:]
                return [w_s * x for x in dw] + [
                    c * (p - (ui * (sum(map(mul, row, u)) + bi).conjugate()).imag) - k * x
                    for c, k, p, ui, row, bi, x in zip(inv_2h, d_2h, pm, u, a, b, dw)]

            k1 = rates(y)
            k2 = rates([x + hh * k for x, k in zip(y, k1)])
            k3 = rates([x + hh * k for x, k in zip(y, k2)])
            k4 = rates([x + h * k for x, k in zip(y, k3)])
            y = [x + h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
                 for x, r1, r2, r3, r4 in zip(y, k1, k2, k3, k4)]
            tau_next = t0 + (m + 1) * h
            lu_start, (lu, shunts) = lu, self._lu_at(tau_next)
            if lu is not lu_start:                  # a fault edge at tau_next
                r = lu.r_c.dot(cur) + lu.r_0
            e = [x * cmath.rect(1.0, d) for x, d in zip(e_mag, y)]
            v = lu.z_m.dot(e) + r[nm:]
            # measure with the currents that actually entered the solve, then
            # advance the angle lag for the next step; anything else breaks
            # the energy bookkeeping when the bus angle jumps at an event
            vb = v[self.s_bus]
            vm = np.abs(vb)
            if m == n - 1:
                self._measure(tau_next, v, shunts, cur, vb, vm, e)
            elif on_micro is not None:
                columns = self._sgen_columns(vb, vm, cur)
            self._s_unit = vb / vm
        self.delta, self.domega = np.array(y[:nm]), np.array(y[nm:])
        return self.last_measurements

    def _require_init(self):
        if not self._initialized:
            raise InitializationError("RmsModel used before init_equilibrium")

    # -- measurements --------------------------------------------------------

    def _end_currents(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The voltage at each stacked branch end and the current entering the branch there."""
        end, other, y_self, y_mutual = self._ends
        v_end = v[end]
        return v_end, v_end * y_self + v[other] * y_mutual

    def _branch_flows(self, v: np.ndarray) -> list[np.ndarray]:
        """Complex power entering each branch at its from and to side."""
        v_end, i_end = self._end_currents(v)
        return np.split(v_end * np.conj(i_end), 2)

    def branch_losses(self, v: np.ndarray | None = None) -> np.ndarray:
        """Active power dissipated per branch (pu), aligned with
        ``network.branches``.  Uses the committed state when ``v`` is None."""
        self._require_init()
        if v is None:
            v = self.last_measurements.v
        sf, st = self._branch_flows(v)
        return (sf + st).real

    def _sgen_columns(self, vb: np.ndarray, vm: np.ndarray, cur: np.ndarray):
        """The sgens' ``v_mag = vm = |vb|``, ``p`` and ``q`` lists, machine base."""
        s_mach = vb * np.conj(cur) / self.s_scale
        return vm.tolist(), s_mach.real.tolist(), s_mach.imag.tolist()

    def _measure(self, t: float, v: np.ndarray, shunts: dict[int, complex], cur: np.ndarray,
                 vb: np.ndarray, vm: np.ndarray, e: list[complex]) -> GridMeasurements:
        """Commit the measurement of the solve ``v`` from the sgen currents ``cur``
        in it, with ``vb = v[s_bus]``, ``vm = |vb|`` and the machine EMFs ``e``."""
        v_mag, p, q = self._sgen_columns(vb, vm, cur)
        v_end, i_end = self._end_currents(v)
        pcc_v = pcc_theta = p_wpp = q_wpp = 0.0
        if self.pcc_bus is not None:
            vp = complex(v[self._index[self.pcc_bus]])
            pcc_v, pcc_theta = abs(vp), cmath.phase(vp)
            if self._pcc_end is not None:
                s_pcc = -vp * complex(i_end[self._pcc_end]).conjugate()
            else:
                s_pcc = complex(np.vdot(cur * self._at_pcc, vb))
            p_wpp, q_wpp = s_pcc.real * self.network.base_mva, s_pcc.imag * self.network.base_mva

        # independent balance bookkeeping: terminal currents, branch currents, loads
        gen = float(np.vdot(cur, vb).real) + sum(
            (vx * ((ex - vx) * y).conjugate()).real
            for ex, vx, y in zip(e, v[self.m_bus].tolist(), self.y_m.tolist()))
        if self._stiff_slack:
            v_s = complex(v[self._slack_idx])
            gen += (v_s * ((self._slack_e - v_s) * self._y_stiff).conjugate()).real
        load = float(np.vdot(v * self._load_g, v).real)
        loss = float(np.vdot(i_end, v_end).real)
        for i, y in shunts.items():
            loss += abs(complex(v[i])) ** 2 * y.real

        meas = GridMeasurements(
            t, v, (v_mag, np.arctan2(vb.imag, vb.real).tolist(), p, q), pcc_v=pcc_v,
            pcc_theta=pcc_theta, p_wpp_mw=p_wpp, q_wpp_mvar=q_wpp,
            balance=PowerBalance(generation=gen, load=load, loss=loss))
        self.last_measurements = meas
        return meas
