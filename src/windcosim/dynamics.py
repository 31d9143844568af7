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
  equilibrium.
* If the power-flow slack bus hosts no machine it is retained as a
  stiff Norton source (constant EMF behind a very small reactance), so
  source-free test networks stay energized.

Integration is fixed-step RK4.  The network is solved at every stage;
the admittance matrix (and hence its factorization) is frozen over each
micro step, with fault shunts applied and removed exactly at micro-step
boundaries.  Removing a fault restores the pre-fault matrix object, so
apply/remove cycles are bit-exact.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InitializationError, SingularNetworkError
from .network import (FaultEvent, NetworkData, assemble_ybus, fault_breakpoints,
                      fault_shunts, ybus_with_shunts)
from .powerflow import PowerFlowResult

_STIFF_SLACK_X = 1e-6


@dataclass
class SgenMeasurement:
    v_mag: float
    theta: float
    p: float        # machine base
    q: float        # machine base


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
    t: float
    v: np.ndarray
    sgen: dict[str, SgenMeasurement] = field(default_factory=dict)
    pcc_v: float = 0.0
    pcc_theta: float = 0.0
    p_wpp_mw: float = 0.0
    q_wpp_mvar: float = 0.0
    balance: PowerBalance | None = None


def micro_grid(duration: float, micro_step: float) -> tuple[int, float]:
    """Split ``duration`` evenly into the fewest steps no longer than
    ``micro_step``: returns their number and their length."""
    n = max(1, math.ceil(duration / micro_step - 1e-9))
    return n, duration / n


class RmsModel:
    """Time-domain network model stepping machines and injections together."""

    def __init__(self, network: NetworkData, micro_step: float = 5e-4,
                 events: list[FaultEvent] | None = None,
                 pcc_bus: int | None = None,
                 pcc_branch: tuple[int, int] | None = None):
        network.validate()
        if micro_step <= 0.0:
            raise ValueError(f"micro_step must be positive, got {micro_step}")
        self.network = network
        self.micro_step = micro_step
        self.events = list(events or [])
        self.pcc_bus = pcc_bus
        self.pcc_branch = pcc_branch
        self.omega_s = network.omega_s

        self._index = network.bus_index()
        self._n = len(network.buses)
        self._ybus = assemble_ybus(network)

        machines = network.machines
        self.m_bus = np.array([self._index[m.bus] for m in machines], dtype=int)
        self.h = np.array([m.h for m in machines])
        self.d = np.array([m.d for m in machines])
        self.xd_p = np.array([m.xd_p for m in machines])
        self.y_m = 1.0 / (1j * self.xd_p) if machines else np.zeros(0, dtype=complex)
        # dynamic states and setpoints, filled by init_equilibrium
        self.delta = np.zeros(len(machines))
        self.domega = np.zeros(len(machines))
        self.e_mag = np.ones(len(machines))
        self.pm = np.zeros(len(machines))

        self.sgen_ids = [sg.id for sg in network.sgens]
        self._sgen_k = {sid: k for k, sid in enumerate(self.sgen_ids)}
        self.s_bus = np.array([self._index[sg.bus] for sg in network.sgens], dtype=int)
        self.s_scale = np.array([sg.mva / network.base_mva for sg in network.sgens])
        self._s_id = np.zeros(len(network.sgens))
        self._s_iq = np.zeros(len(network.sgens))
        self._s_on = np.ones(len(network.sgens))
        self._s_angle = np.zeros(len(network.sgens))

        self._slack_idx = next(i for i, b in enumerate(network.buses) if b.btype == "slack")
        has_machine_at_slack = any(self._index[m.bus] == self._slack_idx for m in machines)
        self._stiff_slack = not has_machine_at_slack
        self._slack_e = complex(network.buses[self._slack_idx].v_set, 0.0)
        self._y_stiff = 1.0 / (1j * _STIFF_SLACK_X)

        # branch flow helpers (vectorized loss computation)
        self._bf = np.array([self._index[br.from_bus] for br in network.branches], dtype=int)
        self._bt = np.array([self._index[br.to_bus] for br in network.branches], dtype=int)
        self._by = np.array([1.0 / complex(br.r, br.x) for br in network.branches])
        self._bsh = np.array([0.5j * br.b for br in network.branches])
        self._btap = np.array([br.tap for br in network.branches])

        self._load_y = np.zeros(self._n, dtype=complex)
        self._y_dyn: sp.csc_matrix | None = None
        self._lu_cache: dict[tuple, spla.SuperLU] = {}
        # fault schedule: the shunts, and their factorization cache key, on
        # each interval [b_{j-1}, b_j) between consecutive breakpoints
        self._fault_bounds = fault_breakpoints(self.events)
        firsts = [math.nextafter(self._fault_bounds[0], -math.inf)
                  if self._fault_bounds else 0.0] + self._fault_bounds
        self._fault_schedule = []
        for t in firsts:
            shunts = fault_shunts(network, self.events, t)
            key = tuple(sorted((i, y.real, y.imag) for i, y in shunts.items()))
            self._fault_schedule.append((shunts, key))
        self._initialized = False
        self.last_measurements: GridMeasurements | None = None

        self._pcc_br_idx: int | None = None
        self._pcc_br_from_side = True
        if pcc_branch is not None:
            fb, tb = pcc_branch
            for i, br in enumerate(network.branches):
                if (br.from_bus, br.to_bus) == (fb, tb):
                    self._pcc_br_idx, self._pcc_br_from_side = i, True
                    break
                if (br.from_bus, br.to_bus) == (tb, fb):
                    self._pcc_br_idx, self._pcc_br_from_side = i, False
                    break
            if self._pcc_br_idx is None:
                raise InitializationError(f"pcc branch {fb}-{tb} not found in network")

    # -- commands ------------------------------------------------------------

    def set_sgen_command(self, sgen_id: str, i_d: float | None = None,
                         i_q: float | None = None, status: bool | None = None) -> None:
        try:
            k = self._sgen_k[sgen_id]
        except KeyError:
            raise ValueError(f"no static generator '{sgen_id}'") from None
        if i_d is not None:
            self._s_id[k] = i_d
        if i_q is not None:
            self._s_iq[k] = i_q
        if status is not None:
            self._s_on[k] = 1.0 if status else 0.0

    def _sgen_currents(self) -> np.ndarray:
        """Injected network-frame currents on the system base."""
        return ((self._s_id - 1j * self._s_iq)
                * np.exp(1j * self._s_angle) * self.s_scale * self._s_on)

    # -- initialization --------------------------------------------------------

    def init_equilibrium(self, pf: PowerFlowResult,
                         sgen_pq: dict[str, tuple[float, float]] | None = None) -> None:
        """Back-solve machine states from a solved power flow and freeze loads.

        ``sgen_pq`` must be the same scheduled injections the power flow
        was run with; static generator commands must already be set to
        their equilibrium values.  Afterwards a disturbance-free run
        holds the operating point (machine accelerating power is zero to
        solver precision).
        """
        v = pf.v
        vm2 = np.abs(v) ** 2
        if np.any(vm2 < 1e-12):
            raise InitializationError("power-flow voltage collapsed at some bus")
        for i, bus in enumerate(self.network.buses):
            self._load_y[i] = complex(bus.p_load, -bus.q_load) / vm2[i]

        # generated power per bus = net injection + load - scheduled sgen share
        ibus = self._ybus @ v
        s_net = v * np.conj(ibus)
        s_gen_bus = s_net + np.array(
            [complex(b.p_load, b.q_load) for b in self.network.buses])
        if sgen_pq:
            for sg in self.network.sgens:
                if sg.id in sgen_pq:
                    p, q = sgen_pq[sg.id]
                    s_gen_bus[self._index[sg.bus]] -= complex(p, q) * sg.mva / self.network.base_mva

        if len(self.m_bus):
            vt = v[self.m_bus]
            ig = np.conj(s_gen_bus[self.m_bus] / vt)
            e = vt + 1j * self.xd_p * ig
            self.delta = np.angle(e)
            self.e_mag = np.abs(e)
            self.domega = np.zeros_like(self.delta)
        if self._stiff_slack:
            vs = v[self._slack_idx]
            i_s = np.conj(s_gen_bus[self._slack_idx] / vs)
            self._slack_e = vs + 1j * _STIFF_SLACK_X * i_s

        self._s_angle = np.angle(v[self.s_bus]) if len(self.s_bus) else self._s_angle

        diag = self._load_y.copy()
        if len(self.m_bus):
            np.add.at(diag, self.m_bus, self.y_m)
        if self._stiff_slack:
            diag[self._slack_idx] += self._y_stiff
        self._y_dyn = (self._ybus + sp.diags(diag)).tocsc()
        self._lu_cache.clear()
        self._initialized = True

        cur = self._sgen_currents()
        v_dyn = self._solve(self.delta, self._lu_at(0.0), cur)
        if np.max(np.abs(v_dyn - v)) > 1e-6:
            raise InitializationError(
                "dynamic network solution does not reproduce the power flow "
                f"(max deviation {np.max(np.abs(v_dyn - v)):.3e} pu)")
        self.pm = self._electrical_power(self.delta, v_dyn)
        self._measure(0.0, v_dyn, {}, cur)

    # -- network solution --------------------------------------------------

    def _lu_at(self, t: float):
        shunts, key = self._fault_schedule[bisect.bisect_right(self._fault_bounds, t)]
        lu = self._lu_cache.get(key)
        if lu is None:
            y = ybus_with_shunts(self._y_dyn, shunts)
            try:
                lu = spla.splu(y)
            except RuntimeError as exc:
                raise SingularNetworkError(f"dynamic admittance matrix: {exc}") from exc
            self._lu_cache[key] = lu
        return lu, shunts

    def _injections(self, delta: np.ndarray, cur: np.ndarray) -> np.ndarray:
        i_inj = np.zeros(self._n, dtype=complex)
        if len(self.m_bus):
            np.add.at(i_inj, self.m_bus, self.e_mag * np.exp(1j * delta) * self.y_m)
        if self._stiff_slack:
            i_inj[self._slack_idx] += self._slack_e * self._y_stiff
        if len(self.s_bus):
            np.add.at(i_inj, self.s_bus, cur)
        return i_inj

    def _solve(self, delta: np.ndarray, lu_shunts, cur: np.ndarray) -> np.ndarray:
        lu, _ = lu_shunts
        return lu.solve(self._injections(delta, cur))

    def _electrical_power(self, delta: np.ndarray, v: np.ndarray) -> np.ndarray:
        if not len(self.m_bus):
            return np.zeros(0)
        e = self.e_mag * np.exp(1j * delta)
        it = (e - v[self.m_bus]) * self.y_m
        return (e * np.conj(it)).real

    def solve_network(self, t: float = 0.0) -> np.ndarray:
        """One algebraic solve at the current states (public, for inspection)."""
        self._require_init()
        return self._solve(self.delta, self._lu_at(t), self._sgen_currents())

    # -- integration ---------------------------------------------------------

    def _derivs(self, delta, domega, lu_shunts, cur):
        v = self._solve(delta, lu_shunts, cur)
        pe = self._electrical_power(delta, v)
        ddelta = self.omega_s * domega
        ddomega = (self.pm - pe - self.d * domega) / (2.0 * self.h)
        return ddelta, ddomega

    def advance(self, t0: float, duration: float, on_micro=None) -> GridMeasurements:
        """Integrate ``[t0, t0+duration]`` in micro steps.

        ``on_micro(t, measurements, h)`` runs before each micro step with
        the measurements committed at its start; it may update static
        generator commands (used by embedded plant controllers).  Returns
        the measurements committed at ``t0 + duration``, the only ones
        committed when ``on_micro`` is None.
        """
        self._require_init()
        n, h = micro_grid(duration, self.micro_step)
        lu_shunts = self._lu_at(t0)
        for m in range(n):
            if on_micro is not None:
                on_micro(t0 + m * h, self.last_measurements, h)
            # commands and the angle lag are fixed over the micro step
            cur = self._sgen_currents()
            d0, w0 = self.delta, self.domega
            k1d, k1w = self._derivs(d0, w0, lu_shunts, cur)
            k2d, k2w = self._derivs(d0 + 0.5 * h * k1d, w0 + 0.5 * h * k1w, lu_shunts, cur)
            k3d, k3w = self._derivs(d0 + 0.5 * h * k2d, w0 + 0.5 * h * k2w, lu_shunts, cur)
            k4d, k4w = self._derivs(d0 + h * k3d, w0 + h * k3w, lu_shunts, cur)
            self.delta = d0 + (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d)
            self.domega = w0 + (h / 6.0) * (k1w + 2 * k2w + 2 * k3w + k4w)
            tau_next = t0 + (m + 1) * h
            lu_shunts = self._lu_at(tau_next)
            v = self._solve(self.delta, lu_shunts, cur)
            # measure with the currents that actually entered the solve, then
            # advance the angle lag for the next step; anything else breaks
            # the energy bookkeeping when the bus angle jumps at an event
            if on_micro is not None or m == n - 1:
                self._measure(tau_next, v, lu_shunts[1], cur)
            self._s_angle = np.angle(v[self.s_bus]) if len(self.s_bus) else self._s_angle
        return self.last_measurements

    def _require_init(self):
        if not self._initialized:
            raise InitializationError("RmsModel used before init_equilibrium")

    # -- measurements --------------------------------------------------------

    def _branch_flows(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Complex power entering each branch at its from and to side."""
        if not len(self._bf):
            z = np.zeros(0, dtype=complex)
            return z, z
        vf, vt = v[self._bf], v[self._bt]
        a = self._btap
        i_f = vf * (self._by + self._bsh) / (a * a) - vt * self._by / a
        i_t = vt * (self._by + self._bsh) - vf * self._by / a
        return vf * np.conj(i_f), vt * np.conj(i_t)

    def branch_losses(self, v: np.ndarray | None = None) -> np.ndarray:
        """Active power dissipated per branch (pu), aligned with
        ``network.branches``.  Uses the committed state when ``v`` is None."""
        self._require_init()
        if v is None:
            v = self.last_measurements.v
        sf, st = self._branch_flows(v)
        return (sf + st).real

    def _measure(self, t: float, v: np.ndarray, shunts: dict[int, complex],
                 cur: np.ndarray) -> GridMeasurements:
        sgen_meas: dict[str, SgenMeasurement] = {}
        s_sys_total = 0.0 + 0.0j
        if len(self.s_bus):
            vb = v[self.s_bus]
            s_sys = vb * np.conj(cur)
            s_mach = s_sys / self.s_scale
            sgen_meas = {sid: SgenMeasurement(v_mag, theta, p, q)
                         for sid, v_mag, theta, p, q in zip(
                             self.sgen_ids, np.abs(vb).tolist(), np.angle(vb).tolist(),
                             s_mach.real.tolist(), s_mach.imag.tolist())}
            s_sys_total = complex(np.sum(s_sys))

        sf, st = self._branch_flows(v)
        pcc_v = pcc_theta = 0.0
        p_wpp = q_wpp = 0.0
        if self.pcc_bus is not None:
            vp = v[self._index[self.pcc_bus]]
            pcc_v, pcc_theta = float(np.abs(vp)), float(np.angle(vp))
            if self._pcc_br_idx is not None:
                i = self._pcc_br_idx
                s_into_pcc = -(sf[i] if self._pcc_br_from_side else st[i])
            else:
                mask = self.s_bus == self._index[self.pcc_bus]
                s_into_pcc = complex(np.sum((v[self.s_bus] * np.conj(cur))[mask])) \
                    if len(self.s_bus) else 0.0
            p_wpp = float(s_into_pcc.real) * self.network.base_mva
            q_wpp = float(s_into_pcc.imag) * self.network.base_mva

        # independent balance bookkeeping
        gen = float(s_sys_total.real)
        if len(self.m_bus):
            e = self.e_mag * np.exp(1j * self.delta)
            it = (e - v[self.m_bus]) * self.y_m
            gen += float(np.sum((v[self.m_bus] * np.conj(it)).real))
        if self._stiff_slack:
            i_s = (self._slack_e - v[self._slack_idx]) * self._y_stiff
            gen += float((v[self._slack_idx] * np.conj(i_s)).real)
        load = float(np.sum(np.abs(v) ** 2 * self._load_y.real))
        loss = float(np.sum(sf.real + st.real))
        for i, y in shunts.items():
            loss += float(np.abs(v[i]) ** 2 * y.real)

        meas = GridMeasurements(
            t=t, v=v, sgen=sgen_meas, pcc_v=pcc_v, pcc_theta=pcc_theta,
            p_wpp_mw=p_wpp, q_wpp_mvar=q_wpp,
            balance=PowerBalance(generation=gen, load=load, loss=loss))
        self.last_measurements = meas
        return meas
