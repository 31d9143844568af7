"""Newton-Raphson power flow in polar coordinates.

Loads are constant power.  Static generators enter as fixed P/Q
injections at their buses (their setpoints, rescaled to the system
base), so a converter-dominated plant can be dispatched without a
voltage-controlled bus.  Convergence is max |mismatch| < ``TOL`` on both
active and reactive equations.

The flow runs on the bus admittance matrix it is given and validates
nothing: ``RmsModel`` validates the network and builds that one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import PowerFlowDivergedError, SingularNetworkError
from .network import NetworkData

TOL = 1e-8          # max |mismatch| in pu on the system base
MAX_ITER = 20


@dataclass
class PowerFlowResult:
    v: np.ndarray                 # complex bus voltages, network order
    iterations: int
    max_mismatch: float
    bus_ids: list[int]
    s_sched: np.ndarray           # the scheduled injection solved for, pu system base

    def voltage(self, bus_id: int) -> complex:
        return self.v[self.bus_ids.index(bus_id)]


def scheduled_injections(network: NetworkData,
                         sgen_pq: dict[str, tuple[float, float]] | None = None) -> np.ndarray:
    """Complex scheduled injection per bus: generation minus load, pu system base.

    ``sgen_pq`` maps static generator ids to (P, Q) on the *machine* base.
    """
    s = np.array([complex(b.p_gen - b.p_load, -b.q_load) for b in network.buses], dtype=complex)
    if sgen_pq:
        index = network.bus_index()
        for sg in network.sgens:
            if sg.id in sgen_pq:
                p, q = sgen_pq[sg.id]
                s[index[sg.bus]] += complex(p, q) * sg.mva / network.base_mva
    return s


def solve_power_flow(network: NetworkData, ybus: sp.csc_matrix,
                     sgen_pq: dict[str, tuple[float, float]] | None = None) -> PowerFlowResult:
    n = len(network.buses)
    btypes = [b.btype for b in network.buses]
    pv = [i for i, t in enumerate(btypes) if t == "pv"]
    pq = [i for i, t in enumerate(btypes) if t == "pq"]
    pvpq = pv + pq

    vm = np.array([b.v_set if b.btype in ("slack", "pv") else 1.0 for b in network.buses])
    va = np.zeros(n)
    s_sched = scheduled_injections(network, sgen_pq)

    for it in range(MAX_ITER + 1):
        v = vm * np.exp(1j * va)
        mis = v * np.conj(ybus @ v) - s_sched
        f = np.concatenate([mis[pvpq].real, mis[pq].imag])
        max_mis = float(np.max(np.abs(f))) if f.size else 0.0
        if max_mis < TOL:
            return PowerFlowResult(v=v, iterations=it, max_mismatch=max_mis,
                                   bus_ids=[b.id for b in network.buses], s_sched=s_sched)
        if it == MAX_ITER:
            break

        # complex Jacobian blocks dS/dVa, dS/dVm (dense; systems stay small)
        ibus = ybus @ v
        diag_v = np.diag(v)
        diag_i = np.diag(ibus)
        diag_e = np.diag(v / vm)
        y_dense = ybus.toarray()
        ds_dva = 1j * diag_v @ (diag_i - y_dense @ diag_v).conj()
        ds_dvm = diag_e @ np.conj(diag_i) + diag_v @ np.conj(y_dense @ diag_e)

        j11 = ds_dva[np.ix_(pvpq, pvpq)].real
        j12 = ds_dvm[np.ix_(pvpq, pq)].real
        j21 = ds_dva[np.ix_(pq, pvpq)].imag
        j22 = ds_dvm[np.ix_(pq, pq)].imag
        jac = np.block([[j11, j12], [j21, j22]])
        try:
            dx = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise SingularNetworkError(f"power-flow Jacobian is singular: {exc}") from exc
        va[pvpq] += dx[: len(pvpq)]
        vm[pq] += dx[len(pvpq):]

    raise PowerFlowDivergedError(iterations=MAX_ITER, mismatch=max_mis)
