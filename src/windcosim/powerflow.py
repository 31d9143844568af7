"""Newton-Raphson power flow in polar coordinates.

Loads are constant power.  Static generators enter as fixed P/Q
injections at their buses (their setpoints, rescaled to the system
base), so a converter-dominated plant can be dispatched without a
voltage-controlled bus.  Convergence is max |mismatch| < ``TOL`` on both
active and reactive equations.

The flow runs on the bus admittance matrix ``RmsModel`` builds, and checks
nothing: a ``NetworkData`` checks itself when it is built.
The Jacobian is sparse on Y's pattern, laid out once per call: each
iteration fills it from MATPOWER's dS/dV terms and takes one sparse LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    s = {b.id: complex(b.p_gen - b.p_load, -b.q_load) for b in network.buses}   # in bus order
    for sg in network.sgens if sgen_pq else ():
        if sg.id in sgen_pq:
            s[sg.bus] += complex(*sgen_pq[sg.id]) * sg.mva / network.base_mva
    return np.fromiter(s.values(), complex, len(s))


def _jacobian_pattern(ybus: sp.csc_matrix, pvpq: np.ndarray, pq: np.ndarray):
    """One CSC Jacobian, and where each dS/dV term adds into its data.

    Terms: one per stored entry of Y (in any order), then one per bus, of dS/dVa,
    then of dS/dVm.  ``src`` picks a term's real or imaginary part, ``slot`` its entry.
    """
    y = ybus.tocsc()
    n, nj = y.shape[0], pvpq.size + pq.size
    rows = np.append(y.indices, np.arange(n))
    cols = np.append(np.repeat(np.arange(n), np.diff(y.indptr)), np.arange(n))
    pos = np.full((2, n), -1)                   # Jacobian row/column of each bus's P/angle, Q/|V|
    pos[0, pvpq], pos[1, pq] = np.arange(pvpq.size), pvpq.size + np.arange(pq.size)
    jr, jc = pos[:, None, rows], pos[None, :, cols]     # [P or Q row, angle or |V| column, term]
    keep = (jr >= 0) & (jc >= 0)
    src = (np.arange(2)[:, None, None] + 2 * np.arange(2 * rows.size).reshape(2, -1))[keep]
    keys, slot = np.unique((jc * nj + jr)[keep], return_inverse=True)
    idx = [a.astype(np.intc) for a in (keys % nj, np.searchsorted(keys, nj * np.arange(nj + 1)))]
    jac = sp.csc_matrix((np.zeros(keys.size), *idx), shape=(nj, nj))
    return jac, slot, src, y.indices, cols[:-n], np.conj(y.data)


def solve_power_flow(network: NetworkData, ybus: sp.csc_matrix,
                     sgen_pq: dict[str, tuple[float, float]] | None = None) -> PowerFlowResult:
    btypes = np.array([b.btype for b in network.buses])
    pq = np.flatnonzero(btypes == "pq")
    pvpq = np.append(np.flatnonzero(btypes == "pv"), pq)

    vm = np.array([b.v_set if b.btype in ("slack", "pv") else 1.0 for b in network.buses])
    va = np.zeros(len(network.buses))
    s_sched = scheduled_injections(network, sgen_pq)
    jac, slot, src, r, c, y_conj = _jacobian_pattern(ybus, pvpq, pq)
    eqs = np.append(2 * pvpq, 2 * pq + 1)       # P, then Q, in the mismatch viewed as floats

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            for it in range(MAX_ITER + 1):
                v = vm * np.exp(1j * va)
                s = v * np.conj(ybus @ v)
                f = (s - s_sched).view(float)[eqs]
                max_mis = float(np.abs(f).max()) if f.size else 0.0
                if max_mis < TOL:
                    return PowerFlowResult(v=v, iterations=it, max_mismatch=max_mis,
                                           bus_ids=[b.id for b in network.buses], s_sched=s_sched)
                if it == MAX_ITER:
                    break

                # dS/dVa = j[V] conj([I] - Y[V]), dS/dVm = [V] conj(Y[E]) + conj([I])[E],
                # with [x] = diag(x) and E = V/|V|; w holds Y's terms, s the diagonal's
                w = v[r] * np.conj(v)[c] * y_conj
                ds = np.concatenate([-1j * w, 1j * s, w / vm[c], s / vm])
                jac.data = np.bincount(slot, ds.view(float)[src], minlength=jac.nnz)
                try:
                    dx = spla.splu(jac).solve(-f)
                except RuntimeError as exc:
                    raise SingularNetworkError(f"power-flow Jacobian is singular: {exc}") from exc
                va[pvpq] += dx[: pvpq.size]
                vm[pq] += dx[pvpq.size:]
        except FloatingPointError as exc:      # splu would call the non-finite Jacobian singular
            raise PowerFlowDivergedError(it, np.inf, overflow=str(exc)) from exc

    raise PowerFlowDivergedError(iterations=MAX_ITER, mismatch=max_mis)
