"""Independent reference implementations used only by the test suite.

Everything here is written from first principles with plain loops and
dense arrays, deliberately sharing no code or formulation with the
package: admittance assembly stamps element by element, the power flow
uses polar mismatch equations with a finite-difference Jacobian, and
the closed forms are derived by hand.  Slow is fine; different is the
point.
"""

from __future__ import annotations

import math

import numpy as np


def dense_ybus(network) -> np.ndarray:
    """Bus admittance matrix, one branch at a time, dense."""
    order = {bus.id: k for k, bus in enumerate(network.buses)}
    n = len(order)
    y = np.zeros((n, n), dtype=complex)
    for br in network.branches:
        i, j = order[br.from_bus], order[br.to_bus]
        ys = 1.0 / (br.r + 1j * br.x)
        ysh = 1j * br.b / 2.0
        a = br.tap
        y[i, i] += (ys + ysh) / a**2
        y[j, j] += ys + ysh
        y[i, j] += -ys / a
        y[j, i] += -ys / a
    return y


def _bus_powers(y: np.ndarray, vm: np.ndarray, va: np.ndarray) -> np.ndarray:
    """Injected complex power at every bus from the polar power equations."""
    d = va[:, None] - va[None, :]
    vv = vm[:, None] * vm[None, :]
    cos, sin = np.cos(d), np.sin(d)
    p = np.sum(vv * (y.real * cos + y.imag * sin), axis=1)
    q = np.sum(vv * (y.real * sin - y.imag * cos), axis=1)
    return p + 1j * q


def naive_power_flow(network, sgen_pq: dict | None = None,
                     tol: float = 1e-10, max_iter: int = 60):
    """Newton power flow with a finite-difference Jacobian.

    Returns (bus_ids, complex voltages).  Converges slowly and scales
    terribly (dense power equations once per Jacobian column); an oracle
    for networks of up to a few hundred buses.
    """
    sgen_pq = sgen_pq or {}
    buses = network.buses
    order = {bus.id: k for k, bus in enumerate(buses)}
    n = len(buses)
    y = dense_ybus(network)

    p_sched = np.zeros(n)
    q_sched = np.zeros(n)
    for bus in buses:
        k = order[bus.id]
        p_sched[k] = bus.p_gen - bus.p_load
        q_sched[k] = -bus.q_load
    for sg in network.sgens:
        p, q = sgen_pq.get(sg.id, (0.0, 0.0))
        scale = sg.mva / network.base_mva
        p_sched[order[sg.bus]] += p * scale
        q_sched[order[sg.bus]] += q * scale

    vm = np.ones(n)
    va = np.zeros(n)
    slack = pv = None
    pv_set, pq_set = [], []
    for bus in buses:
        k = order[bus.id]
        if bus.btype == "slack":
            slack = k
            vm[k] = bus.v_set
        elif bus.btype == "pv":
            pv_set.append(k)
            vm[k] = bus.v_set
        else:
            pq_set.append(k)
    angle_vars = [k for k in range(n) if k != slack]
    mag_vars = list(pq_set)

    def residual(vm, va):
        s = _bus_powers(y, vm, va)
        return np.concatenate([s.real[angle_vars] - p_sched[angle_vars],
                               s.imag[mag_vars] - q_sched[mag_vars]])

    for _ in range(max_iter):
        f0 = residual(vm, va)
        if np.max(np.abs(f0)) < tol:
            break
        m = len(f0)
        jac = np.zeros((m, m))
        h = 1e-7
        for col, k in enumerate(angle_vars):
            va2 = va.copy()
            va2[k] += h
            jac[:, col] = (residual(vm, va2) - f0) / h
        for col, k in enumerate(mag_vars):
            vm2 = vm.copy()
            vm2[k] += h
            jac[:, len(angle_vars) + col] = (residual(vm2, va) - f0) / h
        dx = np.linalg.solve(jac, -f0)
        for col, k in enumerate(angle_vars):
            va[k] += dx[col]
        for col, k in enumerate(mag_vars):
            vm[k] += dx[len(angle_vars) + col]
    else:
        raise AssertionError("oracle power flow did not converge")
    bus_ids = [bus.id for bus in buses]
    return bus_ids, vm * np.exp(1j * va)


def two_bus_voltage(p_inj: float, q_inj: float, r: float, x: float,
                    v_slack: float = 1.0) -> complex:
    """Closed-form receiving-end voltage for slack -- (r+jx) -- injection.

    With S = P + jQ injected at bus 2 and u = |V2|^2, the node equation
    S = conj(y) * (u - v1*V2) rearranges to V2 = (u - S*conj(z))/v1,
    and taking |.|^2 of that gives a quadratic in u:

        u^2 - u*(2*(P*r + Q*x) + v1^2) + (P^2 + Q^2)*|z|^2 = 0.

    The stable (high-voltage) operating point is the larger root, and
    the full phasor follows directly from the node equation.
    """
    alpha = p_inj * r + q_inj * x
    beta = q_inj * r - p_inj * x
    b = -(2.0 * alpha + v_slack * v_slack)
    c = (p_inj * p_inj + q_inj * q_inj) * (r * r + x * x)
    disc = b * b - 4.0 * c
    if disc < 0.0:
        raise AssertionError("no real solution: injection beyond transfer limit")
    u = (-b + math.sqrt(disc)) / 2.0
    return complex(u - alpha, -beta) / v_slack


def smib_frequency_hz(h_s: float, e1: float, e2: float, x_total: float,
                      delta0: float, omega_s: float) -> float:
    """Small-signal swing frequency of one machine on a stiff bus.

    Linearizing 2H/ws * d2(delta)/dt2 = -Ks * d(delta) with synchronizing
    torque Ks = E1*E2*cos(delta0)/X gives w = sqrt(ws*Ks/(2H)).
    """
    ks = e1 * e2 * math.cos(delta0) / x_total
    return math.sqrt(omega_s * ks / (2.0 * h_s)) / (2.0 * math.pi)


def branch_loss_pu(branch, v_from: complex, v_to: complex) -> float:
    """Active power lost in one pi-model branch, from terminal voltages."""
    ys = 1.0 / (branch.r + 1j * branch.x)
    ysh = 1j * branch.b / 2.0
    a = branch.tap
    i_f = v_from * (ys + ysh) / a**2 - v_to * ys / a
    i_t = v_to * (ys + ysh) - v_from * ys / a
    s = v_from * i_f.conjugate() + v_to * i_t.conjugate()
    return s.real


def ringdown(t: np.ndarray, f_hz: float, decay_per_cycle: float,
             amp: float = 1.0, offset: float = 0.0, phase: float = 0.3) -> np.ndarray:
    """Synthetic damped sinusoid with a prescribed per-cycle amplitude ratio."""
    sigma = math.log(decay_per_cycle) * f_hz     # 1/s
    return offset + amp * np.exp(-sigma * t) * np.cos(2 * np.pi * f_hz * t + phase)
