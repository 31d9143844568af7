"""Grid simulator wrapped as a co-simulation component.

Per static generator the component exposes current-command inputs
(``i_d_<id>``, ``i_q_<id>``, machine base) plus a connection-status
boolean, and measurement outputs (``v_<id>``, ``theta_<id>``,
``p_<id>``, ``q_<id>``).  Plant-level outputs give the PCC voltage,
the plant active/reactive power in physical units and the active-power
balance residual of the last network solution.  Additional bus voltage
magnitudes can be exported by id (``v_bus<k>``).

The component's ``RmsModel`` validates the network and builds its one
bus admittance matrix; the power flow runs on that matrix.

Initialization follows the staged protocol: ``equilibrate`` runs the
power flow with the plant setpoints fixed, publishes terminal voltages
and seeds the embedded controllers at their equilibrium; ``finish_init``
takes the other turbines' current commands from the inputs and
back-solves the dynamic equilibrium in both configurations, so a
disturbance-free run stays flat.

For the single-component (monolithic) configuration, controller pairs
can be embedded per turbine.  They are then stepped at every micro
step with the sgen measurements committed at its start, reproducing the
serial exchange pattern with the macro step shrunk to the micro step:
the converter consumes the supervisor's outputs of its previous step,
the supervisor sees the fresh converter command.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from .converter import ConverterControl
from .cosim import SimComponent, VarKind
from .dynamics import GridMeasurements, RmsModel
from .errors import ComponentStepError, UnknownVariableError
from .frt import FrtControl
from .network import FaultEvent, NetworkData
from .powerflow import solve_power_flow


class GridComponent(SimComponent):
    def __init__(self, component_id: str, network: NetworkData,
                 setpoints: dict[str, tuple[float, float]],
                 micro_step: float = 5e-4,
                 events: list[FaultEvent] | None = None,
                 pcc_bus: int | None = None,
                 pcc_branch: tuple[int, int] | None = None,
                 extra_bus_voltages: tuple[int, ...] = (),
                 embedded: dict[str, tuple[ConverterControl, FrtControl]] | None = None):
        super().__init__(component_id)
        self.network = network
        self.setpoints = dict(setpoints)
        self.model = RmsModel(network, micro_step=micro_step, events=events,
                              pcc_bus=pcc_bus, pcc_branch=pcc_branch)
        self.embedded = dict(embedded or {})
        self._ran_micro = False
        self._pf = None

        ids, k_of = self.model.sgen_ids, self.model._sgen_k
        for sid in list(self.setpoints) + list(self.embedded):
            if sid not in k_of:
                raise UnknownVariableError(f"no static generator '{sid}' in network")
        # resolved once for the step path; each getter reads one input column of the
        # commanded sgens (a tuple, or the bare value when only one sgen is commanded)
        commanded = [sid for sid in ids if sid not in self.embedded]
        self._command_k = np.array([k_of[sid] for sid in commanded], dtype=int)
        self._command_get = [itemgetter(*[f"{kind}_{sid}" for sid in commanded])
                             for kind in ("i_d", "i_q", "status")] if commanded else None
        self._sgen_outputs = [(f"v_{sid}", f"theta_{sid}", f"p_{sid}", f"q_{sid}") for sid in ids]
        self._embedded_at = [(k_of[sid], conv, sup, f"i_d_{sid}", f"i_q_{sid}", f"mode_{sid}")
                             for sid, (conv, sup) in self.embedded.items()]

        index = self.model._index
        for bid in extra_bus_voltages:
            if bid not in index:
                raise UnknownVariableError(f"cannot export v_bus{bid}: no bus {bid}")
        self._bus_exports = [(f"v_bus{bid}", index[bid]) for bid in extra_bus_voltages]

        for sg in network.sgens:
            p0, q0 = self.setpoints.get(sg.id, (0.0, 0.0))
            if sg.id not in self.embedded:
                self.declare_input(f"i_d_{sg.id}", start=p0)
                self.declare_input(f"i_q_{sg.id}", start=q0)
                self.declare_input(f"status_{sg.id}", kind=VarKind.BOOL, start=True)
            else:
                self.declare_output(f"i_d_{sg.id}", start=p0)
                self.declare_output(f"i_q_{sg.id}", start=q0)
                self.declare_output(f"mode_{sg.id}", kind=VarKind.INT, start=0)
            self.declare_output(f"v_{sg.id}", start=1.0)
            self.declare_output(f"theta_{sg.id}", start=0.0)
            self.declare_output(f"p_{sg.id}", start=p0)
            self.declare_output(f"q_{sg.id}", start=q0)
        self.declare_output("v_pcc", start=1.0)
        self.declare_output("theta_pcc", start=0.0)
        self.declare_output("p_wpp_mw", start=0.0)
        self.declare_output("q_wpp_mvar", start=0.0)
        self.declare_output("p_balance_residual", start=0.0)
        for name, _ in self._bus_exports:
            self.declare_output(name, start=1.0)

    # -- initialization ------------------------------------------------------

    def equilibrate(self) -> None:
        # p_<id> and q_<id> keep their start values, the setpoints the flow holds;
        # abs per scalar: np.abs over an array can round the last bit differently
        self._pf = solve_power_flow(self.network, self.model.ybus, self.setpoints)
        for (v_name, theta, _, _), v in zip(self._sgen_outputs, self._pf.v[self.model.s_bus]):
            self.set(v_name, abs(v))
            self.set(theta, float(np.angle(v)))
        for sid, (conv, sup) in self.embedded.items():
            i_d, i_q = conv.equilibrium(self.get(f"v_{sid}"))
            sup.seed(i_d)
            self.model.set_sgen_command(sid, i_d=i_d, i_q=i_q)

    def finish_init(self) -> None:
        self._take_commands()
        self.model.init_equilibrium(self._pf)
        self._publish_measurements(self.model.last_measurements)

    # -- stepping --------------------------------------------------------------

    def _take_commands(self) -> None:
        """Set the commanded turbines' currents and status from the inputs."""
        if self._command_get is not None:
            i_d, i_q, status = self._command_get
            values = self._values
            self.model.set_sgen_commands(self._command_k, i_d(values), i_q(values), status(values))

    def _on_micro(self, tau: float, columns: tuple[list[float], ...], h: float) -> None:
        if not self._ran_micro:
            # the first micro step still sees the exchanged equilibrium; the
            # controllers' first update consumes the first committed
            # measurement, mirroring the co-simulated exchange sequence
            self._ran_micro = True
            return
        v_mag, p, q = columns
        for k, conv, sup, _, _, _ in self._embedded_at:
            i_d, i_q = conv.step(h, v_mag[k], p[k], q[k], sup.mode, sup.block_active,
                                 sup.i_q_boost, sup.i_d_ref)
            sup.step(h, v_mag[k], i_d)
            self.model.set_sgen_commands(k, i_d, i_q, True)

    def _do_step(self, t: float, dt: float) -> None:
        self._take_commands()
        try:
            meas = self.model.advance(t, dt, on_micro=self._on_micro if self.embedded else None)
        except ValueError as exc:          # cmath.rect of an infinite machine angle
            raise ComponentStepError(self.component_id, t, f"machine states diverged ({exc})")
        self._publish_measurements(meas)

    # -- publishing ----------------------------------------------------------

    def _publish_measurements(self, meas: GridMeasurements) -> None:
        values = self._values
        for (v_name, theta_name, p_name, q_name), v, theta, p, q in zip(
                self._sgen_outputs, *meas.sgen_columns):
            values[v_name] = v
            values[theta_name] = theta
            values[p_name] = p
            values[q_name] = q
        for _, conv, sup, i_d, i_q, mode in self._embedded_at:
            values[i_d] = conv.i_d_cmd
            values[i_q] = conv.i_q_cmd
            values[mode] = int(sup.mode)
        values["v_pcc"] = meas.pcc_v
        values["theta_pcc"] = meas.pcc_theta
        values["p_wpp_mw"] = meas.p_wpp_mw
        values["q_wpp_mvar"] = meas.q_wpp_mvar
        values["p_balance_residual"] = meas.balance.residual
        for name, i in self._bus_exports:
            values[name] = float(np.abs(meas.v[i]))
