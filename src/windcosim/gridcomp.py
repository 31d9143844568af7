"""Grid simulator wrapped as a co-simulation component.

Per static generator the component exposes current-command inputs
(``i_d_<id>``, ``i_q_<id>``, machine base) plus a connection-status
boolean, and measurement outputs (``v_<id>``, ``theta_<id>``,
``p_<id>``, ``q_<id>``).  Plant-level outputs give the PCC voltage,
the plant active/reactive power in physical units and the active-power
balance residual of the last network solution.  Additional bus voltage
magnitudes can be exported by id (``v_bus<k>``).

The component wraps an ``RmsModel`` built by its caller, which has
validated the network and built its one bus admittance matrix; the
component reads the network from the model, and the power flow runs on
that matrix.

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
from .powerflow import solve_power_flow


class GridComponent(SimComponent):
    def __init__(self, component_id: str, model: RmsModel,
                 setpoints: dict[str, tuple[float, float]],
                 extra_bus_voltages: tuple[int, ...] = (),
                 embedded: dict[str, tuple[ConverterControl, FrtControl]] | None = None):
        super().__init__(component_id)
        self.model = model
        self.setpoints = dict(setpoints)
        self.embedded = dict(embedded or {})
        self._ran_micro = False
        self._pf = None

        for sid in list(self.setpoints) + list(self.embedded):
            if sid not in model._sgen_k:
                raise UnknownVariableError(f"no static generator '{sid}' in network")
        for bid in extra_bus_voltages:
            if bid not in model._index:
                raise UnknownVariableError(f"cannot export v_bus{bid}: no bus {bid}")

        # the step path's tables hold value references: each getter reads one input
        # column of the commanded sgens (a tuple, or the bare value for one sgen)
        commanded, self._sgen_outputs, self._embedded_at = [], [], []
        for k, sg in enumerate(model.network.sgens):
            sid = sg.id
            p0, q0 = self.setpoints.get(sid, (0.0, 0.0))
            if sid not in self.embedded:
                commanded.append((k, self.declare_input(f"i_d_{sid}", start=p0).vr,
                                  self.declare_input(f"i_q_{sid}", start=q0).vr,
                                  self.declare_input(f"status_{sid}", kind=VarKind.BOOL,
                                                     start=True).vr))
            else:
                self._embedded_at.append((k, *self.embedded[sid],
                                          self.declare_output(f"i_d_{sid}", start=p0).vr,
                                          self.declare_output(f"i_q_{sid}", start=q0).vr,
                                          self.declare_output(f"mode_{sid}", kind=VarKind.INT,
                                                              start=0).vr))
            self._sgen_outputs.append((self.declare_output(f"v_{sid}", start=1.0).vr,
                                       self.declare_output(f"theta_{sid}", start=0.0).vr,
                                       self.declare_output(f"p_{sid}", start=p0).vr,
                                       self.declare_output(f"q_{sid}", start=q0).vr))
        self._command_k = np.array([k for k, *_ in commanded], dtype=int)
        self._command_get = ([itemgetter(*column) for column in list(zip(*commanded))[1:]]
                             if commanded else None)
        # the five plant outputs are declared in a row: one slice of value references
        first = self.declare_output("v_pcc", start=1.0).vr
        self.declare_output("theta_pcc", start=0.0)
        self.declare_output("p_wpp_mw", start=0.0)
        self.declare_output("q_wpp_mvar", start=0.0)
        self.declare_output("p_balance_residual", start=0.0)
        self._plant_outputs = slice(first, first + 5)
        self._bus_exports = [(self.declare_output(f"v_bus{bid}", start=1.0).vr,
                              model._index[bid]) for bid in extra_bus_voltages]

    # -- initialization ------------------------------------------------------

    def equilibrate(self) -> None:
        # p_<id> and q_<id> keep their start values, the setpoints the flow holds;
        # abs per scalar: np.abs over an array can round the last bit differently
        self._pf = solve_power_flow(self.model.network, self.model.ybus, self.setpoints)
        for sid, v in zip(self.model.sgen_ids, self._pf.v[self.model.s_bus]):
            self.set(f"v_{sid}", abs(v))
            self.set(f"theta_{sid}", float(np.angle(v)))
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
        for (v_vr, theta_vr, p_vr, q_vr), v, theta, p, q in zip(
                self._sgen_outputs, *meas.sgen_columns):
            values[v_vr] = v
            values[theta_vr] = theta
            values[p_vr] = p
            values[q_vr] = q
        for _, conv, sup, i_d, i_q, mode in self._embedded_at:
            values[i_d] = conv.i_d_cmd
            values[i_q] = conv.i_q_cmd
            values[mode] = int(sup.mode)
        values[self._plant_outputs] = (meas.pcc_v, meas.pcc_theta, meas.p_wpp_mw,
                                       meas.q_wpp_mvar, meas.balance.residual)
        for vr, i in self._bus_exports:
            values[vr] = float(np.abs(meas.v[i]))
