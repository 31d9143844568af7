"""Grid simulator wrapped as a co-simulation component.

Per static generator the component exposes current-command inputs
(``i_d_<id>``, ``i_q_<id>``, machine base) plus a connection-status
boolean, and measurement outputs (``v_<id>``, ``theta_<id>``,
``p_<id>``, ``q_<id>``).  Plant-level outputs give the PCC voltage,
the plant active/reactive power in physical units and the active-power
balance residual of the last network solution.  Additional bus voltage
magnitudes can be exported by id (``v_bus<k>``).

Initialization follows the staged protocol: ``equilibrate`` runs the
power flow with the plant setpoints fixed, publishes terminal voltages
and seeds the embedded controllers at their equilibrium; ``finish_init``
takes the other turbines' current commands from the inputs and
back-solves the dynamic equilibrium in both configurations, so a
disturbance-free run stays flat.

For the single-component (monolithic) configuration, controller pairs
can be embedded per turbine.  They are then stepped at every micro
step with the measurement committed at its start, reproducing the
serial exchange pattern with the macro step shrunk to the micro step:
the converter consumes the previous ride-through override, the
supervisor sees the fresh converter command.
"""

from __future__ import annotations

import numpy as np

from .converter import ConverterControl
from .cosim import SimComponent, VarKind
from .dynamics import GridMeasurements, RmsModel
from .errors import UnknownVariableError
from .frt import FrtControl, FrtOverride, Mode
from .network import FaultEvent, NetworkData
from .powerflow import solve_power_flow


class _EmbeddedWtg:
    """Converter + supervisor pair stepped inside the grid component."""

    def __init__(self, converter: ConverterControl, supervisor: FrtControl):
        self.converter = converter
        self.supervisor = supervisor
        self.override = FrtOverride(Mode.NORMAL, False, 0.0, 0.0)


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
        self.embedded = {sid: _EmbeddedWtg(c, f)
                         for sid, (c, f) in (embedded or {}).items()}
        self._ran_micro = False
        self._pf = None

        known = {sg.id for sg in network.sgens}
        for sid in list(self.setpoints) + list(self.embedded):
            if sid not in known:
                raise UnknownVariableError(f"no static generator '{sid}' in network")
        # per-sgen variable names, resolved once for the step path
        self._command_names = [(sg.id, f"i_d_{sg.id}", f"i_q_{sg.id}", f"status_{sg.id}")
                               for sg in network.sgens if sg.id not in self.embedded]
        self._sgen_outputs = [(f"v_{sg.id}", f"theta_{sg.id}", f"p_{sg.id}", f"q_{sg.id}")
                              for sg in network.sgens]
        self._embedded_outputs = [(wtg, f"i_d_{sid}", f"i_q_{sid}", f"mode_{sid}")
                                  for sid, wtg in self.embedded.items()]

        index = network.bus_index()
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
        self._pf = solve_power_flow(self.network, sgen_pq=self.setpoints)
        index = self.network.bus_index()
        for sg in self.network.sgens:
            v = self._pf.v[index[sg.bus]]
            p0, q0 = self.setpoints.get(sg.id, (0.0, 0.0))
            self.set(f"v_{sg.id}", abs(v))
            self.set(f"theta_{sg.id}", float(np.angle(v)))
            self.set(f"p_{sg.id}", p0)
            self.set(f"q_{sg.id}", q0)
        for sid, wtg in self.embedded.items():
            i_d, i_q = wtg.converter.equilibrium(self.get(f"v_{sid}"))
            wtg.supervisor.seed(i_d)
            self.model.set_sgen_command(sid, i_d=i_d, i_q=i_q)

    def finish_init(self) -> None:
        self._take_commands()
        self.model.init_equilibrium(self._pf, sgen_pq=self.setpoints)
        self._publish_measurements(self.model.last_measurements)

    # -- stepping --------------------------------------------------------------

    def _take_commands(self) -> None:
        """Set the commanded turbines' currents and status from the inputs."""
        values, command = self._values, self.model.set_sgen_command
        for sid, i_d, i_q, status in self._command_names:
            command(sid, i_d=values[i_d], i_q=values[i_q], status=values[status])

    def _on_micro(self, tau: float, meas: GridMeasurements, h: float) -> None:
        if not self._ran_micro:
            # the first micro step still sees the exchanged equilibrium; the
            # controllers' first update consumes the first committed
            # measurement, mirroring the co-simulated exchange sequence
            self._ran_micro = True
            return
        for sid, wtg in self.embedded.items():
            m = meas.sgen[sid]
            i_d, i_q = wtg.converter.step(h, m.v_mag, m.p, m.q, *wtg.override)
            wtg.override = wtg.supervisor.step(h, m.v_mag, i_d)
            self.model.set_sgen_command(sid, i_d=i_d, i_q=i_q)

    def _do_step(self, t: float, dt: float) -> None:
        self._take_commands()
        meas = self.model.advance(t, dt, on_micro=self._on_micro if self.embedded else None)
        self._publish_measurements(meas)

    # -- publishing ----------------------------------------------------------

    def _publish_measurements(self, meas: GridMeasurements) -> None:
        values = self._values
        for (v, theta, p, q), m in zip(self._sgen_outputs, meas.sgen.values()):
            values[v] = m.v_mag
            values[theta] = m.theta
            values[p] = m.p
            values[q] = m.q
        for wtg, i_d, i_q, mode in self._embedded_outputs:
            values[i_d] = wtg.converter.i_d_cmd
            values[i_q] = wtg.converter.i_q_cmd
            values[mode] = int(wtg.override.mode)
        values["v_pcc"] = meas.pcc_v
        values["theta_pcc"] = meas.pcc_theta
        values["p_wpp_mw"] = meas.p_wpp_mw
        values["q_wpp_mvar"] = meas.q_wpp_mvar
        values["p_balance_residual"] = meas.balance.residual
        for name, i in self._bus_exports:
            values[name] = float(np.abs(meas.v[i]))
