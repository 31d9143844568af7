"""Grid simulator wrapped as a co-simulation component.

Per static generator the component exposes current-command inputs
(``i_d_<id>``, ``i_q_<id>``, machine base) and measurement outputs
(``v_<id>``, ``theta_<id>``, ``p_<id>``, ``q_<id>``).  Plant-level
outputs give the PCC voltage, the plant active/reactive power in
physical units and the active-power balance residual of the last
network solution.  Additional bus voltage magnitudes can be exported by
id (``v_bus<k>``).  Each kind of sgen
variable is declared as one run in network sgen order (inputs ``i_d_*``
and ``i_q_*`` of the commanded sgens, then the embedded ones' outputs,
then ``v_*``, ``theta_*``, ``p_*``, ``q_*``), so ``variables()`` lists
them run by run: a step reads the commands as two slices of the values
and writes the measurement columns as four.

The component wraps an ``RmsModel`` built by its caller, which has
built the network's one bus admittance matrix (a ``NetworkData`` checks
itself when it is built); the component reads the network from the
model, and the power flow runs on that matrix.

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

import dataclasses

import numpy as np

from .converter import ConverterControl
from .cosim import RunMetadata, SimComponent, VarKind
from .dynamics import GridMeasurements, RmsModel, micro_grid
from .errors import ComponentStepError, UnknownVariableError
from .frt import FrtControl
from .network import fault_switch_time
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

        known = set(model.sgen_ids)
        for sid in list(self.setpoints) + list(self.embedded):
            if sid not in known:
                raise UnknownVariableError(f"no static generator '{sid}' in network")
        for bid in extra_bus_voltages:
            if bid not in model._index:
                raise UnknownVariableError(f"cannot export v_bus{bid}: no bus {bid}")

        # each kind of sgen variable is one run of value references, which a step slices
        sids = model.sgen_ids
        p0 = [self.setpoints.get(sid, (0.0, 0.0))[0] for sid in sids]
        q0 = [self.setpoints.get(sid, (0.0, 0.0))[1] for sid in sids]

        def run(declare, prefix, starts, at=range(len(sids))) -> slice:
            first = len(self._values)
            for k in at:
                declare(f"{prefix}{sids[k]}", start=starts[k])
            return slice(first, len(self._values))

        commanded = [k for k, sid in enumerate(sids) if sid not in self.embedded]
        self._command_k = np.array(commanded, dtype=int)
        self._command_runs = (run(self.declare_input, "i_d_", p0, commanded),
                              run(self.declare_input, "i_q_", q0, commanded))
        self._embedded_at = [(k, *self.embedded[sid],
                              self.declare_output(f"i_d_{sid}", start=p0[k]).vr,
                              self.declare_output(f"i_q_{sid}", start=q0[k]).vr,
                              self.declare_output(f"mode_{sid}", kind=VarKind.INT, start=0).vr)
                             for k, sid in enumerate(sids) if sid in self.embedded]
        self._sgen_outputs = (run(self.declare_output, "v_", [1.0] * len(sids)),
                              run(self.declare_output, "theta_", [0.0] * len(sids)),
                              run(self.declare_output, "p_", p0), run(self.declare_output, "q_", q0))
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
        for k, conv, sup, _, _, _ in self._embedded_at:
            i_d, i_q = conv.equilibrium(self.get(f"v_{self.model.sgen_ids[k]}"))
            sup.seed(i_d)
            self.model.set_sgen_commands(k, i_d, i_q)

    def finish_init(self) -> None:
        self._take_commands()
        self.model.init_equilibrium(self._pf)
        self._publish_measurements(self.model.last_measurements)

    # -- stepping --------------------------------------------------------------

    def _take_commands(self) -> None:
        """Set the commanded turbines' currents from the inputs."""
        if self._command_k.size:
            values = self._values
            i_d, i_q = self._command_runs
            self.model.set_sgen_commands(self._command_k, np.array(values[i_d]),
                                         np.array(values[i_q]))

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
            self.model.set_sgen_commands(k, i_d, i_q)

    def _do_step(self, t: float, dt: float) -> None:
        self._take_commands()
        try:
            meas = self.model.advance(t, dt, on_micro=self._on_micro if self.embedded else None)
        except ValueError as exc:          # cmath.rect of an infinite machine angle
            raise ComponentStepError(self.component_id, t, f"machine states diverged ({exc})")
        self._publish_measurements(meas)

    # -- reporting -----------------------------------------------------------

    def report(self, meta: RunMetadata) -> None:
        """Add the faults as requested, a warning for each one starting at or after the end
        of the run and each edge off the micro-step grid, and the init diagnostics."""
        meta.events += [dataclasses.asdict(ev) for ev in self.model.events]
        _, h = micro_grid(meta.macro_step, self.model.micro_step)
        for ev in self.model.events:
            if ev.start >= meta.t_end:
                meta.warnings.append(f"fault at bus {ev.bus}: start {ev.start:.12g} s is at or "
                                     f"after the end of the run ({meta.t_end:.12g} s); it has "
                                     f"no effect")
            for what, t in (("start", ev.start), ("clearance", ev.clearance)):
                applied = fault_switch_time(t, h)
                if abs(applied - t) > 1e-9:
                    meta.warnings.append(
                        f"fault at bus {ev.bus}: {what} {t:.12g} s is off the {h:.12g} s "
                        f"micro-step grid; applied at {applied:.12g} s")
        meta.init = dict(self.model.init_diagnostics)

    # -- publishing ----------------------------------------------------------

    def _publish_measurements(self, meas: GridMeasurements) -> None:
        values = self._values
        for run, column in zip(self._sgen_outputs, meas.sgen_columns):
            values[run] = column
        for _, conv, sup, i_d, i_q, mode in self._embedded_at:
            values[i_d] = conv.i_d_cmd
            values[i_q] = conv.i_q_cmd
            values[mode] = int(sup.mode)
        values[self._plant_outputs] = (meas.pcc_v, meas.pcc_theta, meas.p_wpp_mw,
                                       meas.q_wpp_mvar, meas.balance.residual)
        for vr, i in self._bus_exports:
            values[vr] = float(np.abs(meas.v[i]))
