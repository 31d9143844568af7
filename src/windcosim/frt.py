"""Fault ride-through supervision for a wind turbine generator.

A three-state machine watches the terminal voltage magnitude:

NORMAL --(V < v_enter)--> FAULT --(V >= v_exit held for the deglitch
time)--> RECOVERY --(active-current ramp complete)--> NORMAL, with
RECOVERY --(V < v_enter)--> FAULT allowed on a re-dip.  No other
transition can occur: each state's branch of ``FrtControl.step`` sets
only these successors.

While in FAULT the active current is blocked and the reactive command
receives a boost proportional to the voltage shortfall,
``k_boost * max(0, v_enter - V)``.  On the NORMAL->FAULT edge (and only
there) the present active-current command is latched; after clearance
the reference is ramped from its clearance value back to that latched
value at ``ramp_rate`` (or restored in one step when ramping is
disabled).

The exit threshold carries a deglitch timer so a voltage hovering at
the boundary cannot chatter the machine; entry is immediate so the
blocking response is not delayed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .cosim import SimComponent, VarKind
from .errors import NON_NEGATIVE, POSITIVE, EnvelopeCoverageError, TraceError, check_domains


class Mode(enum.IntEnum):
    NORMAL = 0
    FAULT = 1
    RECOVERY = 2


# the members as module names: reading one off its enum class costs about 0.2 us
_NORMAL, _FAULT, _RECOVERY = Mode.NORMAL, Mode.FAULT, Mode.RECOVERY


@dataclass(frozen=True)
class FrtParams:
    v_enter: float = 0.9
    v_exit: float = 0.9
    deglitch: float = field(default=0.02, metadata=NON_NEGATIVE)
    k_boost: float = field(default=2.0, metadata=NON_NEGATIVE)
    ramp_rate: float = field(default=1.0, metadata=POSITIVE)     # pu/s, machine base
    ramp_enabled: bool = True

    def __post_init__(self):
        if not (0.0 < self.v_enter <= self.v_exit < 1.0):
            raise ValueError(
                f"need 0 < v_enter <= v_exit < 1, got {self.v_enter}, {self.v_exit}")
        check_domains(self, ValueError)


class FrtControl:
    """The supervisor.  Its outputs are the attributes ``mode``, ``block_active``,
    ``i_q_boost`` and ``i_d_ref``, the last four arguments of ``ConverterControl.step``."""

    def __init__(self, params: FrtParams):
        self.params = params
        self.mode = Mode.NORMAL
        self.block_active = False
        self.i_q_boost = 0.0
        self.prefault_i_d = 0.0
        self.i_d_ref = 0.0
        self._above_timer = 0.0
        # command seen one step ago: at the step where the dip first shows
        # up in the measurements the present command has already reacted
        # to it, so the pre-disturbance value is the previous sample's
        self._prev_cmd = 0.0

    def seed(self, i_d_cmd: float) -> None:
        """Set the remembered command at an equilibrium operating point."""
        self.prefault_i_d = i_d_cmd
        self.i_d_ref = i_d_cmd
        self._prev_cmd = i_d_cmd

    def step(self, dt: float, v_mag: float, i_d_cmd_meas: float) -> None:
        p = self.params
        prev = self.mode
        if prev is _NORMAL:
            if v_mag < p.v_enter:
                self.mode = _FAULT
                self.prefault_i_d = self._prev_cmd
                self._above_timer = 0.0
        elif prev is _FAULT:
            if v_mag >= p.v_exit:
                self._above_timer += dt
                if self._above_timer >= p.deglitch - 1e-12:
                    self.mode = _RECOVERY
                    self.i_d_ref = i_d_cmd_meas
            else:
                self._above_timer = 0.0
        else:
            if v_mag < p.v_enter:
                self.mode = _FAULT
                self._above_timer = 0.0
            else:
                if p.ramp_enabled:
                    room = p.ramp_rate * dt
                    diff = self.prefault_i_d - self.i_d_ref
                    self.i_d_ref += min(max(diff, -room), room)
                else:
                    self.i_d_ref = self.prefault_i_d
                if abs(self.i_d_ref - self.prefault_i_d) < 1e-12:
                    self.i_d_ref = self.prefault_i_d
                    self.mode = _NORMAL
        mode = self.mode
        self._prev_cmd = i_d_cmd_meas
        self.block_active = mode is _FAULT
        self.i_q_boost = p.k_boost * max(0.0, p.v_enter - v_mag) if mode is not _NORMAL else 0.0


class FrtComponent(SimComponent):
    """Co-simulation wrapper exposing one ride-through supervisor."""

    def __init__(self, component_id: str, params: FrtParams):
        super().__init__(component_id)
        self.control = FrtControl(params)
        self._v = self.declare_input("v_meas", start=1.0).vr
        self._i_d_cmd = self.declare_input("i_d_cmd_meas", start=0.0).vr
        # the four outputs are declared in a row: one slice of value references
        first = self.declare_output("mode", kind=VarKind.INT, start=int(Mode.NORMAL)).vr
        self.declare_output("block_active", kind=VarKind.BOOL, start=False)
        self.declare_output("i_q_boost", start=0.0)
        self._outputs = slice(first, self.declare_output("i_d_ref_limited", start=0.0).vr + 1)

    def equilibrate(self) -> None:
        # design operating point is healthy voltage; seed the latch with
        # the equilibrium command so an immediate fault latches sensibly
        self.control.seed(self.get("i_d_cmd_meas"))
        self.set("i_d_ref_limited", self.get("i_d_cmd_meas"))

    def _do_step(self, t: float, dt: float) -> None:
        values, c = self._values, self.control
        c.step(dt, values[self._v], values[self._i_d_cmd])
        values[self._outputs] = int(c.mode), c.block_active, c.i_q_boost, c.i_d_ref


# -- voltage envelope ---------------------------------------------------------

DEFAULT_ENVELOPE_POINTS = ((0.0, 0.0), (0.2, 0.0), (1.5, 0.9))


@dataclass(frozen=True)
class FrtEnvelope:
    """Piecewise-linear minimum-voltage profile after a dip onset."""

    points: tuple[tuple[float, float], ...] = DEFAULT_ENVELOPE_POINTS

    def __post_init__(self):
        ts = [p[0] for p in self.points]
        vs = [p[1] for p in self.points]
        if len(self.points) < 2 or ts[0] != 0.0:
            raise ValueError("envelope needs >= 2 points starting at t=0")
        if not (np.isfinite(ts).all() and (np.diff(ts) > 0.0).all()):
            raise ValueError("envelope times must be finite and strictly increasing")
        if any(not (0.0 <= v < 1.0) for v in vs):
            raise ValueError("envelope voltages must lie in [0, 1)")

    @property
    def horizon(self) -> float:
        return self.points[-1][0]

    def min_voltage(self, dt_since_onset: float | np.ndarray) -> float | np.ndarray:
        ts, vs = zip(*self.points)
        return np.interp(dt_since_onset, ts, vs)


@dataclass(frozen=True)
class EnvelopeResult:
    compliant: bool
    first_violation_time: float | None = None
    margin: float = 0.0             # min over horizon of V - envelope


def envelope_check(time: np.ndarray, voltage: np.ndarray, onset: float,
                   envelope: FrtEnvelope | None = None) -> EnvelopeResult:
    """Check a PCC voltage trace against a ride-through envelope.

    The trace must cover ``[onset, onset + envelope.horizon]``.
    """
    env = envelope or FrtEnvelope()
    time = np.asarray(time, dtype=float)
    voltage = np.asarray(voltage, dtype=float)
    if time.size == 0 or time[0] > onset or time[-1] < onset + env.horizon - 1e-9:
        raise EnvelopeCoverageError(
            f"trace [{time[0] if time.size else '-'}, {time[-1] if time.size else '-'}] "
            f"does not cover envelope horizon [{onset}, {onset + env.horizon}]")
    mask = (time >= onset - 1e-12) & (time <= onset + env.horizon + 1e-12)
    ts = time[mask]
    margins = voltage[mask] - env.min_voltage(ts - onset)
    finite = np.isfinite(margins)
    if not finite.all():                # a NaN sample compares false: it would never violate
        raise TraceError(f"voltage sample at t = {ts[~finite][0]:.6g} s is not finite")
    worst = float(margins.min())
    bad = margins < -1e-12
    if bad.any():
        first = int(np.argmax(bad))
        return EnvelopeResult(False, float(ts[first]), worst)
    return EnvelopeResult(True, None, worst)
