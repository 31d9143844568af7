"""Grid-side converter control of a wind turbine generator.

Two PI loops produce d/q current commands on the machine base: the
d loop tracks the active power reference, the q loop tracks either the
terminal voltage magnitude or the reactive power reference
(``q_mode``).  During a fault ride-through override the d axis is
blocked or follows the externally ramped reference, the q loop always
regulates voltage and receives the reactive boost as a feed-forward
term.

The current limiter caps the command vector at ``i_max``: the
prioritized axis keeps ``min(|value|, i_max)`` and the other axis is
clipped to the remaining headroom, signs preserved.  Active power has
priority in normal operation, reactive power whenever ride-through is
active.  Integrators freeze while their axis is clipped (conditional
anti-windup), so commands leave the limit without windup overshoot.

Sign convention matches the grid model: positive ``i_d`` injects active
power, positive ``i_q`` injects reactive power and supports the local
voltage.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from . import frt as _frt
from .cosim import SimComponent, VarKind
from .errors import NON_NEGATIVE, POSITIVE, EquilibriumInfeasibleError, check_domains


# the exchanged ``frt_mode`` integer back to its mode, without an enum call per step
_MODES = {int(m): m for m in _frt.Mode}


class Priority(enum.Enum):
    ACTIVE = "active"
    REACTIVE = "reactive"


class QMode(enum.Enum):
    VOLTAGE = "voltage"
    REACTIVE_POWER = "reactive_power"


# members as module names: reading one off its enum class costs about 0.2 us
_NORMAL, _RECOVERY = _frt.Mode.NORMAL, _frt.Mode.RECOVERY
_ACTIVE, _REACTIVE, _VOLTAGE = Priority.ACTIVE, Priority.REACTIVE, QMode.VOLTAGE


@dataclass(frozen=True)
class ConverterParams:
    """Gains and limits.  Defaults settle the power loop in about 100 ms
    and the faster q loop in about half that at gain-1 operating points."""

    kp_d: float = field(default=0.1, metadata=NON_NEGATIVE)
    ki_d: float = field(default=60.0, metadata=NON_NEGATIVE)
    kp_q: float = field(default=0.1, metadata=NON_NEGATIVE)
    ki_q: float = field(default=120.0, metadata=NON_NEGATIVE)
    i_max: float = field(default=1.1, metadata=POSITIVE)
    q_mode: QMode = QMode.VOLTAGE

    def __post_init__(self):
        check_domains(self, ValueError)
        object.__setattr__(self, "q_mode", QMode(self.q_mode))


def current_limit(i_d: float, i_q: float, i_max: float,
                  priority: Priority) -> tuple[float, float, bool, bool]:
    """Clip a d/q command pair to magnitude ``i_max``.

    Returns the clipped pair plus per-axis flags saying whether that
    axis was reduced.
    """
    if math.hypot(i_d, i_q) <= i_max:
        return i_d, i_q, False, False
    if priority is _REACTIVE:
        kept = math.copysign(min(abs(i_q), i_max), i_q)
        room = math.sqrt(max(0.0, i_max * i_max - kept * kept))
        other = math.copysign(min(abs(i_d), room), i_d)
        return other, kept, abs(other) < abs(i_d), abs(kept) < abs(i_q)
    kept = math.copysign(min(abs(i_d), i_max), i_d)
    room = math.sqrt(max(0.0, i_max * i_max - kept * kept))
    other = math.copysign(min(abs(i_q), room), i_q)
    return kept, other, abs(kept) < abs(i_d), abs(other) < abs(i_q)


class ConverterControl:
    """PI current-reference controller, usable standalone or embedded."""

    def __init__(self, params: ConverterParams, p_ref: float, q_ref: float = 0.0):
        self.params = params
        self.p_ref = p_ref
        self.q_ref = q_ref
        self.v_ref = 1.0
        self.integ_d = 0.0
        self.integ_q = 0.0
        self.i_d_cmd = 0.0
        self.i_q_cmd = 0.0

    def equilibrium(self, v_mag: float) -> tuple[float, float]:
        """Back-solve integrator states for steady state at voltage ``v_mag``.

        In voltage mode the reference is adapted to the realized operating
        point, as the plant-level dispatch fixes P and Q, not the voltage.
        """
        if v_mag <= 0.0:
            raise EquilibriumInfeasibleError(f"terminal voltage {v_mag} pu not usable")
        i_d = self.p_ref / v_mag
        i_q = self.q_ref / v_mag
        if math.hypot(i_d, i_q) > self.params.i_max + 1e-12:
            raise EquilibriumInfeasibleError(
                f"setpoints need {math.hypot(i_d, i_q):.4f} pu current, "
                f"limit is {self.params.i_max} pu")
        if self.params.q_mode is QMode.VOLTAGE:
            self.v_ref = v_mag
        self.integ_d = i_d
        self.integ_q = i_q
        self.i_d_cmd = i_d
        self.i_q_cmd = i_q
        return i_d, i_q

    def step(self, dt: float, v_mag: float, p_meas: float, q_meas: float,
             mode: _frt.Mode = _frt.Mode.NORMAL, block_active: bool = False,
             i_q_boost: float = 0.0, i_d_ref: float = 0.0) -> tuple[float, float]:
        p = self.params

        if block_active:
            i_d_pre = 0.0
            new_integ_d = 0.0
            d_tracks = True
        elif mode is _RECOVERY:
            i_d_pre = i_d_ref
            new_integ_d = i_d_pre
            d_tracks = True
        else:
            err_d = self.p_ref - p_meas
            new_integ_d = self.integ_d + p.ki_d * dt * err_d
            i_d_pre = p.kp_d * err_d + new_integ_d
            d_tracks = False

        use_voltage = mode is not _NORMAL or p.q_mode is _VOLTAGE
        err_q = (self.v_ref - v_mag) if use_voltage else (self.q_ref - q_meas)
        new_integ_q = self.integ_q + p.ki_q * dt * err_q
        i_q_pre = p.kp_q * err_q + new_integ_q + i_q_boost

        priority = _ACTIVE if mode is _NORMAL else _REACTIVE
        i_d, i_q, clip_d, clip_q = current_limit(i_d_pre, i_q_pre, p.i_max, priority)

        if d_tracks:
            self.integ_d = i_d           # follow override bumplessly
        elif not clip_d:
            self.integ_d = new_integ_d
        if not clip_q:
            self.integ_q = new_integ_q

        self.i_d_cmd, self.i_q_cmd = i_d, i_q
        return i_d, i_q


class ConverterComponent(SimComponent):
    """Co-simulation wrapper exposing one converter controller."""

    def __init__(self, component_id: str, params: ConverterParams,
                 p_ref: float, q_ref: float = 0.0):
        super().__init__(component_id)
        self.control = ConverterControl(params, p_ref, q_ref)
        # the seven inputs are declared in a row, in the order ``step`` takes them:
        # one slice of value references reads them all
        first = self.declare_input("v_meas", start=1.0).vr
        self.declare_input("p_meas", start=0.0)
        self.declare_input("q_meas", start=0.0)
        self.declare_input("frt_mode", kind=VarKind.INT, start=0)
        self.declare_input("block_active", kind=VarKind.BOOL, start=False)
        self.declare_input("i_q_boost", start=0.0)
        self._inputs = slice(first, self.declare_input("i_d_ref_frt", start=0.0).vr + 1)
        self._i_d = self.declare_output("i_d_cmd", start=p_ref).vr   # setpoints are the
        self._i_q = self.declare_output("i_q_cmd", start=q_ref).vr   # nominal commands

    def equilibrate(self) -> None:
        i_d, i_q = self.control.equilibrium(self.get("v_meas"))
        self.set("i_d_cmd", i_d)
        self.set("i_q_cmd", i_q)

    def _do_step(self, t: float, dt: float) -> None:
        values = self._values
        v_mag, p_meas, q_meas, frt_mode, block_active, i_q_boost, i_d_ref = values[self._inputs]
        try:
            mode = _MODES[frt_mode]
        except KeyError:
            raise ValueError(f"{frt_mode!r} is not a valid FRT mode") from None
        values[self._i_d], values[self._i_q] = self.control.step(
            dt, v_mag, p_meas, q_meas, mode, block_active, i_q_boost, i_d_ref)
