"""Exception types raised across the package, and the one check of input domains.

Every error callers are expected to catch programmatically gets its own
class; message strings are for humans, the classes and their attributes
are the machine-readable part.  ``check_domains`` checks the domain each
numeric dataclass field declares once, ``field(metadata=POSITIVE)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields

__all__ = [
    "CosimError", "WiringError", "DuplicateComponentError",
    "UnknownVariableError", "DirectionMismatchError",
    "KindMismatchError", "SinkAlreadyDrivenError", "InitializationError",
    "EquilibriumInfeasibleError", "ComponentStepError",
    "TopologyError", "PowerFlowDivergedError", "SingularNetworkError",
    "ScenarioError", "ScenarioParseError", "UnresolvedReferenceError",
    "ScenarioValidationError", "TraceError", "TraceAxisMismatchError",
    "UnknownChannelError", "EnvelopeCoverageError",
]


class CosimError(Exception):
    """Base class for all errors raised by this package."""


# --- master / wiring ------------------------------------------------------

class WiringError(CosimError):
    """Invalid component registration or connection request."""


class DuplicateComponentError(WiringError):
    pass


class UnknownVariableError(WiringError):
    pass


class DirectionMismatchError(WiringError):
    """Source is not an output or sink is not an input."""


class KindMismatchError(WiringError):
    """Source and sink variable kinds differ."""


class SinkAlreadyDrivenError(WiringError):
    """An input may be driven by at most one connection."""


class InitializationError(CosimError):
    """The initialization protocol could not reach a consistent state."""


class EquilibriumInfeasibleError(InitializationError):
    """Setpoints cannot be met within the converter current limit."""


class ComponentStepError(CosimError):
    """A component failed during a step or produced non-finite outputs."""

    def __init__(self, component_id: str, time: float, message: str):
        super().__init__(f"component '{component_id}' at t={time:.6f}: {message}")
        self.component_id = component_id
        self.time = time


# --- network / solvers ----------------------------------------------------

class TopologyError(CosimError):
    """Structurally invalid network (isolated bus, bad impedance, ...)."""


class PowerFlowDivergedError(CosimError):
    def __init__(self, iterations: int, mismatch: float, overflow: str = ""):
        why = (f"the mismatch overflowed at iteration {iterations} ({overflow})" if overflow
               else f"mismatch {mismatch:.3e} pu after {iterations} iterations")
        super().__init__(f"power flow did not converge: {why}")
        self.iterations = iterations
        self.mismatch = mismatch


class SingularNetworkError(CosimError):
    """Admittance matrix or power-flow Jacobian is singular."""


# --- scenario files -------------------------------------------------------

class ScenarioError(CosimError):
    pass


class ScenarioParseError(ScenarioError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnresolvedReferenceError(ScenarioError):
    def __init__(self, reference: str, message: str = ""):
        super().__init__(f"unresolved reference '{reference}'" + (f": {message}" if message else ""))
        self.reference = reference


class ScenarioValidationError(ScenarioError):
    pass


# --- traces / comparison --------------------------------------------------

class TraceError(CosimError):
    pass


class TraceAxisMismatchError(TraceError):
    """Two traces do not share the same time axis."""


class UnknownChannelError(TraceError):
    pass


class EnvelopeCoverageError(TraceError):
    """Trace is shorter than the envelope horizon it is checked against."""


# --- input domains -------------------------------------------------------

# field metadata: lower bound, whether it is accepted, the domain in messages
FINITE = {"domain": (-math.inf, False, "finite")}
NON_NEGATIVE = {"domain": (0.0, True, "finite and non-negative")}
POSITIVE = {"domain": (0.0, False, "finite and positive")}


@functools.cache
def _declared_domains(cls: type) -> tuple[tuple[str, float, bool, str], ...]:
    return tuple((f.name, *f.metadata["domain"]) for f in fields(cls) if "domain" in f.metadata)


def check_domains(record, error: type[Exception], label: str = "") -> None:
    """Raise ``error`` naming the first field of the dataclass ``record`` outside
    its declared domain; ``label`` names the record in the message."""
    for name, low, closed, text in _declared_domains(type(record)):
        value = getattr(record, name)
        if not (low <= value < math.inf if closed else low < value < math.inf):  # nan fails too
            raise error((f"{label}: " if label else "") + f"{name} must be {text}, got {value}")
