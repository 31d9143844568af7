"""Collector-system layout and its lumped equivalent.

A plant collector is modeled as radial strings of identical turbines
hanging off the collector bus.  Under the equal-current assumption the
loss-equivalent series impedance of one string is

    Z_eq = sum_k m_k^2 * Z_k / N^2

where segment ``k`` carries the current of ``m_k`` downstream turbines
and ``N`` is the string size; parallel strings combine as parallel
impedances.  Aggregating this way preserves total series loss for
uniform turbine dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TopologyError

# the shipped collector: a 33 kV cable with 0.7 km between turbines; its per-km
# resistance and reactance (ohm) and capacitance (uF), the charging quoted at 50 Hz
COLLECTOR_KV, SPACING_KM = 33.0, 0.7
CABLE_R_OHM, CABLE_X_OHM, CABLE_C_UF, CABLE_HZ = 0.10, 0.12, 0.19, 50.0


@dataclass(frozen=True)
class CollectorString:
    """One radial feeder: ``segments[k]`` connects turbine k+1, listed
    from the collector bus outward, one turbine at the end of each
    segment."""

    segments: tuple[complex, ...]

    def __post_init__(self):
        if not self.segments:
            raise TopologyError("string has no segments")
        if any(z.real < 0.0 for z in self.segments):
            raise TopologyError("segment resistance must be non-negative")
        if any(z == 0.0 for z in self.segments):
            raise TopologyError("segment impedance must be non-zero")

    @property
    def size(self) -> int:
        return len(self.segments)


def string_equivalent(string: CollectorString) -> complex:
    n = string.size
    acc = 0.0 + 0.0j
    for k, z in enumerate(string.segments):
        m = n - k
        acc += (m * m) * z
    return acc / (n * n)


def plant_equivalent(strings: list[CollectorString]) -> complex:
    if not strings:
        raise TopologyError("no strings given")
    y = sum(1.0 / string_equivalent(s) for s in strings)
    return 1.0 / y


@dataclass(frozen=True)
class WppLayout:
    """Regular rectangular plant layout: ``n_strings`` radial feeders of
    ``turbines_per_string`` turbines on the shipped collector cable."""

    n_strings: int = 4
    turbines_per_string: int = 8

    def __post_init__(self):
        if self.n_strings < 1 or self.turbines_per_string < 1:
            raise TopologyError("layout needs at least one string and one turbine")

    @property
    def n_turbines(self) -> int:
        return self.n_strings * self.turbines_per_string

    def segment_pu(self, base_mva: float) -> tuple[float, float, float]:
        """(r, x, b) of one cable segment on the given system base."""
        z_base = COLLECTOR_KV * COLLECTOR_KV / base_mva
        return (CABLE_R_OHM / z_base * SPACING_KM, CABLE_X_OHM / z_base * SPACING_KM,
                2.0 * math.pi * CABLE_HZ * CABLE_C_UF * 1e-6 * z_base * SPACING_KM)

    def strings(self, base_mva: float) -> list[CollectorString]:
        r, x, _ = self.segment_pu(base_mva)
        z = complex(r, x)
        return [CollectorString(segments=(z,) * self.turbines_per_string)
                for _ in range(self.n_strings)]

    def equivalent_impedance(self, base_mva: float) -> complex:
        return plant_equivalent(self.strings(base_mva))
