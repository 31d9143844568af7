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
from dataclasses import dataclass, field

from .errors import FINITE, NON_NEGATIVE, POSITIVE, TopologyError, check_domains


@dataclass(frozen=True)
class CableData:
    """Per-km cable constants; charging is quoted at the rating frequency."""

    r_ohm_per_km: float = field(default=0.10, metadata=NON_NEGATIVE)
    x_ohm_per_km: float = field(default=0.12, metadata=FINITE)
    c_uf_per_km: float = field(default=0.19, metadata=NON_NEGATIVE)
    rating_frequency_hz: float = field(default=50.0, metadata=POSITIVE)

    def __post_init__(self):
        check_domains(self, TopologyError, "cable")

    def pu_per_km(self, base_mva: float, base_kv: float) -> tuple[float, float, float]:
        """(r, x, b) per km on the given system base."""
        z_base = base_kv * base_kv / base_mva
        b_s_per_km = 2.0 * math.pi * self.rating_frequency_hz * self.c_uf_per_km * 1e-6
        return (self.r_ohm_per_km / z_base,
                self.x_ohm_per_km / z_base,
                b_s_per_km * z_base)


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
    ``turbines_per_string`` turbines at uniform ``spacing_km``."""

    n_strings: int = 4
    turbines_per_string: int = 8
    spacing_km: float = field(default=0.7, metadata=POSITIVE)
    collector_kv: float = field(default=33.0, metadata=POSITIVE)
    cable: CableData = CableData()

    def __post_init__(self):
        if self.n_strings < 1 or self.turbines_per_string < 1:
            raise TopologyError("layout needs at least one string and one turbine")
        check_domains(self, TopologyError, "layout")

    @property
    def n_turbines(self) -> int:
        return self.n_strings * self.turbines_per_string

    def segment_pu(self, base_mva: float) -> tuple[float, float, float]:
        r, x, b = self.cable.pu_per_km(base_mva, self.collector_kv)
        d = self.spacing_km
        return r * d, x * d, b * d

    def strings(self, base_mva: float) -> list[CollectorString]:
        r, x, _ = self.segment_pu(base_mva)
        z = complex(r, x)
        return [CollectorString(segments=(z,) * self.turbines_per_string)
                for _ in range(self.n_strings)]

    def equivalent_impedance(self, base_mva: float) -> complex:
        return plant_equivalent(self.strings(base_mva))
