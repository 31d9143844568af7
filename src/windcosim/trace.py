"""Recorded time series and their on-disk CSV form.

A trace is a shared time axis plus named real-valued channels.  Integer
and boolean quantities (controller modes, status flags) are stored as
their float encoding so every channel has one dtype.

CSV layout: header ``time,<channel>,...``, one row per macro step,
values written with ``repr`` (shortest round-trip decimal), ``\\n`` line
endings.  ``write_csv(read_csv(p))`` reproduces the file byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TraceAxisMismatchError, TraceError, UnknownChannelError


@dataclass
class TraceSet:
    """Time axis and named channels recorded by a simulation run."""

    time: np.ndarray
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=float)
        self.channels = {k: np.asarray(v, dtype=float) for k, v in self.channels.items()}
        for name, values in self.channels.items():
            if values.shape != self.time.shape:
                raise TraceError(
                    f"channel '{name}' has {values.size} samples, time axis has {self.time.size}"
                )

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.channels[name]
        except KeyError:
            raise UnknownChannelError(f"trace has no channel '{name}'") from None

    def names(self) -> list[str]:
        return list(self.channels)

    def require_same_axis(self, other: "TraceSet") -> None:
        if self.time.shape != other.time.shape or not np.array_equal(self.time, other.time):
            raise TraceAxisMismatchError(
                f"time axes differ ({self.time.size} vs {other.time.size} samples)"
            )


def write_csv(trace: TraceSet, path) -> None:
    names = trace.names()
    columns = [trace.time.tolist()] + [trace.channels[n].tolist() for n in names]
    lines = [",".join(["time"] + names)] + [",".join(map(repr, row)) for row in zip(*columns)]
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def read_csv(path) -> TraceSet:
    with open(path, "r", newline="") as f:
        header = f.readline().strip()
        names = header.split(",")
        if not names or names[0] != "time":
            raise TraceError(f"{path}: first CSV column must be 'time', got {names[:1]}")
        rows = [line.strip().split(",") for line in f if line.strip()]
    if any(len(r) != len(names) for r in rows):
        raise TraceError(f"{path}: ragged CSV rows")
    data = np.array([[float(x) for x in r] for r in rows], dtype=float)
    if data.size == 0:
        data = data.reshape(0, len(names))
    channels = {n: data[:, i + 1] for i, n in enumerate(names[1:])}
    return TraceSet(time=data[:, 0], channels=channels)
