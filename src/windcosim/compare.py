"""Trace comparison with event-window exclusion, plus oscillation metrics.

Two runs of the same study differ most right at discrete events (fault
application and clearance), where the exchange lag shows up as a one-
or two-sample artifact.  The headline deviation therefore excludes a
window of ``exclude_steps`` macro steps around each event time; the
full-series deviation is still reported separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TraceError
from .trace import TraceSet


@dataclass(frozen=True)
class ChannelComparison:
    channel: str
    max_abs: float          # outside exclusion windows
    rms: float              # outside exclusion windows
    max_abs_full: float     # every sample
    n_excluded: int


@dataclass(frozen=True)
class ComparisonReport:
    channels: tuple[ChannelComparison, ...]
    event_times: tuple[float, ...]
    exclude_steps: int
    dt: float

    def within(self, tol: float) -> bool:
        return all(c.max_abs <= tol for c in self.channels)

    def worst(self) -> float:
        return max((c.max_abs for c in self.channels), default=0.0)

    def format(self, tol: float | None = None) -> str:
        width = max([len(c.channel) for c in self.channels] + [7])
        lines = [f"{'channel':<{width}}  {'max_abs':>12}  {'rms':>12}  "
                 f"{'max_abs_full':>12}  {'excluded':>8}"]
        for c in self.channels:
            lines.append(f"{c.channel:<{width}}  {c.max_abs:>12.6g}  {c.rms:>12.6g}  "
                         f"{c.max_abs_full:>12.6g}  {c.n_excluded:>8d}")
        if self.event_times:
            window = self.exclude_steps * self.dt
            times = ", ".join(f"{t:g}" for t in self.event_times)
            lines.append(f"excluded +/- {window:g} s ({self.exclude_steps} steps) "
                         f"around t = {times}")
        if tol is not None:
            verdict = "PASS" if self.within(tol) else "FAIL"
            lines.append(f"tolerance {tol:g}: {verdict} (worst {self.worst():.6g})")
        return "\n".join(lines)


def exclusion_mask(time: np.ndarray, event_times, exclude_steps: int,
                   dt: float) -> np.ndarray:
    """True where a sample participates in the headline metric."""
    keep = np.ones(time.shape, dtype=bool)
    half = exclude_steps * dt + 1e-12
    for te in event_times:
        keep &= np.abs(time - te) > half
    return keep


def fault_edge_times(events) -> list[float]:
    """The start and clearance time of each fault in a run record's ``events``."""
    return [t for ev in events
            for t in (float(ev["start"]), float(ev["start"]) + float(ev["duration"]))]


def compare_traces(a: TraceSet, b: TraceSet, channels: list[str] | None = None,
                   event_times=(), exclude_steps: int = 3) -> ComparisonReport:
    a.require_same_axis(b)
    if channels is None:
        channels = [name for name in a.channels if name in b.channels]
        if not channels:
            raise TraceError("traces share no channels")
    n = len(a.time)
    dt = float(a.time[1] - a.time[0]) if n > 1 else 0.0
    keep = exclusion_mask(a.time, event_times, exclude_steps, dt)
    if not keep.any():
        raise TraceError("exclusion windows cover the whole trace")
    out = []
    for name in channels:
        diff = np.abs(a[name] - b[name])
        kept = diff[keep]
        out.append(ChannelComparison(
            channel=name,
            max_abs=float(kept.max()),
            rms=float(np.sqrt(np.mean(kept * kept))),
            max_abs_full=float(diff.max()),
            n_excluded=int(n - kept.size)))
    return ComparisonReport(
        channels=tuple(out),
        event_times=tuple(float(t) for t in event_times),
        exclude_steps=exclude_steps, dt=dt)


# -- oscillation characterization ----------------------------------------------


@dataclass(frozen=True)
class OscillationMetrics:
    """Ringdown characterization of one channel after a disturbance.

    ``decay_per_cycle`` is the amplitude ratio A(t) / A(t + T) over one
    oscillation period: 1 means undamped, larger means faster decay.
    """

    frequency_hz: float
    decay_per_cycle: float
    n_extrema: int
    steady_value: float


def oscillation_metrics(time: np.ndarray, signal: np.ndarray, t_start: float,
                        t_end: float | None = None,
                        min_amplitude_frac: float = 0.05) -> OscillationMetrics:
    """Estimate frequency and per-cycle amplitude decay from crest ratios.

    Only extrema on the dominant side of the steady value are used: a
    weaker superposed mode turns the minor-side extrema into an
    unreliable double-ripple, while the major-side crests stay one
    period apart.  The per-cycle ratio is the median of successive
    crest ratios, which a single corrupted crest cannot drag.
    """
    time = np.asarray(time, dtype=float)
    signal = np.asarray(signal, dtype=float)
    sel = time >= t_start
    if t_end is not None:
        sel &= time <= t_end
    t = time[sel]
    y = signal[sel]
    if t.size < 8:
        raise TraceError("window too short for oscillation analysis")
    steady = float(np.median(y))
    dev = y - steady

    d = np.diff(dev)
    turn = np.where(d[:-1] * d[1:] < 0.0)[0] + 1
    if turn.size == 0:
        raise TraceError("found only 0 usable extrema, need >= 3")
    amps = dev[turn]
    dominant = math.copysign(1.0, amps[np.argmax(np.abs(amps))])
    keep = (np.sign(amps) == dominant) \
        & (np.abs(amps) >= min_amplitude_frac * np.abs(amps).max())
    turn, amps = turn[keep], np.abs(amps[keep])
    if turn.size < 3:
        raise TraceError(f"found only {turn.size} usable extrema, need >= 3")

    t_ex = t[turn]
    period = float(np.median(np.diff(t_ex)))
    if period <= 0.0:
        raise TraceError("degenerate extremum spacing")

    ratios = np.log(amps[:-1] / amps[1:])
    return OscillationMetrics(
        frequency_hz=1.0 / period,
        decay_per_cycle=float(math.exp(np.median(ratios))),
        n_extrema=int(turn.size),
        steady_value=steady)
