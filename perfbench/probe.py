"""Machine-speed probe for scaling wall times on a shared host.

On a 2-vCPU virtual machine whose cores other tenants share, the same
study ran about 1.5 times slower for stretches of a minute or more,
with CPU time rising with wall time: the code ran slower, it did not
wait.  A 30 s run cannot average that out.

``probe()`` times a fixed piece of work that does not use the program:
small complex numpy operations and dict stores, the mix that dominates
the grid kernel's step.  The benchmark runs it between studies and
scales each study's times by ``REFERENCE_S / probe``, the probe time
around that study.  A scaled time reads as the wall time the study
would take while the probe takes exactly ``REFERENCE_S``.

The probe is part of the benchmark's definition: changing its work or
``REFERENCE_S`` changes every scaled metric.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.045
_ITERATIONS = 8000
_X = np.linspace(0.0, 1.0, 9) + 0j


def probe() -> float:
    """Wall time of the fixed probe work, in seconds."""
    t0 = time.perf_counter()
    store: dict[int, float] = {}
    acc = 0.0
    for i in range(_ITERATIONS):
        y = np.exp(1j * _X) * _X
        acc += float(np.abs(y).sum())
        store[i & 255] = acc
    return time.perf_counter() - t0
