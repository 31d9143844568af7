"""The shipped studies reproduce the benchmark's committed reference traces.

``perfbench/reference/<workload>.csv.gz`` holds the trace of each shipped
study as the benchmark runs it: ``monolithic.scn`` (``mono_embedded``) and
``large_scale.scn`` under the serial and the parallel scheme
(``plant65_serial``, ``plant65_parallel``).  Every recorded channel must
stay within 1e-9 of them, the same gate the benchmark applies, so a
kernel change that moves a trace fails here too.  The files are only
read.
"""

import gzip
from pathlib import Path

import numpy as np
import pytest

from windcosim.scenario import run_scenario
from windcosim.scenario_io import parse_scenario

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9


def read_reference(workload):
    lines = gzip.decompress((ROOT / "perfbench" / "reference" / f"{workload}.csv.gz")
                            .read_bytes()).decode("utf-8").splitlines()
    names = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return dict(zip(names, rows.T))


@pytest.mark.parametrize("scenario, scheme, workload", [
    ("monolithic", "serial", "mono_embedded"),
    ("large_scale", "serial", "plant65_serial"),
    ("large_scale", "parallel", "plant65_parallel"),
])
def test_shipped_study_matches_the_reference_trace(scenario, scheme, workload):
    trace, _ = run_scenario(parse_scenario(ROOT / "scenarios" / f"{scenario}.scn"), scheme=scheme)
    reference = read_reference(workload)
    assert ["time"] + trace.names() == list(reference)
    for name, ref in reference.items():
        values = trace.time if name == "time" else trace[name]
        assert values.shape == ref.shape, name
        deviation = float(np.max(np.abs(values - ref)))
        assert deviation <= TOL, f"{name} deviates {deviation:.3e} from the reference"
