"""Regenerate the shipped-study reference traces in ``reference/``.

    python3 perfbench/make_reference.py

Run it from the root of a source checkout.  Only regenerate when a
change to the program is meant to move the traces, and state the drift
in that change; the benchmark checks every recorded channel against
these files to within 1e-9 pu.
"""

import gzip
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from study import REFERENCE_DIR, reference_path, run_study  # noqa: E402
from workloads import SHIPPED_SEED, WORKLOADS, scenario_text  # noqa: E402


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=REFERENCE_DIR) as tmp:
        for workload in WORKLOADS.values():
            result = run_study(scenario_text(workload, SHIPPED_SEED), Path(tmp))
            path = reference_path(workload)
            path.write_bytes(gzip.compress(result.trace_csv, mtime=0))
            print(f"wrote {path} ({len(result.trace_csv)} bytes of CSV)")


if __name__ == "__main__":
    main()
