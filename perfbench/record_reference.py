"""Record the outputs the hash gate compares against, into reference.json.

    python3 perfbench/record_reference.py

Runs every workload once at full size and the default seed through the
fistalab CLI and stores each trace.csv sha256 (and the lab commands'
stdout); neither depends on the seed. A pass with any failing operation is
not recorded. ROADMAP aim 1 forbids changing trace bytes, so
rerunning this is only right when that rule is deliberately revised.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import workloads
from run import ROOT, Bench
from spec import DEFAULT_SEED

COMMITTED_PGM = ROOT / "out" / "fig1-pgm" / "trace.csv"


def record(workload: str, seed: int) -> dict:
    work = ROOT / ".perfbench_work" / f"record-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        done = Bench(ROOT, work, workload, seed, "full").cli_pass()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failing = {k: v for k, v in done.problems.items() if v}
    if failing:
        raise SystemExit(f"{workload} seed {seed} does not pass, not recording: {failing}")
    return done.observed


def main() -> int:
    reference = {}
    for workload in workloads.NAMES:
        reference[workload] = record(workload, DEFAULT_SEED)
        print(f"recorded {workload}", flush=True)

    pgm = reference["fig1"]["trace_sha256"]["fig1-pgm"]
    if COMMITTED_PGM.exists() and pgm != gate.sha256_file(COMMITTED_PGM):
        raise SystemExit(f"fig1-pgm trace.csv {pgm} differs from the committed {COMMITTED_PGM}")
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {gate.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
