"""Record the reference reports that the benchmark checks every run against.

    python3 perfbench/record_refs.py [SEED ...]

Run from the root of a qflab checkout at the baseline commit. For each
experiment seed (default: the whole pool), every case of every workload runs
once and its verdict, observed values and bounds are written to
perfbench/references/seed-<k>.json. Any run that fails aborts the recording.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from pathlib import Path

import refs
from run import RUNS_DIR, check_tree, run_pass
from workloads import SEED_POOL, WORKLOADS


def record(seed: int) -> None:
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=RUNS_DIR))
    recorded = {}
    try:
        for cases in WORKLOADS.values():
            for run in run_pass(cases, seed, False, workdir, time.monotonic() + 3600):
                if run.error:
                    sys.exit(f"error: {run.case.id} at seed {seed}: {run.error}")
                recorded[run.case.id] = refs.summarize(run.report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    refs.write(seed, recorded)


def main(argv: list[str]) -> int:
    check_tree()
    for seed in [int(s) for s in argv] or range(SEED_POOL):
        begun = time.monotonic()
        record(seed)
        print(f"seed {seed}: recorded in {time.monotonic() - begun:.1f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
