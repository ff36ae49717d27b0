"""Reference reports recorded at the baseline commit, and the check against them.

A reference keeps, per case and experiment seed, the verdict and each
trial's `observed` and `bound`. The `terms` block and trial details are not
kept: later changes may redefine them without changing any result.
"""

from __future__ import annotations

import json
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "references"
REL_TOL = 1e-9
ABS_TOL = 1e-12


def summarize(report: dict) -> dict:
    return {"verdict": report["verdict"],
            "trials": [[t["observed"], t["bound"]] for t in report["trials"]]}


def ref_path(seed: int) -> Path:
    return REF_DIR / f"seed-{seed}.json"


def load(seed: int) -> dict:
    with open(ref_path(seed), encoding="utf-8") as fh:
        return json.load(fh)


def write(seed: int, refs: dict) -> None:
    lines = [f"{json.dumps(case)}: {json.dumps(ref, allow_nan=False)}"
             for case, ref in sorted(refs.items())]
    ref_path(seed).write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def mismatch(report: dict, ref: dict | None) -> str | None:
    """Why `report` disagrees with `ref`, or None when it agrees."""
    if ref is None:
        return "no recorded reference"
    got = summarize(report)
    if got["verdict"] != ref["verdict"]:
        return f"verdict {got['verdict']!r}, recorded {ref['verdict']!r}"
    if len(got["trials"]) != len(ref["trials"]):
        return f"{len(got['trials'])} trials, recorded {len(ref['trials'])}"
    for i, (pair, want) in enumerate(zip(got["trials"], ref["trials"])):
        for what, a, b in zip(("observed", "bound"), pair, want):
            if not _close(a, b):
                return f"trial {i} {what} {a!r}, recorded {b!r}"
    return None
