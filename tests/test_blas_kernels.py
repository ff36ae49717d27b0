"""Report bytes do not depend on the BLAS kernel.

Every float sum that reaches a report runs in numpy's own loops, except
the ternary contraction's batched complex matmul (`_Stack.block` with two
x-vertices), which the README names. This test runs one default config
per registered experiment at seed 0 in a child process under OpenBLAS's
default kernel and under the `OPENBLAS_CORETYPE` kernels Sandybridge
(AVX without FMA) and Prescott (SSE3), and compares the canonical report
bytes. A report of an experiment that reaches that matmul may move only
in observed/bound, detail or aggregate, by at most 1e-12 relative.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("report_bytes", ROOT / "tools" / "report_bytes.py")
report_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_bytes)

# prints {name: [canonical report, whether it reached the ternary matmul]}
CHILD = """
import json
from qflab import local_norms
from qflab.lab_cli.experiments import REGISTRY, run_experiment
from qflab.lab_cli.reporting import canonical_json

reached, current = set(), [None]
block = local_norms._Stack.block

def traced(self, *args):
    if len(self.xs) == 2:
        reached.add(current[0])
    return block(self, *args)

local_norms._Stack.block = traced
out = {}
for name, exp in sorted(REGISTRY.items()):
    current[0] = name
    text = canonical_json(run_experiment(name, {"seed": 0} if "seed" in exp.defaults else None))
    out[name] = [text, name in reached]
print(json.dumps(out))
"""


def _openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


def _has_avx() -> bool:
    from numpy._core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX"))


@functools.cache
def _reports(kernel: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def _readme_list(names) -> set[str]:
    """The experiments the README names as reaching the ternary matmul: the
    backticked experiment names of the paragraph that starts with its
    marker."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = text[text.index("One float product stays on BLAS"):].split("\n\n")[0]
    return set(re.findall(r"`([a-z0-9-]+)`", paragraph)) & set(names)


@pytest.mark.parametrize("kernel", ["Sandybridge", "Prescott"])
def test_reports_match_across_blas_kernels(kernel):
    if not _openblas():
        pytest.skip("numpy's BLAS is not OpenBLAS, so OPENBLAS_CORETYPE selects nothing")
    if kernel == "Sandybridge" and not _has_avx():
        pytest.skip("the Sandybridge kernels need AVX, which this CPU lacks")
    base, other = _reports(None), _reports(kernel)
    assert other.keys() == base.keys()
    reached = {name for name, (_, hit) in base.items() if hit}
    assert reached == _readme_list(base)
    for name, (text, _) in base.items():
        moved = other[name][0]
        if name not in reached:
            assert moved == text, name
        elif moved != text:
            parts, worst = report_bytes._moved(json.loads(text), json.loads(moved))
            assert set(parts) <= {"observed/bound", "detail", "aggregate"}, (name, parts)
            assert worst <= 1e-12, (name, worst)
