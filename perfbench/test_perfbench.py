"""Tests of the benchmark itself: the reference check, the tracer, the workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
import time

import refs
import run
from tracer import KERNEL_KEYS, Tracer
from workloads import SEED_POOL, WORKLOADS, Case

sys.path.insert(0, str(run.SRC))
from qflab.lab_cli.experiments import REGISTRY  # noqa: E402

# shrink every size knob an experiment has, for the smoke runs
TINY = {"trials": 1, "directions": 3, "samples": 2}


def tiny(case: Case) -> Case:
    defaults = REGISTRY[case.experiment].defaults
    cfg = dict(case.overrides)
    for key, value in TINY.items():
        if key in defaults:
            cfg[key] = value
    if "n_values" in defaults:
        cfg["n_values"] = list(cfg.get("n_values", defaults["n_values"]))[:2]
    return Case(case.id, case.experiment, cfg)


def deadline() -> float:
    return time.monotonic() + 120


def test_every_workload_case_is_a_registered_experiment():
    for cases in WORKLOADS.values():
        ids = [case.id for case in cases]
        assert len(ids) == len(set(ids))
        for case in cases:
            assert case.experiment in REGISTRY
            assert set(case.overrides) <= set(REGISTRY[case.experiment].defaults)


def test_references_cover_every_case_and_seed():
    for seed in range(SEED_POOL):
        recorded = refs.load(seed)
        for cases in WORKLOADS.values():
            for case in cases:
                assert case.id in recorded, (seed, case.id)


def test_a_matching_run_passes_and_a_tampered_reference_fails(tmp_path):
    case = Case("ap3-bound", "ap3-bound")
    (result,) = run.run_pass([case], 0, False, tmp_path, deadline())
    recorded = refs.load(0)
    assert run.failure(result, recorded) is None

    drifted = copy.deepcopy(recorded)
    drifted["ap3-bound"]["trials"][3][0] *= 1 + 1e-6
    assert "trial 3 observed" in run.failure(result, drifted)

    flipped = copy.deepcopy(recorded)
    flipped["ap3-bound"]["verdict"] = "fail"
    assert "verdict" in run.failure(result, flipped)

    assert run.failure(result, {}) == "no recorded reference"


def test_tolerance_is_relative_with_an_absolute_floor():
    ref = {"verdict": "pass", "trials": [[1.0, 2.0], [0.0, None]]}
    report = {"verdict": "pass", "trials": [
        {"observed": 1.0 + 5e-10, "bound": 2.0},
        {"observed": 5e-13, "bound": None}]}
    assert refs.mismatch(report, ref) is None
    report["trials"][0]["observed"] = 1.0 + 2e-9
    assert refs.mismatch(report, ref) is not None


def test_smoke_every_case_runs_traced_at_tiny_sizes(tmp_path):
    for name, cases in WORKLOADS.items():
        traced = run.run_pass([tiny(c) for c in cases], 0, True, tmp_path, deadline())
        for result in traced:
            assert result.error is None, (name, result.case.id, result.error)
            assert result.trace["missing"] == []
            assert set(result.trace["kernels"]) == set(KERNEL_KEYS)
        metrics = run.per_layer(traced, traced)
        for key in KERNEL_KEYS:
            assert f"{key}.calls" in metrics


def test_aliases_are_patched_too():
    code = (
        "from qflab.lab_cli import experiments, main\n"
        "from qflab import spectral, combinatorics\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "assert experiments.u3_inner is spectral.u3_inner\n"
        "assert experiments.has_k_ip is combinatorics.has_k_ip\n"
        "assert spectral.u3_inner.__wrapped__ is not None\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE,
                          env=run.child_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_missing_kernel_is_absent_not_zero(capsys):
    tracer = Tracer({"spectral": ("no_such_kernel",), "no_such_layer": ("f",)})
    tracer.install()
    assert tracer.missing == ["spectral.no_such_kernel", "no_such_layer.f"]
    assert "cannot find" in capsys.readouterr().err

    snapshot = {"kernels": {}, "missing": ["spectral.u3_inner"], "top_level_s": 0.0}
    fake = run.CaseRun(Case("x", "parseval"), wall_s=1.0, probe_s=0.16, trace=snapshot)
    metrics = run.per_layer([fake], [fake])
    assert not any(name.startswith("spectral.u3_inner") for name in metrics)


def test_refuses_a_directory_without_the_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "global-defaults",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_times_are_rescaled_by_the_host_probe():
    slow = [run.CaseRun(Case(f"c{i}", "parseval"), setup_s=0.5, wall_s=2.0,
                        probe_s=2 * run.REF_PROBE_S, maxrss_kb=1024) for i in range(3)]
    metrics = run.end_to_end([slow], attempted=3, failed=0)
    assert metrics["wall_s"]["value"] == 3.0
    assert metrics["setup_s"]["value"] == 0.25
    assert metrics["peak_rss_mb"]["value"] == 1.0
