"""The qflab benchmark: end-to-end wall time of `qflab run` on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qflab checkout. Each case of the workload runs in
its own fresh interpreter with `--threads 1`, one at a time, importing the
checkout's src/ through PYTHONPATH. Every report is checked against the
reference recorded for the case and experiment seed. The last line of
stdout is one JSON object: with --trace 0 it carries the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import refs
from tracer import KERNEL_KEYS, KERNELS
from workloads import EXPERIMENTS, WORKLOADS, Case, experiment_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = HERE / ".runs"
DEADLINE_S = 170.0  # the whole benchmark must exit within 180 s
PASS_S = 30  # --seconds buys one untraced pass per PASS_S, at least one
# Reported times are in seconds of a host on which the probe takes this long.
REF_PROBE_S = 0.16


@dataclass
class CaseRun:
    case: Case
    seed: int = 0  # the experiment seed
    error: str | None = None  # set when the process failed or was not ours
    report: dict | None = None
    setup_s: float | None = None
    probe_s: float | None = None
    wall_s: float | None = None
    maxrss_kb: int | None = None
    trace: dict | None = None


def check_tree() -> None:
    if not (SRC / "qflab" / "lab_cli" / "main.py").is_file():
        sys.exit(f"error: no qflab source tree under {SRC}; "
                 "run the benchmark from the root of a qflab checkout")


def child_env() -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


def run_case(case: Case, seed: int, trace: bool, workdir: Path,
             deadline: float) -> CaseRun:
    """Run one case in a fresh interpreter and collect its report and timings."""
    config = workdir / f"{case.id}.config.json"
    report_path = workdir / f"{case.id}.report.json"
    result_path = workdir / f"{case.id}.result.json"
    config.write_text(json.dumps(case.config(seed)), encoding="utf-8")
    for stale in (report_path, result_path):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
           "1" if trace else "0", "run", case.experiment, "--config", str(config),
           "--threads", "1", "--out", str(report_path)]
    run = CaseRun(case, seed)
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(deadline - launched, 1.0))
    except subprocess.TimeoutExpired:
        run.error = "timed out"
        return run
    if result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        run.setup_s = result["imported_at"] - launched
        run.probe_s = result["numpy_at"] - launched
        run.wall_s = result["wall_s"]
        run.maxrss_kb = result["maxrss_kb"]
        run.trace = result["trace"]
        if not Path(result["qflab_file"]).resolve().is_relative_to(SRC.resolve()):
            run.error = f"imported qflab from {result['qflab_file']}, not {SRC}"
            return run
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        run.error = f"exit code {proc.returncode}: {tail}"
    elif not report_path.is_file():
        run.error = "no report written"
    else:
        run.report = json.loads(report_path.read_text(encoding="utf-8"))
    return run


def run_pass(cases, seed: int, trace: bool, workdir: Path, deadline: float) -> list[CaseRun]:
    runs = []
    for case in cases:
        if time.monotonic() >= deadline:
            runs.append(CaseRun(case, seed, error="not started: out of time"))
        else:
            runs.append(run_case(case, seed, trace, workdir, deadline))
    return runs


def failure(run: CaseRun, references: dict) -> str | None:
    """Why `run` failed, given the references recorded for its seed."""
    return run.error or refs.mismatch(run.report, references.get(run.case.id))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def host_scale(runs: list[CaseRun]) -> float:
    """Factor that rescales this run's times to the reference host speed.

    The shared measurement host drifts by up to a third in speed over
    minutes, and the drift slows every case alike. The probe is the time from
    launching a case's interpreter until numpy is imported, before any qflab
    code runs, so no change to qflab can move it. 0 when nothing ran.
    """
    probes = [run.probe_s for run in runs if run.probe_s is not None]
    return REF_PROBE_S / statistics.median(probes) if probes else 0.0


def end_to_end(passes: list[list[CaseRun]], attempted: int, failed: int) -> dict:
    runs = [run for one_pass in passes for run in one_pass]
    scale = host_scale(runs)
    setups = [run.setup_s for run in runs if run.setup_s is not None]
    walls: dict[str, list[float]] = {}
    for run in runs:
        if run.wall_s is not None:
            walls.setdefault(run.case.id, []).append(run.wall_s)
    rss = [run.maxrss_kb for run in runs if run.maxrss_kb is not None]
    metrics = {}
    if setups:
        metrics["setup_s"] = _metric(statistics.median(setups) * scale, "s")
    if walls:
        metrics["wall_s"] = _metric(
            sum(statistics.mean(v) for v in walls.values()) * scale, "s")
    if rss:
        metrics["peak_rss_mb"] = _metric(max(rss) / 1024.0, "MB")
    metrics["ok_frac"] = _metric((attempted - failed) / attempted, "frac")
    return metrics


def per_layer(untraced: list[CaseRun], traced: list[CaseRun]) -> dict:
    """Kernel calls and times summed over the traced pass's processes.

    A kernel missing at the commit under test is left out, never set to 0.
    """
    traces = [run.trace for run in traced if run.trace is not None]
    missing = {key for t in traces for key in t["missing"]}
    totals: dict[str, dict] = {}
    for t in traces:
        for key, st in t["kernels"].items():
            acc = totals.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "raised": {}})
            acc["calls"] += st["calls"]
            acc["total_s"] += st["total_s"]
            acc["self_s"] += st["self_s"]
            for name, count in st["raised"].items():
                acc["raised"][name] = acc["raised"].get(name, 0) + count
    traced_scale, untraced_scale = host_scale(traced), host_scale(untraced)
    metrics = {}
    for key in KERNEL_KEYS:
        if key in missing or key not in totals:
            continue
        acc = totals[key]
        metrics[f"{key}.calls"] = _metric(acc["calls"], "count")
        metrics[f"{key}.total_s"] = _metric(acc["total_s"] * traced_scale, "s")
        metrics[f"{key}.self_s"] = _metric(acc["self_s"] * traced_scale, "s")
    for layer in KERNELS:
        present = [totals[k]["self_s"] for k in totals
                   if k.startswith(layer + ".") and k not in missing]
        if present:
            metrics[f"{layer}.self_s"] = _metric(sum(present) * traced_scale, "s")
    traced_wall = traced_scale * sum(run.wall_s for run in traced if run.wall_s is not None)
    metrics["lab_cli.self_s"] = _metric(
        traced_wall - traced_scale * sum(t["top_level_s"] for t in traces), "s")
    for exp in EXPERIMENTS:
        metrics[f"lab_cli.exp.{exp}.wall_s"] = _metric(untraced_scale * sum(
            run.wall_s for run in untraced
            if run.case.experiment == exp and run.wall_s is not None), "s")
    ctx = totals.get("local_norms.LocalContext3")
    if ctx is not None:
        degenerate = ctx["raised"].get("DegenerateContext", 0)
        metrics["local_norms.LocalContext3.degenerate_frac"] = _metric(
            degenerate / max(ctx["calls"], 1), "frac")
    untraced_wall = untraced_scale * sum(
        run.wall_s for run in untraced if run.wall_s is not None)
    if untraced_wall > 0 and traced_wall > 0:
        metrics["trace.overhead_frac"] = _metric(traced_wall / untraced_wall - 1.0, "frac")
    probes = [run.probe_s for run in untraced + traced if run.probe_s is not None]
    if probes:
        metrics["host.probe_s"] = _metric(statistics.median(probes), "s")
    return metrics


def _openblas_threads() -> int | None:
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for name in ("scipy_openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def host_facts() -> dict:
    """What makes results from two hosts comparable or not."""
    import platform

    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        facts["git_commit"] = git("rev-parse", "HEAD") or None
        facts["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return facts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_tree()

    started = time.monotonic()
    deadline = started + DEADLINE_S
    cases = WORKLOADS[args.workload]
    # Pass k runs at the next experiment seed, so one run averages over inputs
    # as well as over host noise: the work of some cases depends on the seed.
    count = 1 if args.trace else max(1, int(args.seconds // PASS_S))
    seeds = [experiment_seed(args.seed + k) for k in range(count)]
    references = {seed: refs.load(seed) for seed in seeds}
    print(json.dumps({"host": host_facts(), "workload": args.workload,
                      "experiment_seeds": seeds}), flush=True)

    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR))
    try:
        passes = [run_pass(cases, seed, False, workdir, deadline) for seed in seeds]
        traced = run_pass(cases, seeds[0], True, workdir, deadline) if args.trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [run for one_pass in passes for run in one_pass] + traced
    failed = 0
    for run in runs:
        why = failure(run, references[run.seed])
        failed += why is not None
        wall = f"{run.wall_s:8.3f}s" if run.wall_s is not None else "       -"
        print(f"# {run.case.id:28s} seed {run.seed} {wall}  "
              f"{'FAILED: ' + why if why else 'ok'}", file=sys.stderr)
    metrics = (per_layer(passes[0], traced) if args.trace
               else end_to_end(passes, len(runs), failed))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
