"""Measure every workload over several seeds and summarize the spread.

    python3 perfbench/baseline.py [--runs 10] [--out FILE]

Run from the root of a qflab checkout. For each workload in BENCHMARK.json
this runs the benchmark --runs times untraced, with seeds 0..runs-1, and
once traced with seed 0. It writes every run's result and, per end-to-end
metric, the median, the quartiles and the spread (quartile distance over
median) next to the metric's bound. perfbench/baseline.json holds this for
the baseline commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["host"], json.loads(lines[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"command": spec["command"], "run_seconds": spec["run_seconds"],
           "host": None, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.runs):
            host, result = bench(workload, seed, spec["run_seconds"], 0)
            out["host"] = out["host"] or host
            runs.append({"seed": seed, **result})
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()}, flush=True)
        _, traced = bench(workload, 0, spec["run_seconds"], 1)
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs], bound)
                   for name, bound in bounds.items()}
        for name, s in summary.items():
            print(f"  {name:12s} median {s['median']:.4f}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}", flush=True)
        out["workloads"][workload] = {"summary": summary, "runs": runs, "traced": traced}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
