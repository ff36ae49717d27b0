"""Command line harness: run, list, and estimate registered experiments.

Exit codes: 0 when every hard check passes (trend and report experiments
never fail the exit code), 1 when a hard check fails, 2 for configuration
problems (unknown experiment, bad key, cap violation, a `--config` that
cannot be read or an `--out` that cannot be written), 3 for any other
error, so that a crash is never read as a failed bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from ..errors import CapExceeded, ConfigError, UnknownExperiment
from .experiments import REGISTRY, estimate_experiment, get_experiment, run_estimated
from .reporting import canonical_json


def _add_run_args(sub: argparse.ArgumentParser, with_exec: bool) -> None:
    sub.add_argument("experiment")
    sub.add_argument("--config", help="JSON file with config overrides")
    sub.add_argument("--p", type=int, help="field prime override")
    sub.add_argument("--n", type=int, help="dimension override")
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--trials", type=int, help="trial count override")
    if with_exec:
        sub.add_argument("--threads", type=int,
                         help="ignored; trials run sequentially")
        sub.add_argument("--out", help="write the report here instead of stdout")


def _finite_float(text: str) -> float:
    """Parse a JSON number or NaN/Infinity constant; refuse non-finite values,
    including literals such as 1e400 that overflow to infinity."""
    val = float(text)
    if not math.isfinite(val):
        raise ConfigError(f"config value {text} is not a finite number")
    return val


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qflab",
        description="checked identities, inequalities, and rank trends for "
                    "quadratic Fourier analysis over F_p^n")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_run_args(subs.add_parser("run", help="run one experiment"), True)
    subs.add_parser("list", help="list registered experiments")
    _add_run_args(subs.add_parser(
        "estimate", help="predict the term count without running"), False)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    return {k: getattr(args, k) for k in ("p", "n", "seed", "trials")
            if getattr(args, k, None) is not None}


def _do_list() -> int:
    width = max(len(name) for name in REGISTRY)
    for name in sorted(REGISTRY):
        exp = REGISTRY[name]
        print(f"{name:<{width}}  [{exp.kind}]  {exp.claim}")
    return 0


def _do_estimate(args: argparse.Namespace) -> int:
    file_cfg = load_json(args.config) if args.config else None
    cfg, est = estimate_experiment(args.experiment, file_cfg, _overrides(args))
    print(canonical_json({"experiment": args.experiment, "config": cfg,
                          "terms_estimated": est}))
    return 0


def _check_out(path: str) -> None:
    """Refuse, before the run starts, an --out that is a directory or whose
    parent directory is missing or not writable."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "it is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent!r}"
    elif not os.access(parent, os.W_OK | os.X_OK):
        reason = f"directory {parent!r} is not writable"
    else:
        return
    raise ConfigError(f"cannot write report {path!r}: {reason}")


def _do_run(args: argparse.Namespace) -> int:
    exp = get_experiment(args.experiment)
    file_cfg = load_json(args.config) if args.config else None
    cfg, est = estimate_experiment(args.experiment, file_cfg, _overrides(args))
    if args.out:
        _check_out(args.out)
    print(f"# {exp.name} [{exp.kind}]: ~{est} terms", file=sys.stderr)
    report = run_estimated(args.experiment, cfg, est)
    payload = canonical_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report {args.out!r}: {exc}") from exc
        print(f"# report written to {args.out}", file=sys.stderr)
    else:
        print(payload)
    return 1 if report["verdict"] == "fail" else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _do_list()
        if args.command == "estimate":
            return _do_estimate(args)
        return _do_run(args)
    except (ConfigError, UnknownExperiment, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
