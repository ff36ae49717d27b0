"""Command line harness: run, list, and estimate registered experiments.

`main` reads its arguments itself, without argparse, whose import and first
parse would cost each run a few milliseconds: an option takes its value as
`--opt value` or `--opt=value`, spelled in full, and `-h` prints the usage.

Exit codes: 0 when every hard check passes (trend and report experiments
never fail the exit code), 1 when a hard check fails, 2 for configuration
problems (a bad command line, unknown experiment, bad key, cap violation,
a `--config` that cannot be read or an `--out` that cannot be written), 3
for any other error, so that a crash is never read as a failed bound. A
reader that closes stdout early, as `qflab list | head -1` does, ends the
output and is no error: the command keeps its exit code.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys

from ..errors import CapExceeded, ConfigError, UnknownExperiment
from .experiments import REGISTRY, estimate_experiment, get_experiment, run_estimated
from .reporting import canonical_json

# The import leaves about 22,000 objects that live as long as the process.
# Frozen, they leave the collector's generations, so a run's collections scan
# only what the run allocates: a full collection right after the import takes
# 3.5-4.1 ms, and 0.03 ms frozen. It also keeps the collections `main` makes
# independent of how much the import allocates. Unfrozen, an import that
# allocated less left the counters where a generation-1 collection, scanning
# the young import objects, fell inside `main` in 28 of the 31 default cases:
# +13 ms (+8%) over the 13 whole-group cases. Frozen, each case makes the
# generation-1 collections it made before. Once per process, at import, so
# that a process calling `main` many times does not freeze each run's garbage.
gc.freeze()


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


def _read_args(command: str, args: list[str]) -> tuple[str, dict]:
    """The experiment and the options of a `run` or `estimate` command line:
    each option's value is the rest of its word after `=`, else the next
    word, which may be a negative integer but not another option."""
    names = {"config", "p", "n", "seed", "trials"}
    if command == "run":
        names |= {"out", "threads"}
    words, positional, opts = iter(args), [], {}
    for word in words:
        if not word.startswith("--"):
            positional.append(word)
            continue
        name, eq, value = word[2:].partition("=")
        if name not in names:
            raise ConfigError(f"{command} has no option --{name}")
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("--"):
                raise ConfigError(f"--{name} needs a value")
        if name not in ("config", "out"):
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"--{name} takes an integer, not {value!r}") from None
        opts[name] = value
    if len(positional) != 1:
        raise ConfigError(f"{command} takes one experiment, got {positional}")
    return positional[0], opts


def _overrides(opts: dict) -> dict:
    return {k: opts[k] for k in ("p", "n", "seed", "trials") if k in opts}


def _emit(text: str) -> None:
    """Print text to stdout. A reader that closed the pipe has read all it
    wants, so stdout then points at devnull, where the rest of the output
    and the final flush go without an error."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _do_list() -> int:
    width = max(len(name) for name in REGISTRY)
    _emit("\n".join(f"{name:<{width}}  [{exp.kind}]  {exp.claim}"
                     for name, exp in sorted(REGISTRY.items())))
    return 0


def _do_estimate(name: str, opts: dict) -> int:
    file_cfg = load_json(opts["config"]) if opts.get("config") else None
    cfg, est = estimate_experiment(name, file_cfg, _overrides(opts))
    _emit(canonical_json({"experiment": name, "config": cfg, "terms_estimated": est}))
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


def _do_run(name: str, opts: dict) -> int:
    exp = get_experiment(name)
    file_cfg = load_json(opts["config"]) if opts.get("config") else None
    cfg, est = estimate_experiment(name, file_cfg, _overrides(opts))
    out = opts.get("out")
    if out:
        _check_out(out)
    print(f"# {exp.name} [{exp.kind}]: ~{est} terms", file=sys.stderr)
    report = run_estimated(name, cfg, est)
    payload = canonical_json(report)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report {out!r}: {exc}") from exc
        print(f"# report written to {out}", file=sys.stderr)
    else:
        _emit(payload)
    return 1 if report["verdict"] == "fail" else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:
            _emit("usage: qflab list\n"
                  "       qflab run <experiment> [--config FILE] [--p P] [--n N] [--seed S]\n"
                  "                 [--trials T] [--out FILE] [--threads K]\n"
                  "       qflab estimate <experiment> [--config FILE] [--p P] [--n N]\n"
                  "                      [--seed S] [--trials T]\n"
                  "--opt=value also works; --threads is accepted and ignored.")
            return 0
        if not argv:
            raise ConfigError("no command: give run, estimate or list")
        command = argv[0]
        if command == "list":
            if len(argv) > 1:
                raise ConfigError("list takes no arguments")
            return _do_list()
        if command not in ("run", "estimate"):
            raise ConfigError(f"expected a command, run, estimate or list, not {command!r}")
        name, opts = _read_args(command, argv[1:])
        return (_do_run if command == "run" else _do_estimate)(name, opts)
    except (ConfigError, UnknownExperiment, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
