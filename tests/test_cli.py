"""Harness behavior: exit codes, report files, determinism, estimators."""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qflab.factor import mu_weight_matrix
from qflab.fpn_core import run_counted
from qflab.lab_cli import BUILTIN_HASHES
from qflab.lab_cli import main as cli_main
from qflab.lab_cli import shared
from qflab.lab_cli.experiments import REGISTRY, estimate_experiment, run_experiment
from qflab.lab_cli.expsums import _direction_masks, _triangle_count
from qflab.lab_cli.shared import (
    _blockwise,
    _bounded_draw,
    _bounded_values,
    _direction_codes,
    _gaussian_draw,
    _gaussian_values,
    _label,
    _label_codes,
    _records,
    _rows,
    _standard_factor,
    _trend,
    _trial_rng,
    _trials,
)
from qflab.lab_cli.main import main
from qflab.lab_cli.reporting import (
    canonical_json,
    make_degenerate,
    make_point,
    make_trial,
    trend_summary,
)
from qflab.local_norms import LocalContext3

ALL_NAMES = sorted(REGISTRY)


def test_registry_has_the_full_roster():
    assert len(ALL_NAMES) == 31
    kinds = {REGISTRY[n].kind for n in ALL_NAMES}
    assert kinds == {"hard", "trend", "report"}


def test_run_exit_zero_and_report_shape(capsys):
    assert main(["run", "parseval", "--trials", "5"]) == 0
    out = capsys.readouterr().out.strip()
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["experiment"] == "parseval"
    assert report["verdict"] == "pass"
    assert report["terms"]["actual"] > 0
    assert "threads" not in report["config"] and "out" not in report["config"]


def test_unknown_experiment_exits_two(capsys):
    assert main(["run", "does-not-exist"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_override_exits_two(capsys):
    assert main(["run", "parseval", "--trials", "-3"]) == 2
    assert main(["run", "parseval", "--p", "4"]) == 2


@pytest.mark.parametrize("name,body", [
    ("parseval", '{"p": 3.0}'),
    ("parseval", '{"tol": "x"}'),
    ("parseval", '{"seed": -1}'),
    ("parseval", '{"seed": 1.5}'),
    ("parseval", '{"trials": true}'),
    ("control-ip2-local-trend", '{"n_values": 5}'),
    ("control-ip2-local-trend", '{"n_values": [3, true]}'),
    ("parseval", '{"tol": Infinity}'),
    ("parseval", '{"tol": 1e400}'),
    ("atom-sizes", '{"n_values": []}'),
    ("local-gcs", '{"ell": 5}'),
    ("atom-sizes", '{"ell": 9}'),
    ("u3-dominates", '{"ell": 4}'),
    ("atom-vc2", '{"ell_values": [5]}'),
    ("local-gcs", '{"ell": -1}'),
    ("atom-sizes", '{"q": -1}'),
    ("atom-vc2", '{"ell_values": [-1]}'),
    ("counting-binary", '{"parts": [1]}'),
    ("counting-binary", '{"parts": [0, 2]}'),
    ("counting-binary", '{"parts": [4, 1]}'),
    ("bil-level-sizes", '{"q": 0}'),
    ("atom-vc", '{"atom_label": [0, 0]}'),
    ("atom-u2-uniformity", '{"atom_labels": [[0]]}'),
    ("atom-vc2", '{"ell_values": []}'),
    ("coset-union-vc", '{"rep_sets": []}'),
    ("atom-u2-uniformity", '{"atom_labels": []}'),
    ("counting-ternary", '{"max_part": 3}'),
    ("vc2-structure", '{"n": 7}'),
    ("atom-vc", '{"n": 9}'),
    ("control-ip", '{"m": 4}'),
    ("control-ip-local", '{"m": 4}'),
    ("control-ip2", '{"m": 3}'),
    ("control-ip2-local-trend", '{"m": 3}'),
    ("vc2-structure", '{"q": 3}'),
    ("inverse-oracle", '{"n": 5}'),
    ("atom-vc", '{"p": 3, "n": 1}'),
    ("atom-vc", '{"p": 3, "n": 2}'),
    ("atom-vc", '{"p": 5, "n": 1}'),
    ("atom-vc", '{"p": 7, "n": 1}'),
    ("atom-vc", '{"p": 7, "n": 2}'),
])
def test_mistyped_config_value_exits_two(tmp_path, capsys, name, body):
    # each value must have the JSON type of its default (a bool is no
    # integer) and lie in its range: ell in [0, n], q >= 0 (>= 1 for the
    # level-set sizes), two parts in [1, 3], atom labels as wide as the
    # factor, nonempty lists, and sizes, pattern orders, form counts and
    # candidate counts within the kernels' caps, and atom-vc's n >= 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    for command in ("run", "estimate"):
        assert main([command, name, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert [line.startswith("error:") for line in err.splitlines()] == [True]


def test_unexpected_exception_exits_three(monkeypatch, capsys):
    def boom(cfg):
        raise RuntimeError("kernel blew up")

    monkeypatch.setitem(REGISTRY, "parseval", REGISTRY["parseval"]._replace(runner=boom))
    assert main(["run", "parseval"]) == 3
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if not line.startswith("#")] == [
        "error: unexpected RuntimeError: kernel blew up"]


def test_run_evaluates_the_estimator_once(monkeypatch, capsys):
    # the estimate printed before the run is the one the report carries
    calls = []
    exp = REGISTRY["local-gcs"]
    monkeypatch.setitem(REGISTRY, "local-gcs", exp._replace(
        estimator=lambda cfg: calls.append(cfg) or exp.estimator(cfg)))
    assert main(["run", "local-gcs", "--trials", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1 and calls[0]["trials"] == 2
    assert report["terms"]["estimated"] == exp.estimator(calls[0])


def test_number_key_accepts_an_integer(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol": 1, "trials": 2}')
    assert main(["run", "parseval", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tol"] == 1


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus_key": 1}')
    assert main(["run", "parseval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "bogus_key" in err


def test_failing_bound_exits_one(tmp_path, capsys):
    cfg = tmp_path / "tight.json"
    cfg.write_text('{"tol": 1e-18, "trials": 5}')
    assert main(["run", "parseval", "--config", str(cfg)]) == 1
    report = json.loads(capsys.readouterr().out.strip())
    assert report["verdict"] == "fail"


def test_out_file_holds_the_canonical_payload(tmp_path, capsys):
    dest = tmp_path / "report.json"
    assert main(["run", "fourier-roundtrip", "--trials", "4",
                 "--out", str(dest)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    text = dest.read_text()
    assert text.endswith("\n")
    report = json.loads(text)
    assert text == canonical_json(report) + "\n"
    assert report["experiment"] == "fourier-roundtrip"


def test_unwritable_out_exits_two(tmp_path, capsys):
    # a missing directory or a directory as the report file is a config
    # problem named by its path, as an unreadable --config is
    for dest in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(["run", "parseval", "--trials", "1", "--out", str(dest)]) == 2
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("#")]
        assert len(err) == 1 and err[0].startswith(f"error: cannot write report {str(dest)!r}")


def test_unwritable_out_exits_two_before_the_run(tmp_path, capsys, monkeypatch):
    # the path is checked before the runner starts; a directory in place of
    # the parent is missing too
    calls = []
    monkeypatch.setattr(cli_main, "run_estimated",
                        lambda *args: calls.append(args) or {"verdict": "pass"})
    blocker = tmp_path / "file"
    blocker.write_text("")
    for dest in (tmp_path / "missing" / "x.json", tmp_path, blocker / "x.json"):
        assert main(["run", "parseval", "--out", str(dest)]) == 2
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("#")]
        assert len(err) == 1 and err[0].startswith(f"error: cannot write report {str(dest)!r}")
    assert calls == []
    assert main(["run", "parseval", "--out", str(tmp_path / "x.json")]) == 0
    assert len(calls) == 1


def test_level_sizes_reach_n10(tmp_path, capsys):
    # the sizes come from form ranks, so no p^(2n) pair table is built; the
    # identity form has full rank n, and the largest relative deviation of a
    # level set from p^(2n-1) is exactly (p - 1) / p^n
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_values": [2, 4, 6, 8, 10]}')
    dest = tmp_path / "report.json"
    assert main(["run", "bil-level-sizes", "--config", str(cfg), "--out", str(dest)]) == 0
    report = json.loads(dest.read_text())
    trials = report["trials"]
    assert [t["detail"] for t in trials] == [{"n": n, "rank": n} for n in (2, 4, 6, 8, 10)]
    assert trials[-1]["observed"] == pytest.approx(2 / 3 ** 10, rel=1e-12)
    # the count is the rank route's work: less than one p^n table, where the
    # histogram would count p^(2n) pairs per form
    actual = report["terms"]["actual"]
    assert 0 < actual < 3 ** 10
    _, est = estimate_experiment("bil-level-sizes", json.loads(cfg.read_text()))
    assert 0.1 <= est / actual <= 10.0


def test_terms_actual_is_the_kernels_tally():
    one = run_experiment("parseval", None, {"trials": 1})["terms"]["actual"]
    two = run_experiment("parseval", None, {"trials": 2})["terms"]["actual"]
    assert one > 0 and two == 2 * one


def test_estimate_prints_a_term_count(capsys):
    assert main(["estimate", "gcs"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["experiment"] == "gcs"
    assert payload["terms_estimated"] > 0


def test_list_covers_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == len(ALL_NAMES)
    for name in ALL_NAMES:
        assert any(ln.startswith(name) for ln in lines)


def test_installed_entry_point(tmp_path, monkeypatch):
    """The `qflab` console script declared in pyproject.toml runs `list`.

    The script is written the way pip writes a console-script wrapper and
    imports this tree's `src/`, so the test needs no install and cannot
    pick up a `qflab` installed from another checkout.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qflab"]
    module, _, attr = target.partition(":")
    script = tmp_path / "qflab"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    script.chmod(0o755)
    monkeypatch.setenv("PATH", str(tmp_path), prepend=os.pathsep)
    monkeypatch.setenv("PYTHONPATH", str(root / "src"), prepend=os.pathsep)
    proc = subprocess.run(["qflab", "list"], capture_output=True, text=True)
    assert proc.returncode == 0, (
        f"qflab list exited {proc.returncode}\n{proc.stderr}")
    assert "parseval" in proc.stdout


def test_repeat_runs_are_identical(reports):
    cached = reports("local-gcs")
    fresh = run_experiment("local-gcs")
    assert canonical_json(fresh) == canonical_json(cached)


def test_thread_count_never_changes_the_bytes(capsys):
    """`--threads` is accepted for old command lines and ignored."""
    assert main(["run", "parseval", "--trials", "3"]) == 0
    plain = capsys.readouterr().out
    assert main(["run", "parseval", "--trials", "3", "--threads", "8"]) == 0
    assert capsys.readouterr().out == plain


# --- the command-line reader -------------------------------------------------


def _words(option: str, value: str, joined: bool) -> list[str]:
    return [f"{option}={value}"] if joined else [option, value]


@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize("command", ["run", "estimate"])
@pytest.mark.parametrize("option,value", [
    ("--p", "5"), ("--n", "2"), ("--seed", "7"), ("--trials", "3")])
def test_each_override_reads_in_both_forms(capsys, command, option, value, joined):
    assert main([command, "parseval", *_words(option, value, joined)]) == 0
    assert json.loads(capsys.readouterr().out)["config"][option[2:]] == int(value)


@pytest.mark.parametrize("joined", [False, True])
@pytest.mark.parametrize("command", ["run", "estimate"])
def test_config_reads_in_both_forms(tmp_path, capsys, command, joined):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"trials": 2, "tol": 1}')
    assert main([command, "parseval", *_words("--config", str(cfg), joined)]) == 0
    got = json.loads(capsys.readouterr().out)["config"]
    assert (got["trials"], got["tol"]) == (2, 1)


@pytest.mark.parametrize("joined", [False, True])
def test_out_and_threads_read_in_both_forms(tmp_path, capsys, joined):
    assert main(["run", "parseval", "--trials", "2"]) == 0
    plain = capsys.readouterr().out
    dest = tmp_path / "report.json"
    assert main(["run", "parseval", "--trials", "2", *_words("--threads", "8", joined),
                 *_words("--out", str(dest), joined)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text() == plain


def test_the_entry_point_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["qflab", "estimate", "gcs", "--n=2"])
    assert main() == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["experiment"], payload["config"]["n"]) == ("gcs", 2)


@pytest.mark.parametrize("argv", [
    [],                                                  # no command
    ["frobnicate"],                                      # unknown command
    ["--p", "3"],
    ["run", "parseval", "--bogus", "1"],                 # unknown option
    ["run", "parseval", "--tri", "3"],                   # no abbreviations
    ["run", "parseval", "-t", "3"],
    ["estimate", "parseval", "--out", "report.json"],    # run-only options
    ["estimate", "parseval", "--threads", "1"],
    ["run", "parseval", "--trials"],                     # missing value
    ["run", "parseval", "--out", "--trials", "3"],
    ["run", "parseval", "--trials", "three"],            # non-integer value
    ["estimate", "parseval", "--p=x"],
    ["run", "parseval", "--threads", "many"],
    ["run", "parseval", "--seed", "1.5"],
    ["run"],                                             # missing experiment
    ["estimate", "--p", "3"],
    ["run", "parseval", "gcs"],                          # second positional
    ["list", "parseval"],                                # anything after list
    ["list", "--p", "3"],
])
def test_a_bad_command_line_exits_two_with_one_error_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["run", "-h"], ["estimate", "parseval", "--help"],
    ["run", "parseval", "--bogus", "--help"]])
def test_help_prints_the_usage_and_exits_zero(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "usage: qflab list" in captured.out
    assert "qflab run <experiment>" in captured.out
    assert captured.err == ""


def _child_env() -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def test_the_benchmark_command_line_runs_without_argparse(tmp_path):
    """The command line every benchmark case runs, in a fresh interpreter
    with `-X importtime`, which names every module the process imports:
    argparse and its gettext and locale lookups are never among them."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text('{"trials": 2}')
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qflab.lab_cli.main", "run", "parseval",
         "--config", str(cfg), "--threads", "1", "--out", str(out)],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["experiment"] == "parseval"
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "qflab.lab_cli.experiments" in imported
    assert not imported & {"argparse", "gettext", "locale"}


def _has_builtin_hashes() -> bool:
    return all(importlib.util.find_spec(name) for name in BUILTIN_HASHES)


RUNNER_MODULES = {f"qflab.lab_cli.{name}" for name in
                  ("shared", "inequalities", "expsums", "shatter", "structure")}


def test_importing_the_cli_loads_only_what_a_run_uses(tmp_path):
    """The imports every benchmark case starts with, in a fresh interpreter:
    no class generates dataclass code, numpy.random waits for a run's first
    draw, the reference twins, which only tests call, stay unloaded, and so
    does OpenSSL's `_hashlib` where the builtin hash modules exist. Every
    runner module is loaded with the registry, none on first use. The
    objects the import leaves are frozen out of the collector's
    generations."""
    code = ("import gc, json, sys, numpy\n"
            "from qflab.lab_cli.main import main\n"
            "print(gc.get_freeze_count())\n"
            "print(json.dumps([k for k, v in sys.modules.items() if v is not None]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    frozen, modules = proc.stdout.split("\n", 1)
    assert int(frozen) > 0
    loaded = set(json.loads(modules))
    assert not loaded & {"dataclasses", "numpy.random", "qflab.reference"}
    if _has_builtin_hashes():
        assert "_hashlib" not in loaded
    assert RUNNER_MODULES <= loaded


@pytest.mark.parametrize("prelude,openssl", [
    ("", False),
    ("import hashlib", True),
    ("sys.modules['_sha256'] = sys.modules['_sha2'] = None", True),
], ids=["builtin", "openssl-first", "no-builtin-sha256"])
def test_reports_do_not_depend_on_which_sha256_digests_them(tmp_path, prelude, openssl):
    """parseval's report from a fresh interpreter whose digests come from
    the builtin SHA-256, from OpenSSL's after an earlier `import hashlib`,
    and from OpenSSL's where the builtin module is missing: the bytes of
    the same run in this process."""
    if not openssl and not _has_builtin_hashes():
        pytest.skip("this interpreter has no builtin hash modules")
    out = tmp_path / "report.json"
    code = (f"import sys\n{prelude}\n"
            "from qflab.lab_cli.main import main\n"
            f"code = main(['run', 'parseval', '--out', {str(out)!r}])\n"
            "print(sys.modules.get('_hashlib') is not None)\n"
            "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(openssl)]
    assert out.read_text() == canonical_json(run_experiment("parseval")) + "\n"


@pytest.mark.parametrize("argv,code", [
    (["run", "counting-ternary"], 0),
    (["run", "parseval", "--trials", "800", "--config", "tol.json"], 1),
], ids=["pass", "fail"])
def test_a_reader_closing_stdout_ends_the_output(tmp_path, argv, code):
    """A report of 100 kB or more outgrows the pipe, so the run is still
    writing when the reader closes it after one read: the run keeps its
    verdict's exit code and writes no error and no traceback."""
    (tmp_path / "tol.json").write_text('{"tol": 1e-300}')
    proc = subprocess.Popen([sys.executable, "-m", "qflab.lab_cli.main", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env(), cwd=tmp_path)
    assert proc.stdout.read(10) == b'{"aggregat'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == code, err
    assert "error" not in err and "Exception" not in err and "Traceback" not in err, err


@pytest.mark.parametrize("name", ["genbilsums-trend", "config-regularity-trend"])
def test_mu_matrix_past_its_cap_exits_two(monkeypatch, capsys, name):
    # at p = 7, n = 7 one mu matrix would take 2 GiB; the cap refuses it
    # before allocating, as a config problem
    monkeypatch.setattr("qflab.factor.BYTE_TABLE_CAP", 8)
    assert main(["run", name]) == 2
    assert "exceeds BYTE_TABLE_CAP = 8" in capsys.readouterr().err


def test_dependent_subgroup_basis_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"subgroup_basis": [[0, 0, 1, 0], [0, 0, 2, 0]]}')
    assert main(["run", "coset-union-vc", "--config", str(cfg)]) == 2
    assert "subgroup_basis is dependent" in capsys.readouterr().err


@pytest.mark.parametrize("body,key", [
    ('{"subgroup_basis": [[0, 0, 1]]}', "subgroup_basis"),
    ('{"rep_sets": [[[0, 0, 0]]]}', "rep_sets"),
    ('{"subgroup_basis": [1, 2]}', "subgroup_basis"),
    ('{"rep_sets": [[[0, 0, 0, [1]]]]}', "rep_sets"),
])
def test_wrong_length_coset_vectors_exit_two(tmp_path, capsys, body, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    assert main(["run", "coset-union-vc", "--config", str(cfg)]) == 2
    assert f"{key} entry" in capsys.readouterr().err


def _small_dimension_configs():
    """n = 1 and n = 2, or n_values [1, 2], and the same with two forms
    where the experiment takes q, for every experiment with a dimension."""
    for name in ALL_NAMES:
        defaults = REGISTRY[name].defaults
        if "n" in defaults:
            bodies = [{"n": 1}, {"n": 2}] + ([{"n": 2, "q": 2}] if "q" in defaults else [])
        elif "n_values" in defaults:
            bodies = [{"n_values": [1, 2]}]
            bodies += [{"n_values": [2, 3], "q": 2}] if "q" in defaults else []
        else:
            bodies = []
        for body in bodies:
            yield pytest.param(name, body, id=f"{name}-{json.dumps(body, separators=(',', ':'))}")


@pytest.mark.parametrize("name,body", _small_dimension_configs())
def test_small_dimensions_never_crash(tmp_path, capsys, name, body):
    # a pass or a config error (default vectors of another length, or
    # atom-vc below n = 3): no failed hard check, and never exit 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    code = main(["run", name, "--config", str(cfg)])
    assert code in (0, 2), capsys.readouterr().err


@pytest.mark.parametrize("name", ALL_NAMES)
def test_estimator_within_an_order_of_magnitude(name, reports):
    report = reports(name)
    _, est = estimate_experiment(name)
    actual = report["terms"]["actual"]
    assert actual > 0 and est > 0
    ratio = est / actual
    assert 0.1 <= ratio <= 10.0, f"{name}: est {est} vs actual {actual}"


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3)])
@pytest.mark.parametrize("q", [1, 2])
def test_triangle_count_times_the_weights_is_the_dense_measure_sum(p, n, q):
    # genbilsums-trend's average w12 w13 w23 count / (s1 s2 s3), counted on
    # the level masks, against the float64 mu matrices' product summed, on
    # the directions of random triples (x, y, z), so that no count is 0
    factor = _standard_factor(p, n, 0, q)
    digits = factor.space.digits.astype(np.int64)
    rng = np.random.default_rng((1500, p, q))
    levels = set()
    for x, y, z in rng.integers(0, p ** n, (8, 3)).tolist():
        level = [sum(int(digits[i] @ f @ digits[j]) % p * p ** k
                     for k, f in enumerate(factor.forms)) for i, j in ((x, y), (x, z), (y, z))]
        ctx = LocalContext3(factor, factor._codes[[x, y, z]].tolist() + level)
        a1, a2, a3, b12, b13, b23 = ctx.codes
        mu12, mu13, mu23 = (mu_weight_matrix(factor, b, row, col)
                            for b, row, col in ((b12, a1, a2), (b13, a1, a3), (b23, a2, a3)))
        sizes = math.prod(factor.atom_sizes[[a1, a2, a3]].tolist())
        dense = float((mu12.T @ mu13 * mu23).sum()) / sizes
        masks, weight = _direction_masks(ctx)
        assert dense > 0
        assert weight * _triangle_count(*masks) / sizes == pytest.approx(dense, rel=1e-12)
        levels.add(weight)
    assert len(levels) > 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_one_label_draw_splits_into_the_separate_draws(p):
    # the coset-pair and assignment samplers draw all their labels at once
    # and keep their codes; every report depends on that matching one draw
    # per label, read in base p, with other draws in between
    for seed in range(3):
        for widths in itertools.product(range(5), repeat=3):
            one, many = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                assert _label_codes(one, p, list(widths)) == [
                    sum(v * p ** i for i, v in enumerate(_label(many, p, w))) for w in widths]
                assert one.random() == many.random()
                assert one.uniform(-2, 2) == many.uniform(-2, 2)
    # a trial draws all its bounded tables with one generator call and each
    # Gaussian table with one more; they equal the per-table draws they
    # replaced, moduli then phases and real parts then imaginary parts
    for n in (1, 2):
        size = p ** n
        for k in (1, 3, 4):
            one, many = np.random.default_rng(k), np.random.default_rng(k)
            for _ in range(2):
                bounded = [many.random(size) * np.exp(2j * np.pi * many.random(size))
                           for _ in range(k)]
                assert _bounded_values(_bounded_draw(one, k, size)).tobytes() == (
                    np.array(bounded).tobytes())
                assert _label(one, p, 3) == _label(many, p, 3)
                gaussian = (many.standard_normal(size) + 1j * many.standard_normal(size))
                assert _gaussian_values(_gaussian_draw(one, 1, size))[0].tobytes() == (
                    (gaussian / math.sqrt(2)).tobytes())
                assert one.uniform(-2, 2) == many.uniform(-2, 2)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("ell,q", [(1, 1), (0, 2), (1, 0)])
def test_smallpart_code_rows_are_the_sampled_directions(p, ell, q):
    # smallpart draws direction j from its own stream and keeps only codes;
    # each row is the base-p reading of the labels (a1, a2, a3, b12, b13,
    # b23) that one draw of their entries from the same stream gives
    factor = _standard_factor(p, 3, ell, q)
    rows = _direction_codes(factor, 7, 50)
    assert rows.shape == (50, 6)
    widths = [ell + q] * 3 + [q] * 3
    for j, row in enumerate(rows):
        entries = _label(_trial_rng(7, j), p, sum(widths))
        ends = list(itertools.accumulate(widths))
        assert row.tolist() == [sum(v * p ** i for i, v in enumerate(entries[end - w:end]))
                                for w, end in zip(widths, ends)]


def test_smallpart_samples_every_direction_asked_for():
    report = run_experiment("smallpart", None, {"directions": 2500})
    assert report["trials"][0]["detail"]["sampled"] == 2500


def test_a_standard_factor_without_forms_builds_its_codes_once():
    # the q = 0 factor is its own linear part: one code per point and vector
    factor = _standard_factor(3, 4, 1, 0)
    assert factor.linear is factor
    assert run_counted(lambda: factor._codes)[1] == 81


def test_vc2_structure_estimate_counts_building_the_factor():
    # at q = 0 the estimate is exact: the factor's 81 codes, its atom
    # tallies and the two searches
    report = run_experiment("vc2-structure", None, {"q": 0})
    assert report["terms"]["actual"] == report["terms"]["estimated"] == 79141


@pytest.mark.parametrize("name", ALL_NAMES)
def test_default_reports_number_their_trials_in_order(name, reports):
    trials = reports(name)["trials"]
    assert [t["trial"] for t in trials] == list(range(len(trials)))


@pytest.mark.parametrize("name,overrides", [
    # patterns without nondegenerate labels give one row, not two
    ("counting-ternary", {"ell": 2}),
    # the norm-bound row sits among the rows of the largest n
    ("sparse-uniform", {"n_values": [6, 3]}),
])
def test_trials_are_numbered_in_order_past_the_defaults(name, overrides):
    trials = run_experiment(name, None, overrides)["trials"]
    assert [t["trial"] for t in trials] == list(range(len(trials)))


@pytest.mark.parametrize("stream", [
    (0,), (2 ** 32 - 1,), (2 ** 32,), (2 ** 70,), (0, 0), (3, 2 ** 32, 0),
    (2 ** 70, 5, 2 ** 33 + 1),
])
def test_trial_streams_are_numpys_tuple_seeded_streams(stream):
    # the uint32 words of the tuple's ints, [0] for 0, seed the same stream
    # as numpy's coercion of the tuple
    want = np.random.default_rng(stream)
    got = _trial_rng(*stream)
    assert (got.integers(0, 2 ** 63, 16) == want.integers(0, 2 ** 63, 16)).all()
    assert (got.random(8) == want.random(8)).all()


def test_counting_ternary_estimator_past_the_defaults():
    # the witness counts' head tuples grow as |atom|^4, so their estimate
    # is checked past the defaults too
    report = run_experiment("counting-ternary", None, {"n": 4})
    _, est = estimate_experiment("counting-ternary", None, {"n": 4})
    actual = report["terms"]["actual"]
    assert report["verdict"] == "pass"
    assert 0.1 <= est / actual <= 10.0, f"est {est} vs actual {actual}"


@pytest.mark.parametrize("name,overrides", [
    # small n, where many atoms are empty: the runners redraw or drop those
    # directions, and building the factor is most of the work
    ("sparse-uniform", {"n_values": [1, 2]}),
    ("genbilsums-trend", {"q": 2, "n_values": [2, 3]}),
    ("genbilsums-trend", {"n_values": [1, 2]}),
    ("config-regularity-trend", {"q": 2, "n_values": [2, 3]}),
    ("control-ip2-local-trend", {"q": 2, "n_values": [2, 3]}),
    ("counting-ternary", {"ell": 3}),
    ("smallpart", {"q": 2, "n": 3, "directions": 300}),
    # q = 0, where the local U^3 quantities run on the target coset
    ("smallpart", {"q": 0}),
    ("control-ip2-local-trend", {"q": 0}),
    ("sparse-uniform", {"q": 0}),
    ("local-gcs", {"q": 0, "n": 5}),
    # the union of cosets has the dimension of its image in G/H, 2 here,
    # below the claimed bound floor(log2 k) + 1 = 3 of the last rep set
    ("coset-union-vc", {"p": 5}),
])
def test_estimator_within_an_order_of_magnitude_at_small_n(name, overrides):
    actual = run_experiment(name, None, overrides)["terms"]["actual"]
    _, est = estimate_experiment(name, None, overrides)
    assert 0.1 <= est / actual <= 10.0, f"{name} {overrides}: est {est} vs actual {actual}"


@pytest.mark.parametrize("name", ["counting-ternary", "sparse-uniform", "genbilsums-trend",
                                  "control-ip2-local-trend"])
def test_estimators_build_each_standard_factor_once(monkeypatch, name):
    builds = []

    def spy(p, n, ell, q):
        builds.append(n)
        return _standard_factor(p, n, ell, q)

    monkeypatch.setattr(shared, "_standard_factor", spy)
    shared._atom_moments.cache_clear()
    estimate_experiment(name)
    estimate_experiment(name)
    assert builds and len(builds) == len(set(builds)), f"dimensions built: {builds}"


# --- report primitives ------------------------------------------------------


def test_canonical_json_is_stable_and_strict():
    s = canonical_json({"b": Fraction(3, 4), "a": complex(1.0, -2.0)})
    assert s == '{"a":{"im":-2.0,"re":1.0},"b":"3/4"}'
    nested = {"z": [np.int64(7), np.float64(0.1), np.bool_(True), np.complex128(1 - 2j)],
              "y": {"arr": np.array([[0.5, 2.0]]), "frac": [Fraction(-1, 3)]}}
    assert canonical_json(nested) == ('{"y":{"arr":[[0.5,2.0]],"frac":["-1/3"]},'
                                      '"z":[7,0.1,true,{"im":-2.0,"re":1.0}]}')
    with pytest.raises(ValueError):
        canonical_json({"x": math.nan})
    with pytest.raises(ValueError):
        canonical_json({"x": [complex(1.0, math.nan)]})


def test_trial_records():
    good = make_trial(0, {"s": 1}, observed=0.5, bound=0.7)
    assert good["verdict"] == "pass" and good["margin"] == pytest.approx(-0.2)
    bad = make_trial(1, {"s": 1}, observed=0.9, bound=0.7)
    assert bad["verdict"] == "fail" and bad["margin"] > 0
    point = make_point(2, {"s": 2}, observed=1.25)
    assert point["verdict"] == "observed" and point["bound"] is None
    degen = make_degenerate(3, {"s": 3}, "empty atom")
    assert degen["verdict"] == "degenerate"
    assert degen["detail"]["message"] == "empty atom"


def test_rows_are_numbered_in_order_and_trials_draw_their_own_streams():
    result = _rows({"seed": 4}, [[({"check": "a"}, 0.0, 1.0), ({}, 2.0, 1.0, {"k": 1})],
                                 ["no context"],
                                 [({}, 0.5, 1.0)]])
    assert result.trials == [
        make_trial(0, {"seed": 4, "trial": 0, "check": "a"}, 0.0, 1.0),
        make_trial(1, {"seed": 4, "trial": 0}, 2.0, 1.0, {"k": 1}),
        make_degenerate(2, {"seed": 4, "trial": 1}, "no context"),
        make_trial(3, {"seed": 4, "trial": 2}, 0.5, 1.0),
    ]
    assert _records([({"a": 1}, 0.5, None, {"k": 2}), ({"a": 2}, "empty atom"),
                     ({"a": 3}, 0.5, 1.0), ({"a": 4}, 0.25, None)]).trials == [
        make_point(0, {"a": 1}, 0.5, {"k": 2}),
        make_degenerate(1, {"a": 2}, "empty atom"),
        make_trial(2, {"a": 3}, 0.5, 1.0),
        make_point(3, {"a": 4}, 0.25),
    ]

    def check(waste):
        def draw(rng, i):
            value = float(rng.random())
            rng.random(waste * (i + 1))
            return [({}, value, 1.0)]
        return draw
    lean, greedy = (_trials({"seed": 9, "trials": 4}, check(w)).trials for w in (0, 1000))
    assert [t["trial"] for t in greedy] == [0, 1, 2, 3]
    assert ([t["observed"] for t in lean] == [t["observed"] for t in greedy]
            == [float(_trial_rng(9, i).random()) for i in range(4)])


def test_blocks_of_trials_draw_their_own_streams(monkeypatch):
    # a block of trials is drawn trial by trial, each on its own stream, and
    # evaluated at once; blocks of one, of three and of all give one report
    def draw(rng):
        return float(rng.random())

    want = [float(_trial_rng(9, i).random()) for i in range(7)]
    for entries in (1, 3, 1000):
        monkeypatch.setattr(shared, "DERIVATIVE_BLOCK_ENTRIES", entries)
        sizes = []

        def evaluate(draws):
            sizes.append(len(draws))
            return [[({}, value, 1.0)] for value in draws]
        got = _blockwise({"seed": 9, "trials": 7}, 1, draw, evaluate).trials
        assert [t["trial"] for t in got] == list(range(7))
        assert [t["observed"] for t in got] == want
        assert sizes == {1: [1] * 7, 3: [3, 3, 1], 1000: [7]}[entries]


@pytest.mark.parametrize("name,overrides", [
    ("parseval", {"n": 2}), ("fourier-roundtrip", {"n": 2}), ("u2-fourier-equiv", {"n": 2}),
    ("gcs", {}), ("triangle", {"p": 5, "n": 1}), ("ap3-bound", {"n": 2}),
    ("ap4-bound", {"n": 2}), ("expsum-bound", {}), ("bilsum-bound", {}),
    ("control-ip", {}), ("control-ip2", {"n": 1}),
])
def test_whole_group_reports_do_not_depend_on_trial_blocks(monkeypatch, name, overrides):
    # every batched kernel gives a row what the row gives alone, so a run in
    # blocks of one trial has the trials of a run in one block
    cfg = overrides | {"trials": 6, "seed": 2}
    whole = run_experiment(name, cfg)
    monkeypatch.setattr(shared, "DERIVATIVE_BLOCK_ENTRIES", 1)
    assert run_experiment(name, cfg)["trials"] == whole["trials"]


def test_trend_carries_the_previous_value_past_a_degenerate_n():
    def per_n(factor, i):
        value = (None, 0.5, None, 0.25)[i]
        if value is None:
            return [({"n": factor.n}, "no context")], None
        return [({"n": factor.n}, value, None), ({"n": factor.n, "k": 1}, value, 1.0)], value
    result = _trend({"p": 3, "ell": 1, "q": 1, "n_values": [2, 3, 4, 3]}, per_n)
    assert result.trend == trend_summary([1.0, 0.5, 0.5, 0.25])
    assert [(t["trial"], t["verdict"]) for t in result.trials] == [
        (0, "degenerate"), (1, "observed"), (2, "pass"), (3, "degenerate"),
        (4, "observed"), (5, "pass")]


def test_trend_wobble_rules():
    assert trend_summary([1.0, 1.04, 0.9])["non_increasing_within_wobble"]
    assert not trend_summary([1.0, 1.06])["non_increasing_within_wobble"]
    flat = trend_summary([0.0, 0.0, 0.0])
    assert flat["non_increasing_within_wobble"]
    down = trend_summary([4.0, 2.0, 1.0])
    assert down["slope"] < 0


def test_trend_slope_is_the_closed_form_least_squares_slope():
    # integer values give their exact slope, correctly rounded: their sum
    # is an integer, then one division
    assert trend_summary([4, 2, 1])["slope"] == -1.5
    assert trend_summary([1, 3])["slope"] == 2.0
    assert trend_summary([7, 7, 7, 7])["slope"] == 0.0
    assert trend_summary([3, 1, 4, 1, 5, 9, 2, 6])["slope"] == 15 / 28
    assert trend_summary([5])["slope"] == 0.0 and trend_summary([])["slope"] == 0.0
    rng = np.random.default_rng(5)
    for m in range(2, 40):
        vals = (rng.standard_normal(m) * 10.0 ** rng.integers(-6, 6)).tolist()
        want = np.polyfit(np.arange(m), vals, 1)[0]
        assert abs(trend_summary(vals)["slope"] - want) <= 1e-12 * max(map(abs, vals))
