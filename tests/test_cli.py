"""Harness behavior: exit codes, report files, determinism, estimators."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qflab.lab_cli.experiments import REGISTRY, estimate_experiment, run_experiment
from qflab.lab_cli.main import main
from qflab.lab_cli.reporting import (
    canonical_json,
    make_degenerate,
    make_point,
    make_trial,
    trend_summary,
)

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


def test_dependent_subgroup_basis_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"subgroup_basis": [[0, 0, 1, 0], [0, 0, 2, 0]]}')
    assert main(["run", "coset-union-vc", "--config", str(cfg)]) == 2
    assert "subgroup_basis is dependent" in capsys.readouterr().err


@pytest.mark.parametrize("name", ALL_NAMES)
def test_estimator_within_an_order_of_magnitude(name, reports):
    report = reports(name)
    _, est = estimate_experiment(name)
    actual = report["terms"]["actual"]
    assert actual > 0 and est > 0
    ratio = est / actual
    assert 0.1 <= ratio <= 10.0, f"{name}: est {est} vs actual {actual}"


# --- report primitives ------------------------------------------------------


def test_canonical_json_is_stable_and_strict():
    s = canonical_json({"b": Fraction(3, 4), "a": complex(1.0, -2.0)})
    assert s == '{"a":{"im":-2.0,"re":1.0},"b":"3/4"}'
    with pytest.raises(ValueError):
        canonical_json({"x": math.nan})


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


def test_trend_wobble_rules():
    assert trend_summary([1.0, 1.04, 0.9])["non_increasing_within_wobble"]
    assert not trend_summary([1.0, 1.06])["non_increasing_within_wobble"]
    flat = trend_summary([0.0, 0.0, 0.0])
    assert flat["non_increasing_within_wobble"]
    down = trend_summary([4.0, 2.0, 1.0])
    assert down["slope"] < 0
