"""The byte-check tool's compare mode on two small report directories."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "report_bytes", Path(__file__).resolve().parents[1] / "tools" / "report_bytes.py")
report_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_bytes)

REPORT = {
    "aggregate": {"pass_rate": 1.0, "trend": None},
    "config": {"seed": 0},
    "terms": {"actual": 100, "estimated": 120},
    "trials": [{"trial": 0, "observed": 0.5, "bound": 1.0, "margin": -0.5, "verdict": "pass",
                "detail": {"count": 3}},
               {"trial": 1, "observed": 2.0, "bound": None, "margin": None,
                "verdict": "observed"}],
    "verdict": "pass",
}


def _write(directory: Path, name: str, report) -> None:
    directory.mkdir(exist_ok=True)
    text = report if isinstance(report, str) else json.dumps(report, sort_keys=True)
    (directory / name).write_text(text + "\n", encoding="utf-8")


def _moved(edits: dict | None = None, **keys):
    """REPORT with edits[i]'s entries updated in trial i and the given
    top-level keys replaced."""
    out = copy.deepcopy(REPORT)
    for i, entries in (edits or {}).items():
        out["trials"][i].update(entries)
    return out | keys


def _compare(tmp_path, capsys, news: dict) -> tuple[int, list[str]]:
    old, new = tmp_path / "old", tmp_path / "new"
    for name, report in news.items():
        _write(old, name, REPORT)
        if report is not None:
            _write(new, name, report)
    new.mkdir(exist_ok=True)
    code = report_bytes.main(["--compare", str(old), str(new)])
    return code, capsys.readouterr().out.splitlines()


def test_compare_names_the_parts_that_moved(tmp_path, capsys):
    code, lines = _compare(tmp_path, capsys, {
        "a.json": REPORT,
        "b.json": _moved(terms={"actual": 150, "estimated": 120}),
        "c.json": _moved({0: {"observed": 0.5 * (1 + 2e-16), "margin": -0.49},
                          1: {"detail": {"count": 4}}}),
        "d.json": _moved(aggregate={"pass_rate": 1.0, "trend": {"slope": 0.0}}),
    })
    assert code == 0
    assert lines == [
        "b.json: terms; largest observed/bound difference 0",
        "c.json: observed/bound, detail; largest observed/bound difference 2.22e-16",
        "d.json: aggregate; largest observed/bound difference 0",
        "3 of 4 reports moved",
    ]


@pytest.mark.parametrize("report, line", [
    (_moved({0: {"verdict": "fail"}}, verdict="fail"),
     "x.json: verdict; largest observed/bound difference 0"),
    (_moved(trials=REPORT["trials"][:1]),
     "x.json: trial count; largest observed/bound difference 0"),
    (_moved({1: {"bound": 3.0}}), "x.json: observed/bound; largest observed/bound difference inf"),
    ("error: CapExceeded: too large", "x.json: error moved"),
    (None, "x.json: only in {old}"),
])
def test_compare_fails_when_a_verdict_or_trial_count_moves(tmp_path, capsys, report, line):
    code, lines = _compare(tmp_path, capsys, {"x.json": report})
    assert lines == [line.format(old=tmp_path / "old"), "1 of 1 reports moved"]
    assert code == (0 if "observed/bound;" in line else 1)
