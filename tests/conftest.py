"""Shared fixtures: a session-wide cache of experiment reports.

Several test modules need the same default-config reports (hard verdicts,
term counts, determinism baselines). Running each experiment once and
sharing the result keeps the suite inside its time budget; the runs are
pure functions of (config, seed), so caching cannot mask anything.
"""

from __future__ import annotations

import pytest

from qflab.lab_cli.experiments import run_experiment


@pytest.fixture(scope="session")
def reports():
    cache: dict = {}

    def get(name: str) -> dict:
        if name not in cache:
            cache[name] = run_experiment(name)
        return cache[name]

    return get
