"""Every kernel the benchmark's tracer wraps exists in qflab, so a refactor
that drops or renames one fails here instead of leaving that layer's
per-kernel metrics absent."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_kernel_resolves_in_qflab(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, names in tracer.KERNELS.items():
        module = importlib.import_module(f"qflab.{layer}")
        for name in names:
            target = module
            for attr in name.split("."):
                target = getattr(target, attr, None)
            if not callable(target):
                missing.append(f"{layer}.{name}")
    assert tracer.KERNELS and missing == []
