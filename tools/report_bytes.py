"""Write the canonical report of every default run, one file each.

    python tools/report_bytes.py OUT_DIR [EXTRA.json]

Runs every registered experiment at seeds 0-4 (once for an experiment whose
defaults have no seed) from the source tree this script sits in, plus each
[name, config] pair of the optional EXTRA.json list. A run that raises
writes its error instead of a report. Two trees then compare with
`diff -r OUT_A OUT_B`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qflab.lab_cli.experiments import REGISTRY, run_experiment  # noqa: E402
from qflab.lab_cli.reporting import canonical_json  # noqa: E402

SEEDS = range(5)


def _write(path: Path, name: str, cfg: dict | None) -> None:
    try:
        text = canonical_json(run_experiment(name, cfg))
    except Exception as exc:
        text = f"error: {type(exc).__name__}: {exc}"
    path.write_text(text + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name, exp in sorted(REGISTRY.items()):
        if "seed" not in exp.defaults:
            _write(out / f"{name}.json", name, None)
            continue
        for seed in SEEDS:
            _write(out / f"{name}.seed{seed}.json", name, {"seed": seed})
    extras = json.loads(Path(argv[1]).read_text(encoding="utf-8")) if len(argv) == 2 else []
    for k, (name, cfg) in enumerate(extras):
        _write(out / f"extra{k:02d}.{name}.json", name, cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
