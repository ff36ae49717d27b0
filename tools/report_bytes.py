"""Write the canonical report of every default run, one file each, or
compare two such directories.

    python tools/report_bytes.py OUT_DIR [EXTRA.json]
    python tools/report_bytes.py --compare OLD_DIR NEW_DIR

Runs every registered experiment at seeds 0-4 (once for an experiment whose
defaults have no seed) from the source tree this script sits in, plus each
[name, config] pair of the optional EXTRA.json list. A run that raises
writes its error instead of a report.

--compare prints one line per report whose bytes differ: the parts that
moved (verdict, trial count, observed/bound, terms, detail, aggregate,
other) and the largest relative difference of a trial's observed or bound.
It exits 1 when a verdict or a trial count moved, or a report is missing
or an error on one side, and 0 otherwise.
"""

from __future__ import annotations

import json
import math
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


def _relative(a, b) -> float:
    """|a - b| relative to the larger magnitude; inf when only one is a
    number."""
    if a == b:
        return 0.0
    if not all(isinstance(v, (int, float)) for v in (a, b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _moved(old: dict, new: dict) -> tuple[list[str], float]:
    """The parts of a report that moved, in a fixed order, and the largest
    relative difference of a trial's observed or bound."""
    parts, worst = set(), 0.0
    if old["verdict"] != new["verdict"]:
        parts.add("verdict")
    if len(old["trials"]) != len(new["trials"]):
        parts.add("trial count")
    for a, b in zip(old["trials"], new["trials"]):
        for key in a.keys() | b.keys():
            if a.get(key) == b.get(key):
                continue
            if key in ("observed", "bound", "margin"):
                parts.add("observed/bound")
                if key != "margin":
                    worst = max(worst, _relative(a.get(key), b.get(key)))
            else:
                parts.add("verdict" if key == "verdict" else "detail")
    for key in old.keys() | new.keys():
        if key not in ("verdict", "trials") and old.get(key) != new.get(key):
            parts.add(key if key in ("terms", "aggregate") else "other")
    order = ["verdict", "trial count", "observed/bound", "terms", "detail", "aggregate", "other"]
    return [part for part in order if part in parts], worst


def compare(old_dir: Path, new_dir: Path) -> int:
    """Print the reports that moved between two directories; 1 if a verdict
    or trial count moved."""
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    moved, hard = 0, False
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            print(f"{name}: only in {old_dir if old.exists() else new_dir}")
            moved, hard = moved + 1, True
            continue
        a, b = old.read_bytes(), new.read_bytes()
        if a == b:
            continue
        moved += 1
        try:
            parts, worst = _moved(json.loads(a), json.loads(b))
        except ValueError:  # an error on either side is no report
            print(f"{name}: error moved")
            hard = True
            continue
        hard = hard or "verdict" in parts or "trial count" in parts
        print(f"{name}: {', '.join(parts)}; largest observed/bound difference {worst:.3g}")
    print(f"{moved} of {len(names)} reports moved")
    return int(hard)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"] and len(argv) == 3:
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) not in (1, 2) or argv[0].startswith("-"):
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
