"""Deterministic JSON reports: canonical serialization, digests, verdicts.

Reports must be byte-identical for identical (config, seed), so everything
nondeterministic (wall time, output path) stays out of the serialized
payload, floats are emitted via their shortest round-trip repr, and NaN/Inf
are rejected outright.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np

SCHEMA_VERSION = 1

# relative wobble allowed before a margin sequence stops counting as
# non-increasing; absolute floor so exact zeros compare cleanly
TREND_WOBBLE = 0.05
TREND_ABS_SLACK = 1e-12


def _encode(obj):
    """The JSON form of a value `json` cannot encode itself: numpy scalars
    and arrays as their Python values, a Fraction as "num/den", a complex
    number as {"re", "im"}."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# one encoder for every report and digest: json.dumps would build a new one
# per call, and a many-trial run digests every trial's inputs
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False,
                              default=_encode)


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


def digest_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


def make_trial(index: int, inputs: dict, observed: float, bound: float,
               detail: dict | None = None) -> dict:
    """A hard-check record; the bound already includes any tolerance slack."""
    margin = float(observed) - float(bound)
    rec = {
        "trial": index,
        "inputs_digest": digest_of(inputs),
        "observed": float(observed),
        "bound": float(bound),
        "margin": margin,
        "verdict": "pass" if margin <= 0.0 else "fail",
    }
    if detail:
        rec["detail"] = detail
    return rec


def make_point(index: int, inputs: dict, observed: float,
               detail: dict | None = None) -> dict:
    """An annotate-only record (trend points, distribution summaries)."""
    rec = {
        "trial": index,
        "inputs_digest": digest_of(inputs),
        "observed": float(observed),
        "bound": None,
        "margin": None,
        "verdict": "observed",
    }
    if detail:
        rec["detail"] = detail
    return rec


def make_degenerate(index: int, inputs: dict, message: str) -> dict:
    return {
        "trial": index,
        "inputs_digest": digest_of(inputs),
        "observed": None,
        "bound": None,
        "margin": None,
        "verdict": "degenerate",
        "detail": {"message": message},
    }


def trend_summary(values: list[float]) -> dict:
    """Monotone-trend verdict: non-increasing up to a relative wobble."""
    vals = [float(v) for v in values]
    ok = all(b <= a * (1.0 + TREND_WOBBLE) + TREND_ABS_SLACK
             for a, b in zip(vals, vals[1:]))
    if len(vals) >= 2:
        slope = float(np.polyfit(np.arange(len(vals)), np.array(vals), 1)[0])
    else:
        slope = 0.0
    return {"values": vals, "non_increasing_within_wobble": ok,
            "slope": slope, "wobble": TREND_WOBBLE}


def aggregate_from(trials: list[dict], trend: dict | None = None) -> dict:
    """Pass rate over decided trials, worst margin, degenerate count."""
    margins = [t["margin"] for t in trials if t["margin"] is not None]
    decided = [t for t in trials if t["verdict"] in ("pass", "fail")]
    passed = sum(1 for t in decided if t["verdict"] == "pass")
    return {
        "pass_rate": (passed / len(decided)) if decided else None,
        "max_margin": max(margins) if margins else None,
        "degenerate": sum(1 for t in trials if t["verdict"] == "degenerate"),
        "trend": trend,
    }


def build_report(name: str, kind: str, claim: str, config: dict,
                 trials: list[dict], aggregate: dict,
                 terms_estimated: int, terms_actual: int,
                 hard_pass: bool) -> dict:
    if kind == "hard":
        verdict = "pass" if hard_pass else "fail"
    elif kind == "trend":
        trend = aggregate.get("trend") or {}
        verdict = ("trend-ok" if trend.get("non_increasing_within_wobble")
                   else "trend-flagged")
    else:
        verdict = "report"
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": name,
        "kind": kind,
        "claim": claim,
        "config": config,
        "trials": trials,
        "aggregate": aggregate,
        "terms": {"estimated": int(terms_estimated), "actual": int(terms_actual)},
        "verdict": verdict,
    }
