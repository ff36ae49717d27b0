"""The benchmark's workloads: which experiment runs, with which config.

A case is one `qflab run` invocation. The benchmark seed picks the
experiment seed from a pool whose reports were recorded at the baseline
commit, so every run can be checked against a reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# References exist for experiment seeds 0..SEED_POOL-1. Seed 0 is the one
# used while developing; seed 1 is the held-out seed that a claiming change
# must also be checked on.
SEED_POOL = 5

# Experiments whose defaults carry no "seed" key; passing one is a config error.
SEEDLESS = frozenset({"coset-union-vc"})


@dataclass(frozen=True)
class Case:
    id: str
    experiment: str
    overrides: dict = field(default_factory=dict)

    def config(self, seed: int) -> dict:
        cfg = dict(self.overrides)
        if self.experiment not in SEEDLESS:
            cfg["seed"] = seed
        return cfg


def experiment_seed(seed: int) -> int:
    return seed % SEED_POOL


GLOBAL_DEFAULTS = (
    "parseval", "fourier-roundtrip", "u2-fourier-equiv", "gcs", "triangle",
    "u3-dominates", "ap3-bound", "ap4-bound", "expsum-bound", "bilsum-bound",
    "control-ip", "control-ip2", "inverse-oracle",
)

ATOM_DEFAULTS = (
    "local-gcs", "local-triangle", "atom-sizes", "bil-level-sizes",
    "genbilsums-trend", "config-regularity-trend", "atom-u2-uniformity",
    "atom-vc", "atom-vc2", "coset-union-vc", "control-ip-local",
    "control-ip2-local-trend", "sparse-uniform", "smallpart", "trivdense",
    "vc2-structure", "counting-binary", "counting-ternary",
)

# One case per layer beyond the registered defaults: few large calls
# instead of many small ones, p != 3, and real memory pressure. Run by hand;
# BENCHMARK.json leaves it out because three workloads exceed the time budget
# of a benchmark check.
PAST_DEFAULTS = (
    Case("ap4-bound.n4", "ap4-bound", {"n": 4, "trials": 1}),
    Case("smallpart.n5", "smallpart", {"n": 5, "directions": 100}),
    Case("counting-ternary.p5", "counting-ternary", {"p": 5}),
    Case("bil-level-sizes.n9", "bil-level-sizes", {"n_values": [2, 4, 6, 8, 9]}),
    Case("atom-sizes.n12", "atom-sizes", {"n_values": [2, 4, 6, 8, 10, 12]}),
    Case("atom-vc.n7", "atom-vc", {"n": 7}),
)

WORKLOADS: dict[str, tuple[Case, ...]] = {
    "global-defaults": tuple(Case(name, name) for name in GLOBAL_DEFAULTS),
    "atom-defaults": tuple(Case(name, name) for name in ATOM_DEFAULTS),
    "past-defaults": PAST_DEFAULTS,
}

# Every registered experiment, for the per-experiment wall-time metrics.
EXPERIMENTS = GLOBAL_DEFAULTS + ATOM_DEFAULTS
