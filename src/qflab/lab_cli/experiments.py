"""The experiment registry: one named experiment per checked claim.

Kinds:
    hard    exact identities or inequalities; any failing trial fails the run
    trend   margins tracked across a scale parameter; annotate, never fail
    report  raw distributions with no single verdict

Each entry names its runner and its estimator. They live in family modules,
all imported with this one, since every run compiles what it imports and a
first-use import would cost each case of a benchmark pass its compile time:
`shared` (trial streams, records, draws and term counts, which every family
uses), `inequalities` (transform identities and inner-product
inequalities), `expsums` (exponential sums and equidistribution trends),
`shatter` (shatter dimension and pattern-operator control) and `structure`
(sparsity, structure and counting identities).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from ..combinatorics import has_k_ip  # noqa: F401  (perfbench's tracer test patches this alias)
from ..errors import UnknownExperiment
from ..fpn_core import run_counted
from ..spectral import u3_inner  # noqa: F401  (perfbench's tracer test patches this alias)
from . import expsums, inequalities, shatter, structure
from .config import merge_config
from .reporting import aggregate_from, build_report


class Experiment(NamedTuple):
    name: str
    kind: str
    claim: str
    defaults: dict
    runner: Callable
    estimator: Callable


REGISTRY: dict[str, Experiment] = {}


def _register(name: str, kind: str, claim: str, defaults: dict,
              runner: Callable, estimator: Callable) -> None:
    REGISTRY[name] = Experiment(name, kind, claim, dict(defaults), runner, estimator)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_register(
    "parseval", "hard",
    "mean square of a function equals the sum of squared spectrum magnitudes",
    {"p": 3, "n": 4, "trials": 100, "seed": 0, "tol": 1e-9},
    inequalities._run_parseval, inequalities._est_parseval)
_register(
    "fourier-roundtrip", "hard",
    "inverse transform undoes the transform; fast and direct transforms agree",
    {"p": 3, "n": 4, "trials": 50, "seed": 0, "tol": 1e-9},
    inequalities._run_roundtrip, inequalities._est_roundtrip)
_register(
    "u2-fourier-equiv", "hard",
    "fourth power of the degree-2 norm equals the fourth moment of the spectrum",
    {"p": 3, "n": 4, "trials": 50, "seed": 0, "tol": 1e-9},
    inequalities._run_u2_equiv, inequalities._est_u2_equiv)
_register(
    "gcs", "hard",
    "box inner products are bounded by the product of the factors' norms",
    {"p": 3, "n": 2, "trials": 50, "seed": 0, "tol": 1e-9},
    inequalities._run_gcs, inequalities._est_gcs)
_register(
    "local-gcs", "hard",
    "coset-restricted box inner products are bounded by the product of local norms",
    {"p": 3, "n": 3, "ell": 1, "q": 1, "trials": 50, "seed": 0, "tol": 1e-9},
    inequalities._run_local_gcs, inequalities._est_local_gcs)
_register(
    "triangle", "hard",
    "uniformity norms are homogeneous and satisfy the triangle inequality",
    {"p": 3, "n": 2, "trials": 50, "seed": 0, "tol": 1e-9},
    inequalities._run_triangle, inequalities._est_triangle)
_register(
    "local-triangle", "hard",
    "local uniformity norms are homogeneous and satisfy the triangle inequality",
    {"p": 3, "n": 3, "ell": 1, "q": 1, "trials": 50, "seed": 0, "tol": 1e-9},
    inequalities._run_local_triangle, inequalities._est_local_triangle)
_register(
    "u3-dominates", "hard",
    "the degree-3 norm dominates the degree-2 norm, globally and locally",
    {"p": 3, "n": 3, "ell": 1, "trials": 30, "seed": 0, "tol": 1e-9},
    inequalities._run_u3_dominates, inequalities._est_u3_dominates)
_register(
    "ap3-bound", "hard",
    "the 3-term progression average is bounded by the largest spectrum value",
    {"p": 3, "n": 4, "trials": 100, "seed": 0, "tol": 1e-9},
    inequalities._run_ap3, inequalities._est_ap3)
_register(
    "ap4-bound", "hard",
    "the 4-term progression average is bounded by the degree-3 norm",
    {"p": 3, "n": 3, "trials": 50, "seed": 0, "tol": 1e-9},
    inequalities._run_ap4, inequalities._est_ap4)
_register(
    "expsum-bound", "hard",
    "quadratic phase averages decay like p^(-rank/2)",
    {"p": 3, "n": 3, "trials": 100, "seed": 0, "tol": 1e-9},
    expsums._run_expsum, expsums._est_expsum)
_register(
    "bilsum-bound", "hard",
    "bilinear phase averages decay like p^(-rank)",
    {"p": 3, "n": 3, "trials": 100, "seed": 0, "tol": 1e-9},
    expsums._run_bilsum, expsums._est_bilsum)
_register(
    "atom-sizes", "trend",
    "atom sizes approach the equidistributed value as rank grows",
    {"p": 3, "ell": 1, "q": 1, "n_values": [2, 4, 6, 8], "seed": 0},
    expsums._run_atom_sizes, expsums._est_atom_sizes)
_register(
    "bil-level-sizes", "trend",
    "bilinear level-set sizes approach the equidistributed value as rank grows",
    {"p": 3, "ell": 1, "q": 1, "n_values": [2, 4, 6, 8], "seed": 0},
    expsums._run_bil_sizes, expsums._est_bil_sizes)
_register(
    "genbilsums-trend", "trend",
    "weighted configuration averages over atom triples approach 1 as rank grows",
    {"p": 3, "ell": 1, "q": 1, "n_values": [4, 5, 6, 7], "directions": 12,
     "seed": 0},
    expsums._run_genbilsums, expsums._est_genbilsums)
_register(
    "config-regularity-trend", "trend",
    "extension-count ratios concentrate around 1 as rank grows",
    {"p": 3, "ell": 1, "q": 1, "n_values": [5, 6, 7], "samples": 50,
     "seed": 0},
    expsums._run_config_regularity, expsums._est_config_regularity)
_register(
    "atom-u2-uniformity", "trend",
    "balanced atom indicators have small local degree-2 norm at high rank",
    {"p": 3, "ell": 1, "q": 1, "n_values": [3, 4, 5, 6],
     "atom_labels": [[0, 0], [0, 1]], "seed": 0},
    expsums._run_atom_u2_uniformity, expsums._est_atom_u2_uniformity)
_register(
    "atom-vc", "hard",
    "atoms of high-rank quadratic factors shatter 2-element trace patterns",
    {"p": 3, "n": 4, "atom_label": [0], "seed": 0},
    shatter._run_atom_vc, shatter._est_atom_vc)
_register(
    "atom-vc2", "hard",
    "atoms of full-rank single-form factors have 2-level shatter dimension <= 1",
    {"p": 3, "n": 3, "ell_values": [0, 1],
     "extra_diagonals": [[1, 1, 2], [1, 2, 2]], "seed": 0},
    shatter._run_atom_vc2, shatter._est_atom_vc2)
_register(
    "coset-union-vc", "hard",
    "unions of k subgroup cosets have shatter dimension <= floor(log2 k) + 1",
    {"p": 3, "n": 4,
     "subgroup_basis": [[0, 0, 1, 0], [0, 0, 0, 1]],
     "rep_sets": [
         [[0, 0, 0, 0], [1, 0, 0, 0]],
         [[0, 0, 0, 0], [1, 1, 0, 0]],
         [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
         [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]],
     ]},
    shatter._run_coset_union_vc, shatter._est_coset_union_vc)
_register(
    "control-ip", "hard",
    "the multi-shift pattern average is bounded by its least degree-2 norm",
    {"p": 3, "n": 2, "m": 2, "trials": 50, "seed": 0, "tol": 1e-9},
    shatter._run_control_ip, shatter._est_control_ip)
_register(
    "control-ip2", "hard",
    "the two-level pattern average is bounded by its least degree-3 norm",
    {"p": 3, "n": 2, "m": 2, "trials": 20, "seed": 0, "tol": 1e-9},
    shatter._run_control_ip2, shatter._est_control_ip2)
_register(
    "control-ip-local", "hard",
    "the coset-restricted pattern average is bounded by its least local "
    "degree-2 norm",
    {"p": 3, "n": 3, "ell": 1, "m": 2, "trials": 30, "seed": 0, "tol": 1e-9},
    shatter._run_control_ip_local, shatter._est_control_ip_local)
_register(
    "control-ip2-local-trend", "trend",
    "the excess of the weighted pattern average over the least local degree-3 "
    "norm shrinks with rank",
    {"p": 3, "ell": 1, "q": 1, "m": 1, "n_values": [3, 4, 5, 6], "seed": 0},
    shatter._run_control_ip2_local, shatter._est_control_ip2_local)
_register(
    "sparse-uniform", "hard",
    "sets sparse on the target atom have small local degree-3 norm",
    {"p": 3, "ell": 1, "q": 1, "n_values": [3, 4, 5, 6], "eps": 0.1,
     "samples": 10, "seed": 0, "tol": 1e-9},
    structure._run_sparse_uniform, structure._est_sparse_uniform)
_register(
    "smallpart", "report",
    "functions with tiny mean square have small local degree-3 norm on most "
    "direction tuples",
    {"p": 3, "n": 4, "ell": 1, "q": 1, "eps": 1e-3, "directions": 2000,
     "seed": 0},
    structure._run_smallpart, structure._est_smallpart)
_register(
    "trivdense", "hard",
    "unions of atoms have density 0 or 1 on every target atom",
    {"p": 3, "n": 4, "ell": 1, "q": 1, "directions": 100, "seed": 0},
    structure._run_trivdense, structure._est_trivdense)
_register(
    "vc2-structure", "hard",
    "atom unions are exactly recovered by majority vote and have trivial "
    "densities",
    {"p": 3, "n": 4, "ell": 1, "q": 1, "seed": 0},
    structure._run_vc2_structure, structure._est_vc2_structure)
_register(
    "inverse-oracle", "hard",
    "a quadratic phase correlates perfectly with a recovered quadratic phase",
    {"p": 3, "n": 3, "trials": 3, "seed": 0, "tol": 1e-9},
    structure._run_inverse_oracle, structure._est_inverse_oracle)
_register(
    "counting-binary", "hard",
    "the coset pattern average times the coset normalization equals the "
    "integer witness count",
    {"p": 3, "n": 3, "ell": 1, "parts": [2, 2], "trials": 20, "seed": 0,
     "tol": 1e-6},
    structure._run_counting_binary, structure._est_counting_binary)
_register(
    "counting-ternary", "hard",
    "the weighted atom pattern average obeys the exact witness identity; "
    "its deviation from the product of densities is reported",
    {"p": 3, "n": 3, "ell": 1, "q": 1, "max_part": 2, "seed": 0, "tol": 1e-6},
    structure._run_counting_ternary, structure._est_counting_ternary)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def get_experiment(name: str) -> Experiment:
    exp = REGISTRY.get(name)
    if exp is None:
        raise UnknownExperiment(
            f"unknown experiment {name!r}; see `qflab list`")
    return exp


def run_experiment(name: str, file_cfg: dict | None = None,
                   overrides: dict | None = None) -> dict:
    return run_estimated(name, *estimate_experiment(name, file_cfg, overrides))


def run_estimated(name: str, cfg: dict, estimated: int) -> dict:
    """The report of a run on a merged config, whose estimate is given."""
    exp = get_experiment(name)
    result, terms = run_counted(exp.runner, cfg)
    ok = all(t["verdict"] != "fail" for t in result.trials)
    return build_report(exp.name, exp.kind, exp.claim, cfg, result.trials,
                        aggregate_from(result.trials, result.trend), estimated, terms, ok)


def estimate_experiment(name: str, file_cfg: dict | None = None,
                        overrides: dict | None = None) -> tuple[dict, int]:
    exp = get_experiment(name)
    cfg = merge_config(exp, file_cfg, overrides)
    return cfg, exp.estimator(cfg)
