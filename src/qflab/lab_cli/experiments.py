"""The experiment registry: one named experiment per checked claim.

Kinds:
    hard    exact identities or inequalities; any failing trial fails the run
    trend   margins tracked across a scale parameter; annotate, never fail
    report  raw distributions with no single verdict

Every runner is a pure function of (config, seed) and runs its trials in
one sequential loop: trial i draws from its own generator stream
_trial_rng(seed, i, ...), so reports are byte-identical from run to run.
Runners also count the scalar terms they actually touch; `estimate`
predicts the same count from the config alone (for local experiments,
from the factor's atom-size histogram) and must land within 10x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from ..combinatorics import (
    SubsetBitmask,
    best_atom_union_approx,
    density_profile,
    has_k_ip,
    regularity_conclusion,
    vc2_dimension,
    vc_dimension,
)
from ..errors import ConfigError, DegenerateContext, UnknownExperiment
from ..factor import (
    DirectionTuple2,
    DirectionTuple3,
    QuadraticFactor,
    bilinear_level_sizes,
    new_linear_factor,
    new_quadratic_factor,
    sigma3,
)
from ..fpn_core import (
    GroupVector,
    SymmetricForm,
    bilinear_char_sum,
    quad_char_sum,
    rank_mod_p,
    space,
)
from ..local_norms import (
    LocalContext2,
    LocalContext3,
    local_u2_inner,
    local_u2_norm,
    local_u3_dominates_check,
    local_u3_inner,
    local_u3_norm,
)
from ..pattern_ops import (
    FunctionGrid,
    LabelAssignment,
    PatternHypergraph,
    bipartite_normalization,
    t_bipartite,
    t_ip,
    t_ip2,
    t_ip2_local,
    t_ip_local,
    t_ternary,
    ternary_normalization,
    weighted_ternary_density,
    witness_count_bipartite,
    witness_count_ternary,
)
from ..spectral import (
    GroupFunction,
    ap3_average,
    ap4_average,
    fourier_transform,
    fourier_transform_naive,
    inverse_transform,
    max_quadratic_correlation,
    u2_inner,
    u2_norm,
    u3_inner,
    u3_norm,
)
from .reporting import (
    aggregate_from,
    build_report,
    make_degenerate,
    make_point,
    make_trial,
    trend_summary,
)

ALLOWED_PRIMES = (3, 5, 7, 11, 13)
GROUP_CAP = 1 << 20
DIRECTION_BUDGET = 2000
NAIVE_FT_TOL = 1e-10


@dataclass
class RunResult:
    trials: list
    aggregate: dict
    hard_pass: bool
    terms: int


@dataclass(frozen=True)
class Experiment:
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
# shared generators
# ---------------------------------------------------------------------------

def _trial_rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((int(seed),) + tuple(int(s) for s in stream))


def _bounded_values(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.random(size) * np.exp(2j * np.pi * rng.random(size))


def _bounded_fn(rng: np.random.Generator, p: int, n: int) -> GroupFunction:
    return GroupFunction(p, n, _bounded_values(rng, p ** n), one_bounded=True)


def _gaussian_fn(rng: np.random.Generator, p: int, n: int) -> GroupFunction:
    size = p ** n
    vals = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)
    return GroupFunction(p, n, vals)


def _standard_factor(p: int, n: int, ell: int, q: int) -> QuadraticFactor:
    """Fixed full-rank test factor: e_1..e_ell plus the identity form (and a
    second alternating diagonal when q = 2)."""
    vectors = [tuple(int(i == j) for j in range(n)) for i in range(ell)]
    forms = []
    if q >= 1:
        forms.append(np.eye(n, dtype=np.int64))
    if q >= 2:
        forms.append(np.diag([(1, 2)[i % 2] for i in range(n)]).astype(np.int64))
    if q > 2:
        raise ConfigError("standard factor supports q <= 2")
    return new_quadratic_factor(new_linear_factor(p, n, vectors), forms)


def _label(rng: np.random.Generator, p: int, width: int) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.integers(0, p, size=width))


def _direction3(rng: np.random.Generator, factor: QuadraticFactor) -> DirectionTuple3:
    w, q = factor.ell + factor.q, factor.q
    return DirectionTuple3(
        factor.p,
        _label(rng, factor.p, w), _label(rng, factor.p, w), _label(rng, factor.p, w),
        _label(rng, factor.p, q), _label(rng, factor.p, q), _label(rng, factor.p, q),
    )


def _nondeg_ctx3(rng: np.random.Generator, factor: QuadraticFactor,
                 attempts: int = 200) -> tuple[LocalContext3, DirectionTuple3]:
    last = "no attempts made"
    for _ in range(attempts):
        d = _direction3(rng, factor)
        try:
            return LocalContext3(factor, d), d
        except DegenerateContext as exc:
            last = str(exc)
    raise DegenerateContext(f"no nondegenerate direction found: {last}")


def _atom_stats(factor: QuadraticFactor) -> tuple[float, float]:
    """(mean, mean of squares) of atom sizes over all labels, for cost
    prediction; labels in local experiments are sampled uniformly."""
    sizes = [factor.atom_indices(lab.values).size for lab in factor.all_labels()]
    arr = np.array(sizes, dtype=float)
    return float(arr.mean()), float((arr ** 2).mean())


def _indicator_minus(p: int, n: int, bits: np.ndarray, alpha: float) -> GroupFunction:
    return GroupFunction(p, n, bits.astype(np.float64) - alpha)


def _hard_result(trials: list, terms: int, trend: dict | None = None) -> RunResult:
    ok = all(t["verdict"] != "fail" for t in trials)
    return RunResult(trials, aggregate_from(trials, trend), ok, terms)


def _trend_result(trials: list, values: list, terms: int) -> RunResult:
    return RunResult(trials, aggregate_from(trials, trend_summary(values)), True, terms)


# ---------------------------------------------------------------------------
# transform identities
# ---------------------------------------------------------------------------

def _run_parseval(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    size = p ** n
    trials = []
    for i in range(cfg["trials"]):
        f = _gaussian_fn(_trial_rng(cfg["seed"], i), p, n)
        spec = fourier_transform(f)
        err = abs(f.l2_norm() ** 2 - spec.l2() ** 2)
        trials.append(make_trial(i, {"seed": cfg["seed"], "trial": i}, err, tol))
    return _hard_result(trials, cfg["trials"] * (size * p * n + 2 * size))


def _est_parseval(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (size * cfg["p"] * cfg["n"] + 2 * size)


def _run_roundtrip(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    size = p ** n
    trials = []
    for i in range(cfg["trials"]):
        f = _gaussian_fn(_trial_rng(cfg["seed"], i), p, n)
        spec = fourier_transform(f)
        back = inverse_transform(spec)
        err1 = float(np.max(np.abs(back.values - f.values)))
        err2 = float(np.max(np.abs(fourier_transform_naive(f).table - spec.table)))
        base = {"seed": cfg["seed"], "trial": i}
        trials.append(make_trial(2 * i, base | {"check": "roundtrip"}, err1, tol))
        trials.append(make_trial(2 * i + 1, base | {"check": "naive-agree"},
                                 err2, NAIVE_FT_TOL))
    return _hard_result(trials, cfg["trials"] * (2 * size * p * n + size * size))


def _est_roundtrip(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (2 * size * cfg["p"] * cfg["n"] + size * size)


def _run_u2_equiv(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    size = p ** n
    trials = []
    for i in range(cfg["trials"]):
        f = _bounded_fn(_trial_rng(cfg["seed"], i), p, n)
        via_corr = u2_norm(f) ** 4
        via_spectrum = fourier_transform(f).l4_fourth()
        err = abs(via_corr - via_spectrum)
        trials.append(make_trial(i, {"seed": cfg["seed"], "trial": i}, err, tol,
                                 detail={"u2_fourth": via_corr,
                                         "spectrum_fourth": via_spectrum}))
    return _hard_result(trials, cfg["trials"] * (size * size + size * p * n))


def _est_u2_equiv(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (size * size + size * cfg["p"] * cfg["n"])


# ---------------------------------------------------------------------------
# inner-product inequalities
# ---------------------------------------------------------------------------

def _run_gcs(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    size = p ** n
    trials = []
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        quad = [_bounded_fn(rng, p, n) for _ in range(4)]
        octu = [_bounded_fn(rng, p, n) for _ in range(8)]
        obs2 = abs(u2_inner(*quad))
        bnd2 = math.prod(u2_norm(g) for g in quad)
        obs3 = abs(u3_inner(octu))
        bnd3 = math.prod(u3_norm(g) for g in octu)
        base = {"seed": cfg["seed"], "trial": i}
        trials.append(make_trial(2 * i, base | {"norm": "u2"}, obs2, bnd2 + tol))
        trials.append(make_trial(2 * i + 1, base | {"norm": "u3"}, obs3, bnd3 + tol))
    return _hard_result(trials, cfg["trials"] * (5 * size ** 2 + 18 * size ** 5))


def _est_gcs(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (5 * size ** 2 + 18 * size ** 5)


def _run_local_gcs(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    factor = _standard_factor(p, n, cfg["ell"], cfg["q"])
    linear = factor.linear
    trials, terms = [], 0
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        base = {"seed": cfg["seed"], "trial": i}
        d2 = DirectionTuple2(p, _label(rng, p, linear.ell), _label(rng, p, linear.ell))
        ctx2 = LocalContext2(linear, d2)
        quad = [_bounded_fn(rng, p, n) for _ in range(4)]
        obs2 = abs(local_u2_inner(ctx2, *quad))
        bnd2 = math.prod(local_u2_norm(ctx2, g) for g in quad)
        trials.append(make_trial(2 * i, base | {"norm": "local-u2", "d": [d2.a1, d2.a2]},
                                 obs2, bnd2 + tol))
        terms += 5 * ctx2.xs.size ** 3
        try:
            ctx3, d3 = _nondeg_ctx3(rng, factor)
        except DegenerateContext as exc:
            trials.append(make_degenerate(2 * i + 1, base, str(exc)))
            continue
        octu = [_bounded_fn(rng, p, n) for _ in range(8)]
        obs3 = abs(local_u3_inner(ctx3, octu))
        bnd3 = math.prod(local_u3_norm(ctx3, g) for g in octu)
        scale = max(1.0, bnd3)
        trials.append(make_trial(2 * i + 1, base | {"norm": "local-u3", "d": list(d3.a1)},
                                 obs3, bnd3 + tol * scale, detail={"scale": scale}))
        s1, s2, s3 = ctx3.xs.size, ctx3.ys.size, ctx3.zs.size
        terms += 18 * s1 * s1 * s2 * s2 * s3
    return _hard_result(trials, terms)


def _est_local_gcs(cfg: dict) -> int:
    p, n = cfg["p"], cfg["n"]
    factor = _standard_factor(p, n, cfg["ell"], cfg["q"])
    smean, s2mean = _atom_stats(factor)
    coset = p ** (n - cfg["ell"])
    return int(cfg["trials"] * (5 * coset ** 3 + 18 * s2mean * s2mean * smean))


def _run_triangle(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    size = p ** n
    trials = []
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        f = _bounded_fn(rng, p, n)
        g = _bounded_fn(rng, p, n)
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        base = {"seed": cfg["seed"], "trial": i}
        for k, (tag, norm) in enumerate((("u2", u2_norm), ("u3", u3_norm))):
            tri = norm(f + g)
            trials.append(make_trial(4 * i + 2 * k, base | {"check": f"{tag}-triangle"},
                                     tri, norm(f) + norm(g) + tol))
            hom = abs(norm(f.scale(c)) - abs(c) * norm(f))
            trials.append(make_trial(4 * i + 2 * k + 1,
                                     base | {"check": f"{tag}-homogeneous"}, hom, tol))
    return _hard_result(trials, cfg["trials"] * (10 * size ** 2 + 10 * size ** 5))


def _est_triangle(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (10 * size ** 2 + 10 * size ** 5)


def _run_local_triangle(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    factor = _standard_factor(p, n, cfg["ell"], cfg["q"])
    linear = factor.linear
    trials, terms = [], 0
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        f = _bounded_fn(rng, p, n)
        g = _bounded_fn(rng, p, n)
        base = {"seed": cfg["seed"], "trial": i}
        d2 = DirectionTuple2(p, _label(rng, p, linear.ell), _label(rng, p, linear.ell))
        ctx2 = LocalContext2(linear, d2)
        trials.append(make_trial(2 * i, base | {"check": "local-u2-triangle"},
                                 local_u2_norm(ctx2, f + g),
                                 local_u2_norm(ctx2, f) + local_u2_norm(ctx2, g) + tol))
        terms += 3 * ctx2.xs.size ** 3
        try:
            ctx3, _ = _nondeg_ctx3(rng, factor)
        except DegenerateContext as exc:
            trials.append(make_degenerate(2 * i + 1, base, str(exc)))
            continue
        nf, ng = local_u3_norm(ctx3, f), local_u3_norm(ctx3, g)
        scale = max(1.0, nf + ng)
        trials.append(make_trial(2 * i + 1, base | {"check": "local-u3-triangle"},
                                 local_u3_norm(ctx3, f + g),
                                 nf + ng + tol * scale, detail={"scale": scale}))
        s1, s2, s3 = ctx3.xs.size, ctx3.ys.size, ctx3.zs.size
        terms += 6 * s1 * s1 * s2 * s2 * s3
    return _hard_result(trials, terms)


def _est_local_triangle(cfg: dict) -> int:
    p, n = cfg["p"], cfg["n"]
    factor = _standard_factor(p, n, cfg["ell"], cfg["q"])
    smean, s2mean = _atom_stats(factor)
    coset = p ** (n - cfg["ell"])
    return int(cfg["trials"] * (3 * coset ** 3 + 6 * s2mean * s2mean * smean))


def _run_u3_dominates(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    size = p ** n
    linear = _standard_factor(p, n, cfg["ell"], 0).linear
    trials = []
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        f = _bounded_fn(rng, p, n)
        base = {"seed": cfg["seed"], "trial": i}
        trials.append(make_trial(2 * i, base | {"check": "global"},
                                 u2_norm(f), u3_norm(f) + tol))
        a1 = _label(rng, p, linear.ell)
        a2 = _label(rng, p, linear.ell)
        a3 = _label(rng, p, linear.ell)
        u3val, u2val, _ = local_u3_dominates_check(linear, a1, a2, a3, f, tol)
        trials.append(make_trial(2 * i + 1, base | {"check": "local", "d": [a1, a2, a3]},
                                 u2val, u3val + tol))
    coset = p ** (n - cfg["ell"])
    return _hard_result(trials, cfg["trials"] * (size ** 2 + 2 * size ** 5 + 3 * coset ** 5))


def _est_u3_dominates(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    coset = cfg["p"] ** (cfg["n"] - cfg["ell"])
    return cfg["trials"] * (size ** 2 + 2 * size ** 5 + 3 * coset ** 5)


def _run_ap3(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    size = p ** n
    trials = []
    for i in range(cfg["trials"]):
        f = _bounded_fn(_trial_rng(cfg["seed"], i), p, n)
        obs = abs(ap3_average(f))
        bnd = fourier_transform(f).sup() + tol
        trials.append(make_trial(i, {"seed": cfg["seed"], "trial": i}, obs, bnd))
    return _hard_result(trials, cfg["trials"] * (size ** 2 + size * p * n))


def _est_ap3(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (size ** 2 + size * cfg["p"] * cfg["n"])


def _run_ap4(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    size = p ** n
    trials = []
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        base = {"seed": cfg["seed"], "trial": i}
        f = _bounded_fn(rng, p, n)
        trials.append(make_trial(2 * i, base | {"f": "sup-bounded"},
                                 abs(ap4_average(f)), u3_norm(f) + tol))
        g = _gaussian_fn(rng, p, n)
        g = g.scale(1.0 / max(g.l2_norm(), 1e-30))
        trials.append(make_trial(2 * i + 1, base | {"f": "l2-normalized"},
                                 abs(ap4_average(g)), u3_norm(g) + tol))
    return _hard_result(trials, cfg["trials"] * (2 * size ** 2 + 4 * size ** 5))


def _est_ap4(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (2 * size ** 2 + 4 * size ** 5)


# ---------------------------------------------------------------------------
# exponential sums and equidistribution trends
# ---------------------------------------------------------------------------

def _random_symmetric(rng: np.random.Generator, p: int, n: int) -> SymmetricForm:
    raw = rng.integers(0, p, size=(n, n))
    return SymmetricForm.from_array(p, (raw + raw.T) % p)


def _run_expsum(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    size = p ** n
    trials = []
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        form = _random_symmetric(rng, p, n)
        b = GroupVector(p, _label(rng, p, n))
        rank = rank_mod_p(form.as_array(), p)
        obs = abs(quad_char_sum(form, b))
        trials.append(make_trial(i, {"seed": cfg["seed"], "trial": i},
                                 obs, p ** (-rank / 2) + tol, detail={"rank": rank}))
    return _hard_result(trials, cfg["trials"] * size * n)


def _est_expsum(cfg: dict) -> int:
    return cfg["trials"] * cfg["p"] ** cfg["n"] * cfg["n"]


def _run_bilsum(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    size = p ** n
    trials = []
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        form = _random_symmetric(rng, p, n)
        c = GroupVector(p, _label(rng, p, n))
        d = GroupVector(p, _label(rng, p, n))
        rank = rank_mod_p(form.as_array(), p)
        obs = abs(bilinear_char_sum(form, c, d))
        trials.append(make_trial(i, {"seed": cfg["seed"], "trial": i},
                                 obs, p ** (-rank) + tol, detail={"rank": rank}))
    return _hard_result(trials, cfg["trials"] * size * size)


def _est_bilsum(cfg: dict) -> int:
    return cfg["trials"] * cfg["p"] ** (2 * cfg["n"])


def _run_atom_sizes(cfg: dict) -> RunResult:
    p, ell, q = cfg["p"], cfg["ell"], cfg["q"]
    trials, values, terms = [], [], 0
    for i, n in enumerate(cfg["n_values"]):
        factor = _standard_factor(p, n, ell, q)
        expected = p ** (n - ell - q)
        dev = max(abs(factor.atom_indices(lab.values).size / expected - 1.0)
                  for lab in factor.all_labels())
        values.append(dev)
        trials.append(make_point(i, {"n": n}, dev,
                                 detail={"n": n, "rank": factor.rank}))
        terms += p ** n * (ell + q + 1)
    return _trend_result(trials, values, terms)


def _est_atom_sizes(cfg: dict) -> int:
    return sum(cfg["p"] ** n * (cfg["ell"] + cfg["q"] + 1) for n in cfg["n_values"])


def _run_bil_sizes(cfg: dict) -> RunResult:
    p, ell, q = cfg["p"], cfg["ell"], cfg["q"]
    trials, values, terms = [], [], 0
    for i, n in enumerate(cfg["n_values"]):
        factor = _standard_factor(p, n, ell, q)
        expected = p ** (2 * n - q)
        sizes = bilinear_level_sizes(factor)
        dev = max(abs(s / expected - 1.0) for s in sizes.values())
        values.append(dev)
        trials.append(make_point(i, {"n": n}, dev,
                                 detail={"n": n, "rank": factor.rank}))
        terms += p ** (2 * n) * q
    return _trend_result(trials, values, terms)


def _est_bil_sizes(cfg: dict) -> int:
    return sum(cfg["p"] ** (2 * n) * cfg["q"] for n in cfg["n_values"])


def _run_genbilsums(cfg: dict) -> RunResult:
    p, ell, q = cfg["p"], cfg["ell"], cfg["q"]
    trials, values, terms = [], [], 0
    row = 0
    for i, n in enumerate(cfg["n_values"]):
        factor = _standard_factor(p, n, ell, q)
        devs = []
        for j in range(cfg["directions"]):
            rng = _trial_rng(cfg["seed"], i, j)
            base = {"n": n, "direction": j}
            try:
                ctx, _ = _nondeg_ctx3(rng, factor)
            except DegenerateContext as exc:
                trials.append(make_degenerate(row, base, str(exc)))
                row += 1
                continue
            s1, s2, s3 = ctx.xs.size, ctx.ys.size, ctx.zs.size
            avg = float((ctx.mu12.T @ ctx.mu13 * ctx.mu23).sum()) / (s1 * s2 * s3)
            devs.append(abs(avg - 1.0))
            terms += s1 * s2 * s3
            trials.append(make_point(row, base, avg, detail={"n": n}))
            row += 1
        # mean deviation over directions; single directions stay granular
        # far into the feasible range
        values.append(float(np.mean(devs)) if devs else 1.0)
    return _trend_result(trials, values, terms)


def _est_genbilsums(cfg: dict) -> int:
    total = 0
    for n in cfg["n_values"]:
        factor = _standard_factor(cfg["p"], n, cfg["ell"], cfg["q"])
        smean, _ = _atom_stats(factor)
        total += int(cfg["directions"] * smean ** 3)
    return max(total, 1)


def _run_config_regularity(cfg: dict) -> RunResult:
    p, ell, q = cfg["p"], cfg["ell"], cfg["q"]
    trials, values, terms = [], [], 0
    for i, n in enumerate(cfg["n_values"]):
        factor = _standard_factor(p, n, ell, q)
        rng = _trial_rng(cfg["seed"], i)
        base = {"n": n}
        try:
            ctx, _ = _nondeg_ctx3(rng, factor)
        except DegenerateContext as exc:
            trials.append(make_degenerate(i, base, str(exc)))
            values.append(values[-1] if values else 1.0)
            continue
        m12, m13, m23 = ctx.mu12, ctx.mu13, ctx.mu23
        s1, s2, s3 = ctx.xs.size, ctx.ys.size, ctx.zs.size
        devs = []
        attempts = 0
        while len(devs) < cfg["samples"] and attempts < 20 * cfg["samples"]:
            attempts += 1
            xi = int(rng.integers(s1))
            ycand = np.flatnonzero(m12[xi] > 0)
            if ycand.size == 0:
                continue
            yi = int(ycand[rng.integers(ycand.size)])
            zcand = np.flatnonzero((m13[xi] > 0) & (m23[yi] > 0))
            if zcand.size == 0:
                continue
            zi = int(zcand[rng.integers(zcand.size)])
            wx = m12[:, yi] * m13[:, zi]
            wy = m12[xi, :] * m23[:, zi]
            wz = m13[xi, :] * m23[yi, :]
            # sum over x first, then contract the (y, z) plane
            plane = (m12 * wx[:, None]).T @ m13
            g = float((plane * m23 * wy[:, None] * wz[None, :]).sum())
            g /= s1 * s2 * s3
            devs.append(abs(g - 1.0))
            terms += s1 * s2 * s3
        if not devs:
            trials.append(make_degenerate(i, base, "no constrained triples found"))
            values.append(values[-1] if values else 1.0)
            continue
        arr = np.array(sorted(devs))
        med = float(np.median(arr))
        values.append(med)
        trials.append(make_point(i, base, med, detail={
            "n": n, "max_dev": float(arr.max()),
            "frac_above_quarter": float((arr > 0.25).mean()),
            "samples": len(devs)}))
    return _trend_result(trials, values, terms)


def _est_config_regularity(cfg: dict) -> int:
    total = 0
    for n in cfg["n_values"]:
        factor = _standard_factor(cfg["p"], n, cfg["ell"], cfg["q"])
        smean, _ = _atom_stats(factor)
        total += int(cfg["samples"] * smean ** 3)
    return max(total, 1)


def _run_atom_u2_uniformity(cfg: dict) -> RunResult:
    p, ell, q = cfg["p"], cfg["ell"], cfg["q"]
    trials, values, terms = [], [], 0
    row = 0
    for n in cfg["n_values"]:
        factor = _standard_factor(p, n, ell, q)
        linear = factor.linear
        size = p ** n
        worst = 0.0
        for lab in cfg["atom_labels"]:
            lab = tuple(lab)
            idx = factor.atom_indices(lab)
            base = {"n": n, "atom": list(lab)}
            if idx.size == 0:
                trials.append(make_degenerate(row, base, f"atom {lab} is empty"))
                row += 1
                continue
            bits = np.zeros(size, dtype=bool)
            bits[idx] = True
            e = lab[:ell]
            for a1_code in range(p ** ell):
                a1 = space(p, ell).coords_of(a1_code) if ell else ()
                a2 = tuple((ei - ai) % p for ei, ai in zip(e, a1))
                ctx = LocalContext2(linear, DirectionTuple2(p, a1, a2))
                target = ctx.target_indices()
                alpha = float(bits[target].mean())
                norm = local_u2_norm(ctx, _indicator_minus(p, n, bits, alpha))
                worst = max(worst, norm)
                terms += ctx.xs.size ** 3
                trials.append(make_point(row, base | {"a1": list(a1)}, norm,
                                         detail={"n": n, "alpha": alpha}))
                row += 1
        values.append(worst)
    return _trend_result(trials, values, terms)


def _est_atom_u2_uniformity(cfg: dict) -> int:
    total = 0
    for n in cfg["n_values"]:
        coset = cfg["p"] ** (n - cfg["ell"])
        total += len(cfg["atom_labels"]) * cfg["p"] ** cfg["ell"] * coset ** 3
    return total


# ---------------------------------------------------------------------------
# shatter-dimension experiments
# ---------------------------------------------------------------------------

def _run_atom_vc(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]
    factor = _standard_factor(p, n, 0, 1)
    idx = factor.atom_indices(tuple(cfg["atom_label"]))
    mask = SubsetBitmask.from_indices(p, n, idx)
    cert = has_k_ip(mask, 2)
    ok = cert is not None and cert.replay(mask)
    detail = {"atom_size": mask.size, "rank": factor.rank}
    if cert is not None:
        detail["witness_a"] = [list(v.coords) for v in cert.elements()["a"]]
        detail["witness_b"] = [list(v.coords) for v in cert.elements()["b"]]
    trial = make_trial(0, {"n": n, "atom": cfg["atom_label"]},
                       0.0 if ok else 1.0, 0.0, detail=detail)
    size = p ** n
    return _hard_result([trial], size * size)


def _est_atom_vc(cfg: dict) -> int:
    return cfg["p"] ** (2 * cfg["n"])


def _run_atom_vc2(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]
    size = p ** n
    for d in cfg["extra_diagonals"]:
        if len(d) != n:
            raise ConfigError(f"diagonal {d} does not have {n} entries")
    diag_forms = [np.eye(n, dtype=np.int64)]
    diag_forms += [np.diag(d).astype(np.int64) for d in cfg["extra_diagonals"]]
    trials, terms = [], 0
    row = 0
    for fi, form in enumerate(diag_forms):
        for ell in cfg["ell_values"]:
            vectors = [tuple(int(i == j) for j in range(n)) for i in range(ell)]
            factor = new_quadratic_factor(new_linear_factor(p, n, vectors), [form])
            for lab in factor.occupied_labels():
                idx = factor.atom_indices(lab.values)
                mask = SubsetBitmask.from_indices(p, n, idx)
                dim = vc2_dimension(mask)
                terms += size * size
                trials.append(make_trial(
                    row, {"form": fi, "ell": ell, "atom": list(lab.values)},
                    float(dim), 1.0,
                    detail={"atom_size": mask.size, "rank": factor.rank}))
                row += 1
    return _hard_result(trials, terms)


def _est_atom_vc2(cfg: dict) -> int:
    forms = 1 + len(cfg["extra_diagonals"])
    atoms = sum(cfg["p"] ** (ell + 1) for ell in cfg["ell_values"])
    return forms * atoms * cfg["p"] ** (2 * cfg["n"])


def _span_indices(p: int, n: int, basis: list[tuple[int, ...]]) -> np.ndarray:
    """All canonical indices in the span of the given independent rows."""
    rows = np.array(basis, dtype=np.int64).reshape(len(basis), n)
    if len(basis) and rank_mod_p(rows, p) != len(basis):
        raise ConfigError("subgroup_basis is dependent")
    k = len(basis)
    coeffs = space(p, k).digits.astype(np.int64) if k else np.zeros((1, 0), dtype=np.int64)
    pts = (coeffs @ rows) % p if k else np.zeros((1, n), dtype=np.int64)
    return pts @ space(p, n).powers


def _run_coset_union_vc(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]
    sp = space(p, n)
    basis = [tuple(b) for b in cfg["subgroup_basis"]]
    span = _span_indices(p, n, basis)
    trials, terms = [], 0
    for i, reps in enumerate(cfg["rep_sets"]):
        k = len(reps)
        idx: list[int] = []
        for rep in reps:
            rep_idx = sp.index_of(rep)
            idx.extend(int(v) for v in sp.add(np.full_like(span, rep_idx), span))
        mask = SubsetBitmask.from_indices(p, n, idx)
        measured = vc_dimension(mask)
        stated = math.ceil(math.log2(k)) if k > 1 else 0
        corrected = math.floor(math.log2(k)) + 1
        terms += (p ** n) ** 2 * k
        trials.append(make_trial(
            i, {"reps": [list(r) for r in reps]},
            float(measured), float(corrected),
            detail={"k": k, "stated_bound": stated,
                    "stated_bound_ok": measured <= stated,
                    "union_size": mask.size}))
    return _hard_result(trials, terms)


def _est_coset_union_vc(cfg: dict) -> int:
    total_k = sum(len(r) for r in cfg["rep_sets"])
    return cfg["p"] ** (2 * cfg["n"]) * total_k


# ---------------------------------------------------------------------------
# pattern-operator control
# ---------------------------------------------------------------------------

def _run_control_ip(cfg: dict) -> RunResult:
    p, n, m, tol = cfg["p"], cfg["n"], cfg["m"], cfg["tol"]
    size = p ** n
    trials = []
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        grid = FunctionGrid({(j, s): _bounded_fn(rng, p, n)
                             for j in range(1, m + 1) for s in range(1 << m)})
        obs = abs(t_ip(m, grid))
        bnd = min(u2_norm(g) for g in grid.functions()) + tol
        trials.append(make_trial(i, {"seed": cfg["seed"], "trial": i}, obs, bnd))
    slots = m * (1 << m)
    return _hard_result(trials, cfg["trials"] * (size ** 3 + slots * size ** 2))


def _est_control_ip(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    slots = cfg["m"] * (1 << cfg["m"])
    return cfg["trials"] * (size ** 3 + slots * size ** 2)


def _run_control_ip2(cfg: dict) -> RunResult:
    p, n, m, tol = cfg["p"], cfg["n"], cfg["m"], cfg["tol"]
    size = p ** n
    trials = []
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        grid = FunctionGrid({(a, b, s): _bounded_fn(rng, p, n)
                             for a in range(1, m + 1) for b in range(1, m + 1)
                             for s in range(1 << (m * m))})
        obs = abs(t_ip2(m, grid))
        bnd = min(u3_norm(g) for g in grid.functions()) + tol
        trials.append(make_trial(i, {"seed": cfg["seed"], "trial": i}, obs, bnd))
    slots = m * m * (1 << (m * m))
    return _hard_result(trials, cfg["trials"] * (slots * size ** 3 + slots * 2 * size ** 5))


def _est_control_ip2(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    slots = cfg["m"] * cfg["m"] * (1 << (cfg["m"] * cfg["m"]))
    return cfg["trials"] * (slots * size ** 3 + slots * 2 * size ** 5)


def _run_control_ip_local(cfg: dict) -> RunResult:
    p, n, m, tol = cfg["p"], cfg["n"], cfg["m"], cfg["tol"]
    linear = _standard_factor(p, n, cfg["ell"], 0).linear
    coset = p ** (n - cfg["ell"])
    trials = []
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        d2 = DirectionTuple2(p, _label(rng, p, linear.ell), _label(rng, p, linear.ell))
        grid = FunctionGrid({(j, s): _bounded_fn(rng, p, n)
                             for j in range(1, m + 1) for s in range(1 << m)})
        obs = abs(t_ip_local(m, linear, d2, grid))
        ctx = LocalContext2(linear, d2)
        bnd = min(local_u2_norm(ctx, g) for g in grid.functions()) + tol
        trials.append(make_trial(i, {"seed": cfg["seed"], "trial": i,
                                     "d": [d2.a1, d2.a2]}, obs, bnd))
    slots = m * (1 << m)
    return _hard_result(trials, cfg["trials"] * (coset ** 3 + slots * coset ** 3))


def _est_control_ip_local(cfg: dict) -> int:
    coset = cfg["p"] ** (cfg["n"] - cfg["ell"])
    slots = cfg["m"] * (1 << cfg["m"])
    return cfg["trials"] * (coset ** 3 + slots * coset ** 3)


def _run_control_ip2_local(cfg: dict) -> RunResult:
    p, ell, q, m = cfg["p"], cfg["ell"], cfg["q"], cfg["m"]
    trials, values, terms = [], [], 0
    for i, n in enumerate(cfg["n_values"]):
        factor = _standard_factor(p, n, ell, q)
        rng = _trial_rng(cfg["seed"], i)
        base = {"n": n}
        try:
            ctx, d = _nondeg_ctx3(rng, factor)
        except DegenerateContext as exc:
            trials.append(make_degenerate(i, base, str(exc)))
            values.append(values[-1] if values else 1.0)
            continue
        f = _bounded_fn(rng, p, n)
        grid = FunctionGrid.ip2_diagonal(m, f)
        obs = abs(t_ip2_local(m, factor, d, grid))
        nrm = local_u3_norm(ctx, f)
        excess = max(0.0, (obs - nrm) / max(1.0, nrm))
        values.append(excess)
        s1, s2, s3 = ctx.xs.size, ctx.ys.size, ctx.zs.size
        slots = 1 << (m * m)
        terms += slots * s1 * s2 * s3 + 2 * s1 * s1 * s2 * s2 * s3
        trials.append(make_point(i, base, excess,
                                 detail={"n": n, "operator": obs, "norm": nrm}))
    return _trend_result(trials, values, terms)


def _est_control_ip2_local(cfg: dict) -> int:
    slots = 1 << (cfg["m"] * cfg["m"])
    total = 0
    for n in cfg["n_values"]:
        factor = _standard_factor(cfg["p"], n, cfg["ell"], cfg["q"])
        smean, s2mean = _atom_stats(factor)
        total += int(slots * smean ** 3 + 2 * s2mean * s2mean * smean)
    return max(total, 1)


# ---------------------------------------------------------------------------
# sparsity, small mean square, structure
# ---------------------------------------------------------------------------

def _sparse_subset(rng: np.random.Generator, target: np.ndarray,
                   eps: float) -> np.ndarray:
    """A uniform subset of `target` of exactly max(1, round(eps |target|))
    members; the fixed count keeps the drawn density pinned near eps even
    on atoms with a handful of points, where a Bernoulli draw would often
    come back empty and make the density comparison trivially zero."""
    count = max(1, round(eps * target.size))
    return rng.choice(target, size=count, replace=False)


def _run_sparse_uniform(cfg: dict) -> RunResult:
    p, ell, q, eps, tol = cfg["p"], cfg["ell"], cfg["q"], cfg["eps"], cfg["tol"]
    samples = cfg["samples"]
    n_hard = max(cfg["n_values"])
    trials, values, terms = [], [], 0
    row = 0
    hard_rows = []
    for i, n in enumerate(cfg["n_values"]):
        factor = _standard_factor(p, n, ell, q)
        size = p ** n
        diffs = []
        last = None
        for s in range(samples):
            rng = _trial_rng(cfg["seed"], i, s)
            base = {"n": n, "eps": eps, "sample": s}
            try:
                ctx, d = _nondeg_ctx3(rng, factor)
            except DegenerateContext as exc:
                trials.append(make_degenerate(row, base, str(exc)))
                row += 1
                continue
            target = ctx.target_indices()
            chosen = _sparse_subset(rng, target, eps)
            bits = np.zeros(size, dtype=bool)
            bits[chosen] = True
            alpha = float(bits[target].mean())
            value, _ = weighted_ternary_density(factor, d, bits)
            diffs.append(abs(value - alpha))
            terms += ctx.xs.size * ctx.ys.size * ctx.zs.size
            trials.append(make_point(row, base, abs(value - alpha),
                                     detail={"n": n, "weighted": value,
                                             "alpha": alpha}))
            row += 1
            last = (ctx, bits, alpha)
        values.append(float(np.mean(diffs)) if diffs
                      else (values[-1] if values else 1.0))
        if n == n_hard and last is not None:
            ctx, bits, alpha = last
            s1, s2, s3 = ctx.xs.size, ctx.ys.size, ctx.zs.size
            norm = local_u3_norm(ctx, _indicator_minus(p, n, bits, alpha))
            terms += 2 * s1 * s1 * s2 * s2 * s3
            hard_rows.append(make_trial(row, {"n": n, "eps": eps,
                                              "check": "norm-bound"},
                                        norm, 2.0 * eps ** 0.125 + tol,
                                        detail={"n": n, "alpha": alpha}))
            row += 1
    trials.extend(hard_rows)
    ok = all(t["verdict"] != "fail" for t in trials)
    return RunResult(trials, aggregate_from(trials, trend_summary(values)), ok, terms)


def _est_sparse_uniform(cfg: dict) -> int:
    total = 0
    n_hard = max(cfg["n_values"])
    for n in cfg["n_values"]:
        factor = _standard_factor(cfg["p"], n, cfg["ell"], cfg["q"])
        smean, s2mean = _atom_stats(factor)
        total += int(cfg["samples"] * smean ** 3)
        if n == n_hard:
            total += int(2 * s2mean * s2mean * smean)
    return max(total, 1)


def _run_smallpart(cfg: dict) -> RunResult:
    p, n, ell, q, eps = cfg["p"], cfg["n"], cfg["ell"], cfg["q"], cfg["eps"]
    factor = _standard_factor(p, n, ell, q)
    size = p ** n
    rng = _trial_rng(cfg["seed"])
    f_raw = rng.uniform(-1.0, 1.0, size)
    f_raw *= 0.9 * eps / max(float(np.sqrt(np.mean(f_raw ** 2))), 1e-30)
    f = GroupFunction(p, n, f_raw)
    total_dirs = p ** (3 * (ell + q) + 3 * q)
    count = min(cfg["directions"], DIRECTION_BUDGET)
    norms, degenerate, terms = [], 0, 0
    for j in range(count):
        d = _direction3(_trial_rng(cfg["seed"], j), factor)
        try:
            ctx = LocalContext3(factor, d)
        except DegenerateContext:
            degenerate += 1
            continue
        norms.append(local_u3_norm(ctx, f))
        s1, s2, s3 = ctx.xs.size, ctx.ys.size, ctx.zs.size
        terms += 2 * s1 * s1 * s2 * s2 * s3
    arr = np.array(sorted(norms)) if norms else np.zeros(0)
    main_thr = 2.0 * eps ** (1.0 / 16.0)
    thresholds = [main_thr, 1.0, eps ** (1.0 / 16.0), 0.3, 0.1]
    props = {f"{t:.6g}": float((arr < t).mean()) if arr.size else 0.0
             for t in thresholds}
    claim_frac = float((arr < main_thr).mean()) if arr.size else 0.0
    detail = {
        "l2_norm": f.l2_norm(),
        "sampled": count,
        "space": total_dirs,
        "degenerate": degenerate,
        "max_norm": float(arr.max()) if arr.size else 0.0,
        "median_norm": float(np.median(arr)) if arr.size else 0.0,
        "proportions_below": props,
        "main_threshold": main_thr,
        "claimed_min_proportion": 1.0 - 8.0 * eps,
        "claim_consistent": claim_frac >= 1.0 - 8.0 * eps,
    }
    trial = make_point(0, {"seed": cfg["seed"], "eps": eps}, claim_frac, detail=detail)
    return RunResult([trial], aggregate_from([trial]), True, terms)


def _est_smallpart(cfg: dict) -> int:
    factor = _standard_factor(cfg["p"], cfg["n"], cfg["ell"], cfg["q"])
    smean, s2mean = _atom_stats(factor)
    count = min(cfg["directions"], DIRECTION_BUDGET)
    return max(int(count * 2 * s2mean * s2mean * smean), 1)


def _random_label_union(rng: np.random.Generator, factor: QuadraticFactor) -> list:
    labels = [lab for lab in factor.occupied_labels()]
    keep = [lab.values for lab in labels if rng.random() < 0.5]
    if not keep:
        keep = [labels[0].values]
    return keep


def _union_bits(factor: QuadraticFactor, labels) -> np.ndarray:
    bits = np.zeros(factor.p ** factor.n, dtype=bool)
    for lab in labels:
        bits[factor.atom_indices(tuple(lab))] = True
    return bits


def _run_trivdense(cfg: dict) -> RunResult:
    p, n, ell, q = cfg["p"], cfg["n"], cfg["ell"], cfg["q"]
    factor = _standard_factor(p, n, ell, q)
    rng = _trial_rng(cfg["seed"])
    labels = _random_label_union(rng, factor)
    bits = _union_bits(factor, labels)
    mask = SubsetBitmask(p, n, bits)
    trials, terms = [], 0
    for j in range(cfg["directions"]):
        d = _direction3(_trial_rng(cfg["seed"], j), factor)
        target = factor.atom_indices(sigma3(factor, d).values)
        base = {"direction": j}
        if target.size == 0:
            trials.append(make_degenerate(j, base, "target atom is empty"))
            continue
        inside = int(bits[target].sum())
        terms += target.size
        # distance from a trivial density, in exact counts
        off = min(inside, target.size - inside)
        trials.append(make_trial(j, base, float(off), 0.0,
                                 detail={"alpha": Fraction(inside, target.size)}))
    frac = regularity_conclusion(mask, factor, Fraction(1, 100))
    terms += p ** n
    trials.append(make_trial(cfg["directions"], {"check": "regularity-fraction"},
                             1.0 - float(frac), 0.0,
                             detail={"atoms_trivial_fraction": frac}))
    return _hard_result(trials, terms)


def _est_trivdense(cfg: dict) -> int:
    factor = _standard_factor(cfg["p"], cfg["n"], cfg["ell"], cfg["q"])
    smean, _ = _atom_stats(factor)
    return int(cfg["directions"] * smean + cfg["p"] ** cfg["n"])


def _run_vc2_structure(cfg: dict) -> RunResult:
    p, n, ell, q = cfg["p"], cfg["n"], cfg["ell"], cfg["q"]
    factor = _standard_factor(p, n, ell, q)
    size = p ** n
    rng = _trial_rng(cfg["seed"])
    labels = _random_label_union(rng, factor)
    union = SubsetBitmask(p, n, _union_bits(factor, labels))
    _, symdiff = best_atom_union_approx(union, factor)
    frac = regularity_conclusion(union, factor, Fraction(1, 100))
    trials = [
        make_trial(0, {"set": "atom-union"}, float(symdiff), 0.0,
                   detail={"labels": [list(l) for l in labels],
                           "union_size": union.size}),
        make_trial(1, {"set": "atom-union", "check": "regularity"},
                   1.0 - float(frac), 0.0,
                   detail={"atoms_trivial_fraction": frac}),
    ]
    rand_mask = SubsetBitmask(p, n, rng.random(size) < 0.5)
    profile, empty = density_profile(rand_mask, factor)
    _, rand_symdiff = best_atom_union_approx(rand_mask, factor)
    dims = vc2_dimension(rand_mask)
    dens = [float(v) for v in profile.values()]
    trials.append(make_point(2, {"set": "random"}, float(dims), detail={
        "empty_atoms": empty,
        "min_density": min(dens) if dens else None,
        "max_density": max(dens) if dens else None,
        "majority_symdiff": rand_symdiff,
    }))
    terms = 4 * size + size * size
    return _hard_result(trials, terms)


def _est_vc2_structure(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return 4 * size + size * size


def _run_inverse_oracle(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    size = p ** n
    trials, terms = [], 0
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        form = _random_symmetric(rng, p, n)
        with_linear = i == cfg["trials"] - 1
        if with_linear:
            r = GroupVector(p, _label(rng, p, n))
            f = GroupFunction.quadratic_phase(form, r)
        else:
            f = GroupFunction.quadratic_phase(form)
        best_form, best_r, value = max_quadratic_correlation(
            f, include_linear=with_linear)
        # the search maximizes |E f(x) w^(x.Mx + r.x)|, so the recovered
        # phase multiplies f back to a constant
        phase = GroupFunction.quadratic_phase(best_form, best_r)
        prod = f.values * phase.values
        spread = float(np.max(np.abs(prod - prod.flat[0])))
        base = {"seed": cfg["seed"], "trial": i, "with_linear": with_linear}
        trials.append(make_trial(2 * i, base | {"check": "correlation"},
                                 1.0 - value, tol))
        trials.append(make_trial(2 * i + 1, base | {"check": "constant-phase"},
                                 spread, tol))
        coeffs = p ** (n * (n + 1) // 2)
        terms += coeffs * size * (p * n if with_linear else 1)
    return _hard_result(trials, terms)


def _est_inverse_oracle(cfg: dict) -> int:
    p, n = cfg["p"], cfg["n"]
    coeffs = p ** (n * (n + 1) // 2)
    size = p ** n
    return cfg["trials"] * coeffs * size


# ---------------------------------------------------------------------------
# counting identities
# ---------------------------------------------------------------------------

def _run_counting_binary(cfg: dict) -> RunResult:
    p, n, ell, tol = cfg["p"], cfg["n"], cfg["ell"], cfg["tol"]
    linear = _standard_factor(p, n, ell, 0).linear
    size = p ** n
    coset = p ** (n - ell)
    nu, nv = cfg["parts"]
    trials = []
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        bits = rng.random(size) < 0.5
        edges = frozenset((u, v) for u in range(nu) for v in range(nv)
                          if rng.random() < 0.5)
        graph = PatternHypergraph("bipartite", {"U": nu, "V": nv}, edges)
        u_labels = [_label(rng, p, ell) for _ in range(nu)]
        v_labels = [_label(rng, p, ell) for _ in range(nv)]
        ind = GroupFunction(p, n, bits.astype(np.float64), one_bounded=True)
        coind = GroupFunction(p, n, (~bits).astype(np.float64), one_bounded=True)
        grid = FunctionGrid.edge_select(graph, ind, coind)
        t_val = t_bipartite(graph, linear, u_labels, v_labels, grid)
        count = witness_count_bipartite(graph, linear, u_labels, v_labels, bits)
        norm = bipartite_normalization(graph, linear)
        identity_err = abs(t_val.real * norm - count)
        base = {"seed": cfg["seed"], "trial": i}
        trials.append(make_trial(2 * i, base | {"check": "witness-identity"},
                                 identity_err, tol * max(1.0, float(count)),
                                 detail={"count": count}))
        # density product and the measured per-pair uniformity
        prod = 1.0
        eps_meas = 0.0
        for u in range(nu):
            for v in range(nv):
                d2 = DirectionTuple2(p, u_labels[u], v_labels[v])
                ctx = LocalContext2(linear, d2)
                alpha = float(bits[ctx.target_indices()].mean())
                prod *= alpha if (u, v) in edges else 1.0 - alpha
                bal = _indicator_minus(p, n, bits, alpha)
                eps_meas = max(eps_meas, local_u2_norm(ctx, bal))
        delta = abs(t_val.real - prod)
        pairs = nu * nv
        trials.append(make_point(2 * i + 1, base | {"check": "density-product"},
                                 delta, detail={
                                     "eps_measured": eps_meas,
                                     "bound_linear_in_pairs": pairs * eps_meas,
                                     "bound_exponential": (2 ** pairs - 1) * eps_meas,
                                     "within_linear": delta <= pairs * eps_meas + tol,
                                     "within_exponential":
                                         delta <= (2 ** pairs - 1) * eps_meas + tol,
                                 }))
    per_trial = coset ** (nv + 1) * nu + coset ** 2 * nu * nv + nu * nv * coset ** 3
    return _hard_result(trials, cfg["trials"] * per_trial)


def _est_counting_binary(cfg: dict) -> int:
    coset = cfg["p"] ** (cfg["n"] - cfg["ell"])
    nu, nv = cfg["parts"]
    per_trial = coset ** (nv + 1) * nu + coset ** 2 * nu * nv + nu * nv * coset ** 3
    return cfg["trials"] * per_trial


def _ternary_graphs(max_part: int):
    """All ternary pattern shapes with parts up to max_part, every edge set,
    in a fixed deterministic order."""
    for su in range(1, max_part + 1):
        for sv in range(1, max_part + 1):
            for sw in range(1, max_part + 1):
                cells = [(u, v, w) for u in range(su) for v in range(sv)
                         for w in range(sw)]
                for code in range(1 << len(cells)):
                    edges = frozenset(c for b, c in enumerate(cells)
                                      if code >> b & 1)
                    yield PatternHypergraph("ternary", {"U": su, "V": sv, "W": sw},
                                            edges)


def _sample_assignment(rng: np.random.Generator, factor: QuadraticFactor,
                       graph: PatternHypergraph, attempts: int = 100):
    """A seeded label assignment in which every atom and pair level set in
    sight is nonempty; None when no such assignment is found."""
    from ..pattern_ops import _TernaryContext

    w, q = factor.ell + factor.q, factor.q
    for _ in range(attempts):
        e = LabelAssignment(
            tuple(_label(rng, factor.p, w) for _ in range(graph.nu)),
            tuple(_label(rng, factor.p, w) for _ in range(graph.nv)),
            tuple(_label(rng, factor.p, w) for _ in range(graph.nw)),
            {(u, v): _label(rng, factor.p, q)
             for u in range(graph.nu) for v in range(graph.nv)},
            {(u, ww): _label(rng, factor.p, q)
             for u in range(graph.nu) for ww in range(graph.nw)},
            {(v, ww): _label(rng, factor.p, q)
             for v in range(graph.nv) for ww in range(graph.nw)},
        )
        try:
            _TernaryContext(graph, factor, e)
        except DegenerateContext:
            continue
        return e
    return None


def _run_counting_ternary(cfg: dict) -> RunResult:
    p, n, ell, q, tol = cfg["p"], cfg["n"], cfg["ell"], cfg["q"], cfg["tol"]
    factor = _standard_factor(p, n, ell, q)
    size = p ** n
    rng = _trial_rng(cfg["seed"])
    labels = _random_label_union(rng, factor)
    bits = _union_bits(factor, labels)
    ind = GroupFunction(p, n, bits.astype(np.float64), one_bounded=True)
    coind = GroupFunction(p, n, (~bits).astype(np.float64), one_bounded=True)
    trials, terms = [], 0
    for gi, graph in enumerate(_ternary_graphs(cfg["max_part"])):
        base = {"parts": [graph.nu, graph.nv, graph.nw],
                "edges": sorted(graph.edges)}
        e = _sample_assignment(_trial_rng(cfg["seed"], gi), factor, graph)
        if e is None:
            trials.append(make_degenerate(2 * gi, base, "no nondegenerate labels found"))
            continue
        grid = FunctionGrid.edge_select(graph, ind, coind)
        t_val = t_ternary(graph, factor, e, grid).real
        count = witness_count_ternary(graph, factor, e, bits)
        norm = ternary_normalization(graph, factor, e)
        identity_err = abs(t_val * float(norm) - count)
        trials.append(make_trial(2 * gi, base | {"check": "witness-identity"},
                                 identity_err, tol * max(1.0, float(count)),
                                 detail={"count": count}))
        prod = 1.0
        eps_meas = 0.0
        terms += size
        for (u, v, w) in graph.all_tuples():
            d3 = e.triple_direction(p, u, v, w)
            target = factor.atom_indices(sigma3(factor, d3).values)
            if target.size == 0:
                trials.append(make_degenerate(2 * gi + 1, base, "target atom is empty"))
                break
            alpha = float(bits[target].mean())
            prod *= alpha if (u, v, w) in graph.edges else 1.0 - alpha
            ctx = LocalContext3(factor, d3)
            eps_meas = max(eps_meas,
                           local_u3_norm(ctx, _indicator_minus(p, n, bits, alpha)))
            s1, s2, s3 = ctx.xs.size, ctx.ys.size, ctx.zs.size
            terms += 2 * s1 * s1 * s2 * s2 * s3
        else:
            m = max(graph.nu, graph.nv, graph.nw)
            delta = abs(t_val - prod)
            # the product-of-densities approximation carries a rank error term
            # on top of the norm term, so its deviation is reported, not asserted
            heuristic = 3.0 * eps_meas * m ** 3
            trials.append(make_point(2 * gi + 1, base | {"check": "density-product"},
                                     delta,
                                     detail={"eps_measured": eps_meas, "m": m,
                                             "norm_term_bound": heuristic,
                                             "within_norm_term": delta <= heuristic + 1e-6}))
    return _hard_result(trials, terms)


def _est_counting_ternary(cfg: dict) -> int:
    factor = _standard_factor(cfg["p"], cfg["n"], cfg["ell"], cfg["q"])
    smean, s2mean = _atom_stats(factor)
    total = 0
    for su in range(1, cfg["max_part"] + 1):
        for sv in range(1, cfg["max_part"] + 1):
            for sw in range(1, cfg["max_part"] + 1):
                shapes = 1 << (su * sv * sw)
                triples = su * sv * sw
                total += shapes * int(triples * 2 * s2mean * s2mean * smean
                                      + cfg["p"] ** cfg["n"])
    return max(total, 1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_register(
    "parseval", "hard",
    "mean square of a function equals the sum of squared spectrum magnitudes",
    {"p": 3, "n": 4, "trials": 100, "seed": 0, "tol": 1e-9},
    _run_parseval, _est_parseval)
_register(
    "fourier-roundtrip", "hard",
    "inverse transform undoes the transform; fast and direct transforms agree",
    {"p": 3, "n": 4, "trials": 50, "seed": 0, "tol": 1e-9},
    _run_roundtrip, _est_roundtrip)
_register(
    "u2-fourier-equiv", "hard",
    "fourth power of the degree-2 norm equals the fourth moment of the spectrum",
    {"p": 3, "n": 4, "trials": 50, "seed": 0, "tol": 1e-9},
    _run_u2_equiv, _est_u2_equiv)
_register(
    "gcs", "hard",
    "box inner products are bounded by the product of the factors' norms",
    {"p": 3, "n": 2, "trials": 50, "seed": 0, "tol": 1e-9},
    _run_gcs, _est_gcs)
_register(
    "local-gcs", "hard",
    "coset-restricted box inner products are bounded by the product of local norms",
    {"p": 3, "n": 3, "ell": 1, "q": 1, "trials": 50, "seed": 0, "tol": 1e-9},
    _run_local_gcs, _est_local_gcs)
_register(
    "triangle", "hard",
    "uniformity norms are homogeneous and satisfy the triangle inequality",
    {"p": 3, "n": 2, "trials": 50, "seed": 0, "tol": 1e-9},
    _run_triangle, _est_triangle)
_register(
    "local-triangle", "hard",
    "local uniformity norms are homogeneous and satisfy the triangle inequality",
    {"p": 3, "n": 3, "ell": 1, "q": 1, "trials": 50, "seed": 0, "tol": 1e-9},
    _run_local_triangle, _est_local_triangle)
_register(
    "u3-dominates", "hard",
    "the degree-3 norm dominates the degree-2 norm, globally and locally",
    {"p": 3, "n": 3, "ell": 1, "trials": 30, "seed": 0, "tol": 1e-9},
    _run_u3_dominates, _est_u3_dominates)
_register(
    "ap3-bound", "hard",
    "the 3-term progression average is bounded by the largest spectrum value",
    {"p": 3, "n": 4, "trials": 100, "seed": 0, "tol": 1e-9},
    _run_ap3, _est_ap3)
_register(
    "ap4-bound", "hard",
    "the 4-term progression average is bounded by the degree-3 norm",
    {"p": 3, "n": 3, "trials": 50, "seed": 0, "tol": 1e-9},
    _run_ap4, _est_ap4)
_register(
    "expsum-bound", "hard",
    "quadratic phase averages decay like p^(-rank/2)",
    {"p": 3, "n": 3, "trials": 100, "seed": 0, "tol": 1e-9},
    _run_expsum, _est_expsum)
_register(
    "bilsum-bound", "hard",
    "bilinear phase averages decay like p^(-rank)",
    {"p": 3, "n": 3, "trials": 100, "seed": 0, "tol": 1e-9},
    _run_bilsum, _est_bilsum)
_register(
    "atom-sizes", "trend",
    "atom sizes approach the equidistributed value as rank grows",
    {"p": 3, "ell": 1, "q": 1, "n_values": [2, 4, 6, 8], "seed": 0},
    _run_atom_sizes, _est_atom_sizes)
_register(
    "bil-level-sizes", "trend",
    "bilinear level-set sizes approach the equidistributed value as rank grows",
    {"p": 3, "ell": 1, "q": 1, "n_values": [2, 4, 6, 8], "seed": 0},
    _run_bil_sizes, _est_bil_sizes)
_register(
    "genbilsums-trend", "trend",
    "weighted configuration averages over atom triples approach 1 as rank grows",
    {"p": 3, "ell": 1, "q": 1, "n_values": [4, 5, 6, 7], "directions": 12,
     "seed": 0},
    _run_genbilsums, _est_genbilsums)
_register(
    "config-regularity-trend", "trend",
    "extension-count ratios concentrate around 1 as rank grows",
    {"p": 3, "ell": 1, "q": 1, "n_values": [5, 6, 7], "samples": 50,
     "seed": 0},
    _run_config_regularity, _est_config_regularity)
_register(
    "atom-u2-uniformity", "trend",
    "balanced atom indicators have small local degree-2 norm at high rank",
    {"p": 3, "ell": 1, "q": 1, "n_values": [3, 4, 5, 6],
     "atom_labels": [[0, 0], [0, 1]], "seed": 0},
    _run_atom_u2_uniformity, _est_atom_u2_uniformity)
_register(
    "atom-vc", "hard",
    "atoms of high-rank quadratic factors shatter 2-element trace patterns",
    {"p": 3, "n": 4, "atom_label": [0], "seed": 0},
    _run_atom_vc, _est_atom_vc)
_register(
    "atom-vc2", "hard",
    "atoms of full-rank single-form factors have 2-level shatter dimension <= 1",
    {"p": 3, "n": 3, "ell_values": [0, 1],
     "extra_diagonals": [[1, 1, 2], [1, 2, 2]], "seed": 0},
    _run_atom_vc2, _est_atom_vc2)
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
    _run_coset_union_vc, _est_coset_union_vc)
_register(
    "control-ip", "hard",
    "the multi-shift pattern average is bounded by its least degree-2 norm",
    {"p": 3, "n": 2, "m": 2, "trials": 50, "seed": 0, "tol": 1e-9},
    _run_control_ip, _est_control_ip)
_register(
    "control-ip2", "hard",
    "the two-level pattern average is bounded by its least degree-3 norm",
    {"p": 3, "n": 2, "m": 2, "trials": 20, "seed": 0, "tol": 1e-9},
    _run_control_ip2, _est_control_ip2)
_register(
    "control-ip-local", "hard",
    "the coset-restricted pattern average is bounded by its least local "
    "degree-2 norm",
    {"p": 3, "n": 3, "ell": 1, "m": 2, "trials": 30, "seed": 0, "tol": 1e-9},
    _run_control_ip_local, _est_control_ip_local)
_register(
    "control-ip2-local-trend", "trend",
    "the excess of the weighted pattern average over the least local degree-3 "
    "norm shrinks with rank",
    {"p": 3, "ell": 1, "q": 1, "m": 1, "n_values": [3, 4, 5, 6], "seed": 0},
    _run_control_ip2_local, _est_control_ip2_local)
_register(
    "sparse-uniform", "hard",
    "sets sparse on the target atom have small local degree-3 norm",
    {"p": 3, "ell": 1, "q": 1, "n_values": [3, 4, 5, 6], "eps": 0.1,
     "samples": 10, "seed": 0, "tol": 1e-9},
    _run_sparse_uniform, _est_sparse_uniform)
_register(
    "smallpart", "report",
    "functions with tiny mean square have small local degree-3 norm on most "
    "direction tuples",
    {"p": 3, "n": 4, "ell": 1, "q": 1, "eps": 1e-3, "directions": 2000,
     "seed": 0},
    _run_smallpart, _est_smallpart)
_register(
    "trivdense", "hard",
    "unions of atoms have density 0 or 1 on every target atom",
    {"p": 3, "n": 4, "ell": 1, "q": 1, "directions": 100, "seed": 0},
    _run_trivdense, _est_trivdense)
_register(
    "vc2-structure", "hard",
    "atom unions are exactly recovered by majority vote and have trivial "
    "densities",
    {"p": 3, "n": 4, "ell": 1, "q": 1, "seed": 0},
    _run_vc2_structure, _est_vc2_structure)
_register(
    "inverse-oracle", "hard",
    "a quadratic phase correlates perfectly with a recovered quadratic phase",
    {"p": 3, "n": 3, "trials": 3, "seed": 0, "tol": 1e-9},
    _run_inverse_oracle, _est_inverse_oracle)
_register(
    "counting-binary", "hard",
    "the coset pattern average times the coset normalization equals the "
    "integer witness count",
    {"p": 3, "n": 3, "ell": 1, "parts": [2, 2], "trials": 20, "seed": 0,
     "tol": 1e-6},
    _run_counting_binary, _est_counting_binary)
_register(
    "counting-ternary", "hard",
    "the weighted atom pattern average obeys the exact witness identity; "
    "its deviation from the product of densities is reported",
    {"p": 3, "n": 3, "ell": 1, "q": 1, "max_part": 2, "seed": 0, "tol": 1e-6},
    _run_counting_ternary, _est_counting_ternary)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def get_experiment(name: str) -> Experiment:
    exp = REGISTRY.get(name)
    if exp is None:
        raise UnknownExperiment(
            f"unknown experiment {name!r}; see `qflab list`")
    return exp


def merge_config(exp: Experiment, file_cfg: dict | None,
                 overrides: dict | None) -> dict:
    cfg = dict(exp.defaults)
    for layer in (file_cfg or {}, overrides or {}):
        for key, val in layer.items():
            if val is None:
                continue
            if key not in cfg:
                allowed = ", ".join(sorted(cfg))
                raise ConfigError(
                    f"experiment {exp.name!r} does not accept key {key!r} "
                    f"(allowed: {allowed})")
            cfg[key] = val
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    p = cfg.get("p")
    if p is not None and p not in ALLOWED_PRIMES:
        raise ConfigError(f"p must be one of {ALLOWED_PRIMES}, got {p}")
    dims = []
    if "n" in cfg:
        dims.append(cfg["n"])
    dims.extend(cfg.get("n_values", []))
    for n in dims:
        if not isinstance(n, int) or n < 1:
            raise ConfigError(f"dimension must be a positive integer, got {n}")
        if p is not None and p ** n > GROUP_CAP:
            raise ConfigError(f"p^n = {p ** n} exceeds the cap {GROUP_CAP}")
    for key in ("trials", "directions", "samples", "m", "max_part"):
        val = cfg.get(key)
        if val is not None and (not isinstance(val, int) or val < 1):
            raise ConfigError(f"{key} must be a positive integer, got {val}")
    tol = cfg.get("tol")
    if tol is not None and not tol > 0:
        raise ConfigError(f"tolerance must be positive, got {tol}")
    eps = cfg.get("eps")
    if eps is not None and not 0 < eps < 1:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")


def run_experiment(name: str, file_cfg: dict | None = None,
                   overrides: dict | None = None) -> dict:
    exp = get_experiment(name)
    cfg = merge_config(exp, file_cfg, overrides)
    result = exp.runner(cfg)
    return build_report(exp.name, exp.kind, exp.claim, cfg, result.trials,
                        result.aggregate, exp.estimator(cfg), result.terms,
                        result.hard_pass)


def estimate_experiment(name: str, file_cfg: dict | None = None,
                        overrides: dict | None = None) -> tuple[dict, int]:
    exp = get_experiment(name)
    cfg = merge_config(exp, file_cfg, overrides)
    return cfg, exp.estimator(cfg)
