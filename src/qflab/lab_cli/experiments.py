"""The experiment registry: one named experiment per checked claim.

Kinds:
    hard    exact identities or inequalities; any failing trial fails the run
    trend   margins tracked across a scale parameter; annotate, never fail
    report  raw distributions with no single verdict

Every runner is a pure function of (config, seed): trial i draws from its
own generator stream _trial_rng(seed, i, ...), so reports are
byte-identical from run to run. The whole-group runners draw first and
evaluate after, in blocks of trials (`_blockwise`): each trial of a block
draws from its own stream, the block's draws are stacked into one array,
trial first, and each quantity is then one batched kernel call over that
stack (`spectral.u3_norms`, `pattern_ops.t_ip2s`,
`fpn_core.quad_char_sums`, ...). Every batched kernel gives a row what it
gives the row alone, so the blocks do not change a report. The local
runners draw every trial first in the same way and batch their norms.
Runners state their checks as rows and never number them:
`_records` numbers rows by their position, `_rows` merges each trial's
rows into {"seed", "trial"} for it, `_trials` runs a per-trial loop into
`_rows` (inverse-oracle, whose three trials each scan every form), and
`_trend` runs a trend's loop over n_values into `_records`. Each kernel
tallies the terms it does as it runs (`fpn_core.count_terms`), and
`run_experiment` reports that tally as terms.actual; the runners count
nothing else, except genbilsums-trend and config-regularity-trend, whose
triangle counts on level masks (no kernel's) call `count_terms` themselves.
The local runners draw their contexts with one rejection sampler,
`_nondegenerate`. `estimate` predicts the count from the config alone (for
local experiments, from the factor's atom-size histogram) and must land
within 10x.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from ..combinatorics import (
    COVER_BLOCK,
    MAX_IP_K,
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
    QuadraticFactor,
    bilinear_level_sizes,
    degenerate_directions,
    direction_codes,
    level_masks,
    mu_weight,
    new_linear_factor,
    new_quadratic_factor,
    sigma3_codes,
)
from ..fpn_core import (
    GroupVector,
    SymmetricForm,
    bilinear_char_sums,
    count_terms,
    nullspace_mod_p,
    quad_char_sums,
    rank_mod_p,
    run_counted,
    space,
)
from ..local_norms import (
    LocalContext2,
    LocalContext3,
    local_u2_inner,
    local_u2_norms,
    local_u3_inners,
    local_u3_norms,
)
from ..pattern_ops import (
    FunctionGrid,
    PatternHypergraph,
    TernaryContext,
    bipartite_normalization,
    t_bipartite,
    t_ip2_local,
    t_ip2s,
    t_ip_local,
    t_ips,
    t_ternaries,
    ternary_normalization,
    weighted_ternary_densities,
    witness_count_bipartite,
    witness_counts_ternary,
)
from ..spectral import (
    DERIVATIVE_BLOCK_ENTRIES,
    GroupFunction,
    ap3_averages,
    ap4_averages,
    fourier_transform_naive,
    fourier_transforms,
    inverse_transforms,
    max_quadratic_correlation,
    u2_inners,
    u2_norms,
    u3_inner,  # noqa: F401  (re-exported: perfbench's tracer test patches this alias)
    u3_inners,
    u3_norms,
)
from .config import STANDARD_MAX_Q, merge_config
from .reporting import (
    aggregate_from,
    build_report,
    make_degenerate,
    make_point,
    make_trial,
    trend_summary,
)

NAIVE_FT_TOL = 1e-10
CONTEXT_ATTEMPTS = 200  # random direction tuples tried for a nondegenerate one
ASSIGNMENT_ATTEMPTS = 100  # random label assignments tried per pattern shape


class RunResult(NamedTuple):
    trials: list
    trend: dict | None = None


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
# shared generators
# ---------------------------------------------------------------------------

def _trial_rng(seed: int, *stream: int) -> np.random.Generator:
    """The generator of np.random.default_rng((seed, *stream)), seeded from
    the uint32 words that numpy's coercion of that tuple makes: each int's
    little-endian 32-bit words, [0] for 0. A SeedSequence given those words
    as an array assembles the same entropy without the tuple coercion."""
    words = []
    for value in (seed, *stream):
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & 0xFFFFFFFF)
        while value >> 32:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        np.array(words, dtype=np.uint32))))


def _records(rows, trend: dict | None = None) -> RunResult:
    """The records of the rows in order, numbered 0, 1, 2, .... A row
    (inputs, observed, bound[, detail]) is a hard check, or an annotate-only
    point when bound is None; (inputs, message) is a degenerate row."""
    trials = []
    for index, (inputs, observed, *rest) in enumerate(rows):
        if not rest:
            trials.append(make_degenerate(index, inputs, observed))
        elif rest[0] is None:
            trials.append(make_point(index, inputs, observed, *rest[1:]))
        else:
            trials.append(make_trial(index, inputs, observed, *rest))
    return RunResult(trials, trend)


def _rows(cfg: dict, per_trial) -> RunResult:
    """`_records` of each trial's rows in order, their inputs merged into
    {"seed": seed, "trial": i}; a message in place of a row is a
    degenerate row."""
    def merged():
        for i, rows in enumerate(per_trial):
            base = {"seed": cfg["seed"], "trial": i}
            for row in rows:
                yield (base, row) if isinstance(row, str) else (base | row[0], *row[1:])
    return _records(merged())


def _trials(cfg: dict, check: Callable) -> RunResult:
    """`_rows` of check(rng, i) for each trial i, on its own stream."""
    return _rows(cfg, (check(_trial_rng(cfg["seed"], i), i) for i in range(cfg["trials"])))


def _blockwise(cfg: dict, entries: int, draw: Callable, evaluate: Callable) -> RunResult:
    """`_rows` of the trials drawn and evaluated in blocks: draw(rng) for
    each trial on its own stream, then evaluate(draws) of a block's draws,
    which gives each trial's rows in order. A block takes as many trials as
    keep their `entries` drawn values each within DERIVATIVE_BLOCK_ENTRIES,
    at least one, so a run of many trials holds one block of draws."""
    step = max(1, DERIVATIVE_BLOCK_ENTRIES // entries)

    def rows():
        for lo in range(0, cfg["trials"], step):
            yield from evaluate([draw(_trial_rng(cfg["seed"], i))
                                 for i in range(cfg["trials"])[lo:lo + step]])
    return _rows(cfg, rows())


def _finite(stack: np.ndarray) -> np.ndarray:
    """A stack of value tables, checked finite once, as a GroupFunction
    checks its table."""
    if not np.isfinite(stack).all():
        raise ValueError("non-finite function values")
    return stack


def _trend(cfg: dict, per_n: Callable) -> RunResult:
    """`_records` of a trend over cfg["n_values"]: per_n(factor, i) on the
    standard factor at the i-th n gives that n's rows and its value. A value
    of None (nothing measured at that n) carries the previous value, 1.0 at
    the first."""
    rows, values = [], []
    for i, n in enumerate(cfg["n_values"]):
        n_rows, value = per_n(_standard_factor(cfg["p"], n, cfg["ell"], cfg["q"]), i)
        rows += n_rows
        values.append(value if value is not None else values[-1] if values else 1.0)
    return _records(rows, trend_summary(values))


def _bounded_draw(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """The uniforms of `count` bounded tables, (count, 2, size), from one
    draw of 2 count size: per table its moduli r, then its phases theta.
    The stream is the same as one draw of moduli and one of phases per
    table in turn."""
    return rng.random(2 * count * size).reshape(count, 2, size)


def _bounded_values(draw: np.ndarray) -> np.ndarray:
    """The tables r exp(2 pi i theta) of bounded draws (..., 2, size)."""
    return draw[..., 0, :] * np.exp(2j * np.pi * draw[..., 1, :])


def _gaussian_draw(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    """The normals of `count` standard complex Gaussian tables,
    (count, 2, size), from one draw of 2 count size: per table its real
    parts, then its imaginary parts."""
    return rng.standard_normal(2 * count * size).reshape(count, 2, size)


def _gaussian_values(draw: np.ndarray) -> np.ndarray:
    """The tables of Gaussian draws (..., 2, size)."""
    return (draw[..., 0, :] + 1j * draw[..., 1, :]) / math.sqrt(2)


def _bounded_fn(rng: np.random.Generator, p: int, n: int) -> GroupFunction:
    return GroupFunction(p, n, _bounded_values(_bounded_draw(rng, 1, p ** n)[0]))


def _table_trials(cfg: dict, count: int, evaluate: Callable, draw: Callable = _bounded_draw,
                  values: Callable = _bounded_values) -> RunResult:
    """`_blockwise` over trials that each draw `count` tables on the group,
    bounded by default: evaluate gets a block's (trials, count, N) stack of
    their values."""
    size = cfg["p"] ** cfg["n"]
    return _blockwise(cfg, count * size, lambda rng: draw(rng, count, size),
                      lambda draws: evaluate(_finite(values(np.stack(draws)))))


def _standard_factor(p: int, n: int, ell: int, q: int) -> QuadraticFactor:
    """Fixed full-rank test factor: e_1..e_ell plus the identity form (and a
    second alternating diagonal when q = 2)."""
    vectors = [tuple(int(i == j) for j in range(n)) for i in range(ell)]
    forms = []
    if q >= 1:
        forms.append(np.eye(n, dtype=np.int64))
    if q >= 2:
        forms.append(np.diag([(1, 2)[i % 2] for i in range(n)]).astype(np.int64))
    if q > STANDARD_MAX_Q:
        raise ConfigError(f"standard factor supports q <= {STANDARD_MAX_Q}")
    return new_quadratic_factor(new_linear_factor(p, n, vectors), forms)


def _label(rng: np.random.Generator, p: int, width: int) -> tuple[int, ...]:
    return tuple(rng.integers(0, p, size=width).tolist())


def _label_codes(rng: np.random.Generator, p: int, widths: list[int]) -> list[int]:
    """The codes of labels of the given widths, in order, from one draw of
    their entries; the generator yields the same values as one `_label`
    draw per width."""
    flat = rng.integers(0, p, size=sum(widths)).tolist()
    ends = itertools.accumulate(widths)
    return [sum(v * p ** i for i, v in enumerate(flat[end - width:end]))
            for width, end in zip(widths, ends)]


def _direction_codes(factor: QuadraticFactor, seed: int, count: int) -> np.ndarray:
    """The codes of the directions that `_nondegenerate` would draw from
    _trial_rng(seed, j), j < count, encoded in one batch."""
    width = 3 * (factor.ell + 2 * factor.q)
    return direction_codes(factor, [_trial_rng(seed, j).integers(0, factor.p, size=width)
                                    for j in range(count)])


def _ctx2(rng: np.random.Generator, factor: QuadraticFactor) -> LocalContext2:
    """The local U^2 context of a drawn pair of coset codes (a1, a2)."""
    return LocalContext2(factor, _label_codes(rng, factor.p, [factor.ell] * 2))


def _nondegenerate(rng: np.random.Generator, factor: QuadraticFactor,
                   graph: PatternHypergraph | None = None) -> LocalContext3 | TernaryContext | str:
    """The context of the first label draw that names no empty atom or
    level set, or the message of a degenerate row when none does: with no
    graph, a direction (a1, a2, a3, b12, b13, b23) in CONTEXT_ATTEMPTS
    draws; else an assignment of graph's labels in `TernaryContext.codes`
    order, in ASSIGNMENT_ATTEMPTS draws."""
    nu, nv, nw = (1, 1, 1) if graph is None else graph.parts
    widths = [factor.width] * (nu + nv + nw) + [factor.q] * (nu * nv + nu * nw + nv * nw)
    last = "no attempts made"
    for _ in range(CONTEXT_ATTEMPTS if graph is None else ASSIGNMENT_ATTEMPTS):
        codes = _label_codes(rng, factor.p, widths)
        try:
            return (LocalContext3(factor, codes) if graph is None
                    else TernaryContext(graph, factor, codes))
        except DegenerateContext as exc:
            last = str(exc)
    if graph is None:
        return f"no nondegenerate direction found: {last}"
    return "no nondegenerate labels found"


@functools.cache
def _atom_moments(p: int, n: int, ell: int, q: int) -> tuple[float, float, int]:
    """(mean, mean of squares, largest) of the standard factor's nonempty
    atom sizes at dimension n. Estimators ask for them many times over, so
    the factor is built once per process for each (p, n, ell, q)."""
    sizes = _standard_factor(p, n, ell, q).atom_sizes
    arr = sizes[sizes > 0].astype(float)
    return float(arr.mean()), float((arr ** 2).mean()), int(sizes.max())


def _atom_stats(cfg: dict, n: int) -> tuple[float, float]:
    """(mean, mean of squares) of the standard factor's nonempty atom sizes
    at dimension n, for cost prediction: local experiments sample labels
    uniformly and redraw or drop a direction until its atoms are nonempty."""
    return _atom_moments(cfg["p"], n, cfg["ell"], cfg["q"])[:2]


def _level_terms(cfg: dict, n: int) -> int:
    """Terms of the standard factor's rank and level-set sizes at dimension
    n: the linear vectors' check takes one scaling per vector of n entries;
    each punctured line of F_p^q has a diagonal form combination, whose rank
    takes at most one scaling of each of its n rows, and updates all p^q
    level sets."""
    p, ell, q = cfg["p"], cfg["ell"], cfg["q"]
    lines = (p ** q - 1) // (p - 1)
    return lines * (p ** q + n * n) + ell * n


def _factor_terms(cfg: dict, n: int) -> int:
    """Terms of building the standard factor at dimension n: its linear
    codes, p^n l, then with forms its atom codes, p^n (l + q), and
    `_level_terms`."""
    ell, q = cfg["ell"], cfg["q"]
    return cfg["p"] ** n * (2 * ell + q if q else ell) + _level_terms(cfg, n)


def _per_n_terms(cfg: dict, terms: Callable) -> int:
    """The sum over cfg["n_values"] of the factor's terms and terms(n,
    smean, s2mean) on the standard factor's atom-size moments at n."""
    return sum(_factor_terms(cfg, n) + terms(n, *_atom_stats(cfg, n))
               for n in cfg["n_values"])


def _kept_share(cfg: dict, ys: int) -> float:
    """Expected share of an atom that a tuple of `ys` distinct y's keeps in
    the ternary contraction: each y weights a p^-q share of the members."""
    return cfg["p"] ** (-cfg["q"] * ys)


def _mask_terms(cfg: dict, n: int, draws: float) -> float:
    """Expected terms of one `level_masks` call over `draws` random code
    triples, q smean^2 for each distinct one: of the D = p^q A^2 triples on
    the A = p^n / smean nonempty atoms, it hits D (1 - (1 - 1/D)^draws)."""
    p, q = cfg["p"], cfg["q"]
    cells = p ** (q + 2 * n) / _atom_stats(cfg, n)[0] ** 2
    return q * p ** (q + 2 * n) * (1 - (1 - 1 / cells) ** draws)


def _ternary_terms(cfg: dict, n: int, ys: int = 2, slots: int = 1, half: bool = False) -> float:
    """Expected terms of one ternary contraction with `ys` x's and y's on
    atoms of the standard factor's mean sizes at dimension n: per y-tuple,
    `slots` computed W-slots of |x kept|^ys |z kept| multiply-adds, and the
    index sums ys |x kept| (|z kept| + 1). The kept counts are binomial
    shares of their atoms; of the |y|^2 pairs, the |y| whose y's coincide
    keep the share of one y. A diagonal local U^3 norm (half) scans only
    the |y| (|y| + 1) / 2 pairs with j_0 <= j_1."""
    smean, s2mean = _atom_stats(cfg, n)

    def per_tuple(share: float) -> float:
        kx = kz = share * smean
        kxs = kx if ys == 1 else share * share * s2mean + share * (1 - share) * smean
        return slots * kxs * kz + ys * kx * (kz + 1)

    if ys == 1:
        return smean * per_tuple(_kept_share(cfg, 1))
    distinct = (s2mean - smean) / 2 if half else s2mean - smean
    return distinct * per_tuple(_kept_share(cfg, 2)) + smean * per_tuple(_kept_share(cfg, 1))


def _local_terms(cfg: dict, n: int, kind: str) -> float:
    """Expected terms of one local quantity at dimension n: a diagonal
    local U^3 norm ("norm"), an octuple inner product ("octuple"), the
    local m-IP2 operator ("ip2") or a weighted density ("density"). With
    forms, the ternary contraction's (`_ternary_terms`). With none, the
    gather of its value tables onto the target coset of c = p^(n - l)
    points and the global kernel there: `u3_norms`, `u3_inners`,
    `t_ip2s` (2 tables and 2c terms at m = 1, 64 tables at m = 2) or a
    mean."""
    p, m = cfg["p"], n - cfg["ell"]
    c = p ** m
    if kind == "norm":
        return (_ternary_terms(cfg, n, half=True) if cfg["q"]
                else c + _u3_norms_terms(p, m, 1))
    if kind == "octuple":
        return (_ternary_terms(cfg, n, slots=2) if cfg["q"]
                else 8 * c + _u3_inner_terms(p, m))
    if kind == "ip2":
        if cfg["q"]:
            return _ternary_terms(cfg, n, ys=cfg["m"])
        return 4 * c if cfg["m"] == 1 else 64 * c + c * c * (48 * p * m + 1)
    return _ternary_terms(cfg, n, ys=1) if cfg["q"] else 2 * c


def _sorted_median(arr: np.ndarray) -> float:
    """The median of a sorted nonempty array, the mean of its two middle
    entries (one entry twice at odd length), as np.median gives it without
    importing numpy.ma."""
    return float(arr[(len(arr) - 1) // 2] + arr[len(arr) // 2]) / 2


def _indicator_minus(p: int, n: int, bits: np.ndarray, alpha: float) -> GroupFunction:
    return GroupFunction(p, n, bits.astype(np.float64) - alpha)


def _u3_inner_terms(p: int, n: int) -> int:
    """Terms of one `u3_inner` call: the shift table and the four derivative
    tables' transforms, each over size^2 entries."""
    size = p ** n
    return size * size * (4 * p * n + 1)


def _u3_norms_terms(p: int, n: int, count: int) -> int:
    """Terms of one `u3_norms` call on `count` functions: for h = 0 and one
    h of each pair {h, -h}, a shift-table row and, per function, the
    transform and the |T|^4 sum, each over size entries."""
    size = p ** n
    return (size + 1) // 2 * size * (1 + count * (p * n + 1))


def _u2_norms_terms(p: int, n: int, count: int) -> int:
    """Terms of one `u2_norms` call on `count` functions: per function the
    transform and the |fhat|^4 sum, each over size entries."""
    return count * p ** n * (p * n + 1)


def _local_u2_terms(cfg: dict, n: int, count: int) -> int:
    """Terms of `local_u2_norms` on `count` functions: per function the
    gather, the transform and the |ghat|^4 sum, each over a coset of
    p^(n - l) entries."""
    p, m = cfg["p"], n - cfg["ell"]
    return count * p ** m * (p * m + 2)


# ---------------------------------------------------------------------------
# transform identities
# ---------------------------------------------------------------------------

def _run_parseval(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]

    def evaluate(fs):
        l2 = np.sqrt((np.abs(fs[:, 0]) ** 2).mean(axis=1)).tolist()
        spec_l2 = np.sqrt((np.abs(fourier_transforms(fs[:, 0], p, n)) ** 2).sum(axis=1)).tolist()
        return [[({}, abs(a ** 2 - b ** 2), cfg["tol"])] for a, b in zip(l2, spec_l2)]
    return _table_trials(cfg, 1, evaluate, _gaussian_draw, _gaussian_values)


def _est_parseval(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (size * cfg["p"] * cfg["n"] + 2 * size)


def _run_roundtrip(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]

    def evaluate(fs):
        spec = fourier_transforms(fs[:, 0], p, n)
        back = np.abs(inverse_transforms(spec, p, n) - fs[:, 0]).max(axis=1).tolist()
        # the reference transform stays per trial
        naive = [float(np.max(np.abs(fourier_transform_naive(GroupFunction(p, n, f)) - t)))
                 for f, t in zip(fs[:, 0], spec)]
        return [[({"check": "roundtrip"}, b, cfg["tol"]),
                 ({"check": "naive-agree"}, a, NAIVE_FT_TOL)] for b, a in zip(back, naive)]
    return _table_trials(cfg, 1, evaluate, _gaussian_draw, _gaussian_values)


def _est_roundtrip(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (2 * size * cfg["p"] * cfg["n"] + size * size)


def _run_u2_equiv(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]

    def evaluate(fs):
        via_corr = u2_inners(np.repeat(fs, 4, axis=1), p, n)
        via_spectrum = (np.abs(fourier_transforms(fs[:, 0], p, n)) ** 4).sum(axis=1)
        return [[({}, abs(c - s), cfg["tol"], {"u2_fourth": c.real, "spectrum_fourth": s})]
                for c, s in zip(via_corr.tolist(), via_spectrum.tolist())]
    return _table_trials(cfg, 1, evaluate)


def _est_u2_equiv(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (size * size + size * cfg["p"] * cfg["n"])


# ---------------------------------------------------------------------------
# inner-product inequalities
# ---------------------------------------------------------------------------

def _run_gcs(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]

    def evaluate(fs):  # per trial a quadruple, then an octuple
        quads, octs = fs[:, :4], fs[:, 4:]
        rows = zip(u2_inners(quads, p, n).tolist(), u2_norms(quads, p, n).tolist(),
                   u3_inners(octs, p, n).tolist(), u3_norms(octs, p, n).tolist())
        return [[({"norm": "u2"}, abs(u2), math.prod(norms2) + tol),
                 ({"norm": "u3"}, abs(u3), math.prod(norms3) + tol)]
                for u2, norms2, u3, norms3 in rows]
    return _table_trials(cfg, 12, evaluate)


def _est_gcs(cfg: dict) -> int:
    p, n = cfg["p"], cfg["n"]
    return cfg["trials"] * (p ** (2 * n) + _u2_norms_terms(p, n, 4)
                            + _u3_inner_terms(p, n) + _u3_norms_terms(p, n, 8))


def _run_local_gcs(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    factor = _standard_factor(p, n, cfg["ell"], cfg["q"])
    cosets, atoms = space(p, factor.ell), space(p, factor.width)  # print codes as labels
    draws = []  # per trial: U^2 context, its four functions, U^3 context, its octuple
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        draws.append((_ctx2(rng, factor), [_bounded_fn(rng, p, n) for _ in range(4)],
                      _nondegenerate(rng, factor), [_bounded_fn(rng, p, n) for _ in range(8)]))
    u2 = iter(local_u2_norms(factor, [d[0].code for d in draws for _ in range(4)],
                             [g for d in draws for g in d[1]]))
    live = [d for d in draws if not isinstance(d[2], str)]
    norms3 = local_u3_norms(factor, [d[2].codes for d in live for _ in range(8)],
                            [g for d in live for g in d[3]])
    u3 = iter(zip(local_u3_inners(factor, [d[2].codes for d in live], [d[3] for d in live]),
                  [math.prod(norms3[k:k + 8]) for k in range(0, len(norms3), 8)]))

    def rows(ctx2, quad, ctx3):
        yield ({"norm": "local-u2", "d": [cosets.coords_of(c) for c in ctx2.codes]},
               abs(local_u2_inner(ctx2, *quad)), math.prod(itertools.islice(u2, 4)) + tol)
        if isinstance(ctx3, str):
            yield ctx3
            return
        obs3, bnd3 = next(u3)
        scale = max(1.0, bnd3)
        yield ({"norm": "local-u3", "d": list(atoms.coords_of(ctx3.codes[0]))}, abs(obs3),
               bnd3 + tol * scale, {"scale": scale})
    return _rows(cfg, (rows(*d[:3]) for d in draws))


def _est_local_gcs(cfg: dict) -> int:
    # per trial the binary contraction of local_u2_inner (two x's over the
    # coset^2 y-pairs and one sum table), four local U^2 norms, one octuple
    # and eight diagonal local U^3 norms
    coset = cfg["p"] ** (cfg["n"] - cfg["ell"])
    u3 = _local_terms(cfg, cfg["n"], "octuple") + 8 * _local_terms(cfg, cfg["n"], "norm")
    masks = 6 * _mask_terms(cfg, cfg["n"], cfg["trials"])  # three calls per batch
    return _factor_terms(cfg, cfg["n"]) + int(masks + cfg["trials"] * (
        2 * coset ** 3 + coset ** 2 + _local_u2_terms(cfg, cfg["n"], 4) + u3))


def _run_triangle(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]

    def draw(rng):
        return _bounded_draw(rng, 2, p ** n), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    def evaluate(draws):
        f, g = _finite(_bounded_values(np.stack([d[0] for d in draws]))).swapaxes(0, 1)
        cs = np.array([d[1] for d in draws])
        fs = np.stack([f + g, f, g, f * cs[:, None]], axis=1)
        return [[row for tag, (nfg, nf, ng, ncf) in zip(("u2", "u3"), norms)
                 for row in (({"check": f"{tag}-triangle"}, nfg, nf + ng + tol),
                             ({"check": f"{tag}-homogeneous"}, abs(ncf - abs(c) * nf), tol))]
                for c, *norms in zip(cs.tolist(), u2_norms(fs, p, n).tolist(),
                                     u3_norms(fs, p, n).tolist())]
    return _blockwise(cfg, 2 * p ** n, draw, evaluate)


def _est_triangle(cfg: dict) -> int:
    p, n = cfg["p"], cfg["n"]
    return cfg["trials"] * (_u2_norms_terms(p, n, 4) + _u3_norms_terms(p, n, 4))


def _run_local_triangle(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    factor = _standard_factor(p, n, cfg["ell"], cfg["q"])
    draws = []  # per trial: (f, g, f + g), U^2 context, U^3 context
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        f, g = _bounded_fn(rng, p, n), _bounded_fn(rng, p, n)
        draws.append(((f, g, f + g), _ctx2(rng, factor), _nondegenerate(rng, factor)))
    u2 = iter(local_u2_norms(factor, [d[1].code for d in draws for _ in range(3)],
                             [h for d in draws for h in d[0]]))
    live = [d for d in draws if not isinstance(d[2], str)]
    u3 = iter(local_u3_norms(factor, [d[2].codes for d in live for _ in range(3)],
                             [h for d in live for h in d[0]]))

    def rows(ctx3):
        nf, ng, nfg = itertools.islice(u2, 3)
        yield {"check": "local-u2-triangle"}, nfg, nf + ng + tol
        if isinstance(ctx3, str):
            yield ctx3
            return
        nf, ng, nfg = itertools.islice(u3, 3)
        scale = max(1.0, nf + ng)
        yield {"check": "local-u3-triangle"}, nfg, nf + ng + tol * scale, {"scale": scale}
    return _rows(cfg, (rows(d[2]) for d in draws))


def _est_local_triangle(cfg: dict) -> int:
    masks = 3 * _mask_terms(cfg, cfg["n"], cfg["trials"])  # one norm call of three masks
    return _factor_terms(cfg, cfg["n"]) + int(masks + cfg["trials"] * (
        _local_u2_terms(cfg, cfg["n"], 3) + 3 * _local_terms(cfg, cfg["n"], "norm")))


def _run_u3_dominates(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    linear = _standard_factor(p, n, cfg["ell"], 0)
    fs, dirs = [], []
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        fs.append(_bounded_fn(rng, p, n))
        dirs.append([_label(rng, p, linear.ell) for _ in range(3)])
    # on a purely linear factor the local U^3 norm with zero bilinear labels
    # dominates the local U^2 norm on the target coset a1 + a2 + a3
    cosets = space(p, linear.ell)
    codes = np.array([[cosets.index_of(a) for a in d] + [0] * 3 for d in dirs])
    u3vals = local_u3_norms(linear, codes, fs, tol)
    u2vals = local_u2_norms(linear, sigma3_codes(linear, codes), fs, tol)
    values = np.stack([f.values for f in fs])
    return _rows(cfg, [[({"check": "global"}, u2, u3 + tol),
                        ({"check": "local", "d": d}, u2val, u3val + tol)]
                       for u2, u3, d, u3val, u2val in zip(u2_norms(values, p, n).tolist(),
                                                          u3_norms(values, p, n).tolist(),
                                                          dirs, u3vals, u2vals)])


def _est_u3_dominates(cfg: dict) -> int:
    # per trial the global norms, and the local U^3 and U^2 norms on the
    # target coset of c points, each a gather and the global norm there
    p, n = cfg["p"], cfg["n"]
    m = n - cfg["ell"]
    return cfg["trials"] * (_u2_norms_terms(p, n, 1) + _u3_norms_terms(p, n, 1)
                            + p ** m + _u3_norms_terms(p, m, 1) + _local_u2_terms(cfg, n, 1))


def _run_ap3(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]

    def evaluate(fs):
        sups = np.abs(fourier_transforms(fs[:, 0], p, n)).max(axis=1).tolist()
        return [[({}, abs(avg), sup + cfg["tol"])]
                for avg, sup in zip(ap3_averages(fs[:, 0], p, n).tolist(), sups)]
    return _table_trials(cfg, 1, evaluate)


def _est_ap3(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (size ** 2 + size * cfg["p"] * cfg["n"])


def _run_ap4(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]

    def evaluate(draws):
        f, g = (np.stack(d) for d in zip(*draws))
        fs = _finite(np.stack([_bounded_values(f), _gaussian_values(g)], axis=1))
        # the Gaussian g of each trial scaled to unit L^2 norm
        l2 = np.sqrt((np.abs(fs[:, 1]) ** 2).mean(axis=1))
        fs[:, 1] *= (1.0 / np.maximum(l2, 1e-30))[:, None]
        return [[({"f": "sup-bounded"}, abs(af), nf + tol),
                 ({"f": "l2-normalized"}, abs(ag), ng + tol)]
                for (af, ag), (nf, ng) in zip(ap4_averages(fs, p, n).tolist(),
                                              u3_norms(fs, p, n).tolist())]
    return _blockwise(cfg, 2 * p ** n, lambda rng: (_bounded_draw(rng, 1, p ** n)[0],
                                                    _gaussian_draw(rng, 1, p ** n)[0]), evaluate)


def _est_ap4(cfg: dict) -> int:
    """Per trial, two four-term averages of three size^2 sum tables each, and
    one batch of two U^3 norms."""
    p, n = cfg["p"], cfg["n"]
    size = p ** n
    return cfg["trials"] * (6 * size ** 2 + _u3_norms_terms(p, n, 2))


# ---------------------------------------------------------------------------
# exponential sums and equidistribution trends
# ---------------------------------------------------------------------------

def _symmetric_array(rng: np.random.Generator, p: int, n: int) -> np.ndarray:
    raw = rng.integers(0, p, size=(n, n))
    return (raw + raw.T) % p


def _char_sum_trials(cfg: dict, vectors: int, sums: Callable, decay: float) -> RunResult:
    """Trials that each draw a symmetric form M and then `vectors` vectors
    in one label draw, and check that |sums(forms, vectors, p)| is at most
    p^(-decay rank M)."""
    p, n = cfg["p"], cfg["n"]

    def evaluate(draws):
        forms, vecs = (np.array(d, dtype=np.int64) for d in zip(*draws))
        ranks = [rank_mod_p(form, p) for form in forms]
        return [[({}, abs(s), p ** (-decay * rank) + cfg["tol"], {"rank": rank})]
                for s, rank in zip(sums(forms, vecs, p).tolist(), ranks)]
    return _blockwise(cfg, n * n + vectors * n, lambda rng: (
        _symmetric_array(rng, p, n), _label(rng, p, vectors * n)), evaluate)


def _run_expsum(cfg: dict) -> RunResult:
    return _char_sum_trials(cfg, 1, quad_char_sums, 0.5)


def _est_expsum(cfg: dict) -> int:
    # per trial one phase value per point, and the row reduction of the
    # n x n form, at most n^3 entries
    return cfg["trials"] * (cfg["p"] ** cfg["n"] + cfg["n"] ** 3)


def _run_bilsum(cfg: dict) -> RunResult:
    return _char_sum_trials(cfg, 2, lambda forms, cd, p: bilinear_char_sums(
        forms, *np.split(cd, 2, axis=1), p), 1)


def _est_bilsum(cfg: dict) -> int:
    # the y-sum collapses to a linear system, so the kernel sums over x alone
    return cfg["trials"] * cfg["p"] ** cfg["n"]


def _size_trend(cfg: dict, ratios: Callable) -> RunResult:
    """A trend point per n: the largest |r - 1| over the ratios(factor) of
    the standard factor's set sizes to their equidistributed value."""
    def per_n(factor, i):
        dev = max(abs(r - 1.0) for r in ratios(factor))
        return [({"n": factor.n}, dev, None, {"n": factor.n, "rank": factor.rank})], dev
    return _trend(cfg, per_n)


def _run_atom_sizes(cfg: dict) -> RunResult:
    return _size_trend(cfg, lambda f: f.atom_sizes / f.p ** (f.n - f.ell - f.q))


def _est_atom_sizes(cfg: dict) -> int:
    return sum(cfg["p"] ** n * (cfg["ell"] + cfg["q"] + 1) for n in cfg["n_values"])


def _run_bil_sizes(cfg: dict) -> RunResult:
    return _size_trend(cfg, lambda f: (s / f.p ** (2 * f.n - f.q)
                                       for s in bilinear_level_sizes(f).tolist()))


def _est_bil_sizes(cfg: dict) -> int:
    # the sizes come from the ranks alone: no codes are built
    return sum(_level_terms(cfg, n) for n in cfg["n_values"])


def _direction_masks(ctx: LocalContext3) -> tuple[list, float]:
    """The level masks of a direction's pairs (x, y), (x, z) and (y, z),
    views of the corners of one `level_masks` stack, and the product w12
    w13 w23 of their levels' weights: mu_beta(b) is its mask times its
    weight."""
    a1, a2, a3, b12, b13, b23 = ctx.codes
    weight = math.prod(mu_weight(ctx.factor, b) for b in (b12, b13, b23))
    triples = [(b12, a1, a2), (b13, a1, a3), (b23, a2, a3)]
    sizes = ctx.factor.atom_sizes
    return [m[:sizes[row], :sizes[col]]
            for m, (_, row, col) in zip(level_masks(ctx.factor, triples), triples)], weight


def _triangle_count(m12: np.ndarray, m13: np.ndarray, m23: np.ndarray) -> int:
    """The number of (x, y, z) with m12[x, y], m13[x, z] and m23[y, z]: one
    float32 matmul over x, exact as each entry is at most |x| < 2^24, read
    at the (y, z) of m23 and summed in int64."""
    plane = m12.T.astype(np.float32) @ m13.astype(np.float32)
    return int(plane[m23].astype(np.int64).sum())


def _run_genbilsums(cfg: dict) -> RunResult:
    def per_n(factor, i):
        rows, devs = [], []
        for j in range(cfg["directions"]):
            base = {"n": factor.n, "direction": j}
            ctx = _nondegenerate(_trial_rng(cfg["seed"], i, j), factor)
            if isinstance(ctx, str):
                rows.append((base, ctx))
                continue
            (m12, m13, m23), weight = _direction_masks(ctx)
            s1, s2, s3 = factor.atom_sizes[list(ctx.codes[:3])].tolist()
            avg = weight * _triangle_count(m12, m13, m23) / (s1 * s2 * s3)
            count_terms(s1 * s2 * s3)
            devs.append(abs(avg - 1.0))
            rows.append((base, avg, None, {"n": factor.n}))
        # mean deviation over directions; single directions stay granular
        # far into the feasible range
        return rows, float(np.mean(devs)) if devs else 1.0
    return _trend(cfg, per_n)


def _est_genbilsums(cfg: dict) -> int:
    # per direction a triangle count and one call for its three masks
    return _per_n_terms(cfg, lambda n, smean, s2mean: int(
        cfg["directions"] * (smean ** 3 + 3 * _mask_terms(cfg, n, 1))))


def _run_config_regularity(cfg: dict) -> RunResult:
    def per_n(factor, i):
        rng = _trial_rng(cfg["seed"], i)
        base = {"n": factor.n}
        ctx = _nondegenerate(rng, factor)
        if isinstance(ctx, str):
            return [(base, ctx)], None
        (m12, m13, m23), weight = _direction_masks(ctx)
        s1, s2, s3 = factor.atom_sizes[list(ctx.codes[:3])].tolist()
        devs = []
        attempts = 0
        while len(devs) < cfg["samples"] and attempts < 20 * cfg["samples"]:
            attempts += 1
            xi = int(rng.integers(s1))
            ycand = np.flatnonzero(m12[xi])
            if ycand.size == 0:
                continue
            yi = int(ycand[rng.integers(ycand.size)])
            zcand = np.flatnonzero(m13[xi] & m23[yi])
            if zcand.size == 0:
                continue
            zi = int(zcand[rng.integers(zcand.size)])
            # only the supports of wx, wy and wz add anything, and every
            # term they keep carries the nine weights (w12 w13 w23)^3
            x, y, z = (np.flatnonzero(w) for w in (m12[:, yi] & m13[:, zi],
                                                    m12[xi] & m23[:, zi], m13[xi] & m23[yi]))
            count_terms(x.size * y.size * z.size)
            count = _triangle_count(m12[np.ix_(x, y)], m13[np.ix_(x, z)], m23[np.ix_(y, z)])
            g = weight ** 3 * count / (s1 * s2 * s3)
            devs.append(abs(g - 1.0))
        if not devs:
            return [(base, "no constrained triples found")], None
        arr = np.array(sorted(devs))
        med = _sorted_median(arr)
        return [(base, med, None, {"n": factor.n, "max_dev": float(arr.max()),
                                   "frac_above_quarter": float((arr > 0.25).mean()),
                                   "samples": len(devs)})], med
    return _trend(cfg, per_n)


def _est_config_regularity(cfg: dict) -> int:
    # per n the three mu matrices (|a| |b| q each) and, per sample, the
    # supports of wx, wy and wz: each keeps the members that two fixed
    # vertices weight, a p^(-2q) share of its atom
    return _per_n_terms(cfg, lambda n, smean, s2mean: int(
        cfg["samples"] * (smean * _kept_share(cfg, 2)) ** 3 + 3 * cfg["q"] * smean ** 2))


def _run_atom_u2_uniformity(cfg: dict) -> RunResult:
    def per_n(factor, i):
        p, n, ell = factor.p, factor.n, factor.ell
        cosets = space(p, ell)
        points = []  # per (atom, a1): a degenerate row, or inputs, alpha, function, coset code
        for lab in map(tuple, cfg["atom_labels"]):
            idx = factor.atom_indices(lab)
            base = {"n": n, "atom": list(lab)}
            if idx.size == 0:
                points.append((base, f"atom {lab} is empty"))
                continue
            bits = np.zeros(p ** n, dtype=bool)
            bits[idx] = True
            # every a1 has the target coset a1 + (e - a1) = e, the label's own
            alpha = float(bits[factor.linear.atom_indices(lab[:ell])].mean())
            f, e = _indicator_minus(p, n, bits, alpha), cosets.index_of(lab[:ell])
            points += [(base | {"a1": list(cosets.coords_of(a1))}, alpha, f, e)
                       for a1 in range(p ** ell)]
        live = [t for t in points if len(t) == 4]
        norms = local_u2_norms(factor, [t[3] for t in live], [t[2] for t in live])
        found = iter(norms)
        return [t if len(t) == 2 else (t[0], next(found), None, {"n": n, "alpha": t[1]})
                for t in points], max(norms, default=0.0)
    return _trend(cfg, per_n)


def _est_atom_u2_uniformity(cfg: dict) -> int:
    norms = len(cfg["atom_labels"]) * cfg["p"] ** cfg["ell"]
    return sum(_local_u2_terms(cfg, n, norms) for n in cfg["n_values"])


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
    return _records([({"n": n, "atom": cfg["atom_label"]}, 0.0 if ok else 1.0, 0.0, detail)])


def _est_atom_vc(cfg: dict) -> int:
    return cfg["p"] ** (2 * cfg["n"])


def _run_atom_vc2(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]
    diag_forms = [np.eye(n, dtype=np.int64)]
    diag_forms += [np.diag(d).astype(np.int64) for d in cfg["extra_diagonals"]]
    rows = []
    for fi, form in enumerate(diag_forms):
        for ell in cfg["ell_values"]:
            vectors = [tuple(int(i == j) for j in range(n)) for i in range(ell)]
            factor = new_quadratic_factor(new_linear_factor(p, n, vectors), [form])
            for lab in factor.occupied_labels():
                mask = SubsetBitmask.from_indices(p, n, factor.atom_indices(lab))
                rows.append(({"form": fi, "ell": ell, "atom": list(lab)},
                             float(vc2_dimension(mask)), 1.0,
                             {"atom_size": mask.size, "rank": factor.rank}))
    return _records(rows)


def _est_atom_vc2(cfg: dict) -> int:
    # per atom: two shift tables, the m = 1 scan, and, as the claim predicts
    # no 2-IP2 witness, the whole m = 2 scan of the (N - 1)(N - 2) / 2 rows
    # (a2, b2 > a2) of N
    size = cfg["p"] ** cfg["n"]
    forms = 1 + len(cfg["extra_diagonals"])
    atoms = sum(cfg["p"] ** (ell + 1) for ell in cfg["ell_values"])
    return forms * atoms * (2 * size ** 2 + size + (size - 1) * (size - 2) // 2 * size)


def _run_coset_union_vc(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]
    sp = space(p, n)
    basis = np.array(cfg["subgroup_basis"], dtype=np.int64).reshape(-1, n)
    if rank_mod_p(basis, p) != len(basis):
        raise ConfigError("subgroup_basis is dependent")
    span = space(p, len(basis)).form_values(r=basis) @ sp.powers  # H, by index
    rows = []
    for reps in cfg["rep_sets"]:
        k = len(reps)
        starts = np.array([sp.index_of(rep) for rep in reps])
        mask = SubsetBitmask.from_indices(p, n, sp.add(starts[:, None], span).ravel())
        measured = vc_dimension(mask)
        stated = math.ceil(math.log2(k)) if k > 1 else 0
        corrected = math.floor(math.log2(k)) + 1
        rows.append(({"reps": [list(r) for r in reps]}, float(measured), float(corrected),
                     {"k": k, "stated_bound": stated, "stated_bound_ok": measured <= stated,
                      "union_size": mask.size}))
    return _records(rows)


def _est_coset_union_vc(cfg: dict) -> int:
    # membership depends only on the coset of H = span(subgroup_basis), so
    # the run measures d, the dimension of the reps' image in G/H, which the
    # vectors orthogonal to H read off; then min(d + 1, MAX_IP_K) k-IP
    # searches over G's N points, each a shift table and N codes per
    # candidate row, of C(N - 1, k - 1): one that finds its witness (k <= d)
    # is taken to stop in its first cover block, the failing one scans all
    p, n = cfg["p"], cfg["n"]
    size = p ** n
    dual = np.reshape(nullspace_mod_p(cfg["subgroup_basis"], p, n), (-1, n))
    total = 0
    for reps in cfg["rep_sets"]:
        d = vc_dimension(SubsetBitmask.from_indices(
            p, len(dual), np.array(reps) @ dual.T % p @ space(p, len(dual)).powers))
        for k in range(1, min(d + 1, MAX_IP_K) + 1):
            rows = math.comb(size - 1, k - 1)
            total += size * (size + (rows if k > d else min(rows, COVER_BLOCK // size or 1)))
    return total


# ---------------------------------------------------------------------------
# pattern-operator control
# ---------------------------------------------------------------------------

def _control_trials(cfg: dict, shape: tuple, average: Callable, norms: Callable) -> RunResult:
    """Trials that each draw a grid of bounded tables, `shape` of them, and
    check |average(m, grids, p, n)| against the least of norms(tables)."""
    p, n = cfg["p"], cfg["n"]

    def evaluate(fs):
        obs = average(cfg["m"], fs.reshape(fs.shape[:1] + shape + fs.shape[2:]), p, n).tolist()
        least = norms(fs, p, n).min(axis=1).tolist()
        return [[({}, abs(o), bound + cfg["tol"])] for o, bound in zip(obs, least)]
    return _table_trials(cfg, math.prod(shape), evaluate)


def _run_control_ip(cfg: dict) -> RunResult:
    return _control_trials(cfg, (cfg["m"], 1 << cfg["m"]), t_ips, u2_norms)


def _est_control_ip(cfg: dict) -> int:
    """Per trial, `t_ip`'s 2^m x-averages over N^(m+1) (x, y_S) pairs and its
    one sum table, then one batch of U^2 norms, one per slot."""
    p, n, m = cfg["p"], cfg["n"], cfg["m"]
    size = p ** n
    slots = m * (1 << m)
    return cfg["trials"] * ((1 << m) * size ** (m + 1) + size ** 2
                            + _u2_norms_terms(p, n, slots))


def _run_control_ip2(cfg: dict) -> RunResult:
    m = cfg["m"]
    return _control_trials(cfg, (m, m, 1 << (m * m)), t_ip2s, u3_norms)


def _est_control_ip2(cfg: dict) -> int:
    """Per trial, global t_ip2 (product of two means for m = 1; for m = 2 the
    shift table and 48 transforms, 32 forward and 16 back, each over
    size^2 entries) and one batch of U^3 norms, one per slot."""
    p, n, m = cfg["p"], cfg["n"], cfg["m"]
    size = p ** n
    slots = m * m * (1 << (m * m))
    ip2 = 2 * size if m == 1 else size * size * (48 * p * n + 1)
    return cfg["trials"] * (ip2 + _u3_norms_terms(p, n, slots))


def _run_control_ip_local(cfg: dict) -> RunResult:
    p, n, m = cfg["p"], cfg["n"], cfg["m"]
    linear = _standard_factor(p, n, cfg["ell"], 0)
    draws = []  # per trial: context, the grid's functions, observed
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        ctx = _ctx2(rng, linear)
        grid = FunctionGrid({(j, s): _bounded_fn(rng, p, n)
                             for j in range(1, m + 1) for s in range(1 << m)})
        draws.append((ctx, list(grid.functions()), abs(t_ip_local(m, linear, ctx.codes, grid))))
    slots = m << m
    norms = local_u2_norms(linear, [d[0].code for d in draws for _ in range(slots)],
                           [g for d in draws for g in d[1]])
    cosets = space(p, linear.ell)  # print codes as labels
    return _rows(cfg, [[({"d": [cosets.coords_of(c) for c in ctx.codes]}, obs,
                         min(norms[slots * i:slots * (i + 1)]) + cfg["tol"])]
                       for i, (ctx, _, obs) in enumerate(draws)])


def _est_control_ip_local(cfg: dict) -> int:
    # per trial the binary contraction of t_ip_local (2^m y_S over the
    # coset^m x-tuples and one sum table) and a local U^2 norm per slot
    coset = cfg["p"] ** (cfg["n"] - cfg["ell"])
    m = cfg["m"]
    return cfg["trials"] * ((1 << m) * coset ** (m + 1) + coset ** 2
                            + _local_u2_terms(cfg, cfg["n"], m << m))


def _run_control_ip2_local(cfg: dict) -> RunResult:
    def per_n(factor, i):
        rng = _trial_rng(cfg["seed"], i)
        base = {"n": factor.n}
        ctx = _nondegenerate(rng, factor)
        if isinstance(ctx, str):
            return [(base, ctx)], None
        f = _bounded_fn(rng, factor.p, factor.n)
        grid = FunctionGrid.ip2_diagonal(cfg["m"], f)
        obs = abs(t_ip2_local(cfg["m"], factor, ctx.codes, grid))
        nrm = local_u3_norms(factor, [ctx.codes], [f])[0]
        excess = max(0.0, (obs - nrm) / max(1.0, nrm))
        return [(base, excess, None, {"n": factor.n, "operator": obs, "norm": nrm})], excess
    return _trend(cfg, per_n)


def _est_control_ip2_local(cfg: dict) -> int:
    # the diagonal grid gives every W-vertex one z-average: one computed slot;
    # the operator and the norm each build the direction's three masks
    return _per_n_terms(cfg, lambda n, *_: int(
        _local_terms(cfg, n, "ip2") + _local_terms(cfg, n, "norm") + 6 * _mask_terms(cfg, n, 1)))


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
    eps = cfg["eps"]
    n_hard = max(cfg["n_values"])

    def per_n(factor, i):
        p, n = factor.p, factor.n
        samples = []  # per sample: a degenerate row, or inputs, context, set, alpha
        for s in range(cfg["samples"]):
            rng = _trial_rng(cfg["seed"], i, s)
            base = {"n": n, "eps": eps, "sample": s}
            ctx = _nondegenerate(rng, factor)
            if isinstance(ctx, str):
                samples.append((base, ctx))
                continue
            target = ctx.target_indices()
            if target.size == 0:
                samples.append((base, "target atom is empty"))
                continue
            bits = np.zeros(p ** n, dtype=bool)
            bits[_sparse_subset(rng, target, eps)] = True
            samples.append((base, ctx, bits, float(bits[target].mean())))
        live = [t for t in samples if len(t) == 4]
        found = iter(weighted_ternary_densities(factor, [t[1].codes for t in live],
                                                [t[2] for t in live]))
        rows, diffs = [], []
        for sample in samples:
            if len(sample) == 2:
                rows.append(sample)
                continue
            base, _, _, alpha = sample
            value = next(found)
            diffs.append(abs(value - alpha))
            rows.append((base, diffs[-1], None, {"n": n, "weighted": value, "alpha": alpha}))
        if n == n_hard and live:
            _, ctx, bits, alpha = live[-1]
            norm = local_u3_norms(factor, [ctx.codes], [_indicator_minus(p, n, bits, alpha)])[0]
            rows.append(({"n": n, "eps": eps, "check": "norm-bound"}, norm,
                         2.0 * eps ** 0.125 + cfg["tol"], {"n": n, "alpha": alpha}))
        return rows, float(np.mean(diffs)) if diffs else None
    return _trend(cfg, per_n)


def _est_sparse_uniform(cfg: dict) -> int:
    n_hard = max(cfg["n_values"])

    def terms(n, *_):
        total = int(cfg["samples"] * _local_terms(cfg, n, "density")
                    + 3 * _mask_terms(cfg, n, cfg["samples"]))
        if n == n_hard:
            total += int(_local_terms(cfg, n, "norm") + 3 * _mask_terms(cfg, n, 1))
        return total
    return _per_n_terms(cfg, terms)


def _run_smallpart(cfg: dict) -> RunResult:
    p, n, ell, q, eps = cfg["p"], cfg["n"], cfg["ell"], cfg["q"], cfg["eps"]
    factor = _standard_factor(p, n, ell, q)
    size = p ** n
    rng = _trial_rng(cfg["seed"])
    f_raw = rng.uniform(-1.0, 1.0, size)
    f_raw *= 0.9 * eps / max(float(np.sqrt(np.mean(f_raw ** 2))), 1e-30)
    f = GroupFunction(p, n, f_raw)
    total_dirs = p ** (3 * (ell + q) + 3 * q)
    count = cfg["directions"]
    codes = _direction_codes(factor, cfg["seed"], count)
    empty = degenerate_directions(factor, codes)
    degenerate = int(empty.sum())
    norms = local_u3_norms(factor, codes[~empty], [f] * (count - degenerate))
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
        "median_norm": _sorted_median(arr) if arr.size else 0.0,
        "proportions_below": props,
        "main_threshold": main_thr,
        "claimed_min_proportion": 1.0 - 8.0 * eps,
        "claim_consistent": claim_frac >= 1.0 - 8.0 * eps,
    }
    return _records([({"seed": cfg["seed"], "eps": eps}, claim_frac, None, detail)])


def _est_smallpart(cfg: dict) -> int:
    smean = _atom_stats(cfg, cfg["n"])[0]
    count = cfg["directions"]
    per_direction = _local_terms(cfg, cfg["n"], "norm")
    # masks only for the directions whose three atoms are nonempty
    live = count * (cfg["p"] ** (cfg["n"] - cfg["ell"] - cfg["q"]) / smean) ** 3
    masks = 3 * _mask_terms(cfg, cfg["n"], live)
    return _factor_terms(cfg, cfg["n"]) + int(count * per_direction + masks)


def _atom_union(rng: np.random.Generator, factor: QuadraticFactor) -> tuple[list, np.ndarray]:
    """The labels and the indicator of a union of nonempty atoms, each kept
    on one draw of its own, in label order (the first if none is kept)."""
    occupied = np.flatnonzero(factor.atom_sizes)
    keep = occupied[rng.random(occupied.size) < 0.5]
    if not keep.size:
        keep = occupied[:1]
    labels = factor.all_labels()
    return [labels[code] for code in keep], np.isin(factor._codes, keep)


def _run_trivdense(cfg: dict) -> RunResult:
    p, n, ell, q = cfg["p"], cfg["n"], cfg["ell"], cfg["q"]
    factor = _standard_factor(p, n, ell, q)
    rng = _trial_rng(cfg["seed"])
    _, bits = _atom_union(rng, factor)
    # each direction's target atom, and its size and count in the set
    targets = sigma3_codes(factor, _direction_codes(factor, cfg["seed"], cfg["directions"]))
    counts = np.bincount(factor._codes, weights=bits, minlength=factor.atom_sizes.size)
    rows = []
    for j, (inside, size) in enumerate(zip(counts[targets].astype(np.int64).tolist(),
                                           factor.atom_sizes[targets].tolist())):
        base = {"direction": j}
        if size == 0:
            rows.append((base, "target atom is empty"))
            continue
        # distance from a trivial density, in exact counts
        off = min(inside, size - inside)
        rows.append((base, float(off), 0.0, {"alpha": Fraction(inside, size)}))
    frac = regularity_conclusion(SubsetBitmask(p, n, bits), factor, Fraction(1, 100))
    rows.append(({"check": "regularity-fraction"}, 1.0 - float(frac), 0.0,
                 {"atoms_trivial_fraction": frac}))
    return _records(rows)


def _est_trivdense(cfg: dict) -> int:
    # the factor and one term per point of the regularity check; the target
    # atoms' counts are array reads
    return _factor_terms(cfg, cfg["n"]) + cfg["p"] ** cfg["n"]


def _run_vc2_structure(cfg: dict) -> RunResult:
    p, n, ell, q = cfg["p"], cfg["n"], cfg["ell"], cfg["q"]
    factor = _standard_factor(p, n, ell, q)
    rng = _trial_rng(cfg["seed"])
    labels, bits = _atom_union(rng, factor)
    union = SubsetBitmask(p, n, bits)
    _, symdiff = best_atom_union_approx(union, factor)
    frac = regularity_conclusion(union, factor, Fraction(1, 100))
    rand_mask = SubsetBitmask(p, n, rng.random(p ** n) < 0.5)
    profile, empty = density_profile(rand_mask, factor)
    _, rand_symdiff = best_atom_union_approx(rand_mask, factor)
    dims = vc2_dimension(rand_mask)
    dens = [float(v) for v in profile.values()]
    return _records([
        ({"set": "atom-union"}, float(symdiff), 0.0,
         {"labels": [list(lab) for lab in labels], "union_size": union.size}),
        ({"set": "atom-union", "check": "regularity"}, 1.0 - float(frac), 0.0,
         {"atoms_trivial_fraction": frac}),
        ({"set": "random"}, float(dims), None, {
            "empty_atoms": empty,
            "min_density": min(dens) if dens else None,
            "max_density": max(dens) if dens else None,
            "majority_symdiff": rand_symdiff,
        }),
    ])


def _est_vc2_structure(cfg: dict) -> int:
    # the factor, four atom tallies, then the searches for m = 1 and m = 2, each a
    # shift table and, as a random set has both witnesses, the cover block
    # it stops in: one row for m = 1, and for m = 2 a full block of
    # COVER_BLOCK // N of the (N - 1)(N - 2) / 2 rows
    size = cfg["p"] ** cfg["n"]
    rows = min(max(1, COVER_BLOCK // size), (size - 1) * (size - 2) // 2)
    return _factor_terms(cfg, cfg["n"]) + 4 * size + 2 * size ** 2 + size + rows * size


def _run_inverse_oracle(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]

    def check(rng, i):
        form = SymmetricForm.from_array(p, _symmetric_array(rng, p, n))
        with_linear = i == cfg["trials"] - 1
        r = GroupVector(p, _label(rng, p, n)) if with_linear else None
        f = GroupFunction.quadratic_phase(form, r)
        best_form, best_r, value = max_quadratic_correlation(f, include_linear=with_linear)
        # the search maximizes |E f(x) w^(x.Mx + r.x)|, so the recovered
        # phase multiplies f back to a constant
        prod = f.values * GroupFunction.quadratic_phase(best_form, best_r).values
        return [({"with_linear": with_linear, "check": "correlation"}, 1.0 - value, tol),
                ({"with_linear": with_linear, "check": "constant-phase"},
                 float(np.max(np.abs(prod - prod.flat[0]))), tol)]
    return _trials(cfg, check)


def _est_inverse_oracle(cfg: dict) -> int:
    """Per trial, one q-value entry per form and point; the last trial adds
    the batched transform of every form's table."""
    p, n = cfg["p"], cfg["n"]
    coeffs = p ** (n * (n + 1) // 2)
    size = p ** n
    return coeffs * size * (cfg["trials"] + p * n)


# ---------------------------------------------------------------------------
# counting identities
# ---------------------------------------------------------------------------

def _run_counting_binary(cfg: dict) -> RunResult:
    p, n, ell, tol = cfg["p"], cfg["n"], cfg["ell"], cfg["tol"]
    linear = _standard_factor(p, n, ell, 0)
    nu, nv = cfg["parts"]
    draws, codes, fs = [], [], []  # per trial: count, identity error, density deviation
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        bits = rng.random(p ** n) < 0.5
        edges = frozenset((u, v) for u in range(nu) for v in range(nv)
                          if rng.random() < 0.5)
        graph = PatternHypergraph((nu, nv), edges)
        cosets = _label_codes(rng, p, [ell] * (nu + nv))
        u_codes, v_codes = cosets[:nu], cosets[nu:]
        ind = GroupFunction(p, n, bits.astype(np.float64))
        coind = GroupFunction(p, n, (~bits).astype(np.float64))
        grid = FunctionGrid.edge_select(graph, ind, coind)
        t_val = t_bipartite(graph, linear, u_codes, v_codes, grid)
        count = witness_count_bipartite(graph, linear, u_codes, v_codes, bits)
        norm = bipartite_normalization(graph, linear)
        # density product; the measured per-pair uniformity comes in one batch
        prod = 1.0
        for u in range(nu):
            for v in range(nv):
                ctx = LocalContext2(linear, (u_codes[u], v_codes[v]))
                alpha = float(bits[ctx.target_indices()].mean())
                prod *= alpha if (u, v) in edges else 1.0 - alpha
                codes.append(ctx.code)
                fs.append(_indicator_minus(p, n, bits, alpha))
        draws.append((count, abs(t_val.real * norm - count), abs(t_val.real - prod)))
    pairs = nu * nv
    norms = iter(local_u2_norms(linear, codes, fs))

    def rows(count, identity_err, delta):
        eps_meas = max(itertools.islice(norms, pairs))
        return [({"check": "witness-identity"}, identity_err, tol * max(1.0, float(count)),
                 {"count": count}),
                ({"check": "density-product"}, delta, None, {
                    "eps_measured": eps_meas,
                    "bound_linear_in_pairs": pairs * eps_meas,
                    "bound_exponential": (2 ** pairs - 1) * eps_meas,
                    "within_linear": delta <= pairs * eps_meas + tol,
                    "within_exponential": delta <= (2 ** pairs - 1) * eps_meas + tol,
                })]
    return _rows(cfg, (rows(*d) for d in draws))


def _est_counting_binary(cfg: dict) -> int:
    # per trial: the witness count and the operator each take a sum table
    # per pair and coset^nv b-tuples per a-vertex's coset; and a local U^2
    # norm per pair
    coset = cfg["p"] ** (cfg["n"] - cfg["ell"])
    nu, nv = cfg["parts"]
    per_trial = (2 * (coset ** (nv + 1) * nu + coset ** 2 * nu * nv)
                 + _local_u2_terms(cfg, cfg["n"], nu * nv))
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
                    yield PatternHypergraph((su, sv, sw), edges)


def _run_counting_ternary(cfg: dict) -> RunResult:
    p, n, ell, q, tol = cfg["p"], cfg["n"], cfg["ell"], cfg["q"], cfg["tol"]
    factor = _standard_factor(p, n, ell, q)
    _, bits = _atom_union(_trial_rng(cfg["seed"]), factor)
    ind = GroupFunction(p, n, bits.astype(np.float64))
    coind = GroupFunction(p, n, (~bits).astype(np.float64))
    patterns = [({"parts": list(g.parts), "edges": sorted(g.edges)},
                 _nondegenerate(_trial_rng(cfg["seed"], gi), factor, g))
                for gi, g in enumerate(_ternary_graphs(cfg["max_part"]))]
    ctxs = [ctx for _, ctx in patterns if not isinstance(ctx, str)]
    # the operators in one contraction
    grids = [FunctionGrid.edge_select(c.graph, ind, coind) for c in ctxs]
    t_vals = iter([v.real for v in t_ternaries(ctxs, grids)])
    # every triple's direction codes and target atom, by array operations,
    # and every triple's norm in one contraction, of 1_A - alpha on its target
    codes = np.concatenate([c.triples() for c in ctxs] or [np.zeros((0, 6), dtype=np.int64)])
    targets = sigma3_codes(factor, codes).tolist()
    sizes = factor.atom_sizes
    alphas = (np.bincount(factor._codes, weights=bits, minlength=sizes.size)
              / np.maximum(sizes, 1)).tolist()
    balanced = {t: _indicator_minus(p, n, bits, alphas[t]) for t in dict.fromkeys(targets)}
    norms = local_u3_norms(factor, codes, [balanced[t] for t in targets])
    counts = iter(witness_counts_ternary(ctxs, bits))
    rows, end = [], 0
    for base, ctx in patterns:
        if isinstance(ctx, str):
            rows.append((base, ctx))
            continue
        graph, t_val, count = ctx.graph, next(t_vals), next(counts)
        norm = ternary_normalization(ctx)
        rows.append((base | {"check": "witness-identity"}, abs(t_val * float(norm) - count),
                     tol * max(1.0, float(count)), {"count": count}))
        start, end = end, end + math.prod(graph.parts)
        mine = targets[start:end]
        if not sizes[mine].all():
            rows.append((base, "target atom is empty"))
            continue
        m = max(graph.nu, graph.nv, graph.nw)
        eps_meas = max([0.0] + norms[start:end])
        prod = math.prod(alphas[t] if e in graph.edges else 1.0 - alphas[t]
                         for t, e in zip(mine, graph.all_tuples()))
        delta = abs(t_val - prod)
        # the product-of-densities approximation carries a rank error term
        # on top of the norm term, so its deviation is reported, not asserted
        heuristic = 3.0 * eps_meas * m ** 3
        rows.append((base | {"check": "density-product"}, delta, None,
                     {"eps_measured": eps_meas, "m": m, "norm_term_bound": heuristic,
                      "within_norm_term": delta <= heuristic + 1e-6}))
    return _records(rows)


def _est_counting_ternary(cfg: dict) -> int:
    # per pattern: the witness count's head join, the operator with one
    # computed slot per W-vertex, and one local U^3 norm per triple. The
    # join pads every atom of a block to the widest one: each head tests
    # every padded candidate of each kept row, an x head once against its
    # atom's size and a y head against the su x's, keeping the real
    # members and a p^-q share per y test, and each kept row tests every
    # padded z_w against its su + sv masks (counted once) and its su sv
    # membership sums. The operator and the witness count take one mask
    # call per pair place of a shape, the norms three over every triple; a
    # pattern is live when some draw names only nonempty atoms
    n = cfg["n"]
    smean, _, widest = _atom_moments(cfg["p"], n, cfg["ell"], cfg["q"])
    share = _kept_share(cfg, 1)
    norm = _local_terms(cfg, n, "norm")
    nonempty = cfg["p"] ** (n - cfg["ell"] - cfg["q"]) / smean
    shapes = {parts: (1 << math.prod(parts))
              * (1 - (1 - nonempty ** sum(parts)) ** ASSIGNMENT_ATTEMPTS)
              for parts in itertools.product(range(1, cfg["max_part"] + 1), repeat=3)}
    triples = sum(live * math.prod(parts) for parts, live in shapes.items())
    total = int(3 * _mask_terms(cfg, n, triples))
    for (su, sv, sw), live in shapes.items():
        kept, witness = 1.0, 0.0
        for _ in range(su):
            witness += kept * widest
            kept *= smean
        for _ in range(sv):
            witness += kept * widest * su
            kept *= smean * share ** su
        witness += kept * sw * widest * (1 + su * sv)
        operator = _ternary_terms(cfg, n, ys=sv, slots=sw)
        places = su * sv + su * sw + sv * sw
        total += int(live * (witness + operator + su * sv * sw * norm)
                     + 2 * places * _mask_terms(cfg, n, live))
    return total + _factor_terms(cfg, n)


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
