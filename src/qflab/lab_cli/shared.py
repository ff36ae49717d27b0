"""What every runner shares: trial streams, records, draws, the standard
factor, and the term counts that estimators add up.

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
from typing import Callable, NamedTuple

import numpy as np

from ..errors import ConfigError, DegenerateContext
from ..factor import QuadraticFactor, direction_codes, new_linear_factor, new_quadratic_factor
from ..local_norms import LocalContext3
from ..pattern_ops import PatternHypergraph, TernaryContext
from ..spectral import DERIVATIVE_BLOCK_ENTRIES
from .config import STANDARD_MAX_Q
from .reporting import make_degenerate, make_point, make_trial, trend_summary

CONTEXT_ATTEMPTS = 200  # random direction tuples tried for a nondegenerate one
ASSIGNMENT_ATTEMPTS = 100  # random label assignments tried per pattern shape


class RunResult(NamedTuple):
    trials: list
    trend: dict | None = None


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
    """A stack of drawn value tables, checked finite once where it enters
    the kernels."""
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


def _bounded_fn(rng: np.random.Generator, p: int, n: int) -> np.ndarray:
    """One bounded table on F_p^n."""
    return _finite(_bounded_values(_bounded_draw(rng, 1, p ** n)[0]))


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


def _symmetric_array(rng: np.random.Generator, p: int, n: int) -> np.ndarray:
    raw = rng.integers(0, p, size=(n, n))
    return (raw + raw.T) % p


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


def _indicator_minus(bits: np.ndarray, alpha: float) -> np.ndarray:
    """The table of 1_A - alpha for the set A of the bool array bits."""
    return bits.astype(np.float64) - alpha


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
