"""Runners of the exponential sum bounds and the equidistribution trends:
quadratic and bilinear phase averages, atom and level-set sizes,
configuration averages and extension counts over atom triples, and the
local U^2 norm of balanced atoms."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..factor import bilinear_level_sizes, level_masks, mu_weight
from ..fpn_core import bilinear_char_sums, count_terms, quad_char_sums, rank_mod_p, space
from ..local_norms import LocalContext3, local_u2_norms
from .shared import (
    RunResult,
    _blockwise,
    _indicator_minus,
    _kept_share,
    _label,
    _level_terms,
    _local_u2_terms,
    _mask_terms,
    _nondegenerate,
    _per_n_terms,
    _sorted_median,
    _symmetric_array,
    _trend,
    _trial_rng,
)

# ---------------------------------------------------------------------------
# exponential sums and equidistribution trends
# ---------------------------------------------------------------------------

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
            f, e = _indicator_minus(bits, alpha), cosets.index_of(lab[:ell])
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
