"""Runners of the sparsity, small-mean-square and structure checks, the
inverse oracle, and the binary and ternary counting identities."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from ..combinatorics import (
    COVER_BLOCK,
    best_atom_union_approx,
    density_profile,
    regularity_conclusion,
    vc2_dimension,
)
from ..factor import QuadraticFactor, degenerate_directions, sigma3_codes
from ..fpn_core import space
from ..local_norms import local_u2_norms, local_u3_norms
from ..pattern_ops import (
    PatternHypergraph,
    bipartite_normalization,
    t_bipartite,
    t_ternaries,
    ternary_normalization,
    weighted_ternary_densities,
    witness_count_bipartite,
    witness_counts_ternary,
)
from ..spectral import max_quadratic_correlation, quadratic_phase
from .shared import (
    ASSIGNMENT_ATTEMPTS,
    RunResult,
    _atom_moments,
    _atom_stats,
    _direction_codes,
    _factor_terms,
    _finite,
    _indicator_minus,
    _kept_share,
    _label,
    _label_codes,
    _local_terms,
    _local_u2_terms,
    _mask_terms,
    _nondegenerate,
    _per_n_terms,
    _records,
    _rows,
    _sorted_median,
    _standard_factor,
    _symmetric_array,
    _ternary_terms,
    _trend,
    _trial_rng,
    _trials,
)

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
            norm = local_u3_norms(factor, [ctx.codes], [_indicator_minus(bits, alpha)])[0]
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
    f = _finite(f_raw)
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
        "l2_norm": float(np.sqrt(np.mean(np.abs(f) ** 2))),
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
    frac = regularity_conclusion(bits, factor, Fraction(1, 100))
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
    labels, union = _atom_union(rng, factor)
    _, symdiff = best_atom_union_approx(union, factor)
    frac = regularity_conclusion(union, factor, Fraction(1, 100))
    rand_bits = rng.random(p ** n) < 0.5
    profile, empty = density_profile(rand_bits, factor)
    _, rand_symdiff = best_atom_union_approx(rand_bits, factor)
    dims = vc2_dimension(rand_bits, p, n)
    dens = [float(v) for v in profile.values()]
    return _records([
        ({"set": "atom-union"}, float(symdiff), 0.0,
         {"labels": [list(lab) for lab in labels], "union_size": int(union.sum())}),
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
        form = _symmetric_array(rng, p, n)
        with_linear = i == cfg["trials"] - 1
        r = _label(rng, p, n) if with_linear else None
        f = quadratic_phase(p, form, r)
        best_form, best_r, value = max_quadratic_correlation(f, p, n, include_linear=with_linear)
        # the search maximizes |E f(x) w^(x.Mx + r.x)|, so the recovered
        # phase multiplies f back to a constant
        prod = f * quadratic_phase(p, best_form, best_r)
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

def _edge_grid(graph: PatternHypergraph, ind: np.ndarray, coind: np.ndarray) -> dict:
    """The f|g grid of a pattern: the table ind in every edge's slot and
    coind in every other slot, one array object each, so that the ternary
    contraction shares the slots that hold the same one."""
    return {t: ind if t in graph.edges else coind for t in graph.all_tuples()}


def _run_counting_binary(cfg: dict) -> RunResult:
    p, n, ell, tol = cfg["p"], cfg["n"], cfg["ell"], cfg["tol"]
    linear = _standard_factor(p, n, ell, 0)
    nu, nv = cfg["parts"]
    quotient = space(p, ell)  # adds a coset pair (a1, a2) to its target a1 + a2
    draws, codes, fs = [], [], []  # per trial: count, identity error, density deviation
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        bits = rng.random(p ** n) < 0.5
        edges = frozenset((u, v) for u in range(nu) for v in range(nv)
                          if rng.random() < 0.5)
        graph = PatternHypergraph((nu, nv), edges)
        cosets = _label_codes(rng, p, [ell] * (nu + nv))
        u_codes, v_codes = cosets[:nu], cosets[nu:]
        grid = _edge_grid(graph, bits.astype(np.float64), (~bits).astype(np.float64))
        t_val = t_bipartite(graph, linear, u_codes, v_codes, grid)
        count = witness_count_bipartite(graph, linear, u_codes, v_codes, bits)
        norm = bipartite_normalization(graph, linear)
        # density product; the measured per-pair uniformity comes in one batch
        prod = 1.0
        for u in range(nu):
            for v in range(nv):
                code = int(quotient.add(u_codes[u], v_codes[v]))
                alpha = float(bits[linear._members_by_code[code]].mean())
                prod *= alpha if (u, v) in edges else 1.0 - alpha
                codes.append(code)
                fs.append(_indicator_minus(bits, alpha))
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
    ind, coind = bits.astype(np.float64), (~bits).astype(np.float64)
    patterns = [({"parts": list(g.parts), "edges": sorted(g.edges)},
                 _nondegenerate(_trial_rng(cfg["seed"], gi), factor, g))
                for gi, g in enumerate(_ternary_graphs(cfg["max_part"]))]
    ctxs = [ctx for _, ctx in patterns if not isinstance(ctx, str)]
    # the operators in one contraction
    grids = [_edge_grid(c.graph, ind, coind) for c in ctxs]
    t_vals = iter([v.real for v in t_ternaries(ctxs, grids)])
    # every triple's direction codes and target atom, by array operations,
    # and every triple's norm in one contraction, of 1_A - alpha on its target
    codes = np.concatenate([c.triples() for c in ctxs] or [np.zeros((0, 6), dtype=np.int64)])
    targets = sigma3_codes(factor, codes).tolist()
    sizes = factor.atom_sizes
    alphas = (np.bincount(factor._codes, weights=bits, minlength=sizes.size)
              / np.maximum(sizes, 1)).tolist()
    balanced = {t: _indicator_minus(bits, alphas[t]) for t in dict.fromkeys(targets)}
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
