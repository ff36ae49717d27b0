"""Runners of the shatter-dimension checks (atom-vc, atom-vc2,
coset-union-vc) and of the pattern-operator controls, global and local."""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from ..combinatorics import (
    COVER_BLOCK,
    MAX_IP_K,
    has_k_ip,
    vc2_dimension,
    vc_dimension,
)
from ..errors import ConfigError
from ..factor import new_linear_factor, new_quadratic_factor
from ..fpn_core import nullspace_mod_p, rank_mod_p, space
from ..local_norms import local_u2_norms, local_u3_norms
from ..pattern_ops import t_ip2_local, t_ip2s, t_ip_local, t_ips
from ..spectral import u2_norms, u3_norms
from .shared import (
    RunResult,
    _bounded_fn,
    _label_codes,
    _local_terms,
    _local_u2_terms,
    _mask_terms,
    _nondegenerate,
    _per_n_terms,
    _records,
    _rows,
    _standard_factor,
    _table_trials,
    _trend,
    _trial_rng,
    _u2_norms_terms,
    _u3_norms_terms,
)

# ---------------------------------------------------------------------------
# shatter-dimension experiments
# ---------------------------------------------------------------------------

def _indicator(p: int, n: int, indices) -> np.ndarray:
    """The membership table of the points of the given indices."""
    bits = np.zeros(p ** n, dtype=bool)
    bits[indices] = True
    return bits


def _run_atom_vc(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]
    factor = _standard_factor(p, n, 0, 1)
    bits = _indicator(p, n, factor.atom_indices(tuple(cfg["atom_label"])))
    cert = has_k_ip(bits, p, n, 2)
    ok = cert is not None and cert.replay(bits)
    detail = {"atom_size": int(bits.sum()), "rank": factor.rank}
    if cert is not None:
        detail["witness_a"] = [list(v) for v in cert.elements()["a"]]
        detail["witness_b"] = [list(v) for v in cert.elements()["b"]]
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
                bits = _indicator(p, n, factor.atom_indices(lab))
                rows.append(({"form": fi, "ell": ell, "atom": list(lab)},
                             float(vc2_dimension(bits, p, n)), 1.0,
                             {"atom_size": int(bits.sum()), "rank": factor.rank}))
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
        bits = _indicator(p, n, sp.add(starts[:, None], span).ravel())
        measured = vc_dimension(bits, p, n)
        stated = math.ceil(math.log2(k)) if k > 1 else 0
        corrected = math.floor(math.log2(k)) + 1
        rows.append(({"reps": [list(r) for r in reps]}, float(measured), float(corrected),
                     {"k": k, "stated_bound": stated, "stated_bound_ok": measured <= stated,
                      "union_size": int(bits.sum())}))
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
        d = vc_dimension(_indicator(p, len(dual), np.array(reps) @ dual.T % p
                                    @ space(p, len(dual)).powers), p, len(dual))
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
    cosets = space(p, linear.ell)  # targets a1 + a2; print codes as labels
    draws = []  # per trial: coset pair, the grid's functions, observed
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        pair = _label_codes(rng, p, [linear.ell] * 2)
        grid = {(j, s): _bounded_fn(rng, p, n) for j in range(1, m + 1) for s in range(1 << m)}
        draws.append((pair, list(grid.values()), abs(t_ip_local(m, linear, pair, grid))))
    slots = m << m
    norms = local_u2_norms(linear, np.repeat([cosets.add(*d[0]) for d in draws], slots),
                           [g for d in draws for g in d[1]])
    return _rows(cfg, [[({"d": [cosets.coords_of(c) for c in pair]}, obs,
                         min(norms[slots * i:slots * (i + 1)]) + cfg["tol"])]
                       for i, (pair, _, obs) in enumerate(draws)])


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
        m = cfg["m"]
        # one array object in every slot, so the W-slots share one z-average
        grid = dict.fromkeys(itertools.product(range(1, m + 1), range(1, m + 1),
                                               range(1 << (m * m))), f)
        obs = abs(t_ip2_local(m, factor, ctx.codes, grid))
        nrm = local_u3_norms(factor, [ctx.codes], [f])[0]
        excess = max(0.0, (obs - nrm) / max(1.0, nrm))
        return [(base, excess, None, {"n": factor.n, "operator": obs, "norm": nrm})], excess
    return _trend(cfg, per_n)


def _est_control_ip2_local(cfg: dict) -> int:
    # the diagonal grid gives every W-vertex one z-average: one computed slot;
    # the operator and the norm each build the direction's three masks
    return _per_n_terms(cfg, lambda n, *_: int(
        _local_terms(cfg, n, "ip2") + _local_terms(cfg, n, "norm") + 6 * _mask_terms(cfg, n, 1)))
