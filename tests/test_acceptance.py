"""End-to-end acceptance: seven checks, one pass/fail line each.

Two of the seven fail by design and their failure messages explain the
measurement behind that:

 - the exhaustive-facts check asserts a union of two cosets never
   shatters two directions, but a two-coset union in F_3^4 measurably
   does (the corrected bound floor(log2 k) + 1 is what the registered
   coset-union-vc experiment verifies, and it passes);
 - the counting-margin check asserts the product-of-densities
   approximation within a norm-deviation term, but at the ranks
   reachable on 27 points the error carries a constant that the term
   does not cover, so a few labelings land far outside it even with the
   measured deviation at zero.

Timing lines are printed per check; budgets are reported, not enforced.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from qflab.combinatorics import (
    SubsetBitmask,
    has_k_ip,
    has_m_ip2,
    vc_dimension,
)
from qflab.errors import DegenerateContext
from qflab.factor import (
    direction_codes,
    mu_weight_matrix,
    new_linear_factor,
    new_quadratic_factor,
    sigma3_codes,
)
from qflab.fpn_core import SymmetricForm, rank_mod_p, space
from qflab.lab_cli.experiments import REGISTRY, run_experiment
from qflab.lab_cli.reporting import canonical_json
from qflab.local_norms import (
    LocalContext2,
    LocalContext3,
    local_u2_inner,
    local_u2_norms,
)
from qflab.pattern_ops import (
    FunctionGrid,
    PatternHypergraph,
    TernaryContext,
    bipartite_normalization,
    constant_codes,
    t_bipartite,
    t_ternary,
    ternary_normalization,
    witness_count_bipartite,
    witness_count_ternary,
)
from qflab.spectral import (
    GroupFunction,
    fourier_transform,
    inverse_transforms,
    max_quadratic_correlation,
    u2_inner,
    u3_inner_naive,
    u3_norms,
)

TOL = 1e-9


def _bounded(p, n, rng):
    vals = rng.standard_normal(p ** n) + 1j * rng.standard_normal(p ** n)
    vals = vals / np.maximum(np.abs(vals), 1.0)
    return GroupFunction(p, n, vals)


def _support_triples_consistent(ctx):
    """Every (x, y, z) with nonzero pair weights sums into the target atom;
    hence the inner product only reads its arguments there."""
    factor = ctx.factor
    a1, a2, a3, b12, b13, b23 = ctx.codes
    members = [factor._members_by_code[a] for a in (a1, a2, a3)]
    codes = factor._codes[factor.space.sum_grid3(*members)]
    mu12, mu13, mu23 = (mu_weight_matrix(factor, b, row, col)
                        for b, row, col in ((b12, a1, a2), (b13, a1, a3), (b23, a2, a3)))
    mask = ((mu12[:, :, None] != 0.0)
            & (mu13[:, None, :] != 0.0)
            & (mu23[None, :, :] != 0.0))
    return bool((codes[mask] == sigma3_codes(factor, ctx.codes)[0]).all())


def _coset_code(rng, ell):
    """The code of a coset label of F_3^ell drawn from rng."""
    return int(rng.integers(0, 3, ell) @ space(3, ell).powers)


def _mixed_factor():
    lin = new_linear_factor(3, 3, [(1, 0, 0)])
    return new_quadratic_factor(lin, [np.eye(3, dtype=np.int64)])


def _indicator_pair(rng, N):
    mask = rng.random(N) < 0.5
    p, n = 3, 3
    ind = GroupFunction.indicator(p, n, np.nonzero(mask)[0])
    indc = GroupFunction.indicator(p, n, np.nonzero(~mask)[0])
    return mask, ind, indc


def test_exact_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1000)

    # transform pair and fourth-moment identity, 100 random functions
    for _ in range(100):
        f = GroupFunction(3, 4, rng.standard_normal(81) + 1j * rng.standard_normal(81))
        spec = fourier_transform(f)
        assert abs(np.sqrt(np.sum(np.abs(spec) ** 2)) - f.l2_norm()) <= TOL
        back = inverse_transforms(spec[None], 3, 4)[0]
        assert np.max(np.abs(back - f.values)) <= TOL
        fourth = np.sum(np.abs(spec) ** 4)
        assert abs(u2_inner(f, f, f, f) - fourth) <= TOL * max(1.0, fourth)

    # spectral eighth power against the physical-space loop, 20 random functions
    for _ in range(20):
        f = _bounded(3, 3, rng)
        assert abs(u3_norms(f.values, 3, 3) ** 8 - u3_inner_naive([f] * 8).real) <= TOL

    # frequency-side coset-local square norm against the binary contraction
    for ell in (1, 2):
        lin = new_linear_factor(3, 3, [tuple(int(i == j) for j in range(3))
                                       for i in range(ell)])
        for _ in range(10):
            ctx = LocalContext2(lin, (_coset_code(rng, ell), _coset_code(rng, ell)))
            f = _bounded(3, 3, rng)
            assert abs(local_u2_norms(lin, [ctx.code], [f])[0] ** 4
                       - local_u2_inner(ctx, f, f, f, f).real) <= TOL

    # target-atom consistency, exhaustive over every direction tuple
    t_sigma = time.perf_counter()
    factor = _mixed_factor()
    degenerate = 0
    for d in direction_codes(factor, list(itertools.product(range(3), repeat=9))):
        try:
            ctx = LocalContext3(factor, d)
        except DegenerateContext:
            degenerate += 1
            continue
        assert _support_triples_consistent(ctx)
    sigma_secs = time.perf_counter() - t_sigma

    # witness-count normalizations, 20 random sets per shape
    lin2 = new_linear_factor(3, 3, [(1, 0, 0), (0, 1, 0)])
    for seed in range(20):
        trial = np.random.default_rng((2000, seed))
        edges = frozenset((u, v) for u in range(2) for v in range(2)
                          if trial.random() < 0.5)
        graph = PatternHypergraph((2, 2), edges)
        u_codes = [_coset_code(trial, 2) for _ in range(2)]
        v_codes = [_coset_code(trial, 2) for _ in range(2)]
        mask, ind, indc = _indicator_pair(trial, 27)
        val = t_bipartite(graph, lin2, u_codes, v_codes,
                          FunctionGrid.edge_select(graph, ind, indc))
        count = witness_count_bipartite(graph, lin2, u_codes, v_codes, mask)
        scaled = val.real * bipartite_normalization(graph, lin2)
        assert round(scaled) == count and abs(scaled - count) <= 1e-6 * max(1, count)

    d3 = direction_codes(factor, [(0, 1, 1, 2, 2, 1, 0, 0, 0)])[0]
    for seed in range(20):
        trial = np.random.default_rng((3000, seed))
        edges = frozenset(t for t in itertools.product(range(2), repeat=3)
                          if trial.random() < 0.5)
        graph = PatternHypergraph((2, 2, 2), edges)
        ctx = TernaryContext(graph, factor, constant_codes(graph, d3))
        mask, ind, indc = _indicator_pair(trial, 27)
        val = t_ternary(ctx, FunctionGrid.edge_select(graph, ind, indc))
        count = witness_count_ternary(ctx, mask)
        scaled = val.real * float(ternary_normalization(ctx))
        assert round(scaled) == count and abs(scaled - count) <= 1e-6 * max(1, count)

    print(f"exact identities ok: target-atom sweep {sigma_secs:.1f}s "
          f"({degenerate} degenerate), total {time.perf_counter() - t0:.1f}s (budget 120s)")


INEQUALITY_EXPERIMENTS = [
    "gcs", "local-gcs", "triangle", "local-triangle", "u3-dominates",
    "ap3-bound", "ap4-bound", "expsum-bound", "bilsum-bound",
    "control-ip", "control-ip-local", "control-ip2",
]


def test_inequality_suites(reports):
    t0 = time.perf_counter()
    for name in INEQUALITY_EXPERIMENTS:
        rep = reports(name)
        assert rep["verdict"] == "pass", f"{name} failed: {rep['aggregate']}"
        assert rep["aggregate"]["pass_rate"] == 1.0, name

    # pair-grid control: the average over prescribed cosets never exceeds
    # the smallest pairwise coset-local square norm
    lin = new_linear_factor(3, 3, [(1, 0, 0), (0, 1, 0)])
    graph = PatternHypergraph((2, 2))
    for seed in range(10):
        rng = np.random.default_rng((4000, seed))
        u_codes = [_coset_code(rng, 2) for _ in range(2)]
        v_codes = [_coset_code(rng, 2) for _ in range(2)]
        grid = FunctionGrid({(u, v): _bounded(3, 3, rng)
                             for u in range(2) for v in range(2)})
        val = abs(t_bipartite(graph, lin, u_codes, v_codes, grid))
        pairs = [(u, v) for u in range(2) for v in range(2)]
        best = min(local_u2_norms(
            lin, [LocalContext2(lin, (u_codes[u], v_codes[v])).code for u, v in pairs],
            [grid[pair] for pair in pairs]))
        assert val <= best + TOL, (seed, val, best)

    print(f"inequality suites ok in {time.perf_counter() - t0:.1f}s (budget 300s)")


def test_exhaustive_combinatorial_facts():
    t0 = time.perf_counter()
    sp = space(3, 3)
    digits = sp.digits.astype(np.int64)

    # every atom of every full-rank single-form factor on 27 points stays
    # below the second shattering level
    full_rank_forms = 0
    for entries in itertools.product(range(3), repeat=6):
        m = np.zeros((3, 3), dtype=np.int64)
        m[0, 0], m[1, 1], m[2, 2] = entries[:3]
        m[0, 1] = m[1, 0] = entries[3]
        m[0, 2] = m[2, 0] = entries[4]
        m[1, 2] = m[2, 1] = entries[5]
        if rank_mod_p(m, 3) != 3:
            continue
        full_rank_forms += 1
        vals = np.einsum("xi,ij,xj->x", digits, m, digits) % 3
        for level in range(3):
            mask = SubsetBitmask(3, 3, vals == level)
            if mask.size:
                assert has_m_ip2(mask, 2) is None, (entries, level)

    # the zero level of the full-rank form on 81 points shatters two
    # directions, with a certificate that replays
    sp4 = space(3, 4)
    d4 = sp4.digits.astype(np.int64)
    quadric = SubsetBitmask(3, 4, (d4 * d4).sum(axis=1) % 3 == 0)
    cert = has_k_ip(quadric, 2)
    assert cert is not None and cert.replay(quadric)
    assert not cert.replay(SubsetBitmask(3, 4, ~quadric.bits))

    # a union of two cosets should then stay at level one
    span = [(0, 0, a, b) for a in range(3) for b in range(3)]
    idx = [sp4.index_of(v) for v in span]
    bits = np.zeros(81, dtype=bool)
    for rep in ((0, 0, 0, 0), (1, 0, 0, 0)):
        ri = sp4.index_of(rep)
        for i in idx:
            bits[sp4.add(ri, i)] = True
    union = SubsetBitmask(3, 4, bits)
    measured = vc_dimension(union)
    witness = has_k_ip(union, 2)
    print(f"exhaustive facts: {full_rank_forms} full-rank forms swept, "
          f"two-coset union shattering dimension = {measured}, "
          f"{time.perf_counter() - t0:.1f}s (budget 600s)")
    assert measured <= 1, (
        f"two-coset union shatters {measured} directions "
        f"(witness a={witness.a}, b={witness.b}, replay="
        f"{witness.replay(union)}); the k-coset bound floor(log2 k) + 1 "
        f"= 2 holds instead and is verified by the coset-union-vc "
        f"experiment")


TREND_EXPERIMENTS = [
    "atom-sizes", "bil-level-sizes", "genbilsums-trend",
    "atom-u2-uniformity", "control-ip2-local-trend",
]


def test_rank_trend_checks(reports):
    t0 = time.perf_counter()
    for name in TREND_EXPERIMENTS:
        rep = reports(name)
        trend = rep["aggregate"]["trend"]
        assert rep["verdict"] == "trend-ok", f"{name}: {trend}"
        assert trend["non_increasing_within_wobble"], name

    sparse = reports("sparse-uniform")
    assert sparse["verdict"] == "pass"
    strend = sparse["aggregate"]["trend"]
    assert strend["non_increasing_within_wobble"], strend
    print(f"rank trends ok in {time.perf_counter() - t0:.1f}s (budget 900s)")


def test_inverse_oracle_recovery(reports):
    t0 = time.perf_counter()
    assert reports("inverse-oracle")["verdict"] == "pass"
    rng = np.random.default_rng(5000)
    cases = [np.eye(3, dtype=np.int64)]
    for _ in range(3):
        raw = rng.integers(0, 3, size=(3, 3))
        cases.append((raw + raw.T) % 3)
    for m in cases:
        form = SymmetricForm.from_array(3, m)
        f = GroupFunction.quadratic_phase(form)
        best, _, value = max_quadratic_correlation(f)
        assert abs(value - 1.0) <= TOL
        prod = f.values * GroupFunction.quadratic_phase(best).values
        assert np.max(np.abs(prod - prod[0])) <= TOL
    print(f"inverse oracle ok in {time.perf_counter() - t0:.1f}s (budget 60s)")


def test_counting_margins(reports):
    t0 = time.perf_counter()
    rep = reports("counting-ternary")
    hard = [t for t in rep["trials"] if t["verdict"] in ("pass", "fail")]
    assert hard and all(t["verdict"] == "pass" for t in hard)
    points = [t for t in rep["trials"] if t["verdict"] == "observed"]
    assert len(points) == len(hard) == 318
    violations = [t for t in points if not t["detail"]["within_norm_term"]]
    print(f"counting margins: {len(points)} labelings, "
          f"{len(violations)} outside the deviation term, "
          f"{time.perf_counter() - t0:.1f}s (budget 600s)")
    assert not violations, (
        f"{len(violations)} of {len(points)} labelings fall outside the "
        f"deviation bound; first: trial {violations[0]['trial']}, "
        f"difference {violations[0]['observed']}, detail "
        f"{violations[0]['detail']} (the deviation measured on unions of "
        f"atoms is exactly zero, so the bound cannot absorb the "
        f"finite-rank error of the configuration measure)")


def test_deterministic_reports(reports):
    t0 = time.perf_counter()
    for name in sorted(REGISTRY):
        cached = canonical_json(reports(name))
        assert canonical_json(run_experiment(name)) == cached, name
    print(f"determinism ok for {len(REGISTRY)} experiments in "
          f"{time.perf_counter() - t0:.1f}s")
