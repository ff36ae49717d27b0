"""Coset and atom localized box norms against naive evaluation."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from qflab import local_norms
from qflab.errors import CapExceeded, DegenerateContext
from qflab.factor import (
    DirectionTuple2,
    DirectionTuple3,
    QuadraticFactor,
    mu_weight_matrix,
    new_linear_factor,
    new_quadratic_factor,
)
from qflab.fpn_core import GroupVector
from qflab.local_norms import (
    LocalContext2,
    LocalContext3,
    local_u2_fourth_via_spectrum,
    local_u2_inner,
    local_u2_norm,
    local_u3_dominates_check,
    local_u3_inner,
    local_u3_inner_naive,
    local_u3_norm,
    support_triples_consistent,
)
from qflab.spectral import GroupFunction, u2_norm, u3_inner


def _random_f(p, n, seed, bounded=True):
    rng = np.random.default_rng(seed)
    N = p ** n
    vals = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    if bounded:
        vals = vals / np.maximum(np.abs(vals), 1.0)
        return GroupFunction(p, n, vals, one_bounded=True)
    return GroupFunction(p, n, vals)


def _mixed_factor():
    lin = new_linear_factor(3, 3, [(1, 0, 0)])
    return new_quadratic_factor(lin, [np.eye(3, dtype=np.int64)])


def _contexts(factor, limit):
    """First few nondegenerate directions, scanning labels in order."""
    width = factor.ell + factor.q
    labels = itertools.product(range(3), repeat=3 * width + 3 * factor.q)
    out = []
    for flat in labels:
        a1 = flat[:width]
        a2 = flat[width:2 * width]
        a3 = flat[2 * width:3 * width]
        rest = flat[3 * width:]
        b12, b13, b23 = rest[:factor.q], rest[factor.q:2 * factor.q], rest[2 * factor.q:]
        try:
            out.append(LocalContext3(
                factor, DirectionTuple3(3, a1, a2, a3, b12, b13, b23)))
        except DegenerateContext:
            continue
        if len(out) == limit:
            return out
    return out


def test_trivial_factor_reduces_to_global_norms():
    lin = new_linear_factor(3, 2, [])
    ctx2 = LocalContext2(lin, DirectionTuple2(3, (), ()))
    f = _random_f(3, 2, seed=1)
    assert local_u2_norm(ctx2, f) == pytest.approx(u2_norm(f), abs=1e-10)

    quad = new_quadratic_factor(lin, [])
    ctx3 = LocalContext3(quad, DirectionTuple3(3, (), (), (), (), (), ()))
    octuple = [_random_f(3, 2, seed=10 + k) for k in range(8)]
    assert local_u3_inner(ctx3, octuple) == pytest.approx(
        u3_inner(octuple), abs=1e-10)


def test_local_u2_inner_matches_explicit_loop():
    lin = new_linear_factor(3, 2, [(1, 2)])
    ctx = LocalContext2(lin, DirectionTuple2(3, (1,), (2,)))
    fs = [_random_f(3, 2, seed=20 + k, bounded=False) for k in range(4)]
    sp = lin.space
    total = 0.0 + 0.0j
    for x0 in ctx.xs:
        for x1 in ctx.xs:
            for y0 in ctx.ys:
                for y1 in ctx.ys:
                    total += (
                        fs[0].values[sp.add(x0, y0)]
                        * np.conj(fs[1].values[sp.add(x0, y1)])
                        * np.conj(fs[2].values[sp.add(x1, y0)])
                        * fs[3].values[sp.add(x1, y1)]
                    )
    expected = total / (ctx.xs.size ** 2 * ctx.ys.size ** 2)
    assert local_u2_inner(ctx, *fs) == pytest.approx(complex(expected), abs=1e-12)


def test_local_u2_fourth_matches_restricted_spectrum():
    lin = new_linear_factor(3, 3, [(1, 1, 0)])
    ctx = LocalContext2(lin, DirectionTuple2(3, (0,), (2,)))
    f = _random_f(3, 3, seed=3)
    fourth = local_u2_norm(ctx, f) ** 4
    assert fourth == pytest.approx(local_u2_fourth_via_spectrum(ctx, f), abs=1e-10)
    # any other shift in the target coset gives the same answer
    other = int(ctx.target_indices()[-1])
    z = GroupVector.from_index(3, 3, other)
    assert fourth == pytest.approx(local_u2_fourth_via_spectrum(ctx, f, z), abs=1e-10)


def test_degenerate_contexts_are_refused():
    # coset x1 = 0 never reaches form value 2, so the atom (0, 2) is empty
    factor = _mixed_factor_2d()
    with pytest.raises(DegenerateContext):
        LocalContext3(factor, DirectionTuple3(3, (0, 2), (0, 0), (0, 0),
                                              (0,), (0,), (0,)))
    # the zero form has no pairs at bilinear level 1
    flat = new_quadratic_factor(new_linear_factor(3, 1, []),
                                [np.zeros((1, 1), dtype=np.int64)])
    with pytest.raises(DegenerateContext):
        LocalContext3(flat, DirectionTuple3(3, (0,), (0,), (0,),
                                            (1,), (0,), (0,)))


def _mixed_factor_2d():
    lin = new_linear_factor(3, 2, [(1, 0)])
    return new_quadratic_factor(lin, [np.eye(2, dtype=np.int64)])


def test_local_u3_inner_matches_naive():
    factor = _mixed_factor()
    rng = np.random.default_rng(7)
    for ctx in _contexts(factor, limit=3):
        octuple = [_random_f(3, 3, seed=int(rng.integers(1 << 30))) for _ in range(8)]
        fast = local_u3_inner(ctx, octuple)
        slow = local_u3_inner_naive(ctx, octuple)
        assert fast == pytest.approx(slow, abs=1e-9)


def test_support_triples_land_in_the_target_atom():
    for ctx in _contexts(_mixed_factor(), limit=5):
        assert support_triples_consistent(ctx)


def test_inner_product_ignores_values_off_the_target_atom():
    ctx = _contexts(_mixed_factor(), limit=1)[0]
    f = _random_f(3, 3, seed=11)
    base = local_u3_inner(ctx, [f] * 8)
    mask = np.ones(27, dtype=bool)
    mask[ctx.target_indices()] = False
    noisy_vals = f.values.copy()
    noisy_vals[mask] += 5.0
    noisy = GroupFunction(3, 3, noisy_vals)
    assert local_u3_inner(ctx, [noisy] * 8) == pytest.approx(base, abs=1e-10)


def test_inner_product_is_linear_in_one_slot():
    ctx = _contexts(_mixed_factor(), limit=1)[0]
    octuple = [_random_f(3, 3, seed=30 + k) for k in range(8)]
    base = local_u3_inner(ctx, octuple)
    scaled = [octuple[0].scale(2.0 + 1.0j)] + octuple[1:]
    assert local_u3_inner(ctx, scaled) == pytest.approx(
        (2.0 + 1.0j) * base, abs=1e-10)
    # an odd-parity slot picks up the conjugate factor
    flipped = octuple[:1] + [octuple[1].scale(2.0 + 1.0j)] + octuple[2:]
    assert local_u3_inner(ctx, flipped) == pytest.approx(
        (2.0 - 1.0j) * base, abs=1e-10)


def test_local_norm_squares_are_nonnegative():
    factor = _mixed_factor()
    f = _random_f(3, 3, seed=41)
    for ctx in _contexts(factor, limit=4):
        assert local_u3_norm(ctx, f) >= 0.0


def test_local_u3_dominates_local_u2_on_linear_factors():
    lin = new_linear_factor(3, 3, [(1, 0, 0)])
    for seed in range(4):
        f = _random_f(3, 3, seed=50 + seed)
        for a1, a2, a3 in [((0,), (0,), (0,)), ((1,), (2,), (1,)), ((2,), (2,), (2,))]:
            u3val, u2val, margin = local_u3_dominates_check(lin, a1, a2, a3, f)
            assert margin >= -1e-9
            assert u3val >= 0.0 and u2val >= 0.0


def test_one_member_tensor_cap_guards_every_ternary_caller(monkeypatch):
    from qflab import spectral
    from qflab.pattern_ops import (
        FunctionGrid,
        LabelAssignment,
        ip2_hypergraph,
        t_ip2,
        t_ip2_local,
        t_ternary,
        weighted_ternary_density,
    )

    factor = _mixed_factor()
    d = DirectionTuple3(3, (0, 1), (1, 2), (2, 1), (0,), (0,), (0,))
    ctx = LocalContext3(factor, d)
    f = _random_f(3, 3, seed=60)
    graph = ip2_hypergraph(1)
    calls = [
        lambda: local_u3_inner(ctx, [f] * 8),
        lambda: t_ip2_local(1, factor, d, FunctionGrid.ip2_diagonal(1, f)),
        lambda: t_ternary(graph, factor, LabelAssignment.constant(graph, d),
                          FunctionGrid.edge_select(graph, f, f)),
        lambda: weighted_ternary_density(ctx, np.ones(27, dtype=bool)),
    ]
    for call in calls:
        call()
    monkeypatch.setattr(local_norms, "TENSOR_CAP", ctx.xs.size * ctx.ys.size * ctx.zs.size - 1)
    for call in calls:
        with pytest.raises(CapExceeded, match=r"^\|x\| \|y\| \|z\| = "):
            call()
    # global IP2 builds no member tensors; its derivative tables are capped
    # at p^(2n) <= NAIVE_CAP instead
    grid = FunctionGrid.ip2_diagonal(2, f)
    t_ip2(2, grid)
    monkeypatch.setattr(spectral, "NAIVE_CAP", f.size ** 2 - 1)
    with pytest.raises(CapExceeded):
        t_ip2(2, grid)


def test_one_grid_cap_guards_every_binary_caller(monkeypatch):
    from qflab.pattern_ops import (
        FunctionGrid,
        PatternHypergraph,
        t_bipartite,
        t_ip,
        t_ip_local,
    )

    lin = new_linear_factor(3, 3, [(1, 0, 0)])
    ctx = LocalContext2(lin, DirectionTuple2(3, (1,), (2,)))
    f = _random_f(3, 3, seed=61)
    graph = PatternHypergraph("bipartite", {"U": 1, "V": 2})
    # 9-point cosets: every sum table and average holds at most 9 x 9
    # entries; the global m = 2 IP holds 27 x 27
    local_calls = [
        lambda: local_u2_inner(ctx, f, f, f, f),
        lambda: t_ip_local(2, lin, ctx.d, FunctionGrid.ip_select(2, f, f)),
        lambda: t_bipartite(graph, lin, [(0,)], [(1,), (2,)],
                            FunctionGrid({(0, 0): f, (0, 1): f})),
    ]
    monkeypatch.setattr(local_norms, "GRID_CAP", 81)
    for call in local_calls:
        call()
    with pytest.raises(CapExceeded):
        t_ip(2, FunctionGrid.ip_select(2, f, f))
    monkeypatch.setattr(local_norms, "GRID_CAP", 80)
    for call in local_calls:
        with pytest.raises(CapExceeded):
            call()


def test_a_factor_without_forms_puts_every_y_tuple_in_one_bucket(monkeypatch):
    # a q = 0 factor weights every pair, so every y-tuple keeps every x and
    # every z: one bucket per call, as many y-tuples as the cosets give
    blocks = []
    block = local_norms._Stack.block
    monkeypatch.setattr(local_norms._Stack, "block",
                        lambda self, sp, c, j, kx, kz: blocks.append((len(c), kx, kz))
                        or block(self, sp, c, j, kx, kz))
    lin = new_linear_factor(3, 2, [(1, 0)])
    f = _random_f(3, 2, seed=70)
    u3, u2, _ = local_u3_dominates_check(lin, (1,), (2,), (0,), f)
    assert blocks == [(9, {0: 3}, {0: 3})]
    d = DirectionTuple3(3, (1,), (2,), (0,), (), (), ())
    ctx = LocalContext3(new_quadratic_factor(lin, []), d)
    assert u3 ** 8 == pytest.approx(local_u3_inner_naive(ctx, [f] * 8).real, rel=1e-10)


def test_a_mixed_batch_is_one_stack_and_matches_each_batch_of_one(monkeypatch):
    # four problems of the U^3 shape: x_0 and x_1 one array, x_0 and x_1
    # separate arrays of equal size, atoms of other sizes, and a diagonal
    # octuple whose odd W-vertex mirrors the even one; they share arrays in
    # different places, so the stack shares none of those places
    factor = _mixed_factor()
    sp = factor.space
    ctx = LocalContext3(factor, DirectionTuple3(3, (0, 1), (1, 2), (2, 2), (0,), (1,), (2,)))
    small = LocalContext3(factor, DirectionTuple3(3, (1, 1), (1, 2), (2, 1), (1,), (2,), (2,)))
    fs = [_random_f(3, 3, seed=80 + k) for k in range(8)]
    other = factor.atom_indices((1, 0))
    assert other.size == ctx.xs.size and not np.array_equal(other, ctx.xs)
    xs, ys, zs, values, muv, muw, mvw = local_norms._u3_problem(ctx, fs)
    separate = ([ctx.xs, other], ys, zs, values,
                muv | {(1, v): mu_weight_matrix(factor, (0,), other, ctx.ys) for v in range(2)},
                muw | {(1, w): mu_weight_matrix(factor, (1,), other, ctx.zs) for w in range(2)},
                mvw)
    problems = [local_norms._u3_problem(ctx, fs), separate,
                local_norms._u3_problem(small, fs[::-1]), local_norms._u3_problem(small, [fs[0]] * 8)]
    singles = [local_norms._ternary_contract(sp, [q])[0] for q in problems]
    assert min(abs(v) for v in singles) > 1.0
    stacks = []
    init = local_norms._Stack.__init__
    monkeypatch.setattr(local_norms._Stack, "__init__",
                        lambda self, problem, rows: stacks.append(len(rows))
                        or init(self, problem, rows))
    batch = local_norms._ternary_contract(sp, problems)
    assert stacks == [4]
    for got, want in zip(batch, singles):
        assert abs(got - want) <= 1e-12 * abs(want)


def test_u3_problems_keep_their_shortcuts_whatever_the_first_one_shares(monkeypatch):
    # the first context's three atoms are one array and its three measures
    # one matrix, the second's are not: the stack still holds one array per
    # part and per pair, and the odd W-vertex mirrors the even one
    factor = _mixed_factor()
    one = LocalContext3(factor, DirectionTuple3(3, (0, 1), (0, 1), (0, 1), (0,), (0,), (0,)))
    assert one.xs is one.ys is one.zs and one.mu12 is one.mu13 is one.mu23
    other = LocalContext3(factor, DirectionTuple3(3, (0, 1), (1, 2), (2, 2), (0,), (1,), (2,)))
    f = _random_f(3, 3, seed=90)
    stacks = []
    contract = local_norms._Stack.contract
    monkeypatch.setattr(local_norms._Stack, "contract",
                        lambda self, sp: stacks.append(self) or contract(self, sp))
    norms = local_norms.local_u3_norms([one, other], [f, f])
    (stack,) = stacks
    assert len({id(a) for a in (*stack.xs, *stack.ys, *stack.zs)}) == 3
    assert len({id(m) for d in (stack.muv, stack.muw, stack.mvw) for m in d.values()}) == 3
    assert len(stack.mirrored) == 1
    assert norms == pytest.approx([local_u3_norm(one, f), local_u3_norm(other, f)], rel=1e-12)
