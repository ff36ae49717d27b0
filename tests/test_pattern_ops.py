"""Grid pattern averages: dual routes, witness identities, caps."""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qflab.errors import CapExceeded, DegenerateContext
from qflab.factor import (
    bilinear_level_sizes,
    direction_codes,
    mu_weight_matrix,
    new_linear_factor,
    new_quadratic_factor,
)
from qflab.local_norms import LocalContext3
from qflab.pattern_ops import (
    FunctionGrid,
    PatternHypergraph,
    TernaryContext,
    bipartite_normalization,
    constant_codes,
    ip2_hypergraph,
    t_bipartite,
    t_ip,
    t_ip2,
    t_ip2_local,
    t_ip2_per_s_oracle,
    t_ip_local,
    t_ip_naive,
    t_ternaries,
    t_ternary,
    ternary_normalization,
    weighted_ternary_densities,
    witness_count_bipartite,
    witness_count_ternary,
    witness_counts_ternary,
)
from qflab import pattern_ops, spectral
from qflab.fpn_core import run_counted, space
from qflab.spectral import GroupFunction, u2_inner


def _random_f(p, n, seed):
    rng = np.random.default_rng(seed)
    N = p ** n
    vals = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    vals = vals / np.maximum(np.abs(vals), 1.0)
    return GroupFunction(p, n, vals)


def _mixed_factor():
    lin = new_linear_factor(3, 3, [(1, 0, 0)])
    return new_quadratic_factor(lin, [np.eye(3, dtype=np.int64)])


def _trivial_factor(p, n):
    return new_quadratic_factor(new_linear_factor(p, n, []), [])


def _row(factor, *labels):
    """The direction codes of the labels (a1, a2, a3, b12, b13, b23)."""
    return direction_codes(factor, [sum(labels, ())])[0]


def _indicator_pair(p, n, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random(p ** n) < 0.5
    ind = GroupFunction.indicator(p, n, np.nonzero(mask)[0])
    indc = GroupFunction.indicator(p, n, np.nonzero(~mask)[0])
    return mask, ind, indc


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ip_average_matches_naive(m):
    fs = [_random_f(3, 1, seed=m * 8 + k) for k in range(2)]
    grid = FunctionGrid.ip_select(m, fs[0], fs[1])
    assert t_ip(m, grid) == pytest.approx(t_ip_naive(m, grid), abs=1e-10)


@pytest.mark.parametrize("p", [3, 5])
def test_ip_with_three_conditioned_vertices_matches_the_nested_sum(p):
    # m = 3 conditions on three x's, the three-vertex branch of the binary
    # contraction; the reference averages each y_S for every x-tuple in turn.
    # t_ip_naive forms all p^11 terms at once, so it runs at p = 3 only
    grid = FunctionGrid({(i, s): _random_f(p, 1, seed=100 * p + 8 * i + s)
                         for i in range(1, 4) for s in range(8)})
    ys = np.arange(p)
    expected = 0.0
    for xv in itertools.product(range(p), repeat=3):
        term = 1.0
        for s in range(8):
            term *= np.prod([grid[(i + 1, s)].values[(xv[i] + ys) % p] for i in range(3)],
                            axis=0).mean()
        expected += term / p ** 3
    assert t_ip(3, grid) == pytest.approx(expected, rel=1e-10, abs=1e-14)
    if p == 3:
        assert t_ip(3, grid) == pytest.approx(t_ip_naive(3, grid), rel=1e-10, abs=1e-14)


def test_ip_local_with_trivial_factor_is_global():
    lin = new_linear_factor(3, 2, [])
    f = _random_f(3, 2, seed=1)
    grid = FunctionGrid.ip_select(2, f, f)
    local = t_ip_local(2, lin, (0, 0), grid)
    assert local == pytest.approx(t_ip(2, grid), abs=1e-10)


def test_ip_average_is_linear_in_one_slot():
    f = _random_f(3, 2, seed=2)
    grid = FunctionGrid.ip_select(1, f, f)
    base = t_ip(1, grid)
    tweaked = dict(grid.mapping)
    tweaked[(1, 0)] = f.scale(3.0 - 1.0j)
    assert t_ip(1, FunctionGrid(tweaked)) == pytest.approx(
        (3.0 - 1.0j) * base, abs=1e-10)


@pytest.mark.parametrize("m", [1, 2])
def test_ip2_average_matches_per_subset_oracle(m):
    fs = [_random_f(3, 1, seed=m * 9 + k) for k in range(2)]
    grid = FunctionGrid.ip2_select(m, fs[0], fs[1])
    assert t_ip2(m, grid) == pytest.approx(t_ip2_per_s_oracle(m, grid), abs=1e-10)


def _ip2_grid(slot_value) -> FunctionGrid:
    return FunctionGrid({(i, j, s): slot_value(i, j, s) for i in (1, 2) for j in (1, 2)
                         for s in range(16)})


@pytest.mark.parametrize("p,n,subset", [(3, 2, 0), (5, 2, 6), (7, 2, 15), (3, 4, 9)])
def test_ip2_with_one_subset_live_is_the_u2_fourth_power(p, n, subset):
    # a real f in the four slots of one S and 1 elsewhere: g_S(h, k) is the
    # box product of f at (h, k) and every other g_S' is 1, so the average is
    # ||f||_{U^2}^4; a constant c gives c^4. (3, 4) is past the oracle's cap.
    rng = np.random.default_rng(p * 10 + n)
    one = GroupFunction.constant(p, n, 1.0)
    for f, want in ((GroupFunction(p, n, rng.standard_normal(p ** n)), None),
                    (GroupFunction.constant(p, n, -0.7), 0.7 ** 4)):
        value = t_ip2(2, _ip2_grid(lambda i, j, s: f if s == subset else one))
        if want is None:
            want = u2_inner(f, f, f, f)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_ip2_witness_density_matches_per_subset_oracle():
    # the 2-IP2 witness density of a set A; for this A no square
    # {z, z + h, z + k, z + h + k} of F_3^2 carries all 16 patterns, so the
    # oracle's products are 0 and the spectral route must give 0 to rounding
    inside = np.random.default_rng(11).random(9) < 0.5
    f_in = GroupFunction(3, 2, inside.astype(float))
    f_out = GroupFunction(3, 2, 1.0 - inside)
    grid = FunctionGrid.ip2_select(2, f_in, f_out)
    assert t_ip2(2, grid) == pytest.approx(t_ip2_per_s_oracle(2, grid), rel=1e-12, abs=1e-15)


def test_ip2_blocks_of_h_match_one_block(monkeypatch):
    # 32 tables of 9 entries and 2 h per buffer: blocks of 2, 2, 2, 2 and 1 h
    monkeypatch.setattr(spectral, "DERIVATIVE_BLOCK_ENTRIES", 32 * 9 * 2)
    f = GroupFunction(3, 2, np.random.default_rng(12).standard_normal(9))
    one = GroupFunction.constant(3, 2, 1.0)
    grid = _ip2_grid(lambda i, j, s: f if s == 5 else one)
    assert t_ip2(2, grid) == pytest.approx(u2_inner(f, f, f, f), rel=1e-12, abs=1e-15)


def test_ip2_local_with_trivial_factor_is_global():
    factor = _trivial_factor(3, 2)
    grid = FunctionGrid.ip2_diagonal(1, _random_f(3, 2, seed=3))
    assert t_ip2_local(1, factor, (0,) * 6, grid) == pytest.approx(t_ip2(1, grid), abs=1e-10)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("diagonal", [True, False])
def test_ip2_local_on_the_whole_group_matches_the_frequency_side(m, diagonal):
    # every slot of the diagonal grid reads one complex function with no
    # conjugate, so the operator is complex and its y-pairs are not halved
    factor = _trivial_factor(3, 2)
    rng = np.random.default_rng(4)
    f, g = (GroupFunction(3, 2, np.exp(0.7j * rng.standard_normal(9))) for _ in range(2))
    grid = FunctionGrid.ip2_diagonal(m, f) if diagonal else FunctionGrid.ip2_select(m, f, g)
    want = t_ip2(m, grid)
    assert abs(want.imag) > 0.01 * abs(want) > 0
    assert t_ip2_local(m, factor, (0,) * 6, grid) == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_ip2_hypergraph_shape():
    g1 = ip2_hypergraph(1)
    assert (g1.nu, g1.nv, g1.nw) == (1, 1, 2)
    assert g1.edges == frozenset({(0, 0, 1)})
    g2 = ip2_hypergraph(2)
    assert (g2.nu, g2.nv, g2.nw) == (2, 2, 16)
    assert len(g2.edges) == 32
    for (i, j, s) in g2.edges:
        assert s >> (i * 2 + j) & 1


@pytest.mark.parametrize("m", [1, 2])
def test_ternary_operator_reproduces_local_ip2(m):
    factor = _mixed_factor()
    d = _row(factor, (0, 1), (1, 2), (2, 1), (0,), (0,), (0,))
    graph = ip2_hypergraph(m)
    f_in = _random_f(3, 3, seed=70 + m)
    f_out = _random_f(3, 3, seed=80 + m)
    via_ip2 = t_ip2_local(
        m, factor, d, FunctionGrid.ip2_select(m, f_in, f_out))
    ctx = TernaryContext(graph, factor, constant_codes(graph, d))
    via_ternary = t_ternary(ctx, FunctionGrid.edge_select(graph, f_in, f_out))
    assert via_ternary == pytest.approx(via_ip2, abs=1e-9)


def test_ternary_average_is_linear_in_one_slot():
    factor = _mixed_factor()
    d = _row(factor, (0, 1), (1, 2), (2, 1), (0,), (0,), (0,))
    graph = PatternHypergraph((1, 1, 2), frozenset({(0, 0, 0)}))
    ctx = TernaryContext(graph, factor, constant_codes(graph, d))
    f = _random_f(3, 3, seed=4)
    grid = FunctionGrid({t: f for t in graph.all_tuples()})
    base = t_ternary(ctx, grid)
    tweaked = dict(grid.mapping)
    tweaked[(0, 0, 1)] = f.scale(2.0 + 0.5j)
    assert t_ternary(ctx, FunctionGrid(tweaked)) == pytest.approx(
        (2.0 + 0.5j) * base, abs=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bipartite_witness_identity(seed):
    lin = new_linear_factor(3, 3, [(1, 0, 0), (0, 1, 0)])
    rng = np.random.default_rng(100 + seed)
    edges = frozenset((u, v) for u in range(2) for v in range(2)
                      if rng.random() < 0.5)
    graph = PatternHypergraph((2, 2), edges)
    u_codes, v_codes = rng.integers(0, 9, size=(2, 2)).tolist()
    mask, ind, indc = _indicator_pair(3, 3, seed=200 + seed)
    grid = FunctionGrid.edge_select(graph, ind, indc)
    val = t_bipartite(graph, lin, u_codes, v_codes, grid)
    assert abs(val.imag) <= 1e-12
    count = witness_count_bipartite(graph, lin, u_codes, v_codes, mask)
    norm = bipartite_normalization(graph, lin)
    assert norm == 81
    assert val.real * norm == pytest.approx(count, abs=1e-6 * max(1, count))


@pytest.mark.parametrize("seed", [0, 1])
def test_ternary_witness_identity(seed):
    factor = _mixed_factor()
    rng = np.random.default_rng(300 + seed)
    edges = frozenset(t for t in itertools.product(range(2), repeat=3)
                      if rng.random() < 0.5)
    graph = PatternHypergraph((2, 2, 2), edges)
    d = _row(factor, (0, 1), (1, 2), (2, 1), (0,), (0,), (0,))
    ctx = TernaryContext(graph, factor, constant_codes(graph, d))
    mask, ind, indc = _indicator_pair(3, 3, seed=400 + seed)
    val = t_ternary(ctx, FunctionGrid.edge_select(graph, ind, indc))
    assert abs(val.imag) <= 1e-12
    count = witness_count_ternary(ctx, mask)
    norm = ternary_normalization(ctx)
    assert isinstance(norm, Fraction)
    assert val.real * float(norm) == pytest.approx(count, abs=1e-6 * max(1, count))


def test_one_context_per_pattern_serves_every_ternary_routine():
    # one context per labeled pattern serves the operator, the witness count
    # and the normalization, its triples' codes are LocalContext3's, and one
    # batch of operators (x_0, x_1 one atom in one, two atoms in the other)
    # matches the operators one at a time
    factor = _mixed_factor()
    d = _row(factor, (0, 1), (1, 2), (2, 1), (0,), (1,), (2,))
    graph = PatternHypergraph((2, 2, 2),
                              frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}))
    # atoms (0, 1), (1, 0) on U and (2, 1), (2, 2) on W in the mixed one
    atoms = space(3, 2).index_of
    labeled = {"same": ([d[0]] * 2, [d[1]] * 2, [d[2]] * 2),
               "mixed": ([atoms((0, 1)), atoms((1, 0))], [d[1]] * 2,
                         [atoms((2, 1)), atoms((2, 2))])}
    mask, ind, indc = _indicator_pair(3, 3, seed=500)
    grid = FunctionGrid.edge_select(graph, ind, indc)
    ctxs = [TernaryContext(graph, factor, a + b + c + [d[3]] * 4 + [d[4]] * 4 + [d[5]] * 4)
            for a, b, c in labeled.values()]
    assert ctxs[0].codes == constant_codes(graph, d)
    singles = [t_ternary(ctx, grid) for ctx in ctxs]
    for ctx, (a, b, c), single in zip(ctxs, labeled.values(), singles):
        count = witness_count_ternary(ctx, mask)
        norm = ternary_normalization(ctx)
        assert single.real * float(norm) == pytest.approx(count, abs=1e-6 * max(1, count))
        for row, (u, v, w) in zip(ctx.triples(), graph.all_tuples()):
            built = LocalContext3(factor, (a[u], b[v], c[w], *d[3:]))
            assert tuple(row.tolist()) == built.codes
    for got, single in zip(t_ternaries(ctxs, [grid] * 2), singles):
        assert got == pytest.approx(single, rel=1e-12)


def test_bipartite_witness_count_in_several_blocks(monkeypatch):
    # 9^3 b-tuples in blocks of 7, the last holding one, give the explicit
    # loop's count; every (b's, a_u) candidate is counted, and each pair's
    # sum table
    lin = new_linear_factor(3, 3, [(1, 0, 0)])
    graph = PatternHypergraph((2, 3), frozenset({(0, 0), (0, 2), (1, 1)}))
    u_codes, v_codes = [0, 1], [2, 0, 2]
    mask = np.random.default_rng(600).random(27) < 0.5
    sp = lin.space
    xs = [lin.atom_indices((c,)) for c in u_codes]
    ys = [lin.atom_indices((c,)) for c in v_codes]
    want = 0
    for b in itertools.product(*ys):
        prod = 1
        for u in range(2):
            prod *= sum(all(mask[sp.add(int(a), int(b[v]))] == ((u, v) in graph.edges)
                            for v in range(3)) for a in xs[u])
        want += prod
    assert want > 0
    monkeypatch.setattr(pattern_ops, "H_BLOCK_ENTRIES", 63)
    count, terms = run_counted(witness_count_bipartite, graph, lin, u_codes, v_codes, mask)
    assert count == want
    assert terms == 9 ** 3 * 18 + 6 * 81


# the ternary witness loop, kept as the capped reference twin of the
# extension count
LOOP_CAP = 1 << 22


def _witness_count_loop(graph, factor, codes, member=None) -> int:
    """Configurations of the hypergraph labeled by codes (in
    `TernaryContext.codes` order) whose pairs all lie in their bilinear
    level sets and, unless member is None, whose memberships match the
    edges: explicit loops over the (x, y) tuples and the heads of the z's,
    the last W-vertex tested in a vectorized sweep. Members come from the
    factor's atoms and pair tests from its forms, on the decoded labels."""
    nu, nv, nw = graph.parts
    members = [factor._members_by_code[c] for c in codes[:nu + nv + nw]]
    xs, ys, zs = members[:nu], members[nu:nu + nv], members[nu + nv:]
    labels = iter([space(factor.p, factor.q).coords_of(c) for c in codes[nu + nv + nw:]])
    if math.prod(a.size for a in xs + ys + zs) > LOOP_CAP:
        raise CapExceeded("witness loop too large")
    sp = factor.space
    digits = sp.digits.astype(np.int64)

    def level(rows, cols, label):
        ok = np.ones((rows.size, cols.size), dtype=bool)
        for form, b in zip(factor.forms, label):
            ok &= digits[rows] @ form.as_array() @ digits[cols].T % factor.p == b
        return ok

    muv = {(u, v): level(xs[u], ys[v], next(labels)) for u in range(nu) for v in range(nv)}
    muw = {(u, w): level(xs[u], zs[w], next(labels)) for u in range(nu) for w in range(nw)}
    mvw = {(v, w): level(ys[v], zs[w], next(labels)) for v in range(nv) for w in range(nw)}

    def matches(u, v, w, z):
        if member is None:
            return True
        s = sp.add(sp.add(int(xs[u][xv[u]]), int(ys[v][yv[v]])), z)
        return member[s] == ((u, v, w) in graph.edges)

    wlast = graph.nw - 1
    total = 0
    for xv in itertools.product(*[range(a.size) for a in xs]):
        for yv in itertools.product(*[range(a.size) for a in ys]):
            if not all(muv[(u, v)][xv[u], yv[v]]
                       for u in range(graph.nu) for v in range(graph.nv)):
                continue
            for zhead in itertools.product(*[range(zs[w].size) for w in range(wlast)]):
                if not all(muw[(u, w)][xv[u], zk] and mvw[(v, w)][yv[v], zk]
                           and matches(u, v, w, int(zs[w][zk]))
                           for w, zk in enumerate(zhead)
                           for u in range(graph.nu) for v in range(graph.nv)):
                    continue
                mask = np.ones(zs[wlast].size, dtype=bool)
                for u in range(graph.nu):
                    mask &= muw[(u, wlast)][xv[u]]
                for v in range(graph.nv):
                    mask &= mvw[(v, wlast)][yv[v]]
                for u in range(graph.nu):
                    for v in range(graph.nv):
                        mask &= [matches(u, v, wlast, int(z)) for z in zs[wlast]]
                total += int(mask.sum())
    return total


def _twin_factor(p):
    """One form x . x, with one linear coordinate at p = 3: 3-point atoms on
    F_3^3, and atoms of about p points on F_p^2 otherwise."""
    if p == 3:
        return _mixed_factor()
    return new_quadratic_factor(new_linear_factor(p, 2, []), [np.eye(2, dtype=np.int64)])


def _coordinate_label(factor, index):
    """The atom label of a point from its coordinates, in Python ints."""
    p, n = factor.p, factor.n
    x = [index // p ** i % p for i in range(n)]
    linear = [sum(a * b for a, b in zip(x, v.coords)) % p for v in factor.linear.vectors]
    quadratic = [sum(x[i] * m.entries[i][j] * x[j] for i in range(n) for j in range(n)) % p
                 for m in factor.forms]
    return tuple(linear + quadratic)


def _random_assignment(factor, graph, rng, through):
    """The codes of random labels; when `through`, of the labels and pair
    levels of one random configuration (returned with them), so that I_F(e)
    holds it."""
    p, width = factor.p, factor.ell + factor.q
    if not through:
        def lab(_i):
            return tuple(int(v) for v in rng.integers(0, p, width))

        def level(_i, _j):
            return tuple(int(v) for v in rng.integers(0, p, factor.q))
        x, y, z = ([None] * k for k in (graph.nu, graph.nv, graph.nw))
    else:
        digits = factor.space.digits.astype(np.int64)
        x, y, z = ([int(i) for i in rng.integers(0, factor.space.size, k)]
                   for k in (graph.nu, graph.nv, graph.nw))

        def lab(i):
            return _coordinate_label(factor, i)

        def level(i, j):
            return tuple(int(digits[i] @ f.as_array() @ digits[j] % p) for f in factor.forms)
    nu, nv, nw = graph.parts
    atoms = [lab(i) for i in x + y + z]
    levels = ([level(x[u], y[v]) for u in range(nu) for v in range(nv)]
              + [level(x[u], z[w]) for u in range(nu) for w in range(nw)]
              + [level(y[v], z[w]) for v in range(nv) for w in range(nw)])
    codes = ([space(p, width).index_of(a) for a in atoms]
             + [space(p, factor.q).index_of(b) for b in levels])
    return codes, (x, y, z)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 2), (1, 2, 3), (2, 2, 3)])
def test_extension_count_matches_the_witness_loop(monkeypatch, p, shape):
    # random sets; trials 0, 3 and 6 draw every label at random, the others
    # take the labels of one random configuration, and trials 2, 5 and 8
    # also take their edges from its memberships, so some counts are
    # nonzero. Head tuples come in blocks of 40 // (widest atom of W),
    # several of them with a partial last block.
    monkeypatch.setattr(pattern_ops, "H_BLOCK_ENTRIES", 40)
    factor = _twin_factor(p)
    sp = factor.space
    cells = list(itertools.product(*map(range, shape)))
    rng = np.random.default_rng((700, p, *shape))
    compared = partial_blocks = 0
    nonzero = set()
    for trial in range(9):
        member = rng.random(sp.size) < 0.5
        codes, (x, y, z) = _random_assignment(factor, PatternHypergraph(shape), rng,
                                              trial % 3 > 0)
        if trial % 3 == 2:
            edges = {(u, v, w) for u, v, w in cells
                     if member[sp.add(sp.add(x[u], y[v]), z[w])]}
        else:
            edges = {c for c in cells if rng.random() < 0.5}
        graph = PatternHypergraph(shape, frozenset(edges))
        try:
            ctx = TernaryContext(graph, factor, codes)
        except DegenerateContext:
            continue
        count = witness_count_ternary(ctx, member)
        configurations = witness_counts_ternary([ctx], None)[0]
        assert count == _witness_count_loop(graph, factor, codes, member)
        assert configurations == _witness_count_loop(graph, factor, codes)
        nonzero |= {"count"} if count else set()
        nonzero |= {"configurations"} if configurations else set()
        sizes = factor.atom_sizes[codes[:sum(shape)]]
        heads = math.prod(sizes[:shape[0] + shape[1]].tolist())
        step = max(1, 40 // int(sizes[shape[0] + shape[1]:].max()))
        partial_blocks += heads > step and heads % step > 0
        compared += 1
    assert compared >= 6 and partial_blocks > 0
    assert nonzero == {"count", "configurations"}


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_batched_witness_counts_match_the_witness_loop(monkeypatch, p, q):
    # every shape up to (2, 2, 2), five labelings each, counted in one batch
    # against one set: trials 0 and 3 draw every label at random, the others
    # take the labels of one random configuration, and trial 2 also takes
    # its edges from its memberships, so some counts are nonzero. Blocks of
    # the masks of all but one (1, 1, 1) context split that shape into a
    # full block and a partial one, the larger shapes into several blocks,
    # and the head joins into several blocks of rows.
    blocks: dict[tuple, list[int]] = {}
    batch = pattern_ops._ternary_counts

    def recorded(ctxs, member):
        blocks.setdefault((ctxs[0].graph.parts, member is None), []).append(len(ctxs))
        return batch(ctxs, member)
    monkeypatch.setattr(pattern_ops, "_ternary_counts", recorded)
    n = q + 2
    forms = [np.eye(n, dtype=np.int64), np.diag([(1, 2)[i % 2] for i in range(n)])][:q]
    factor = new_quadratic_factor(new_linear_factor(p, n, [(1,) + (0,) * (n - 1)]), forms)
    sp = factor.space
    rng = np.random.default_rng((1000, p, q))
    member = rng.random(sp.size) < 0.5
    ctxs = []
    for shape in itertools.product((1, 2), repeat=3):
        cells = list(itertools.product(*map(range, shape)))
        for trial in range(5):
            codes, (x, y, z) = _random_assignment(factor, PatternHypergraph(shape), rng,
                                                  trial % 3 > 0)
            if trial == 2:
                edges = {(u, v, w) for u, v, w in cells
                         if member[sp.add(sp.add(x[u], y[v]), z[w])]}
            else:
                edges = {c for c in cells if rng.random() < 0.5}
            try:
                ctxs.append(TernaryContext(PatternHypergraph(shape, frozenset(edges)),
                                           factor, codes))
            except DegenerateContext:
                continue
    smallest = sum(c.graph.parts == (1, 1, 1) for c in ctxs)
    assert smallest >= 3
    monkeypatch.setattr(pattern_ops, "H_BLOCK_ENTRIES",
                        (smallest - 1) * 3 * int(factor.atom_sizes.max()) ** 2)
    counts = pattern_ops.witness_counts_ternary(ctxs, member)
    configurations = pattern_ops.witness_counts_ternary(ctxs, None)
    for ctx, count, configuration in zip(ctxs, counts, configurations):
        assert count == _witness_count_loop(ctx.graph, factor, ctx.codes, member)
        assert configuration == _witness_count_loop(ctx.graph, factor, ctx.codes)
    assert len({c.graph.parts for c in ctxs}) == 8
    assert any(counts) and any(configurations)
    assert blocks[((1, 1, 1), False)] == [smallest - 1, 1]
    assert len(blocks[((2, 2, 2), True)]) > 1


def _two_form_factor(p, n):
    """x . x and an alternating diagonal: 25 levels at p = 5 whose weights
    p^(2n)/|beta(b)| differ between b = 0 and the others."""
    forms = [np.eye(n, dtype=np.int64), np.diag([(1, 2)[i % 2] for i in range(n)])]
    return new_quadratic_factor(new_linear_factor(p, n, []), forms)


def test_weight_products_batched_across_shapes_keep_the_witness_identity():
    # every shape up to (2, 2, 3), four labelings each of one random
    # configuration (so I_F(e) is nonempty), the last two with that
    # configuration's edges (so the count is too), in one t_ternaries batch.
    # Each context's value carries one weight per pair place and 1/|z_w| per
    # W-vertex; dropping either breaks the identity on a nonzero count.
    factor = _two_form_factor(5, 3)
    weights = {1.0 / bilinear_level_sizes(factor)[b] for b in range(25)}
    assert len(weights) > 1
    sp = factor.space
    rng = np.random.default_rng(1300)
    member = rng.random(sp.size) < 0.5
    ind = GroupFunction(5, 3, member.astype(np.float64))
    coind = GroupFunction(5, 3, (~member).astype(np.float64))
    ctxs = []
    for shape in itertools.product((1, 2), (1, 2), (1, 2, 3)):
        cells = list(itertools.product(*map(range, shape)))
        for trial in range(4):
            codes, (x, y, z) = _random_assignment(factor, PatternHypergraph(shape), rng, True)
            edges = ({(u, v, w) for u, v, w in cells if member[sp.add(sp.add(x[u], y[v]), z[w])]}
                     if trial >= 2 else {c for c in cells if rng.random() < 0.5})
            ctxs.append(TernaryContext(PatternHypergraph(shape, frozenset(edges)), factor, codes))
    values = t_ternaries(ctxs, [FunctionGrid.edge_select(c.graph, ind, coind) for c in ctxs])
    counts = pattern_ops.witness_counts_ternary(ctxs, member)
    wide = 0
    for ctx, value, count in zip(ctxs, values, counts):
        assert abs(value.imag) <= 1e-12
        assert value.real * float(ternary_normalization(ctx)) == pytest.approx(
            count, rel=1e-9, abs=1e-9)
        nu, nv, nw = ctx.graph.parts
        wide += count > 0 and factor.atom_sizes[list(ctx.codes[nu + nv:nu + nv + nw])].max() > 1
    assert len({c.graph.parts for c in ctxs}) == 12 and wide >= 10


def test_weighted_density_matches_the_dense_sum_at_two_forms():
    # one batch of directions through random triples, at levels whose
    # weights differ; each value is the dense mean of the three float64 mu
    # matrices' product times membership
    factor = _two_form_factor(5, 3)
    sp = factor.space
    rng = np.random.default_rng(1400)
    graph = PatternHypergraph((1, 1, 1))
    rows, members, dense = [], [], []
    for _ in range(12):
        codes, _ = _random_assignment(factor, graph, rng, True)
        member = rng.random(sp.size) < 0.5
        a1, a2, a3, b12, b13, b23 = codes
        mu12, mu13, mu23 = (mu_weight_matrix(factor, b, row, col)
                            for b, row, col in ((b12, a1, a2), (b13, a1, a3), (b23, a2, a3)))
        weights = mu12[:, :, None] * mu13[:, None, :] * mu23[None, :, :]
        atoms = [factor._members_by_code[a] for a in (a1, a2, a3)]
        rows.append(codes)
        members.append(member)
        dense.append((weights * member[sp.sum_grid3(*atoms)]).mean())
    assert len({tuple(r[3:]) for r in rows}) > 1 and any(dense)
    values = weighted_ternary_densities(factor, rows, members)
    assert values == pytest.approx(dense, rel=1e-12, abs=1e-15)


def test_extension_count_past_int64():
    # twelve free 49-point atoms, each passing whole, over 49^2 head tuples
    factor = _trivial_factor(7, 2)
    graph = PatternHypergraph((1, 1, 12))
    ctx = TernaryContext(graph, factor, constant_codes(graph, (0,) * 6))
    count = witness_count_ternary(ctx, np.zeros(49, dtype=bool))
    assert count == witness_counts_ternary([ctx], None)[0] == 49 ** 14 > 1 << 63


def test_configuration_count_matches_direct_masks():
    factor = _mixed_factor()
    graph = PatternHypergraph((1, 1, 1), frozenset({(0, 0, 0)}))
    d = _row(factor, (0, 1), (1, 2), (2, 1), (1,), (2,), (0,))
    ctx = TernaryContext(graph, factor, constant_codes(graph, d))
    xs, ys, zs = d[:3]
    m12 = mu_weight_matrix(factor, 1, xs, ys) != 0.0
    m13 = mu_weight_matrix(factor, 2, xs, zs) != 0.0
    m23 = mu_weight_matrix(factor, 0, ys, zs) != 0.0
    direct = int(np.einsum("xy,xz,yz->", m12.astype(np.int64),
                           m13.astype(np.int64), m23.astype(np.int64)))
    assert witness_counts_ternary([ctx], None)[0] == direct


def test_witness_count_collapses_for_extreme_sets():
    factor = _mixed_factor()
    d = _row(factor, (0, 1), (1, 2), (2, 1), (0,), (0,), (0,))
    complete = PatternHypergraph((2, 2, 2), frozenset(itertools.product(range(2), repeat=3)))
    ctx = TernaryContext(complete, factor, constant_codes(complete, d))
    assert witness_count_ternary(ctx, np.ones(27, dtype=bool)) == witness_counts_ternary([ctx], None)[0]
    empty_graph = PatternHypergraph((2, 2, 2))
    ctx2 = TernaryContext(empty_graph, factor, constant_codes(empty_graph, d))
    assert witness_count_ternary(ctx2, np.zeros(27, dtype=bool)) == witness_counts_ternary([ctx2], None)[0]


def test_weighted_density_extremes():
    factor = _mixed_factor()
    ctx = LocalContext3(factor, _row(factor, (0, 1), (1, 2), (2, 1), (0,), (0,), (0,)))
    value = weighted_ternary_densities(factor, [ctx.codes], [np.ones(27, dtype=bool)])[0]
    assert value >= 0.0
    # removing A from the target atom kills the weighted sum: it only reads
    # membership there
    partial = np.ones(27, dtype=bool)
    partial[ctx.target_indices()] = False
    value0 = weighted_ternary_densities(factor, [ctx.codes], [partial])[0]
    assert value0 == pytest.approx(0.0, abs=1e-12)


def test_weighted_density_matches_the_dense_sum():
    factor = _mixed_factor()
    sp = factor.space
    rng = np.random.default_rng(12)
    checked = 0
    for a1, a2, a3 in itertools.product(itertools.product(range(3), repeat=2), repeat=3):
        b = tuple((int(v),) for v in rng.integers(0, 3, 3))
        try:
            ctx = LocalContext3(factor, _row(factor, a1, a2, a3, *b))
        except DegenerateContext:
            continue
        if ctx.target_indices().size == 0:
            continue
        member = rng.random(27) < 0.5
        a1, a2, a3, b12, b13, b23 = ctx.codes
        mu12, mu13, mu23 = (mu_weight_matrix(factor, b, row, col)
                            for b, row, col in ((b12, a1, a2), (b13, a1, a3), (b23, a2, a3)))
        weights = mu12[:, :, None] * mu13[:, None, :] * mu23[None, :, :]
        members = [factor._members_by_code[a] for a in (a1, a2, a3)]
        dense = (weights * member[sp.sum_grid3(*members)]).mean()
        value = weighted_ternary_densities(factor, [ctx.codes], [member])[0]
        assert value == pytest.approx(dense, rel=1e-12, abs=1e-15)
        checked += 1
    assert checked > 20


def test_weighted_density_is_zero_on_an_empty_target():
    lin = new_linear_factor(3, 2, [(1, 0)])
    factor = new_quadratic_factor(lin, [np.eye(2, dtype=np.int64)])
    # the target atom is (0, 2), which the coset x1 = 0 never reaches, so no
    # triple has weight
    d = _row(factor, (0, 0), (0, 0), (0, 0), (1,), (0,), (0,))
    assert LocalContext3(factor, d).target_indices().size == 0
    assert weighted_ternary_densities(factor, [d], [np.ones(9, dtype=bool)]) == [0.0]


def test_degenerate_atoms_are_refused():
    lin = new_linear_factor(3, 2, [(1, 0)])
    factor = new_quadratic_factor(lin, [np.eye(2, dtype=np.int64)])
    grid = FunctionGrid.ip2_diagonal(1, _random_f(3, 2, seed=5))
    d = _row(factor, (0, 2), (0, 0), (0, 0), (0,), (0,), (0,))
    with pytest.raises(DegenerateContext):
        t_ip2_local(1, factor, d, grid)


def test_caps():
    f = _random_f(3, 1, seed=6)
    with pytest.raises(CapExceeded):
        t_ip(4, FunctionGrid.ip_select(4, f, f))
    with pytest.raises(CapExceeded):
        ip2_hypergraph(3)
    with pytest.raises(CapExceeded):
        t_ip2(3, FunctionGrid.ip2_diagonal(1, f))
    wide = PatternHypergraph((4, 1))
    lin = new_linear_factor(3, 1, [])
    with pytest.raises(CapExceeded):
        t_bipartite(wide, lin, [0] * 4, [0],
                    FunctionGrid({(u, 0): f for u in range(4)}))
    flat = (0,) * 6
    factor = _trivial_factor(3, 1)
    for tall in (PatternHypergraph((3, 1, 1)), PatternHypergraph((1, 1, 17))):
        with pytest.raises(CapExceeded):
            TernaryContext(tall, factor, constant_codes(tall, flat))
    # |W| = 3 is counted, and the count is the loop twin's
    deep = PatternHypergraph((1, 1, 3), frozenset({(0, 0, 0), (0, 0, 2)}))
    e3 = constant_codes(deep, flat)
    member = np.array([True, False, True])
    count = witness_count_ternary(TernaryContext(deep, factor, e3), member)
    assert count == _witness_count_loop(deep, factor, e3, member) > 0


def test_grid_validation():
    f = _random_f(3, 1, seed=7)
    with pytest.raises(ValueError):
        FunctionGrid({})
    # every pattern routine names the first slot its grid lacks
    lin = new_linear_factor(3, 1, [])
    flat = _trivial_factor(3, 1)
    ternary = PatternHypergraph((1, 1, 2))
    ctx = TernaryContext(ternary, flat, constant_codes(ternary, (0,) * 6))
    calls = {
        (1, 1): lambda: t_ip(1, FunctionGrid({(1, 0): f})),
        (1, 0): lambda: t_ip_local(1, lin, (0, 0), FunctionGrid({(1, 1): f})),
        (1, 1, 1): lambda: t_ip2(1, FunctionGrid({(1, 1, 0): f})),
        (1, 1, 0): lambda: t_ip2_local(1, flat, (0,) * 6, FunctionGrid({(1, 1, 1): f})),
        (0, 1): lambda: t_bipartite(PatternHypergraph((1, 2)), lin, [0], [0, 0],
                                    FunctionGrid({(0, 0): f})),
        (0, 0, 1): lambda: t_ternaries([ctx], [FunctionGrid({(0, 0, 0): f})]),
    }
    for slot, call in calls.items():
        with pytest.raises(ValueError, match=rf"^grid missing slot {re.escape(str(slot))}$"):
            call()
    # a code past the factor's labels is refused, not read modulo their count
    factor = _mixed_factor()
    grid = FunctionGrid.ip2_diagonal(1, _random_f(3, 3, seed=8))
    for bad in ((9, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 3), (0, -1, 0, 0, 0, 0)):
        with pytest.raises(ValueError):
            t_ip2_local(1, factor, bad, grid)
    for bad in ((3, 0), (0, -1)):
        with pytest.raises(ValueError):
            t_ip_local(1, factor.linear, bad, FunctionGrid.ip_select(1, f, f))


def test_pattern_hypergraph_is_its_parts_and_edges():
    graph = PatternHypergraph([2, 1, 3], [(1, 0, 2)])
    assert (graph.parts, graph.edges) == ((2, 1, 3), frozenset({(1, 0, 2)}))
    assert list(graph.all_tuples()) == list(itertools.product(range(2), range(1), range(3)))
    for parts, edges in (((2,), ()), ((1, 1, 1, 1), ()), ((2, 0), ()),
                         ((2, 2), [(0, 1, 0)]), ((2, 2, 2), [(0, 1)]),
                         ((2, 2), [(0, 2)]), ((1, 1, 2), [(0, 0, -1)])):
        with pytest.raises(ValueError):
            PatternHypergraph(parts, edges)


def test_ternary_context_refuses_empty_atoms_and_levels():
    # x1 = 0 and x.x = 2 meet nowhere in F_3^2; the zero form has no pair at
    # level 1
    graph = PatternHypergraph((1, 1, 2))
    coset = new_quadratic_factor(new_linear_factor(3, 2, [(1, 0)]), [np.eye(2, dtype=np.int64)])
    zero = new_quadratic_factor(new_linear_factor(3, 2, []), [np.zeros((2, 2), dtype=np.int64)])
    for factor, d in ((coset, _row(coset, (0, 1), (0, 1), (0, 2), (0,), (0,), (0,))),
                      (zero, _row(zero, (0,), (0,), (0,), (0,), (0,), (1,)))):
        with pytest.raises(DegenerateContext, match=r"^triple \(0, 0, \d\) names an empty"):
            TernaryContext(graph, factor, constant_codes(graph, d))
    # codes of the wrong count or past their labels are refused before any
    # is read: one vertex short, an atom code 9 and a level code 3 on F_3
    codes = constant_codes(graph, _row(coset, (0, 1), (0, 1), (0, 1), (0,), (0,), (0,)))
    for bad in (codes[:3] + codes[4:], (9,) + codes[1:], codes[:-1] + (3,)):
        with pytest.raises(ValueError):
            TernaryContext(graph, coset, bad)


@pytest.mark.parametrize("q", [0, 1])
def test_ternary_normalization_is_the_product_of_its_fractions(q):
    # one integer numerator and denominator give exactly the product of the
    # atom sizes and the |beta| / p^(2n) ratios taken one Fraction at a time
    factor = _mixed_factor() if q else new_quadratic_factor(new_linear_factor(3, 3, [(1, 0, 0)]),
                                                            [])
    graph = PatternHypergraph((2, 1, 2), frozenset({(0, 0, 1)}))
    # atoms (0, 1), (1, 2) on U, (2, 1) on V, (0, 0), (1, 1) on W, cut to
    # their linear entry without a form; levels 0 on U x V, u + w on U x W
    # and w + 1 on V x W
    atoms = [(0, 1), (1, 2), (2, 1), (0, 0), (1, 1)]
    levels = [0, 0] + [(u + w) % 3 for u in range(2) for w in range(2)] + [1, 2]
    codes = [space(3, 1 + q).index_of(a[:1 + q]) for a in atoms] + [b * q for b in levels]
    want = Fraction(1)
    for a in atoms:
        want *= factor.atom_indices(a[:1 + q]).size
    if q:
        sizes = bilinear_level_sizes(factor)
        for b in levels:
            want *= Fraction(int(sizes[b]), 3 ** 6)
    got = ternary_normalization(TernaryContext(graph, factor, codes))
    assert isinstance(got, Fraction) and got == want
    assert got.denominator > 1 if q else got.denominator == 1
