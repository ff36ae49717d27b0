"""Coset and atom localized box norms against naive evaluation."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from qflab import local_norms, pattern_ops, reference, spectral
from qflab.errors import CapExceeded, DegenerateContext
from qflab.factor import (
    degenerate_directions,
    direction_codes,
    mu_weight_matrix,
    new_linear_factor,
    new_quadratic_factor,
    sigma3_codes,
)
from qflab.fpn_core import rank_mod_p, run_counted, space
from qflab.local_norms import (
    LocalContext3,
    local_u2_inner,
    local_u2_norms,
    local_u3_inner,
    local_u3_inners,
    local_u3_norms,
)
from qflab.pattern_ops import (
    TernaryContext,
    _ternary_shape,
    constant_codes,
    ip2_hypergraph,
    t_ip2_local,
    t_ternaries,
    weighted_ternary_densities,
)
from qflab.reference import local_u3_inner_naive
from qflab.spectral import u2_norms, u3_inner


def _random_f(p, n, seed, bounded=True):
    rng = np.random.default_rng(seed)
    N = p ** n
    vals = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    if bounded:
        vals = vals / np.maximum(np.abs(vals), 1.0)
    return vals


def _ip2_diagonal(m, f):
    """The m-IP2 grid with the one table f in every slot."""
    return dict.fromkeys(itertools.product(range(1, m + 1), range(1, m + 1),
                                           range(1 << (m * m))), f)


def _mixed_factor():
    lin = new_linear_factor(3, 3, [(1, 0, 0)])
    return new_quadratic_factor(lin, [np.eye(3, dtype=np.int64)])


def _row(factor, *labels):
    """The direction codes of the labels (a1, a2, a3, b12, b13, b23)."""
    return direction_codes(factor, [sum(labels, ())])[0]


def _members(ctx):
    """The member arrays of a direction's three atoms, from the member table."""
    return [ctx.factor._members_by_code[a] for a in ctx.codes[:3]]


def _measures(ctx):
    """The measures mu12, mu13, mu23 of a direction on its atoms' members."""
    a1, a2, a3, b12, b13, b23 = ctx.codes
    return [mu_weight_matrix(ctx.factor, b, row, col)
            for b, row, col in ((b12, a1, a2), (b13, a1, a3), (b23, a2, a3))]


def _contexts(factor, limit):
    """First few nondegenerate directions, scanning labels in order."""
    labels = itertools.product(range(3), repeat=3 * (factor.ell + 2 * factor.q))
    out = []
    for flat in labels:
        try:
            out.append(LocalContext3(factor, direction_codes(factor, [flat])[0]))
        except DegenerateContext:
            continue
        if len(out) == limit:
            return out
    return out


def test_trivial_factor_reduces_to_global_norms():
    lin = new_linear_factor(3, 2, [])
    f = _random_f(3, 2, seed=1)
    assert local_u2_norms(lin, [0], [f]) == pytest.approx(u2_norms(f[None], 3, 2), abs=1e-10)

    quad = new_quadratic_factor(lin, [])
    octuple = [_random_f(3, 2, seed=10 + k) for k in range(8)]
    assert local_u3_inner(quad, (0,) * 6, octuple) == pytest.approx(
        u3_inner(octuple, 3, 2), abs=1e-10)


def test_local_u2_inner_matches_explicit_loop():
    lin = new_linear_factor(3, 2, [(1, 2)])
    fs = [_random_f(3, 2, seed=20 + k, bounded=False) for k in range(4)]
    sp = lin.space
    xs, ys = (lin._members_by_code[c] for c in (1, 2))
    total = 0.0 + 0.0j
    for x0 in xs:
        for x1 in xs:
            for y0 in ys:
                for y1 in ys:
                    total += (
                        fs[0][sp.add(x0, y0)]
                        * np.conj(fs[1][sp.add(x0, y1)])
                        * np.conj(fs[2][sp.add(x1, y0)])
                        * fs[3][sp.add(x1, y1)]
                    )
    expected = total / (xs.size ** 2 * ys.size ** 2)
    assert local_u2_inner(lin, (1, 2), *fs) == pytest.approx(complex(expected), abs=1e-12)


def test_target_coset_is_the_label_sum():
    # the target coset of (a1, a2) = ((1, 2), (2, 2)) is (0, 1)
    lin = new_linear_factor(3, 3, [(1, 0, 0), (0, 1, 0)])
    code = space(3, 2).add(1 + 3 * 2, 2 + 3 * 2)
    assert code == 0 + 3 * 1
    assert np.array_equal(lin._members_by_code[code], lin.atom_indices((0, 1)))


def test_local_u2_fourth_is_the_binary_contraction():
    lin = new_linear_factor(3, 3, [(1, 1, 0)])
    f = _random_f(3, 3, seed=3)
    fourth = local_u2_norms(lin, [2], [f])[0] ** 4  # the target coset 0 + 2
    assert fourth == pytest.approx(local_u2_inner(lin, (0, 2), f, f, f, f).real, abs=1e-10)
    # translating f by a member of L(0) moves the spectrum's shift to
    # another member of the target coset, and leaves the norm
    h = int(lin.atom_indices((0,))[-1])
    moved = f[lin.space.add(np.arange(27), h)]
    assert fourth == pytest.approx(local_u2_norms(lin, [2], [moved])[0] ** 4, abs=1e-10)


def _non_coordinate_linear(rng, p, n, ell):
    """A linear factor of ell random independent vectors, none of them a
    multiple of a coordinate vector."""
    while True:
        rows = rng.integers(0, p, (ell, n))
        if rank_mod_p(rows, p) == ell and ((rows != 0).sum(axis=1) > 1).all():
            return new_linear_factor(p, n, [tuple(r.tolist()) for r in rows])


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("ell", [0, 1, 2])
def test_local_u2_norms_match_the_binary_contraction(monkeypatch, p, ell):
    # one batch mixing cosets, a repeated coset and a function shared by
    # several cosets, complex and real; each norm^4 against the four-vertex
    # average of its direction, whose a1 is drawn at random
    rng = np.random.default_rng(10 * p + ell)
    lin = _non_coordinate_linear(rng, p, 3, ell)
    fs = [_random_f(p, 3, seed=500 + k, bounded=False) for k in range(2)]
    fs.append(rng.standard_normal(p ** 3))
    codes = rng.integers(0, p ** ell, 7)
    codes[-1] = codes[0]
    fns = [fs[k % 3] for k in range(7)]
    norms = local_u2_norms(lin, codes, fns)
    coset = p ** (3 - ell)
    basis_terms = run_counted(lin.subgroup_basis)[1]
    assert (run_counted(local_u2_norms, lin, codes, fns)[1]
            == basis_terms + 7 * coset * (p * (3 - ell) + 2))
    cosets = space(p, ell)
    for code, f, norm in zip(codes.tolist(), fns, norms):
        a1 = int(rng.integers(0, p ** ell))
        pair = (a1, cosets.add(code, cosets.neg(a1)))
        assert cosets.add(*pair) == code
        assert norm ** 4 == pytest.approx(local_u2_inner(lin, pair, f, f, f, f).real,
                                          rel=1e-10, abs=1e-14)
    # blocks of three functions, the last one partial, give the same norms
    monkeypatch.setattr(local_norms, "H_BLOCK_ENTRIES", 3 * coset)
    assert local_u2_norms(lin, codes, fns) == norms
    assert local_u2_norms(lin, [], []) == []


def test_degenerate_contexts_are_refused():
    # coset x1 = 0 never reaches form value 2, so the atom (0, 2) is empty
    # and the refusal names it by its label
    factor = _mixed_factor_2d()
    with pytest.raises(DegenerateContext, match=r"^atom a1 = \(0, 2\) is empty$"):
        LocalContext3(factor, _row(factor, (0, 2), (0, 0), (0, 0), (0,), (0,), (0,)))
    # the zero form has no pairs at bilinear level 1
    flat = new_quadratic_factor(new_linear_factor(3, 1, []),
                                [np.zeros((1, 1), dtype=np.int64)])
    with pytest.raises(DegenerateContext, match=r"^beta\(\(1,\)\) is empty$"):
        LocalContext3(flat, (0, 0, 0, 1, 0, 0))


def test_contexts_refuse_codes_out_of_range():
    factor = _mixed_factor_2d()
    for bad in ([9, 0, 0, 0, 0, 0], [0, 0, 0, 0, 3, 0], [0, -1, 0, 0, 0, 0], [0] * 5):
        with pytest.raises(ValueError):
            LocalContext3(factor, bad)
    f = _random_f(3, 2, seed=2)
    for bad in ([3, 0], [0, -1], [0], [0, 0, 0]):
        with pytest.raises(ValueError):
            local_u2_inner(factor, bad, f, f, f, f)


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("route,count", [
    ("local_u2_inner", 1), ("local_u2_inner", 3), ("t_ip_local", 1), ("t_ip_local", 3),
    ("local_u3_inner", 5), ("local_u3_inner", 7), ("t_ip2_local", 5), ("t_ip2_local", 7),
    ("local_u3_inner_naive", 5)])
def test_a_pair_or_direction_with_the_wrong_number_of_codes_is_refused(route, count, q):
    # the lab's own message, not one from unpacking or reshaping the codes
    factor = _mixed_factor() if q else _mixed_factor().linear
    f = _random_f(3, 3, seed=63)
    codes = (0,) * count
    message = (r"^a coset pair is two codes \(a1, a2\)$" if count < 5 else
               r"^a direction is six codes \(a1, a2, a3, b12, b13, b23\)$")
    call = {
        "local_u2_inner": lambda: local_u2_inner(factor, codes, f, f, f, f),
        "t_ip_local": lambda: pattern_ops.t_ip_local(
            2, factor, codes, dict.fromkeys(itertools.product((1, 2), range(4)), f)),
        "local_u3_inner": lambda: local_u3_inner(factor, codes, [f] * 8),
        "t_ip2_local": lambda: t_ip2_local(1, factor, codes, _ip2_diagonal(1, f)),
        "local_u3_inner_naive": lambda: local_u3_inner_naive(factor, codes, [f] * 8),
    }[route]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("bad", [[9, 0, 0, 0, 0, 0], [0, 0, 0, 0, 3, 0], [0, -1, 0, 0, 0, 0]])
def test_batched_routes_with_forms_refuse_codes_out_of_range(bad):
    # with forms the batched routes reach the contraction, which checks the
    # rows' atom and level codes as the q = 0 routes and the contexts do
    factor = _mixed_factor()
    f = _random_f(3, 3, seed=62)
    rows = [[0] * 6, bad]
    calls = [
        lambda: local_u3_norms(factor, rows, [f, f]),
        lambda: local_u3_inners(factor, rows, [[f] * 8] * 2),
        lambda: weighted_ternary_densities(factor, rows, [np.ones(27, dtype=bool)] * 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^label codes must lie in \[0, "):
            call()


def _mixed_factor_2d():
    lin = new_linear_factor(3, 2, [(1, 0)])
    return new_quadratic_factor(lin, [np.eye(2, dtype=np.int64)])


def test_local_u3_inner_matches_naive():
    factor = _mixed_factor()
    rng = np.random.default_rng(7)
    for ctx in _contexts(factor, limit=3):
        octuple = [_random_f(3, 3, seed=int(rng.integers(1 << 30))) for _ in range(8)]
        fast = local_u3_inner(ctx.factor, ctx.codes, octuple)
        slow = local_u3_inner_naive(ctx.factor, ctx.codes, octuple)
        assert fast == pytest.approx(slow, abs=1e-9)


def _support_triples_consistent(ctx: LocalContext3) -> bool:
    """Every (x, y, z) with nonzero pair weights sums into the target atom;
    hence the inner product only reads its arguments there."""
    factor = ctx.factor
    codes = factor._codes[factor.space.sum_grid3(*_members(ctx))]
    mu12, mu13, mu23 = _measures(ctx)
    mask = ((mu12[:, :, None] != 0.0)
            & (mu13[:, None, :] != 0.0)
            & (mu23[None, :, :] != 0.0))
    return bool((codes[mask] == sigma3_codes(factor, ctx.codes)[0]).all())


def test_support_triples_land_in_the_target_atom():
    for ctx in _contexts(_mixed_factor(), limit=5):
        assert _support_triples_consistent(ctx)


def test_inner_product_ignores_values_off_the_target_atom():
    ctx = _contexts(_mixed_factor(), limit=1)[0]
    f = _random_f(3, 3, seed=11)
    base = local_u3_inner(ctx.factor, ctx.codes, [f] * 8)
    mask = np.ones(27, dtype=bool)
    mask[ctx.target_indices()] = False
    noisy = f.copy()
    noisy[mask] += 5.0
    assert local_u3_inner(ctx.factor, ctx.codes, [noisy] * 8) == pytest.approx(base, abs=1e-10)


def test_inner_product_is_linear_in_one_slot():
    ctx = _contexts(_mixed_factor(), limit=1)[0]
    octuple = [_random_f(3, 3, seed=30 + k) for k in range(8)]
    base = local_u3_inner(ctx.factor, ctx.codes, octuple)
    scaled = [octuple[0] * (2.0 + 1.0j)] + octuple[1:]
    assert local_u3_inner(ctx.factor, ctx.codes, scaled) == pytest.approx(
        (2.0 + 1.0j) * base, abs=1e-10)
    # an odd-parity slot picks up the conjugate factor
    flipped = octuple[:1] + [octuple[1] * (2.0 + 1.0j)] + octuple[2:]
    assert local_u3_inner(ctx.factor, ctx.codes, flipped) == pytest.approx(
        (2.0 - 1.0j) * base, abs=1e-10)


def test_local_norm_squares_are_nonnegative():
    factor = _mixed_factor()
    f = _random_f(3, 3, seed=41)
    for ctx in _contexts(factor, limit=4):
        assert local_norms.local_u3_norms(factor, [ctx.codes], [f])[0] >= 0.0


def test_local_u3_dominates_local_u2_on_linear_factors():
    lin = new_linear_factor(3, 3, [(1, 0, 0)])
    for seed in range(4):
        f = _random_f(3, 3, seed=50 + seed)
        dirs = [((0,), (0,), (0,)), ((1,), (2,), (1,)), ((2,), (2,), (2,))]
        # zero bilinear labels; the U^2 norm on the target coset a1 + a2 + a3
        u3vals = local_norms.local_u3_norms(
            lin, [[a for (a,) in d] + [0] * 3 for d in dirs], [f] * 3)
        u2vals = local_u2_norms(lin, [sum(a for (a,) in d) % 3 for d in dirs], [f] * 3)
        for u3val, u2val in zip(u3vals, u2vals):
            assert u3val - u2val >= -1e-9
            assert u3val >= 0.0 and u2val >= 0.0


def test_one_member_tensor_cap_guards_every_ternary_caller(monkeypatch):
    from qflab import spectral
    from qflab.pattern_ops import (
        TernaryContext,
        constant_codes,
        ip2_hypergraph,
        t_ip2,
        t_ip2_local,
        t_ternary,
        weighted_ternary_densities,
    )

    factor = _mixed_factor()
    d = _row(factor, (0, 1), (1, 2), (2, 1), (0,), (0,), (0,))
    f = _random_f(3, 3, seed=60)
    graph = ip2_hypergraph(1)
    calls = [
        lambda: local_u3_inner(factor, d, [f] * 8),
        lambda: t_ip2_local(1, factor, d, _ip2_diagonal(1, f)),
        lambda: t_ternary(TernaryContext(graph, factor, constant_codes(graph, d)),
                          dict.fromkeys(graph.all_tuples(), f)),
        lambda: weighted_ternary_densities(factor, [d], [np.ones(27, dtype=bool)]),
    ]
    for call in calls:
        call()
    monkeypatch.setattr(local_norms, "ENTRY_CAP", int(factor.atom_sizes[list(d[:3])].prod()) - 1)
    for call in calls:
        with pytest.raises(CapExceeded, match=r"^\|x\| \|y\| \|z\| = "):
            call()
    # global IP2 builds no member tensors; its derivative tables are capped
    # at p^(2n) <= ENTRY_CAP instead
    grid = _ip2_diagonal(2, f)
    t_ip2(2, grid, 3, 3)
    monkeypatch.setattr(spectral, "ENTRY_CAP", f.size ** 2 - 1)
    with pytest.raises(CapExceeded):
        t_ip2(2, grid, 3, 3)


def test_one_grid_cap_guards_every_binary_caller(monkeypatch):
    from qflab.pattern_ops import (
        PatternHypergraph,
        t_bipartite,
        t_ip,
        t_ip_local,
    )

    lin = new_linear_factor(3, 3, [(1, 0, 0)])
    f = _random_f(3, 3, seed=61)
    graph = PatternHypergraph((1, 2))
    ip_grid = dict.fromkeys(itertools.product(range(1, 3), range(4)), f)
    # 9-point cosets: every sum table and average holds at most 9 x 9
    # entries; the global m = 2 IP holds 27 x 27
    local_calls = [
        lambda: local_u2_inner(lin, (1, 2), f, f, f, f),
        lambda: t_ip_local(2, lin, (1, 2), ip_grid),
        lambda: t_bipartite(graph, lin, [0], [1, 2], {(0, 0): f, (0, 1): f}),
    ]
    monkeypatch.setattr(local_norms, "ENTRY_CAP", 81)
    for call in local_calls:
        call()
    with pytest.raises(CapExceeded):
        t_ip(2, ip_grid, 3, 3)
    monkeypatch.setattr(local_norms, "ENTRY_CAP", 80)
    for call in local_calls:
        with pytest.raises(CapExceeded):
            call()


def test_a_factor_without_forms_puts_every_y_tuple_in_one_bucket(monkeypatch):
    # a q = 0 factor weights every pair, so every y-tuple keeps every x and
    # every z: one bucket per call; the diagonal norm keeps the 6 y-tuples
    # with j_0 <= j_1 of the 9 the 3-point cosets give
    blocks = []
    block = local_norms._Stack.block
    monkeypatch.setattr(local_norms._Stack, "block",
                        lambda self, sp, c, j, kx, kz: blocks.append((len(c), kx, kz))
                        or block(self, sp, c, j, kx, kz))
    lin = new_linear_factor(3, 2, [(1, 0)])
    f = _random_f(3, 2, seed=70)
    # local_u3_norms takes the coset route at q = 0; the contraction is its twin
    (value,) = local_norms._ternary_contract(lin, local_norms.u3_shape(False),
                                             [[1, 2, 0, 0, 0, 0, 0]], [f])
    u3 = value.real ** 0.125
    assert blocks == [(6, {0: 3}, {0: 3})]
    naive = local_u3_inner_naive(new_quadratic_factor(lin, []), (1, 2, 0, 0, 0, 0), [f] * 8)
    assert u3 ** 8 == pytest.approx(naive.real, rel=1e-10)


def _octuple_shape_with_two_x_atoms():
    """The local U^3 shape with x_1 in its own columns: 0-5 the direction
    codes of x_0, 6-13 the eight value columns, 14-16 x_1's atom and its
    b12 and b13 codes."""
    shape = local_norms.u3_shape(True)
    return shape._replace(xs=(0, 14),
                          muv=tuple(((u, v), 15 if u else 3) for (u, v), _ in shape.muv),
                          muw=tuple(((u, w), 16 if u else 4) for (u, w), _ in shape.muw))


def test_a_mixed_batch_is_one_stack_and_matches_each_batch_of_one(monkeypatch):
    # four rows of one shape: x_0 and x_1 one atom, x_0 and x_1 separate
    # atoms of equal size, atoms of other sizes, and a diagonal octuple
    # whose odd W-vertex mirrors the even one; they share codes in different
    # places, so the stack shares none of those places
    factor = _mixed_factor()
    ctx = LocalContext3(factor, _row(factor, (0, 1), (1, 2), (2, 2), (0,), (1,), (2,)))
    small = LocalContext3(factor, _row(factor, (1, 1), (1, 2), (2, 1), (1,), (2,), (2,)))
    fs = [_random_f(3, 3, seed=80 + k) for k in range(8)]
    other = space(3, 2).index_of((1, 0))
    assert factor.atom_sizes[other] == factor.atom_sizes[ctx.codes[0]] and other != ctx.codes[0]
    shape = _octuple_shape_with_two_x_atoms()
    rows = [ctx.codes + tuple(range(8)) + (ctx.codes[0], ctx.codes[3], ctx.codes[4]),
            ctx.codes + tuple(range(8)) + (other, 0, 1),
            small.codes + tuple(range(7, -1, -1)) + (small.codes[0], small.codes[3],
                                                     small.codes[4]),
            small.codes + (0,) * 8 + (small.codes[0], small.codes[3], small.codes[4])]
    singles = [local_norms._ternary_contract(factor, shape, [r], fs)[0] for r in rows]
    assert min(abs(v) for v in singles) > 1.0
    for got, (c, octu) in zip(singles[::2], [(ctx, fs), (small, fs[::-1])]):
        assert got == pytest.approx(local_u3_inner(c.factor, c.codes, octu), rel=1e-12)
    norm = local_norms.local_u3_norms(factor, [small.codes], fs[:1])[0]
    assert singles[3] == pytest.approx(norm ** 8, rel=1e-12)
    stacks = []
    init = local_norms._Stack.__init__
    monkeypatch.setattr(local_norms._Stack, "__init__",
                        lambda self, factor, shape, codes, arrays: stacks.append(len(codes))
                        or init(self, factor, shape, codes, arrays))
    batch = local_norms._ternary_contract(factor, shape, rows, fs)
    assert stacks == [4]
    for got, want in zip(batch, singles):
        assert abs(got - want) <= 1e-12 * abs(want)


def test_u3_problems_keep_their_shortcuts_whatever_the_first_one_shares(monkeypatch):
    # the first context's three atoms are one atom and its three measures
    # one mask, the second's are not: the stack still holds one array per
    # part and per pair, the odd W-vertex mirrors the even one, and the
    # scan is halved
    factor = _mixed_factor()
    one = LocalContext3(factor, _row(factor, (0, 1), (0, 1), (0, 1), (0,), (0,), (0,)))
    a1, a2, a3, b12, b13, b23 = one.codes
    assert a1 == a2 == a3
    assert len({(b12, a1, a2), (b13, a1, a3), (b23, a2, a3)}) == 1
    other = LocalContext3(factor, _row(factor, (0, 1), (1, 2), (2, 2), (0,), (1,), (2,)))
    f = _random_f(3, 3, seed=90)
    stacks = []
    contract = local_norms._Stack.contract
    monkeypatch.setattr(local_norms._Stack, "contract",
                        lambda self, sp: stacks.append(self) or contract(self, sp))
    norms = local_norms.local_u3_norms(factor, [one.codes, other.codes], [f, f])
    (stack,) = stacks
    assert len({id(a) for a in (*stack.xs, *stack.ys, *stack.zs)}) == 3
    assert len({id(m) for d in (stack.muv, stack.muw, stack.mvw) for m in d.values()}) == 3
    assert len(stack.mirrored) == 1 and stack.half
    singles = [local_norms.local_u3_norms(factor, [c.codes], [f])[0] for c in (one, other)]
    assert norms == pytest.approx(singles, rel=1e-12)


@pytest.mark.parametrize("pattern,half", [
    ("abcdefgh", False), ("aaaaaaaa", True), ("ababcdcd", True), ("aaaabbbb", True),
    ("abababab", True), ("aabbccdd", False), ("abcdabcd", False)])
def test_the_halved_scan_takes_exactly_the_y_symmetric_octuples(monkeypatch, pattern, half):
    # slot (u, 1, w), octuple[4u + 2 + w], must read slot (u, 0, w)'s
    # function, which the U^3 signs always conjugate; eight distinct
    # functions take the full scan
    factor = _mixed_factor()
    ctx = LocalContext3(factor, _row(factor, (0, 1), (1, 2), (2, 2), (0,), (1,), (2,)))
    named = {c: _random_f(3, 3, seed=100 + k) for k, c in enumerate("abcdefgh")}
    octu = [named[c] for c in pattern]
    stacks = []
    contract = local_norms._Stack.contract
    monkeypatch.setattr(local_norms._Stack, "contract",
                        lambda self, sp: stacks.append(self) or contract(self, sp))
    got = local_u3_inner(factor, ctx.codes, octu)
    assert [s.half for s in stacks] == [half]
    assert got == pytest.approx(local_u3_inner_naive(factor, ctx.codes, octu),
                                rel=1e-10, abs=1e-14)


def test_the_halved_scan_counts_half_the_distinct_y_pairs():
    # 9-point cosets of a factor with no form: every y-tuple keeps all 9 x's
    # and 9 z's, so the full scan of eight distinct functions counts 81
    # y-tuples and the diagonal 45 = 9 * 10 / 2, each 9^3 multiply-adds
    # per computed slot (two, and one with the mirrored W-slot) and
    # 2 * 9 * (9 + 1) index sums
    factor = new_quadratic_factor(new_linear_factor(3, 3, [(1, 0, 0)]), [])
    ctx = LocalContext3(factor, (1, 2, 0, 0, 0, 0))
    fs = [_random_f(3, 3, seed=110 + k) for k in range(8)]
    # (the contraction is the twin of the coset route at q = 0)
    per_tuple = 9 ** 3 + 2 * 9 * 10
    contract = local_norms._ternary_contract
    _, terms = run_counted(contract, factor, local_norms.u3_shape(False), [ctx.codes + (0,)],
                           [fs[0]])
    assert terms == 45 * per_tuple
    octuple = [ctx.codes + tuple(range(8))]
    _, terms = run_counted(contract, factor, local_norms.u3_shape(True), octuple,
                           fs)
    assert terms == 81 * (2 * 9 ** 3 + 2 * 9 * 10)


def _smallpart_batch():
    """smallpart's default batch: the standard (3, 4, l = q = 1) factor, the
    nondegenerate codes among the 2,000 directions drawn at seed 0, and its
    function of seed 0."""
    factor = new_quadratic_factor(new_linear_factor(3, 4, [(1, 0, 0, 0)]),
                                  [np.eye(4, dtype=np.int64)])
    codes = direction_codes(factor, [np.random.default_rng((0, j)).integers(0, 3, size=9)
                                     for j in range(2000)])
    f = np.random.default_rng(0).uniform(-1.0, 1.0, 81)
    return factor, codes[~degenerate_directions(factor, codes)], f


def test_the_contraction_holds_only_its_live_y_tuples():
    # a stack of 1,165 contexts pads its y atoms to 12 points, 167,760
    # y-tuples of which 25,390 are live; with keys for the live ones only
    # and the padded count stacks freed before the buckets the numpy peak
    # is 3.3 MB, and keys for every padded y-tuple would take it to 6.3 MB
    factor, codes, f = _smallpart_batch()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        local_norms.local_u3_norms(factor, codes, [f] * len(codes))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_a_halved_block_gets_only_real_y_tuples_with_j0_at_most_j1(monkeypatch):
    # 9- and 12-point y atoms in one stack pad every y atom to 12 points;
    # each live y-tuple reaches exactly one block, inside its context's own
    # y atom and with j_0 <= j_1
    factor, codes, f = _smallpart_batch()
    size = factor.atom_sizes[codes[:, 1]]
    rows = np.concatenate([codes[size == 9][:3], codes[size == 12][:3]])
    singles = [local_norms.local_u3_norms(factor, [r], [f])[0] for r in rows]
    seen = []
    block = local_norms._Stack.block
    monkeypatch.setattr(local_norms._Stack, "block",
                        lambda self, sp, c, j, kx, kz: seen.append((self.half, c, j))
                        or block(self, sp, c, j, kx, kz))
    batch = local_norms.local_u3_norms(factor, rows, [f] * len(rows))
    assert seen and all(half for half, _, _ in seen)
    size = factor.atom_sizes[rows[:, 1]]
    tuples = []
    for _, c, (j0, j1) in seen:
        assert (j0 <= j1).all() and (j1 < size[c]).all()
        tuples.extend(zip(c.tolist(), j0.tolist(), j1.tolist()))
    assert len(set(tuples)) == len(tuples) and {c for c, _, _ in tuples} == set(range(6))
    assert batch == pytest.approx(singles, rel=1e-12)


def _forms_factor(p, q, second=None):
    """F_3^3 or F_p^2 with q diagonal forms (x . x, then `second`, by default
    the weights 1, 2, 1, ...) and, without forms, cosets of p points."""
    n = 3 if p == 3 else 2
    if second is None:
        second = np.diag([(1, 2)[i % 2] for i in range(n)])
    forms = [np.eye(n, dtype=np.int64), second][:q]
    vectors = [] if q else [tuple(int(i == j) for j in range(n)) for i in range(n - 1)]
    return new_quadratic_factor(new_linear_factor(p, n, vectors), forms)


def _direction_rows(factor, seed, count, limit=350, draws=400):
    """Random rows (a1, a2, a3, b12, b13, b23) of direction codes, and the
    first `count` of them that are nondegenerate with |a1| |a2| |a3| <= limit
    and whose atom sizes differ from the earlier ones' (then any others)."""
    rng = np.random.default_rng(seed)
    atoms, levels = factor.atom_sizes.size, factor.p ** factor.q
    rows = np.concatenate([rng.integers(0, atoms, (draws, 3)),
                           rng.integers(0, levels, (draws, 3))], axis=1)
    sizes = factor.atom_sizes[rows[:, :3]]
    keep = np.flatnonzero(~degenerate_directions(factor, rows) & (sizes.prod(axis=1) <= limit))
    _, first = np.unique(sizes[keep], axis=0, return_index=True)
    order = list(dict.fromkeys(keep[np.sort(first)].tolist() + keep.tolist()))
    return rows, rows[order[:count]]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_batched_norms_match_the_nested_sum_across_primes_and_forms(p, q):
    # one batch of atoms of unequal sizes, a function shared by two
    # directions and a repeated direction, each against the six-fold sum
    factor = _forms_factor(p, q)
    _, rows = _direction_rows(factor, seed=10 * p + q, count=3)
    assert len(rows) == 3
    assert q == 0 or len(set(factor.atom_sizes[rows[:, :3]].ravel().tolist())) > 1
    fs = [_random_f(p, factor.n, seed=200 + k) for k in range(2)]
    fs = [fs[0], fs[1], fs[1], fs[0]]
    norms = local_norms.local_u3_norms(factor, np.concatenate([rows, rows[:1]]), fs)
    assert norms[3] == norms[0]
    for row, f, norm in zip(rows, fs, norms):
        assert norm ** 8 == pytest.approx(local_u3_inner_naive(factor, row, [f] * 8).real,
                                          rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("p,second", [(3, None), (5, None), (7, None), (3, "zero")])
def test_degenerate_rows_are_flagged_and_refused(p, second):
    # the rows a sampler draws include empty atoms and, with a zero second
    # form, empty level sets: exactly those are flagged, the batch refuses
    # them, and the others match the nested sum
    factor = _forms_factor(p, 2, None if second is None else np.zeros((3, 3), dtype=np.int64))
    rows, _ = _direction_rows(factor, seed=p, count=0, draws=4000)
    empty = degenerate_directions(factor, rows)
    rows = np.concatenate([rows[empty][:20], rows[~empty][:20]])
    empty = degenerate_directions(factor, rows)
    assert empty.sum() == 20 and len(rows) > 24
    if second is not None:  # a row whose atoms are all nonempty
        row = rows[empty][(factor.atom_sizes[rows[empty][:, :3]] > 0).all(axis=1)][0]
        with pytest.raises(DegenerateContext, match=r"^beta\("):
            local_norms.local_u3_norms(factor, [row], [_random_f(p, factor.n, seed=1)])
    for row, flag in zip(rows, empty):
        try:
            LocalContext3(factor, row)
        except DegenerateContext:
            assert flag
        else:
            assert not flag
    f = _random_f(p, factor.n, seed=300)
    with pytest.raises(DegenerateContext):
        local_norms.local_u3_norms(factor, rows, [f] * len(rows))
    live = rows[~empty]
    norms = local_norms.local_u3_norms(factor, live, [f] * len(live))
    for row, norm in list(zip(live, norms))[:4]:
        assert norm ** 8 == pytest.approx(local_u3_inner_naive(factor, row, [f] * 8).real,
                                          rel=1e-10, abs=1e-14)


def test_a_batch_split_across_context_blocks(monkeypatch):
    # a block budget of a few contexts splits the batch into several stacks,
    # the last one partial; every value is the unsplit batch's and the
    # nested sum's
    factor = _forms_factor(3, 1)
    _, rows = _direction_rows(factor, seed=5, count=7)
    fs = [_random_f(3, 3, seed=400 + k % 3) for k in range(len(rows))]
    whole = local_norms.local_u3_norms(factor, rows, fs)
    stacks = []
    init = local_norms._Stack.__init__
    monkeypatch.setattr(local_norms._Stack, "__init__",
                        lambda self, factor, shape, codes, arrays: stacks.append(len(codes))
                        or init(self, factor, shape, codes, arrays))
    width = int(factor.atom_sizes[rows[:, 1]].max())
    monkeypatch.setattr(local_norms, "H_BLOCK_ENTRIES", 3 * (width ** 2 + 27))
    split = local_norms.local_u3_norms(factor, rows, fs)
    assert stacks == [3, 3, 1]
    assert split == pytest.approx(whole, rel=1e-12)
    for row, f, norm in zip(rows, fs, split):
        assert norm ** 8 == pytest.approx(local_u3_inner_naive(factor, row, [f] * 8).real,
                                          rel=1e-10, abs=1e-14)


def test_u3_inner_batch_matches_each_batch_of_one():
    # atoms of unequal sizes, a repeated direction and octuples sharing
    # functions, in one contraction of octuple rows
    factor = _forms_factor(3, 1)
    _, rows = _direction_rows(factor, seed=6, count=3)
    rows = np.concatenate([rows, rows[:1]])
    fs = [_random_f(3, 3, seed=600 + k) for k in range(10)]
    octuples = [fs[k:k + 8] for k in (0, 2, 1, 2)]
    batch = local_norms.local_u3_inners(factor, rows, octuples)
    assert len(batch) == 4 and (abs(batch) > 0).sum() >= 3
    for row, octu, got in zip(rows, octuples, batch):
        assert got == pytest.approx(local_u3_inner(factor, row, octu), rel=1e-12)
    assert batch[0] == pytest.approx(local_u3_inner_naive(factor, rows[0], octuples[0]), rel=1e-10)
    assert len(local_norms.local_u3_inners(factor, [], [])) == 0


def test_weighted_density_batch_matches_each_batch_of_one():
    # sparse sets on the directions' target atoms and one whole-group set,
    # with a repeated direction, in one contraction of one-vertex-part rows
    factor = _forms_factor(3, 1)
    _, rows = _direction_rows(factor, seed=7, count=4)
    rows = np.concatenate([rows, rows[:1]])
    rng = np.random.default_rng(8)
    members = [rng.random(27) < 0.3 for _ in range(4)] + [np.ones(27, dtype=bool)]
    batch = weighted_ternary_densities(factor, rows, members)
    assert len(batch) == 5
    for row, member, got in zip(rows, members, batch):
        ctx = LocalContext3(factor, row)
        want = weighted_ternary_densities(factor, [ctx.codes], [member])[0]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert weighted_ternary_densities(factor, [], []) == []


def test_a_context_holds_its_codes_and_builds_no_masks(monkeypatch):
    factor = _mixed_factor()
    row = _row(factor, (0, 1), (1, 2), (2, 2), (0,), (1,), (2,))
    built = []
    monkeypatch.setattr(local_norms, "level_masks", lambda *args: built.append(args))
    ctx = LocalContext3(factor, row)
    assert ctx.codes == tuple(row.tolist()) and ctx.factor is factor
    assert not built
    for name in ("mu12", "mu13", "mu23", "xs", "ys", "zs"):
        assert not hasattr(ctx, name)


def test_every_mask_stack_is_one_byte_per_entry_and_none_is_kept(monkeypatch):
    factor = new_quadratic_factor(new_linear_factor(3, 4, [(1, 0, 0, 0)]),
                                  [np.eye(4, dtype=np.int64)])
    codes = direction_codes(factor, [[0, 1, 1, 0, 2, 1, 0, 1, 2],
                                     [1, 1, 0, 2, 2, 2, 1, 0, 0]])
    stacks = []
    build = local_norms.level_masks
    monkeypatch.setattr(local_norms, "level_masks",
                        lambda *args: stacks.append(build(*args)) or stacks[-1])
    local_norms.local_u3_norms(factor, codes, [_random_f(3, 4, 1), _random_f(3, 4, 2)])
    assert stacks
    for stack in stacks:
        assert stack.dtype == np.bool_ and stack.itemsize == 1 and stack.nbytes == stack.size
    assert not [v for v in factor.__dict__.values()
                if isinstance(v, np.ndarray) and v.dtype == np.bool_]


@pytest.mark.parametrize("p,m", [(3, 3), (5, 2), (7, 1)])
@pytest.mark.parametrize("ell", [0, 1, 2])
def test_without_forms_the_coset_route_matches_the_contraction(monkeypatch, p, m, ell):
    # four directions on a factor with no forms and non-coordinate linear
    # vectors: each local quantity, taken on the target coset with no
    # ternary contraction, against that contraction on the same rows
    rng = np.random.default_rng(100 * p + 10 * m + ell)
    n = ell + m
    factor = _non_coordinate_linear(rng, p, n, ell)
    codes = np.zeros((4, 6), dtype=np.int64)
    codes[:, :3] = rng.integers(0, p ** ell, (4, 3))
    fs = [_random_f(p, n, seed=900 + k) for k in range(8)]
    octuples = [fs[k:] + fs[:k] for k in range(4)]
    grids = [{key: fs[int(rng.integers(8))] for key in _ip2_diagonal(k, fs[0])} for k in (1, 2)]
    members = [rng.random(p ** n) < 0.4 for _ in range(4)]
    with monkeypatch.context() as patched:
        patched.setattr(local_norms._Stack, "contract", None)  # any contraction fails
        norms = local_norms.local_u3_norms(factor, codes, fs[:4])
        inners = local_norms.local_u3_inners(factor, codes, octuples)
        ip2s = [[t_ip2_local(k, factor, row, grid) for row in codes]
                for k, grid in zip((1, 2), grids)]
        densities = weighted_ternary_densities(factor, codes, members)
    contract = local_norms._ternary_contract
    diagonal = contract(factor, local_norms.u3_shape(False), np.column_stack([codes, range(4)]),
                        fs[:4])
    assert norms == pytest.approx(local_norms._roots_of_diagonal(diagonal, 8, 1e-9).tolist(),
                                  rel=1e-12)
    columns = [[(k + j) % 8 for j in range(8)] for k in range(4)]  # octuples[k][j]
    assert inners == pytest.approx(contract(factor, local_norms.u3_shape(True),
                                            np.column_stack([codes, columns]),
                                            fs), rel=1e-12)
    for k, grid, got in zip((1, 2), grids, ip2s):
        if k == 2 and m == 3:  # 27-point cosets: 16 W-vertices over 27^5 terms each
            continue
        graph = ip2_hypergraph(k)
        slots = {(i - 1, j - 1, s): g for (i, j, s), g in grid.items()}
        want = t_ternaries([TernaryContext(graph, factor, constant_codes(graph, row))
                            for row in codes], [slots] * 4)
        assert got == pytest.approx(want, rel=1e-12)
    weighted = contract(factor, _ternary_shape(1, 1, 1), np.column_stack([codes, range(4)]),
                        [b.astype(np.float64) for b in members])
    assert densities == pytest.approx(weighted.real.tolist(), rel=1e-12)


def test_a_linear_factor_takes_local_u3_norms_on_its_cosets():
    # the factor without forms is passed as it is: each diagonal norm^8
    # against the six-fold sum over the direction's three cosets
    lin = new_linear_factor(3, 3, [(1, 1, 0)])
    f = _random_f(3, 3, seed=130)
    rows = [(0, 0, 0, 0, 0, 0), (1, 2, 2, 0, 0, 0), (2, 1, 0, 0, 0, 0)]
    norms = local_norms.local_u3_norms(lin, rows, [f] * 3)
    for row, norm in zip(rows, norms):
        naive = local_u3_inner_naive(lin, row, [f] * 8).real
        assert norm ** 8 == pytest.approx(naive, rel=1e-10)


def test_a_factor_with_forms_gives_the_local_u2_norms_of_its_cosets():
    # the coset routines read the factor's linear part, never its atoms
    factor = new_quadratic_factor(new_linear_factor(3, 3, [(1, 1, 0)]),
                                  [np.diag([1, 2, 1])])
    fs = [_random_f(3, 3, seed=140 + k) for k in range(3)]
    codes = [1, 2, 0]
    assert local_u2_norms(factor, codes, fs) == local_u2_norms(factor.linear, codes, fs)
    for code, f, norm in zip(codes, fs, local_u2_norms(factor, codes, fs)):
        assert norm ** 4 == pytest.approx(local_u2_inner(factor, (0, code), f, f, f, f).real,
                                          rel=1e-10)


def test_without_forms_a_norm_counts_its_gather_and_the_global_norm():
    # a 9-point target coset: 9 gathered entries, then u3_norms over F_3^2,
    # (9 + 1) / 2 h's of 9 entries each, one shift-table read and one
    # transform and |T|^4 sum of p n + 1 = 7 terms per entry, once the
    # factor's codes are built
    factor = new_quadratic_factor(new_linear_factor(3, 3, [(1, 0, 0)]), [])
    f = _random_f(3, 3, seed=120)
    local_norms.local_u3_norms(factor, [(1, 2, 0, 0, 0, 0)], [f])
    basis_terms = run_counted(factor.linear.subgroup_basis)[1]
    _, terms = run_counted(local_norms.local_u3_norms, factor, [(1, 2, 0, 0, 0, 0)], [f])
    assert terms == basis_terms + 9 + 5 * 9 * (1 + 7)


def test_without_forms_codes_are_checked():
    factor = new_quadratic_factor(new_linear_factor(3, 2, [(1, 0)]), [])
    f = _random_f(3, 2, seed=121)
    for row in ((3, 0, 0, 0, 0, 0), (0, -1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)):
        with pytest.raises(ValueError):
            local_norms.local_u3_norms(factor, [row], [f])


TABLE_ROUTES = [
    "fourier_transform", "fourier_transform_naive", "u2_inner", "u3_inner", "ap3_average",
    "ap4_average", "max_quadratic_correlation", "value_columns", "local_u2_inner",
    "local_u2_norms", "local_u3_inner", "local_u3_inners", "local_u3_norms", "t_ip",
    "t_ip_local", "t_ip2", "t_ip2_local", "t_ip2_local-q0", "t_bipartite", "t_ternary",
    "t_ternaries", "u3_inner_naive", "local_u3_inner_naive", "t_ip_naive",
    "t_ip2_per_s_oracle"]


def _table_route(name, bad):
    """The call of the route `name` on F_3^3 with the table `bad` in one
    slot and a good table in every other."""
    f = _random_f(3, 3, seed=150)
    factor = _mixed_factor()
    d = _row(factor, (0, 1), (1, 2), (2, 1), (0,), (0,), (0,))
    octuple = [f] * 7 + [bad]
    ip = {(i, s): f for i in (1, 2) for s in range(4)} | {(2, 3): bad}
    ip2 = {(1, 1, 0): f, (1, 1, 1): bad}
    graph = pattern_ops.ip2_hypergraph(1)
    ternary = TernaryContext(graph, factor, constant_codes(graph, d))
    slots = {(0, 0, 0): f, (0, 0, 1): bad}
    flat = new_quadratic_factor(factor.linear, [])
    return {
        "fourier_transform": lambda: spectral.fourier_transform(bad, 3, 3),
        "fourier_transform_naive": lambda: spectral.fourier_transform_naive(bad, 3, 3),
        "u2_inner": lambda: spectral.u2_inner(octuple[4:], 3, 3),
        "u3_inner": lambda: spectral.u3_inner(octuple, 3, 3),
        "ap3_average": lambda: spectral.ap3_average(bad, 3, 3),
        "ap4_average": lambda: spectral.ap4_average(bad, 3, 3),
        "max_quadratic_correlation": lambda: spectral.max_quadratic_correlation(bad, 3, 3),
        "value_columns": lambda: local_norms.value_columns(octuple, 3, 3),
        "local_u2_inner": lambda: local_u2_inner(factor, (1, 2), *octuple[4:]),
        "local_u2_norms": lambda: local_u2_norms(factor, [0, 1], [f, bad]),
        "local_u3_inner": lambda: local_u3_inner(factor, d, octuple),
        "local_u3_inners": lambda: local_u3_inners(factor, [d], [octuple]),
        "local_u3_norms": lambda: local_u3_norms(factor, [d, d], [f, bad]),
        "t_ip": lambda: pattern_ops.t_ip(2, ip, 3, 3),
        "t_ip_local": lambda: pattern_ops.t_ip_local(2, factor, (1, 2), ip),
        "t_ip2": lambda: pattern_ops.t_ip2(1, ip2, 3, 3),
        "t_ip2_local": lambda: t_ip2_local(1, factor, d, ip2),
        "t_ip2_local-q0": lambda: t_ip2_local(1, flat, (1, 2, 0, 0, 0, 0), ip2),
        "t_bipartite": lambda: pattern_ops.t_bipartite(
            pattern_ops.PatternHypergraph((1, 2)), factor, [0], [1, 2], {(0, 0): f, (0, 1): bad}),
        "t_ternary": lambda: pattern_ops.t_ternary(ternary, slots),
        "t_ternaries": lambda: t_ternaries([ternary] * 2, [dict.fromkeys(slots, f), slots]),
        "u3_inner_naive": lambda: reference.u3_inner_naive(octuple, 3, 3),
        "local_u3_inner_naive": lambda: local_u3_inner_naive(factor, d, octuple),
        "t_ip_naive": lambda: reference.t_ip_naive(2, ip, 3, 3),
        "t_ip2_per_s_oracle": lambda: reference.t_ip2_per_s_oracle(1, ip2, 3, 3),
    }[name]


@pytest.mark.parametrize("length", [26, 28])
@pytest.mark.parametrize("name", TABLE_ROUTES)
def test_a_table_of_the_wrong_length_is_refused(name, length):
    # one entry short or one too many, which a gather could read silently
    bad = _random_f(3, 3, seed=151)[:length] if length < 27 else np.zeros(length)
    try:
        _table_route(name, _random_f(3, 3, seed=151))()
    except CapExceeded:  # t_ip_naive's cap at m = 2; the lengths are checked first
        pass
    with pytest.raises(ValueError):
        _table_route(name, bad)()


def test_one_table_object_in_every_ip2_slot_shares_the_ternary_work():
    # the ternary contraction shares W-slots and value places by identity:
    # one array object in all 64 slots of local 2-IP2 on a factor with a
    # form gives the value of 64 copies of it, for fewer counted terms
    factor = _mixed_factor()
    d = _row(factor, (0, 1), (1, 2), (2, 2), (0,), (1,), (2,))
    f = _random_f(3, 3, seed=160)
    slots = list(itertools.product((1, 2), (1, 2), range(16)))
    shared = dict.fromkeys(slots, f)
    copies = {slot: f.copy() for slot in slots}
    t_ip2_local(2, factor, d, shared)  # the factor's caches, before counting
    one, shared_terms = run_counted(t_ip2_local, 2, factor, d, shared)
    many, copy_terms = run_counted(t_ip2_local, 2, factor, d, copies)
    assert abs(one) > 0 and one == many
    assert shared_terms < copy_terms
