"""Property tests of the batched ternary contraction against its reference
twins at every prime p in {3, 5, 7, 11, 13}: local U^3 on uneven atoms
against the six-fold nested sum (for diagonal, distinct and conjugate-paired
octuples, and for batches of contexts of mixed atom sizes), and m-IP2
against the per-subset oracle. Block budgets of a few y-tuples split the
buckets of y-tuples into several blocks; those blocks are checked against
the same twins, against a dense local IP2 sum and against the ternary
witness identity.
Needs the `hypothesis` test extra.
"""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qflab import local_norms  # noqa: E402
from qflab.errors import DegenerateContext  # noqa: E402
from qflab.factor import (  # noqa: E402
    mu_weight_matrix,
    new_linear_factor,
    new_quadratic_factor,
)
from qflab.fpn_core import space  # noqa: E402
from qflab.local_norms import (  # noqa: E402
    LocalContext3,
    local_u3_inner,
    local_u3_inner_naive,
    local_u3_norms,
)
from qflab.pattern_ops import (  # noqa: E402
    FunctionGrid,
    PatternHypergraph,
    TernaryContext,
    constant_codes,
    ip2_hypergraph,
    t_ip2,
    t_ip2_local,
    t_ip2_per_s_oracle,
    t_ternary,
    ternary_normalization,
    witness_count_ternary,
)
from qflab.spectral import GroupFunction  # noqa: E402

# (p, n, ell) with q = 1: atoms small enough for the six-fold reference sum
FACTOR_SHAPES = [(3, 2, 0), (3, 3, 1), (5, 2, 0), (5, 2, 1), (7, 2, 0), (7, 2, 1), (11, 2, 1),
                 (13, 2, 1)]
MEMBER_PRODUCT_LIMIT = 400  # largest |B(a1)| |B(a2)| |B(a3)| the reference sum is run on
# (p, n, m) with N^(2m+1) 2^(m^2) <= 32000: the per-subset oracle is a Python loop
IP2_SIZES = [(p, n, m) for p in (3, 5, 7, 11, 13) for n in (1, 2) for m in (1, 2)
             if (p ** n) ** (2 * m + 1) * 2 ** (m * m) <= 32000]


def _members(ctx):
    """The member arrays of a direction's three atoms, from the member table."""
    return [ctx.factor._members_by_code[a] for a in ctx.codes[:3]]


def _sizes(ctx):
    """The sizes of a direction's three atoms."""
    return tuple(ctx.factor.atom_sizes[list(ctx.codes[:3])].tolist())


def _measures(ctx):
    """The measures mu12, mu13, mu23 of a direction on its atoms' members."""
    a1, a2, a3, b12, b13, b23 = ctx.codes
    return [mu_weight_matrix(ctx.factor, b, row, col)
            for b, row, col in ((b12, a1, a2), (b13, a1, a3), (b23, a2, a3))]


def _bounded(rng, p, n):
    vals = rng.standard_normal(p ** n) + 1j * rng.standard_normal(p ** n)
    return GroupFunction(p, n, vals / np.maximum(np.abs(vals), 1.0))


def _coordinate_label(factor, index):
    """The atom label of a point from its coordinates, in Python ints."""
    p, n = factor.p, factor.n
    x = [index // p ** i % p for i in range(n)]
    linear = [sum(a * b for a, b in zip(x, v.coords)) % p for v in factor.linear.vectors]
    quadratic = [sum(x[i] * m.entries[i][j] * x[j] for i in range(n) for j in range(n)) % p
                 for m in factor.forms]
    return tuple(linear + quadratic)


def _coordinate_code(factor, index):
    """The atom code of a point, from its coordinate label."""
    return space(factor.p, factor.width).index_of(_coordinate_label(factor, index))


def _uneven_contexts(p, n, ell, seed, count):
    """A random one-form factor and up to `count` nondegenerate direction
    tuples on it whose three atoms are not all of one size; each bilinear
    label is read off a member pair, so every mu matrix has support."""
    rng = np.random.default_rng(seed)
    rows = []
    if ell:
        row = rng.integers(0, p, n)
        row[rng.integers(n)] = rng.integers(1, p)
        rows = [tuple(int(v) for v in row)]
    form = np.zeros((n, n), dtype=np.int64)
    while not form.any():
        a = rng.integers(0, p, (n, n))
        form = (a + a.T) % p
    factor = new_quadratic_factor(new_linear_factor(p, n, rows), [form])
    digits = factor.space.digits.astype(np.int64)
    out = []
    for _ in range(200):
        x, y, z = (int(i) for i in rng.integers(0, p ** n, 3))
        atoms = [_coordinate_code(factor, i) for i in (x, y, z)]
        levels = [int(digits[i] @ form @ digits[j] % p) for i, j in ((x, y), (x, z), (y, z))]
        try:
            ctx = LocalContext3(factor, atoms + levels)
        except DegenerateContext:
            continue
        sizes = _sizes(ctx)
        if len(set(sizes)) > 1 and math.prod(sizes) <= MEMBER_PRODUCT_LIMIT:
            out.append(ctx)
            if len(out) == count:
                break
    return out


def _uneven_context(p, n, ell, seed):
    """One context of `_uneven_contexts`; None when the search finds none."""
    found = _uneven_contexts(p, n, ell, seed, 1)
    return found[0] if found else None


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(FACTOR_SHAPES), seed=st.integers(0, 2 ** 32 - 1),
       diagonal=st.booleans())
def test_local_u3_matches_nested_sum_on_uneven_atoms(shape, seed, diagonal):
    ctx = _uneven_context(*shape, seed)
    assume(ctx is not None)
    rng = np.random.default_rng(seed + 1)
    p, n, _ = shape
    octu = [_bounded(rng, p, n)] * 8 if diagonal else [_bounded(rng, p, n) for _ in range(8)]
    slow = local_u3_inner_naive(ctx, octu)
    assert local_u3_inner(ctx, octu) == pytest.approx(slow, rel=1e-10, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(FACTOR_SHAPES), seed=st.integers(0, 2 ** 32 - 1))
def test_conjugate_slot_pairs_match_nested_sum(shape, seed):
    # (f, f, g, g, h, h, k, k): W-slot 1 reads W-slot 0's functions with
    # every conjugate flag flipped, so the contraction reuses the conjugate
    # of slot 0's z-average for four distinct functions
    ctx = _uneven_context(*shape, seed)
    assume(ctx is not None)
    rng = np.random.default_rng(seed + 2)
    p, n, _ = shape
    octu = [g for g in (_bounded(rng, p, n) for _ in range(4)) for _ in range(2)]
    slow = local_u3_inner_naive(ctx, octu)
    assert local_u3_inner(ctx, octu) == pytest.approx(slow, rel=1e-10, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from(IP2_SIZES), seed=st.integers(0, 2 ** 32 - 1),
       diagonal=st.booleans())
def test_ip2_matches_per_subset_oracle_across_primes(size, seed, diagonal):
    p, n, m = size
    rng = np.random.default_rng(seed)
    if diagonal:
        grid = FunctionGrid.ip2_diagonal(m, _bounded(rng, p, n))
    else:
        grid = FunctionGrid({(i, j, s): _bounded(rng, p, n) for i in range(1, m + 1)
                             for j in range(1, m + 1) for s in range(1 << (m * m))})
    slow = t_ip2_per_s_oracle(m, grid)
    assert t_ip2(m, grid) == pytest.approx(slow, rel=1e-10, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 11, 13]), seed=st.integers(0, 2 ** 32 - 1),
       count=st.integers(1, 4))
def test_batched_norms_match_nested_sums_per_context(p, seed, count):
    # one batch mixes the atom sizes of several directions of one random
    # factor and gives every context its own function (one context repeats)
    n = min(s[1] for s in FACTOR_SHAPES if s[0] == p)
    ells = [s[2] for s in FACTOR_SHAPES if s[:2] == (p, n)]
    ctxs = _uneven_contexts(p, n, ells[seed % len(ells)], seed, count + 1)
    assume(len({_sizes(c) for c in ctxs}) > 1)
    ctxs.append(ctxs[0])
    rng = np.random.default_rng(seed + 4)
    fs = [_bounded(rng, p, n) for _ in ctxs]
    norms = local_u3_norms(ctxs[0].factor, [c.codes for c in ctxs], fs)
    for ctx, f, norm in zip(ctxs, fs, norms):
        slow = local_u3_inner_naive(ctx, [f] * 8)
        assert norm ** 8 == pytest.approx(slow.real, rel=1e-10, abs=1e-14)


def _record_blocks(monkeypatch) -> list:
    """Patch the block step of the ternary contraction to record, per block,
    (y-tuples, kept x counts, kept z counts)."""
    blocks = []
    block = local_norms._Stack.block
    monkeypatch.setattr(local_norms._Stack, "block",
                        lambda self, sp, c, j, kx, kz: blocks.append((len(c), kx, kz))
                        or block(self, sp, c, j, kx, kz))
    return blocks


def _u3_contracted(factor, d, octu) -> complex:
    """`local_u3_inner` of the octuple at the direction d through the
    ternary contraction: its route with forms and its twin without."""
    (u3,) = local_norms._ternary_contract(factor, local_norms.u3_shape(True),
                                          [tuple(d) + tuple(range(8))], [g.values for g in octu])
    return complex(u3)


def _ip2_contracted(factor, d, grid) -> complex:
    """`t_ip2_local` (m = 1) of the grid at the direction d through the
    ternary operator: its route with forms and its twin without."""
    graph = ip2_hypergraph(1)
    slots = FunctionGrid({(i - 1, j - 1, s): g for (i, j, s), g in grid.mapping.items()})
    return t_ternary(TernaryContext(graph, factor, constant_codes(graph, d)), slots)


@pytest.mark.parametrize("budget", [54 * 5, 54 * 60])
def test_several_y_blocks_with_a_partial_last_block(monkeypatch, budget):
    # 270 entries: on atoms of 12, 9 and 12 points of a one-form factor the
    # 32 y-tuples that keep 6 x's and 6 z's go 7 to a block (7, 7, 7, 7, 4);
    # 3240 entries: on 9-point cosets of a factor with no form the one bucket
    # of 81 y-tuples, each keeping 9 x's and 9 z's, goes 40, 40, 1
    if budget == 54 * 5:
        factor = new_quadratic_factor(new_linear_factor(3, 3, []), [np.eye(3, dtype=np.int64)])
        d = (2, 0, 2, 0, 0, 0)
        split = [7, 7, 7, 7, 4]
    else:
        factor = new_quadratic_factor(new_linear_factor(3, 3, [(1, 0, 0)]), [])
        d = (1, 2, 0, 0, 0, 0)
        split = [40, 40, 1]
    ctx = LocalContext3(factor, d)
    rng = np.random.default_rng(11)
    octu = [_bounded(rng, 3, 3) for _ in range(8)]
    grid = FunctionGrid.ip2_select(1, _bounded(rng, 3, 3), _bounded(rng, 3, 3))
    whole = (_u3_contracted(factor, d, octu), _ip2_contracted(factor, d, grid))
    assert whole == pytest.approx((local_u3_inner(ctx, octu), t_ip2_local(1, factor, d, grid)),
                                  rel=1e-12, abs=1e-15)
    blocks = _record_blocks(monkeypatch)
    monkeypatch.setattr(local_norms, "BLOCK_ENTRIES", budget)
    split_u3 = _u3_contracted(factor, d, octu)
    sizes = {}
    for size, kx, kz in blocks:
        sizes.setdefault((kx[0], kz[0]), []).append(size)
    assert split in sizes.values()
    split_ip2 = _ip2_contracted(factor, d, grid)
    assert (split_u3, split_ip2) == pytest.approx(whole, rel=1e-12, abs=1e-15)
    assert split_u3 == pytest.approx(local_u3_inner_naive(ctx, octu), rel=1e-10, abs=1e-15)


def _block_budget(xs, zs, tuples):
    """A BLOCK_ENTRIES under which a bucket of y-tuples that keep every
    member of these sizes takes `tuples` of them per block, and a sparser
    bucket more; tuples = 0 gives one y-tuple per block."""
    return max(1, tuples * max([x * z for x in xs for z in zs] + [xs[0] * xs[-1]]))


def _ip2_local_dense(ctx, grid):
    """m = 1 local IP2 as one dense weighted sum over the three atoms."""
    sums = ctx.factor.space.sum_grid3(*_members(ctx))
    mu12, mu13, mu23 = _measures(ctx)
    zweight = mu13[:, None, :] * mu23[None, :, :]
    out = mu12.astype(complex)
    for s in range(2):
        out = out * (zweight * grid[(1, 1, s)].values[sums]).mean(axis=2)
    return complex(out.mean())


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(FACTOR_SHAPES), seed=st.integers(0, 2 ** 32 - 1),
       diagonal=st.booleans(), rows=st.sampled_from([0, 1, 2]))
def test_restricted_blocks_match_the_twins(shape, seed, diagonal, rows):
    # at the default budget each bucket of these small atoms is one block;
    # a budget of a few dense y-tuples (rows) per block splits the buckets
    ctx = _uneven_context(*shape, seed)
    assume(ctx is not None)
    rng = np.random.default_rng(seed + 3)
    p, n, _ = shape
    octu = [_bounded(rng, p, n)] * 8 if diagonal else [_bounded(rng, p, n) for _ in range(8)]
    grid = FunctionGrid.ip2_select(1, _bounded(rng, p, n), _bounded(rng, p, n))
    sx, _, sz = _sizes(ctx)
    u3_budget = _block_budget([sx] * 2, [sz], rows)
    ip2_budget = _block_budget([sx], [sz], rows)
    with mock.patch.object(local_norms, "BLOCK_ENTRIES", u3_budget):
        u3 = local_u3_inner(ctx, octu)
    with mock.patch.object(local_norms, "BLOCK_ENTRIES", ip2_budget):
        ip2 = t_ip2_local(1, ctx.factor, ctx.codes, grid)
    assert u3 == pytest.approx(local_u3_inner_naive(ctx, octu), rel=1e-10, abs=1e-14)
    assert ip2 == pytest.approx(_ip2_local_dense(ctx, grid), rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("b12,b23", [((1,), (0,)), ((0,), (1,))])
def test_a_block_with_no_weighted_x_or_z_adds_nothing(b12, b23):
    # y = 0 pairs to level 0 with every member, so a y-tuple holding it
    # keeps no x (b12 = 1) or no z (b23 = 1) and joins no bucket; the other
    # y-tuples keep some
    factor = new_quadratic_factor(new_linear_factor(5, 2, []), [np.eye(2, dtype=np.int64)])
    ctx = LocalContext3(factor, (1, 0, 2, *b12, 1, *b23))
    _, ys, _ = _members(ctx)
    mu12, _, mu23 = _measures(ctx)
    zero = int(np.flatnonzero(ys == 0)[0])
    empty = mu12[:, zero] if b12 == (1,) else mu23[zero]
    assert not empty.any() and mu12.any() and mu23.any()
    sx, _, sz = _sizes(ctx)
    rng = np.random.default_rng(21)
    octu = [_bounded(rng, 5, 2) for _ in range(8)]
    grid = FunctionGrid.ip2_select(1, _bounded(rng, 5, 2), _bounded(rng, 5, 2))
    for rows in (0, 1):
        u3_budget = _block_budget([sx] * 2, [sz], rows)
        ip2_budget = _block_budget([sx], [sz], rows)
        with mock.patch.object(local_norms, "BLOCK_ENTRIES", u3_budget):
            u3 = local_u3_inner(ctx, octu)
        with mock.patch.object(local_norms, "BLOCK_ENTRIES", ip2_budget):
            ip2 = t_ip2_local(1, factor, ctx.codes, grid)
        assert u3 == pytest.approx(local_u3_inner_naive(ctx, octu), rel=1e-10, abs=1e-15)
        assert ip2 == pytest.approx(_ip2_local_dense(ctx, grid), rel=1e-10, abs=1e-15)


def test_each_bucket_is_blocked_by_what_its_y_tuples_keep(monkeypatch):
    # y = 0 pairs to level 0 with every member, so at b12 = b23 = 0 the
    # y-tuple (0, 0) keeps all 12 x's and 12 z's, 32 other tuples keep 6
    # and 6, and the remaining 48 keep 2 and 2; under a budget of four dense
    # y-tuples each bucket takes as many tuples per block as fit what they
    # keep, and no block forms a larger slab
    factor = new_quadratic_factor(new_linear_factor(3, 3, []), [np.eye(3, dtype=np.int64)])
    ctx = LocalContext3(factor, (2, 0, 2, 0, 0, 0))
    assert _sizes(ctx) == (12, 9, 12)
    budget = 4 * 12 * 12
    blocks = _record_blocks(monkeypatch)
    monkeypatch.setattr(local_norms, "BLOCK_ENTRIES", budget)
    rng = np.random.default_rng(31)
    octu = [_bounded(rng, 3, 3) for _ in range(8)]
    assert local_u3_inner(ctx, octu) == pytest.approx(
        local_u3_inner_naive(ctx, octu), rel=1e-10, abs=1e-15)
    assert sorted((size, kx[0], kz[0]) for size, kx, kz in blocks) == [
        (1, 12, 12), (16, 6, 6), (16, 6, 6), (48, 2, 2)]
    assert max(size * kx[0] * max(kx[0], kz[0]) for size, kx, kz in blocks) <= budget


@pytest.mark.parametrize("seed,rows", [(0, 0), (1, 1), (2, 2)])
def test_ternary_witness_identity_on_restricted_blocks(seed, rows):
    # one member configuration sets every vertex's atom, every pair's level
    # and the edge set, so the U, V and W weights differ and the witness
    # count is positive
    factor = new_quadratic_factor(new_linear_factor(3, 3, []), [np.eye(3, dtype=np.int64)])
    sp = factor.space
    digits = sp.digits.astype(np.int64)
    rng = np.random.default_rng(500 + seed)
    x, y, z = (rng.integers(0, 27, 2) for _ in range(3))
    member = rng.random(27) < 0.5
    graph = PatternHypergraph((2, 2, 2), frozenset(
        (u, v, w) for u, v, w in itertools.product(range(2), repeat=3)
        if member[sp.add(sp.add(int(x[u]), int(y[v])), int(z[w]))]))

    def level(i, j):
        return int(digits[i] @ digits[j] % 3)

    atoms = [[_coordinate_code(factor, int(i)) for i in part] for part in (x, y, z)]
    ctx = TernaryContext(graph, factor, atoms[0] + atoms[1] + atoms[2]
                         + [level(x[u], y[v]) for u in range(2) for v in range(2)]
                         + [level(x[u], z[w]) for u in range(2) for w in range(2)]
                         + [level(y[v], z[w]) for v in range(2) for w in range(2)])
    ind = GroupFunction.indicator(3, 3, np.flatnonzero(member))
    indc = GroupFunction.indicator(3, 3, np.flatnonzero(~member))
    sizes = [factor.atom_sizes[part].tolist() for part in (atoms[0], atoms[2])]
    with mock.patch.object(local_norms, "BLOCK_ENTRIES", _block_budget(*sizes, rows)):
        val = t_ternary(ctx, FunctionGrid.edge_select(graph, ind, indc))
    count = witness_count_ternary(ctx, member)
    assert count > 0
    norm = float(ternary_normalization(ctx))
    assert val.real * norm == pytest.approx(count, abs=1e-6 * count)
