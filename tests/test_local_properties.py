"""Property tests of the batched ternary contraction against its reference
twins at every prime p in {3, 5, 7, 11, 13}: local U^3 on uneven atoms
against the six-fold nested sum (for diagonal, distinct and conjugate-paired
octuples), and m-IP2 against the per-subset oracle.
Needs the `hypothesis` test extra.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qflab import spectral  # noqa: E402
from qflab.errors import DegenerateContext  # noqa: E402
from qflab.factor import (  # noqa: E402
    DirectionTuple3,
    new_linear_factor,
    new_quadratic_factor,
)
from qflab.local_norms import LocalContext3, local_u3_inner, local_u3_inner_naive  # noqa: E402
from qflab.pattern_ops import FunctionGrid, t_ip2, t_ip2_local, t_ip2_per_s_oracle  # noqa: E402
from qflab.spectral import GroupFunction  # noqa: E402

# (p, n, ell) with q = 1: atoms small enough for the six-fold reference sum
FACTOR_SHAPES = [(3, 2, 0), (3, 3, 1), (5, 2, 0), (5, 2, 1), (7, 2, 0), (7, 2, 1), (11, 2, 1),
                 (13, 2, 1)]
MEMBER_PRODUCT_LIMIT = 400  # largest |B(a1)| |B(a2)| |B(a3)| the reference sum is run on
# (p, n, m) with N^(2m+1) 2^(m^2) <= 32000: the per-subset oracle is a Python loop
IP2_SIZES = [(p, n, m) for p in (3, 5, 7, 11, 13) for n in (1, 2) for m in (1, 2)
             if (p ** n) ** (2 * m + 1) * 2 ** (m * m) <= 32000]


def _bounded(rng, p, n):
    vals = rng.standard_normal(p ** n) + 1j * rng.standard_normal(p ** n)
    return GroupFunction(p, n, vals / np.maximum(np.abs(vals), 1.0), one_bounded=True)


def _uneven_context(p, n, ell, seed):
    """A random one-form factor and a nondegenerate direction tuple whose three
    atoms are not all of one size; each bilinear label is read off a member
    pair, so every mu matrix has support. None when the search finds none."""
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
    for _ in range(200):
        x, y, z = (int(i) for i in rng.integers(0, p ** n, 3))
        a1, a2, a3 = (factor.label_of_index(i).values for i in (x, y, z))
        b12, b13, b23 = ((int(digits[i] @ form @ digits[j] % p),)
                         for i, j in ((x, y), (x, z), (y, z)))
        try:
            ctx = LocalContext3(factor, DirectionTuple3(p, a1, a2, a3, b12, b13, b23))
        except DegenerateContext:
            continue
        sizes = (ctx.xs.size, ctx.ys.size, ctx.zs.size)
        if len(set(sizes)) > 1 and math.prod(sizes) <= MEMBER_PRODUCT_LIMIT:
            return ctx
    return None


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


@pytest.mark.parametrize("budget", [54 * 5, 54 * 60])
def test_several_y_blocks_with_a_partial_last_block(monkeypatch, budget):
    # atoms of 6, 12 and 9 points: the widest slab is 6 x 9 = 54 entries, so
    # 54 * 5 splits each y0 row of 12 y1's into blocks of 5, 5 and 2 (and the
    # one-y m = 1 IP2 into 5, 5, 2 y's), while 54 * 60 takes five whole y0
    # rows per block, leaving two for the last one
    factor = new_quadratic_factor(new_linear_factor(3, 4, [(1, 0, 0, 0)]),
                                  [np.eye(4, dtype=np.int64)])
    d = DirectionTuple3(3, (0, 1), (1, 0), (0, 0), (0,), (0,), (0,))
    ctx = LocalContext3(factor, d)
    assert (ctx.xs.size, ctx.ys.size, ctx.zs.size) == (6, 12, 9)
    rng = np.random.default_rng(11)
    octu = [_bounded(rng, 3, 4) for _ in range(8)]
    grid = FunctionGrid.ip2_select(1, _bounded(rng, 3, 4), _bounded(rng, 3, 4))
    whole = (local_u3_inner(ctx, octu), t_ip2_local(1, factor, d, grid))
    monkeypatch.setattr(spectral, "H_BLOCK_ENTRIES", budget)
    split = (local_u3_inner(ctx, octu), t_ip2_local(1, factor, d, grid))
    assert split == pytest.approx(whole, rel=1e-12, abs=1e-15)
    assert split[0] == pytest.approx(local_u3_inner_naive(ctx, octu), rel=1e-10, abs=1e-15)
