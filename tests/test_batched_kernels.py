"""Every batched kernel gives each row of a stack what that row gives alone.

The whole-group experiments draw their trials into value stacks and make
one kernel call per quantity, so a report may not depend on how trials
share a call. Each test shrinks the block size until the stack spans at
least three blocks, then compares every row with its batch of one (the
single-problem name) bit for bit, at p = 3 and p = 5.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qflab import fpn_core, spectral
from qflab.fpn_core import space
from qflab.pattern_ops import FunctionGrid, t_ip, t_ip2, t_ip2s, t_ips
from qflab.spectral import GroupFunction

GROUPS = [(3, 2), (5, 1), (5, 2)]


def _values(p, n, shape, seed):
    rng = np.random.default_rng(seed)
    shape = shape + (p ** n,)
    return rng.random(shape) * np.exp(2j * np.pi * rng.random(shape))


def _fns(p, n, rows):
    return [GroupFunction(p, n, row) for row in rows]


def _blocks(monkeypatch, entries):
    monkeypatch.setattr(spectral, "DERIVATIVE_BLOCK_ENTRIES", entries)


def _same(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("p,n", GROUPS)
def test_transforms_match_their_batch_of_one(monkeypatch, p, n):
    N = p ** n
    stack = _values(p, n, (7,), seed=1)
    _blocks(monkeypatch, 2 * N)  # two rows per block: four blocks
    spec = spectral.fourier_transforms(stack, p, n)
    back = spectral.inverse_transforms(spec, p, n)
    for row, t, b in zip(stack, spec, back):
        one = spectral.fourier_transform(GroupFunction(p, n, row))
        _same(t, one)
        _same(b, spectral.inverse_transforms(one[None], p, n)[0])
    assert np.max(np.abs(back - stack)) <= 1e-12


@pytest.mark.parametrize("p,n", GROUPS)
@pytest.mark.parametrize("per_block", [2, 0])
def test_u2_inners_match_their_batch_of_one(monkeypatch, p, n, per_block):
    # two quadruples per block, or one quadruple in blocks of 3 h
    N = p ** n
    stack = _values(p, n, (7, 4), seed=2)
    _blocks(monkeypatch, per_block * N * N or 3 * N)
    got = spectral.u2_inners(stack, p, n)
    for quad, value in zip(stack, got):
        _same(value, spectral.u2_inner(*_fns(p, n, quad)))


@pytest.mark.parametrize("p,n", GROUPS)
def test_u3_inners_match_their_batch_of_one(monkeypatch, p, n):
    N = p ** n
    stack = _values(p, n, (5, 8), seed=3)
    _blocks(monkeypatch, 2 * 4 * N * N)  # two octuples per block: three blocks
    got = spectral.u3_inners(stack, p, n)
    for octuple, value in zip(stack, got):
        _same(value, spectral.u3_inner(_fns(p, n, octuple)))
        assert value == pytest.approx(spectral.u3_inner_naive(_fns(p, n, octuple)), abs=1e-12)


@pytest.mark.parametrize("p,n", GROUPS)
def test_norms_match_their_batch_of_one(monkeypatch, p, n):
    N = p ** n
    H = (N + 1) // 2
    stack = _values(p, n, (3, 3), seed=4)
    for norms, entries in ((spectral.u2_norms, 2 * N), (spectral.u3_norms, 2 * N * H)):
        _blocks(monkeypatch, entries)  # two functions per block: five blocks
        got = norms(stack, p, n)
        assert got.shape == (3, 3)
        for row, value in zip(stack.reshape(-1, N), got.ravel()):
            _same(value, norms(row[None], p, n)[0])


@pytest.mark.parametrize("p,n", GROUPS)
@pytest.mark.parametrize("per_block", [2, 0])
def test_ap_averages_match_their_batch_of_one(monkeypatch, p, n, per_block):
    # two functions per block, or one function in blocks of 2 x rows
    N = p ** n
    stack = _values(p, n, (7,), seed=5)
    _blocks(monkeypatch, per_block * N * N or 2 * N)
    for batch, one in ((spectral.ap3_averages, spectral.ap3_average),
                       (spectral.ap4_averages, spectral.ap4_average)):
        for row, value in zip(stack, batch(stack, p, n)):
            _same(value, one(GroupFunction(p, n, row)))


@pytest.mark.parametrize("p,n", GROUPS)
def test_ip_averages_match_their_batch_of_one(monkeypatch, p, n):
    N = p ** n
    ip = _values(p, n, (7, 2, 4), seed=6)
    ip2 = _values(p, n, (5, 2, 2, 16), seed=7)
    ip2_one = _values(p, n, (7, 1, 1, 2), seed=8)
    _blocks(monkeypatch, 2 * N * N)  # two m = 2 IP grids per block
    for grid, value in zip(ip, t_ips(2, ip, p, n)):
        one = FunctionGrid({(i + 1, s): GroupFunction(p, n, grid[i, s])
                            for i in range(2) for s in range(4)})
        _same(value, t_ip(2, one))
    _blocks(monkeypatch, 2 * 32 * N * N)  # two m = 2 IP2 grids per block
    for m, stack in ((2, ip2), (1, ip2_one)):
        for grid, value in zip(stack, t_ip2s(m, stack, p, n)):
            one = FunctionGrid({(i + 1, j + 1, s): GroupFunction(p, n, grid[i, j, s])
                                for i in range(m) for j in range(m) for s in range(1 << (m * m))})
            _same(value, t_ip2(m, one))


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
@pytest.mark.parametrize("entries", [8, 40])
def test_character_sums_match_their_batch_of_one(monkeypatch, p, n, entries):
    # 8 entries: one form per block, in blocks of points; 40: two forms per
    # block at (3, 2), one form in blocks of points otherwise
    rng = np.random.default_rng(9)
    raw = rng.integers(0, p, size=(7, n, n))
    forms = (raw + raw.swapaxes(1, 2)) % p
    c, d = rng.integers(0, p, size=(2, 7, n))
    monkeypatch.setattr(fpn_core, "H_BLOCK_ENTRIES", entries)
    quads = fpn_core.quad_char_sums(forms, c, p)
    bils = fpn_core.bilinear_char_sums(forms, c, d, p)
    for m, ci, di, q, b in zip(forms, c, d, quads, bils):
        _same(q, fpn_core.quad_char_sums(m[None], ci[None], p)[0])
        _same(b, fpn_core.bilinear_char_sums(m[None], ci[None], di[None], p)[0])


def test_u2_inners_peak_within_a_few_blocks():
    # 400 functions at (3, 4): 100 quadruples of 81 points, whose shift
    # tables alone would hold 100 x 81^2 complex entries (10 MiB)
    stack = _values(3, 4, (100, 4), seed=10)
    space(3, 4).shift_table()
    spectral.u2_inners(stack[:1], 3, 4)
    tracemalloc.start()
    try:
        spectral.u2_inners(stack, 3, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * spectral.DERIVATIVE_BLOCK_ENTRIES * 16


def test_character_sums_of_the_trivial_group():
    # F_p^0 has one point, where every phase is 0
    for p in (3, 5):
        form, zero = np.zeros((1, 0, 0), dtype=np.int64), np.zeros((1, 0), dtype=np.int64)
        assert fpn_core.quad_char_sums(form, zero, p)[0] == 1
        assert fpn_core.bilinear_char_sums(form, zero, zero, p)[0] == 1
