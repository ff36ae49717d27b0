"""Arithmetic layer: index tables, mod-p linear algebra, and character
sums against hand-derived values."""

from __future__ import annotations

import cmath
import copy
import math
import pickle

import numpy as np
import pytest

from qflab import fpn_core
from qflab.errors import CapExceeded
from qflab.fpn_core import (
    H_BLOCK_ENTRIES,
    ODD_PRIMES,
    GroupSpace,
    _embed_counts,
    bilinear_char_sums,
    count_terms,
    nullspace_mod_p,
    omega_table,
    quad_char_sums,
    rank_mod_p,
    run_counted,
    space,
)
from qflab.pattern_ops import PatternHypergraph


def _quad(p, form, b):
    """`quad_char_sums` of a one-row stack."""
    n = len(form)
    return complex(quad_char_sums(np.reshape(form, (1, n, n)), np.reshape(b, (1, n)), p)[0])


def _bilinear(p, form, c, d):
    """`bilinear_char_sums` of a one-row stack."""
    n = len(form)
    return complex(bilinear_char_sums(np.reshape(form, (1, n, n)), np.reshape(c, (1, n)),
                                      np.reshape(d, (1, n)), p)[0])


def test_field_prime_accepts_supported_primes():
    for p in (3, 5, 7, 11, 13):
        assert GroupSpace(p, 1).p == p


def test_field_prime_rejects_others():
    for p in (2, 4, 9, 15, 17):
        with pytest.raises(ValueError, match=rf"p must be an odd prime in \(3, 5, 7, 11, 13\), got {p}$"):
            GroupSpace(p, 1)


@pytest.mark.parametrize("value,field,text", [
    (PatternHypergraph((2, 1), [(1, 0)]), "edges",
     "PatternHypergraph(parts=(2, 1), edges=frozenset({(1, 0)}))"),
])
def test_value_classes_compare_by_fields_and_stay_frozen(value, field, text):
    assert repr(value) == text
    for again in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert again is not value and again == value and hash(again) == hash(value)
    assert value != text and value != PatternHypergraph((2, 1), [(0, 0)])
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_group_space_digit_index_roundtrip():
    sp = GroupSpace(5, 3)
    for idx in (0, 1, 7, 64, 124):
        assert sp.index_of(sp.coords_of(idx)) == idx


def test_group_space_add_matches_vector_add():
    sp = space(3, 2)
    for a in range(sp.size):
        for b in range(sp.size):
            coords = [x + y for x, y in zip(sp.coords_of(a), sp.coords_of(b))]
            assert int(sp.add(a, b)) == sp.index_of(coords)


def test_sum_grids_match_scalar_adds():
    sp = space(3, 2)
    xs = np.array([0, 4, 7], dtype=np.int64)
    ys = np.array([1, 8], dtype=np.int64)
    zs = np.array([2, 3], dtype=np.int64)
    grid = sp.sum_grid(xs, ys)
    grid3 = sp.sum_grid3(xs, ys, zs)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert grid[i, j] == sp.add(int(x), int(y))
            for k, z in enumerate(zs):
                assert grid3[i, j, k] == sp.add(sp.add(int(x), int(y)), int(z))


def _coordinate_sum(sp: GroupSpace):
    """index_of of the coordinate sum, one scalar at a time, broadcasting."""
    return np.vectorize(lambda *xs: sp.index_of(np.sum([sp.coords_of(int(x)) for x in xs],
                                                       axis=0)), otypes=[np.int64])


@pytest.mark.parametrize("p,n", [(p, n) for n in (0, 1) for p in ODD_PRIMES]
                         # read from the cached whole-group table
                         + [(3, 3), (3, 5), (5, 3), (7, 2), (11, 2), (13, 2)]
                         # added by halves of the digits, (3, 11) twice over
                         + [(3, 6), (3, 7), (5, 4), (13, 3), (3, 11)])
def test_index_addition_matches_coordinate_sums(p, n):
    sp = space(p, n)
    N = sp.size
    plus = _coordinate_sum(sp)
    rng = np.random.default_rng(100 * p + n)
    a, b = (int(v) for v in rng.integers(0, N, 2))
    assert sp.add(a, b) == plus(a, b)
    assert run_counted(sp.add, a, b)[1] == 0
    rows, cols = rng.integers(0, N, (7, 1)), rng.integers(0, N, (7, 5))
    assert np.array_equal(sp.add(rows, cols), plus(rows, cols))
    out, terms = run_counted(sp.sums, rows, cols)
    assert np.array_equal(out, plus(rows, cols)) and terms == 35
    # a slice of rows spans its own axis, before the columns
    lo, hi = N // 3, max(N - 4, 0)
    block, terms = run_counted(sp.sums, slice(lo, lo + 3), slice(hi, None))
    want = plus(np.arange(lo, min(lo + 3, N))[:, None], np.arange(hi, N))
    assert np.array_equal(block, want) and terms == want.size
    block = sp.sums(slice(None), cols[0])
    picks = rng.integers(0, N, 4)
    assert block.shape == (N, 5) and np.array_equal(block[picks], plus(picks[:, None], cols[0]))
    xs, ys, zs = (rng.integers(0, N, k) for k in (4, 3, 2))
    grid, terms = run_counted(sp.sum_grid, xs, ys)
    assert np.array_equal(grid, plus(xs[:, None], ys)) and terms == 12
    grid3, terms = run_counted(sp.sum_grid3, xs, ys, zs)
    assert np.array_equal(grid3, plus(xs[:, None, None], ys[:, None], zs)) and terms == 24
    if N * N <= H_BLOCK_ENTRIES:
        table, terms = run_counted(sp.shift_table)
        assert terms == 0 and table is sp.shift_table()
        assert np.array_equal(table[picks], plus(picks[:, None], np.arange(N)))
        with pytest.raises(ValueError):
            table[0, 0] = 1


@pytest.mark.parametrize("p,n", [(p, n) for p in ODD_PRIMES for n in range(7) if p ** n <= 1024]
                         + [(3, 7)])
def test_sum_table_matches_split_sums(p, n):
    # up to 1,024 points every sum is one gather from the int16 table, built
    # from its halves' tables; past that the table is refused and the sums
    # are the split route's. Both give int64.
    sp = space(p, n)
    rng = np.random.default_rng((900, p, n))
    rows, cols = rng.integers(0, sp.size, (6, 1)), rng.integers(0, sp.size, (6, 9))
    for a, b in ((rows, cols), (slice(None), cols[0]), (int(rows[0, 0]), int(cols[0, 0]))):
        got = sp.sums(a, b)
        assert got.dtype == np.int64 and np.array_equal(got, sp._split_sums(a, b))
    if sp.size <= 1024:
        table = sp.shift_table()
        assert table.dtype == np.int16 and not table.flags.writeable
        assert np.array_equal(table, sp._split_sums(slice(None), slice(None)))
    else:
        with pytest.raises(CapExceeded):
            sp.shift_table()


def test_index_addition_fills_split_sums_in_blocks(monkeypatch):
    # a 40-entry threshold keeps tables of at most 12 points, so it splits
    # F_3^4 into F_3^2 halves, each read from its table, and adds the low
    # halves 40 entries (two rows of 20 sums) at a time
    monkeypatch.setattr(fpn_core, "H_BLOCK_ENTRIES", 40)
    sp = space(3, 4)
    plus = _coordinate_sum(sp)
    xs, ys, zs = np.arange(81), np.arange(0, 81, 4), np.array([5, 80])
    assert np.array_equal(sp.sum_grid(xs, ys), plus(xs[:, None], ys))
    assert np.array_equal(sp.sum_grid3(xs, ys, zs), plus(xs[:, None, None], ys[:, None], zs))
    assert sp.add(80, 79) == plus(80, 79)


@pytest.mark.parametrize("p, n", [(3, 0), (3, 4), (5, 3), (7, 2)])
def test_form_values_match_a_loop_over_points(p, n, monkeypatch):
    # a 10-entry block widens a few rows of digits at a time
    monkeypatch.setattr(fpn_core, "H_BLOCK_ENTRIES", 10)
    rng = np.random.default_rng(10 * p + n)
    a = rng.integers(0, p, (n, n))
    m, r, mat = (a + a.T) % p, rng.integers(0, p, n), rng.integers(0, p, (n, 3))
    quad, lin, cols = [], [], []
    for index in range(p ** n):
        x = [index // p ** i % p for i in range(n)]
        quad.append(sum(x[i] * int(m[i, j]) * x[j] for i in range(n) for j in range(n)))
        lin.append(sum(x[i] * int(r[i]) for i in range(n)))
        cols.append([sum(x[i] * int(mat[i, k]) for i in range(n)) % p for k in range(3)])
    sp = space(p, n)
    got, terms = run_counted(sp.form_values, m, r)
    assert terms == 0 and got.dtype == np.int64
    assert got.tolist() == [(u + v) % p for u, v in zip(quad, lin)]
    assert sp.form_values(m).tolist() == [u % p for u in quad]
    assert sp.form_values(r=r).tolist() == [v % p for v in lin]
    assert sp.form_values(r=mat).tolist() == cols


def test_group_space_cap():
    with pytest.raises(CapExceeded):
        GroupSpace(3, 19)


def test_rank_mod_p_known_values():
    # det = 1 - 4 = -3 vanishes mod 3, matrix nonzero, so rank is 1
    assert rank_mod_p([[1, 2], [2, 1]], 3) == 1
    assert rank_mod_p([[1, 2], [2, 1]], 5) == 2
    assert rank_mod_p(np.eye(4, dtype=np.int64), 3) == 4
    assert rank_mod_p(np.zeros((3, 3), dtype=np.int64), 3) == 0
    assert rank_mod_p(np.zeros((0, 3), dtype=np.int64), 3) == 0


def test_rank_mod_p_counts_the_entries_of_its_row_operations():
    # 2I over F_3: one scaling per row, 3 rows of 3 entries; the all-ones
    # 2 x 2 matrix: one scaling and one clearing of 2 entries each
    assert run_counted(rank_mod_p, 2 * np.eye(3, dtype=np.int64), 3) == (3, 9)
    assert run_counted(rank_mod_p, [[1, 1], [1, 1]], 3) == (1, 4)
    assert run_counted(rank_mod_p, np.zeros((3, 3), dtype=np.int64), 3) == (0, 0)


def test_nullspace_is_orthogonal_and_complete():
    rows = [(1, 0, 2), (0, 1, 1)]
    basis = nullspace_mod_p(rows, 3, 3)
    assert len(basis) == 1
    m = np.array(rows, dtype=np.int64)
    for vec in basis:
        assert np.all(m @ np.array(vec) % 3 == 0)
    assert rank_mod_p(np.array(basis), 3) == len(basis)


def test_gauss_sum_magnitude_is_exact():
    # E_x omega^(x^2) over F_p is a normalized Gauss sum: |value|^2 = 1/p
    for p in (3, 5, 7, 11, 13):
        val = _quad(p, np.eye(1), np.zeros(1))
        assert abs(abs(val) ** 2 - 1.0 / p) < 1e-12
    # 1 + omega + ... + omega^(p-1) = 0, so shifting every count by the
    # same constant must not move a single bit of the embedding
    rng = np.random.default_rng(7)
    for p in (3, 5, 7, 11, 13):
        counts = rng.integers(0, 50, size=p)
        for shift in (1, 17, -int(counts.min())):
            assert repr(_embed_counts(p, counts + shift)) == repr(_embed_counts(p, counts))


def test_omega_table():
    for p in (3, 5):
        tab = omega_table(p)
        for k in range(p):
            assert abs(tab[k] - cmath.exp(2j * math.pi * k / p)) < 1e-12


def test_quad_char_sum_identity_form():
    # E w^(x.x) over F_3^2 equals ((1 + 2w)/3)^2 = -1/3
    val = _quad(3, np.eye(2), np.zeros(2))
    assert abs(val - (-1.0 / 3.0)) < 1e-12


def test_quad_char_sum_magnitude_decays_with_rank():
    for n in (1, 2, 3):
        val = _quad(3, np.eye(n), np.zeros(n))
        assert abs(abs(val) - 3.0 ** (-n / 2.0)) < 1e-12


def test_bilinear_char_sum_identity_form():
    # the y-sum forces x = 0, leaving 9 of 81 pairs
    z = np.zeros(2)
    val = _bilinear(3, np.eye(2), z, z)
    assert abs(val - 1.0 / 9.0) < 1e-12


def test_bilinear_char_sum_vanishes_off_solvable_shift():
    # with M = 0 and d != 0 the system x^T M + d = 0 has no solution
    z = np.zeros(2)
    val = _bilinear(3, np.zeros((2, 2)), z, (1, 0))
    assert val == 0.0


def test_kernels_count_only_inside_a_run():
    # outside a run the tally is closed: these count nothing and raise nothing
    form, b = np.eye(2), np.zeros(2)
    _quad(3, form, b)
    count_terms(5)
    value, terms = run_counted(_quad, 3, form, b)
    assert value == _quad(3, form, b)
    assert terms == 9
