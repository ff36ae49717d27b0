"""Arithmetic layer: index tables, mod-p linear algebra, and character
sums against hand-derived values."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from qflab.errors import AsymmetricForm, CapExceeded
from qflab.fpn_core import (
    FieldPrime,
    GroupSpace,
    GroupVector,
    SymmetricForm,
    _embed_counts,
    bilinear_char_sum,
    count_terms,
    nullspace_mod_p,
    omega_table,
    quad_char_sum,
    rank_mod_p,
    run_counted,
    space,
)


def test_field_prime_accepts_supported_primes():
    for p in (3, 5, 7, 11, 13):
        FieldPrime(p)


def test_field_prime_rejects_others():
    for p in (2, 4, 9, 15, 17):
        with pytest.raises(ValueError):
            FieldPrime(p)


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


def test_symmetric_form_validation():
    with pytest.raises(AsymmetricForm):
        SymmetricForm(3, ((0, 1), (2, 0)))
    f = SymmetricForm.from_array(3, [[4, 1], [1, 2]])
    assert f.entries == ((1, 1), (1, 2))


def test_gauss_sum_magnitude_is_exact():
    # E_x omega^(x^2) over F_p is a normalized Gauss sum: |value|^2 = 1/p
    for p in (3, 5, 7, 11, 13):
        val = quad_char_sum(SymmetricForm.identity(p, 1), GroupVector.zero(p, 1))
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
    val = quad_char_sum(SymmetricForm.identity(3, 2), GroupVector.zero(3, 2))
    assert abs(val - (-1.0 / 3.0)) < 1e-12


def test_quad_char_sum_magnitude_decays_with_rank():
    for n in (1, 2, 3):
        val = quad_char_sum(SymmetricForm.identity(3, n), GroupVector.zero(3, n))
        assert abs(abs(val) - 3.0 ** (-n / 2.0)) < 1e-12


def test_bilinear_char_sum_identity_form():
    # the y-sum forces x = 0, leaving 9 of 81 pairs
    z = GroupVector.zero(3, 2)
    val = bilinear_char_sum(SymmetricForm.identity(3, 2), z, z)
    assert abs(val - 1.0 / 9.0) < 1e-12


def test_bilinear_char_sum_vanishes_off_solvable_shift():
    # with M = 0 and d != 0 the system x^T M + d = 0 has no solution
    z = GroupVector.zero(3, 2)
    val = bilinear_char_sum(SymmetricForm.zero(3, 2), z, GroupVector(3, (1, 0)))
    assert val == 0.0


def test_kernels_count_only_inside_a_run():
    # outside a run the tally is closed: these count nothing and raise nothing
    form = SymmetricForm.identity(3, 2)
    b = GroupVector.zero(3, 2)
    quad_char_sum(form, b)
    count_terms(5)
    value, terms = run_counted(quad_char_sum, form, b)
    assert value == quad_char_sum(form, b)
    assert terms == 9
