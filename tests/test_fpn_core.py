"""Exact arithmetic layer: group enumeration, mod-p linear algebra,
cyclotomic integers, and character sums against hand-derived values."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from qflab.errors import AsymmetricForm, CapExceeded, DependentBasis
from qflab.fpn_core import (
    CyclotomicValue,
    FieldPrime,
    GroupSpace,
    GroupVector,
    SymmetricForm,
    bilinear_char_sum,
    enumerate_group,
    linear_char_sum,
    linear_char_sum_multi,
    matrix_rank,
    nullspace_mod_p,
    omega_table,
    quad_char_sum,
    rank_mod_p,
    restrict_form,
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
            va = GroupVector.from_index(3, 2, a)
            vb = GroupVector.from_index(3, 2, b)
            assert int(sp.add(a, b)) == (va + vb).index


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
        GroupSpace(3, 19, cap=1 << 20)


def test_enumerate_group_is_a_bijection():
    seen = [v.index for v in enumerate_group(3, 3)]
    assert seen == list(range(27))


def test_group_vector_arithmetic():
    a = GroupVector(5, (1, 4))
    b = GroupVector(5, (3, 3))
    assert (a + b).coords == (4, 2)
    assert (a - b).coords == (3, 1)
    assert (-a).coords == (4, 1)
    assert a.dot(b) == (3 + 12) % 5
    assert GroupVector.zero(5, 2).is_zero()


def test_rank_mod_p_known_values():
    # det = 1 - 4 = -3 vanishes mod 3, matrix nonzero, so rank is 1
    assert rank_mod_p([[1, 2], [2, 1]], 3) == 1
    assert rank_mod_p([[1, 2], [2, 1]], 5) == 2
    assert rank_mod_p(np.eye(4, dtype=np.int64), 3) == 4
    assert rank_mod_p(np.zeros((3, 3), dtype=np.int64), 3) == 0
    assert rank_mod_p(np.zeros((0, 3), dtype=np.int64), 3) == 0


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
    x = GroupVector(3, (1, 2))
    # x^T M x = 1*1 + 2*1*2 + 4*2 = 13 = 1 mod 3
    assert f.evaluate(x) == 1


def test_matrix_rank_and_restriction():
    form = SymmetricForm.identity(3, 4)
    assert matrix_rank(form) == 4
    basis = [GroupVector(3, (1, 0, 0, 0)), GroupVector(3, (0, 1, 0, 0))]
    small = restrict_form(form, basis)
    assert small.entries == ((1, 0), (0, 1))
    with pytest.raises(DependentBasis):
        restrict_form(form, [GroupVector(3, (1, 0, 0, 0)),
                             GroupVector(3, (2, 0, 0, 0))])


def test_cyclotomic_canonicalization():
    p = 5
    total = CyclotomicValue.zero(p)
    for k in range(p):
        total = total + CyclotomicValue.omega_power(p, k)
    assert total == 0


def test_cyclotomic_product_identity():
    # (1 + w)(1 + w^2) at p=3: 1 + w + w^2 + w^3 = 0 + 1 = 1
    p = 3
    a = CyclotomicValue.from_counts(p, [1, 1, 0])
    b = CyclotomicValue.from_counts(p, [1, 0, 1])
    assert (a * b).rational_value() == 1


def test_cyclotomic_conjugation_and_embedding():
    p = 7
    v = CyclotomicValue.from_counts(p, [2, 0, 3, 0, 0, 1, 0])
    z = v.as_complex()
    assert abs(v.conj().as_complex() - z.conjugate()) < 1e-12
    m2 = v.mag2_rational()
    if m2 is not None:
        assert abs(float(m2) - abs(z) ** 2) < 1e-9


def test_gauss_sum_magnitude_is_exact():
    # counts of x^2 over F_3: value 0 once, value 1 twice
    g = CyclotomicValue.from_counts(3, [1, 2, 0])
    assert g.mag2_rational() == Fraction(3)


def test_omega_table():
    for p in (3, 5):
        tab = omega_table(p)
        for k in range(p):
            assert abs(tab[k] - cmath.exp(2j * math.pi * k / p)) < 1e-12


def test_linear_char_sum_dichotomy():
    exact, avg = linear_char_sum(GroupVector.zero(3, 4))
    assert exact.rational_value() == 81 and avg == 1.0
    exact, avg = linear_char_sum(GroupVector(3, (0, 1, 0, 0)))
    assert exact == 0 and avg == 0.0
    exact, avg = linear_char_sum_multi([GroupVector.zero(3, 2),
                                        GroupVector(3, (1, 0))])
    assert exact == 0 and avg == 0.0
    exact, avg = linear_char_sum_multi([GroupVector.zero(5, 1),
                                        GroupVector.zero(5, 2)])
    assert exact.p == 5 and exact.rational_value() == 125 and avg == 1.0
    with pytest.raises(ValueError):
        linear_char_sum_multi([])


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
