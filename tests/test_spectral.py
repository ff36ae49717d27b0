"""Transforms, box norms, progression averages, correlation search.

Reference values for the subgroup indicator: for a subgroup of density
alpha, the count of k-dimensional cubes landing inside it is alpha^(k+1),
and the three-term progression density is alpha^2. With alpha = 1/3 that
gives 1/27, 1/81 and 1/9.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from qflab.errors import CapExceeded, NegativeDiagonal
from qflab import spectral
from qflab.fpn_core import GroupVector, SymmetricForm, space
from qflab.spectral import (
    EPS3_ORDER,
    GroupFunction,
    ap3_average,
    ap4_average,
    fourier_transform,
    fourier_transform_naive,
    inverse_transforms,
    max_quadratic_correlation,
    u2_inner,
    u2_norms,
    u3_inner,
    u3_inner_naive,
    u3_norms,
)


def _random_f(p, n, seed, bounded=False):
    rng = np.random.default_rng(seed)
    N = p ** n
    vals = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    if bounded:
        vals = vals / np.maximum(np.abs(vals), 1.0)
    return GroupFunction(p, n, vals)


def _stack(fs):
    """The value stack of functions on one group, and that group."""
    return np.stack([f.values for f in fs]), fs[0].p, fs[0].n


def _subgroup_indicator():
    sp = space(3, 2)
    members = [i for i in range(9) if sp.digits[i, 0] == 0]
    return GroupFunction.indicator(3, 2, members)


@pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (5, 2), (7, 1), (11, 2)])
def test_fast_transform_matches_naive(p, n):
    f = _random_f(p, n, seed=p * 10 + n)
    fast = fourier_transform(f)
    slow = fourier_transform_naive(f)
    assert np.max(np.abs(fast - slow)) <= 1e-10


def test_inversion_roundtrip():
    f = _random_f(3, 4, seed=2)
    back = inverse_transforms(fourier_transform(f)[None], 3, 4)[0]
    assert np.max(np.abs(back - f.values)) <= 1e-10


def test_parseval():
    f = _random_f(5, 3, seed=9)
    l2 = np.sqrt(np.sum(np.abs(fourier_transform(f)) ** 2))
    assert l2 == pytest.approx(f.l2_norm(), abs=1e-10)


def test_character_transform_is_a_point_mass():
    t = GroupVector(3, (1, 2, 0))
    spec = fourier_transform(GroupFunction.character(t))
    expected = np.zeros(27, dtype=complex)
    expected[t.index] = 1.0
    assert np.max(np.abs(spec - expected)) <= 1e-10


def test_u2_inner_matches_explicit_loop():
    fs = [_random_f(3, 1, seed=20 + k) for k in range(4)]
    sp = space(3, 1)
    total = 0.0 + 0.0j
    for x in range(3):
        for h1 in range(3):
            for h2 in range(3):
                total += (
                    fs[0].values[x]
                    * np.conj(fs[1].values[sp.add(x, h2)])
                    * np.conj(fs[2].values[sp.add(x, h1)])
                    * fs[3].values[sp.add(sp.add(x, h1), h2)]
                )
    assert u2_inner(*fs) == pytest.approx(complex(total / 27), abs=1e-12)


def test_u2_fourth_power_equals_spectral_moment():
    # u2_norms is the spectral moment itself, so the shift-table average is
    # the independent side of the identity
    f = _random_f(3, 3, seed=31)
    fourth = np.sum(np.abs(fourier_transform(f)) ** 4)
    assert u2_inner(f, f, f, f) == pytest.approx(fourth, abs=1e-10)


@pytest.mark.parametrize("p,n", [(3, 0), (3, 3), (5, 2), (7, 1)])
def test_u2_norms_match_the_shift_table_average(p, n):
    fs = [_random_f(p, n, seed=90 + k) for k in range(3)]
    want = [u2_inner(f, f, f, f).real ** 0.25 for f in fs]
    assert u2_norms(*_stack(fs)) == pytest.approx(want, rel=1e-12)
    assert u2_norms(*_stack([fs[1]]))[0] == pytest.approx(want[1], rel=1e-12)
    assert u2_norms(np.zeros((0, p ** n)), p, n).shape == (0,)


def test_u3_inner_matches_explicit_loop():
    fs = [_random_f(3, 1, seed=40 + k) for k in range(8)]
    table = {eps: g for eps, g in zip(EPS3_ORDER, fs)}
    sp = space(3, 1)
    total = 0.0 + 0.0j
    for x0 in range(3):
        for x1 in range(3):
            for y0 in range(3):
                for y1 in range(3):
                    for z0 in range(3):
                        for z1 in range(3):
                            xs, ys, zs = (x0, x1), (y0, y1), (z0, z1)
                            term = 1.0 + 0.0j
                            for eps, g in table.items():
                                pt = sp.add(sp.add(xs[eps[0]], ys[eps[1]]), zs[eps[2]])
                                v = g.values[pt]
                                term *= np.conj(v) if sum(eps) % 2 else v
                            total += term
    for route in (u3_inner, u3_inner_naive):
        assert route(fs) == pytest.approx(complex(total / 3 ** 6), abs=1e-12)


def test_u3_eighth_power_matches_derivative_route():
    f = _random_f(3, 2, seed=55)
    assert u3_norms(*_stack([f]))[0] ** 8 == pytest.approx(u3_inner_naive([f] * 8).real,
                                                         abs=1e-10)


def test_u3_inner_blocks_of_h_match_reference(monkeypatch):
    # 4 x 5 x 27 entries per buffer of four tables at p^n = 27: five blocks
    # of 5 h and a last one of 2
    monkeypatch.setattr(spectral, "DERIVATIVE_BLOCK_ENTRIES", 4 * 5 * 27)
    fs = [_random_f(3, 3, seed=70 + k, bounded=True) for k in range(8)]
    assert u3_inner(fs) == pytest.approx(u3_inner_naive(fs), abs=1e-12)


def _u3_twin(f):
    return u3_inner([f] * 8).real ** 0.125


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_u3_norms_match_the_inner_product(p, n):
    # one function alone, then a batch that repeats a function
    fs = [_random_f(p, n, seed=100 + k, bounded=k % 2 == 1) for k in range(3)]
    batch = fs + [fs[0]]
    want = [_u3_twin(f) for f in batch]
    assert u3_norms(*_stack(fs[:1])) == pytest.approx(want[:1], rel=1e-12)
    got = u3_norms(*_stack(batch))
    assert got == pytest.approx(want, rel=1e-12)
    assert got[3] == got[0]
    assert u3_norms(*_stack([fs[2]]))[0] == pytest.approx(want[2], rel=1e-12)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_u3_norms_match_the_reference_loop(p, n):
    fs = [_random_f(p, n, seed=110 + k) for k in range(2)]
    want = [u3_inner_naive([f] * 8).real ** 0.125 for f in fs]
    assert u3_norms(*_stack(fs)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p,n,entries", [
    # p^n = 27 scans h = 0 and 13 of the 26 nonzero h, 14 x 27 = 378
    # entries a function: 405 entries hold one function's whole scan, so
    # each function is a chunk of its own, all h in one block
    (3, 3, 405),
    # no scan of 13 h fits 54 entries (54 // 25 = 2): each function is a
    # chunk of its own, in blocks of 2 h and a last one of 1
    (5, 2, 54),
])
def test_u3_norms_blocks_and_chunks_match_the_inner_product(monkeypatch, p, n, entries):
    fs = [_random_f(p, n, seed=120 + k, bounded=True) for k in range(3)]
    want = [_u3_twin(f) for f in fs]
    monkeypatch.setattr(spectral, "DERIVATIVE_BLOCK_ENTRIES", entries)
    assert u3_norms(*_stack(fs)) == pytest.approx(want, rel=1e-12)


def test_u3_norms_reject_mixed_groups():
    # a stack holds one group; a last axis of another length is refused
    assert u3_norms(np.zeros((0, 9)), 3, 2).shape == (0,)
    with pytest.raises(ValueError):
        u3_norms(_stack([_random_f(3, 3, seed=1)])[0], 3, 2)
    with pytest.raises(ValueError):
        u2_norms(_stack([_random_f(3, 2, seed=1)])[0], 5, 2)


def test_u3_reference_is_capped():
    f = _random_f(3, 4, seed=3)
    with pytest.raises(CapExceeded):
        u3_inner_naive([f] * 8)
    with pytest.raises(ValueError):
        u3_inner([f] * 7)


def test_u3_exact_values_past_the_reference_cap():
    # p = 3, n = 5: quadratic phases and characters have U^3 norm 1, and
    # the indicator of a subgroup of density 1/3 has eighth power 1/3^4
    p, n = 3, 5
    rng = np.random.default_rng(7)
    raw = rng.integers(0, p, size=(n, n))
    form = SymmetricForm.from_array(p, (raw + raw.T) % p)
    shift = GroupVector(p, tuple(int(c) for c in rng.integers(0, p, n)))
    phase = GroupFunction.quadratic_phase(form, shift)
    assert u3_norms(phase.values, p, n) == pytest.approx(1.0, abs=1e-10)
    assert u3_norms(GroupFunction.character(shift).values, p, n) == pytest.approx(1.0, abs=1e-10)
    sp = space(p, n)
    members = [i for i in range(sp.size) if sp.digits[i, 0] == 0]
    indicator = GroupFunction.indicator(p, n, members)
    assert u3_norms(indicator.values, p, n) ** 8 == pytest.approx(1 / 81, abs=1e-10)


def test_u2_never_exceeds_u3():
    for seed in range(5):
        f = _random_f(3, 2, seed=60 + seed, bounded=True)
        assert u2_norms(*_stack([f]))[0] <= u3_norms(*_stack([f]))[0] + 1e-9


def test_subgroup_indicator_reference_values():
    f = _subgroup_indicator()
    assert u2_norms(*_stack([f]))[0] ** 4 == pytest.approx(1 / 27, abs=1e-10)
    assert np.sum(np.abs(fourier_transform(f)) ** 4) == pytest.approx(1 / 27, abs=1e-10)
    assert u3_norms(*_stack([f]))[0] ** 8 == pytest.approx(1 / 81, abs=1e-10)
    assert u3_inner_naive([f] * 8).real == pytest.approx(1 / 81, abs=1e-10)
    val = ap3_average(f)
    assert val.real == pytest.approx(1 / 9, abs=1e-10)
    assert abs(val.imag) <= 1e-12


def test_progression_averages_of_characters():
    # at p = 3 the three progression points sum to 3x + 3d = 0, so the
    # character average is 1; at p = 5 a nonzero frequency kills it
    t3 = GroupVector(3, (1, 0))
    assert ap3_average(GroupFunction.character(t3)) == pytest.approx(1.0, abs=1e-10)
    t5 = GroupVector(5, (2,))
    assert abs(ap3_average(GroupFunction.character(t5))) <= 1e-10
    # four points sum to 4x + 6d, nonzero mod 5
    assert abs(ap4_average(GroupFunction.character(t5))) <= 1e-10
    assert ap4_average(GroupFunction.constant(5, 1, 1.0)) == pytest.approx(1.0)


def test_correlation_search_recovers_the_negated_form():
    form = SymmetricForm.identity(3, 3)
    f = GroupFunction.quadratic_phase(form)
    best, r, value = max_quadratic_correlation(f)
    assert r is None
    assert value == pytest.approx(1.0, abs=1e-10)
    assert np.array_equal(best.as_array(), np.diag([2, 2, 2]))


def test_correlation_search_with_linear_part():
    form = SymmetricForm.identity(3, 2)
    shift = GroupVector(3, (1, 0))
    f = GroupFunction.quadratic_phase(form, shift)
    best, r, value = max_quadratic_correlation(f, include_linear=True)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert np.array_equal(best.as_array(), np.diag([2, 2]))
    assert r == GroupVector(3, (2, 0))


def _brute_correlation(f, include_linear):
    # every form in increasing row-major entry tuple, every r in increasing
    # coordinate tuple; a later candidate wins only when strictly larger
    p, n = f.p, f.n
    tri = [(i, j) for i in range(n) for j in range(i, n)]
    shifts = itertools.product(range(p), repeat=n) if include_linear else [None]
    shifts = list(shifts)
    best = (-1.0, None, None)
    for entries in itertools.product(range(p), repeat=len(tri)):
        m = np.zeros((n, n), dtype=np.int64)
        for (i, j), c in zip(tri, entries):
            m[i, j] = m[j, i] = c
        form = SymmetricForm.from_array(p, m)
        for r in shifts:
            shift = None if r is None else GroupVector(p, r)
            phase = GroupFunction.quadratic_phase(form, shift).values
            value = abs((f.values * phase).mean())
            if value > best[0]:
                best = (value, form, shift)
    return best


@pytest.mark.parametrize("include_linear", [False, True])
def test_correlation_search_matches_brute_force_loop(include_linear):
    f = _random_f(3, 2, seed=81)
    value, form, shift = _brute_correlation(f, include_linear)
    got_form, got_shift, got_value = max_quadratic_correlation(f, include_linear=include_linear)
    assert (got_form, got_shift) == (form, shift)
    assert got_value == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("include_linear", [False, True])
def test_correlation_search_ties_go_to_the_least_form(include_linear):
    # f = 0 ties every candidate at 0: the zero form, and r = 0, win
    got_form, got_shift, got_value = max_quadratic_correlation(
        GroupFunction.constant(3, 2, 0.0), include_linear=include_linear)
    assert got_form == SymmetricForm.zero(3, 2) and got_value == 0.0
    assert got_shift == (GroupVector.zero(3, 2) if include_linear else None)


def test_correlation_search_cap():
    f = GroupFunction.constant(3, 5, 1.0)
    with pytest.raises(CapExceeded):
        max_quadratic_correlation(f)


def test_norms_reject_badly_negative_diagonals():
    # a diagonal inner value with a large negative real part cannot come
    # from a norm; the root extraction refuses it
    from qflab.spectral import _roots_of_diagonal

    with pytest.raises(NegativeDiagonal):
        _roots_of_diagonal(np.array([16.0, -1.0 + 0j]), 4, 1e-9)
    with pytest.raises(NegativeDiagonal):
        _roots_of_diagonal(np.array([16.0 + 1j]), 4, 1e-9)
    assert _roots_of_diagonal(np.array([16.0 + 0j, -1e-12]), 4, 1e-9) == pytest.approx([2.0, 0.0])
