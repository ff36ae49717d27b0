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
from qflab.fpn_core import omega_table, space
from qflab.reference import u3_inner_naive
from qflab.spectral import (
    EPS3_ORDER,
    ap3_average,
    ap4_average,
    fourier_transform,
    fourier_transform_naive,
    inverse_transforms,
    max_quadratic_correlation,
    quadratic_phase,
    u2_inner,
    u2_norms,
    u3_inner,
    u3_norms,
)


def _random_f(p, n, seed, bounded=False):
    rng = np.random.default_rng(seed)
    N = p ** n
    vals = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    if bounded:
        vals = vals / np.maximum(np.abs(vals), 1.0)
    return vals


def _character(p, t):
    """The table of x -> omega^(x.t) for the coordinates t of a point."""
    return omega_table(p)[space(p, len(t)).form_values(r=t)]


def _subgroup_indicator(p, n):
    """The table of the subgroup {x : x_1 = 0}, of density 1/p."""
    return (space(p, n).digits[:, 0] == 0).astype(np.float64)


@pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (5, 2), (7, 1), (11, 2)])
def test_fast_transform_matches_naive(p, n):
    f = _random_f(p, n, seed=p * 10 + n)
    fast = fourier_transform(f, p, n)
    slow = fourier_transform_naive(f, p, n)
    assert np.max(np.abs(fast - slow)) <= 1e-10


def test_inversion_roundtrip():
    f = _random_f(3, 4, seed=2)
    back = inverse_transforms(fourier_transform(f, 3, 4)[None], 3, 4)[0]
    assert np.max(np.abs(back - f)) <= 1e-10


def test_parseval():
    f = _random_f(5, 3, seed=9)
    l2 = np.sqrt(np.sum(np.abs(fourier_transform(f, 5, 3)) ** 2))
    assert l2 == pytest.approx(np.sqrt(np.mean(np.abs(f) ** 2)), abs=1e-10)


def test_character_transform_is_a_point_mass():
    t = (1, 2, 0)
    spec = fourier_transform(_character(3, t), 3, 3)
    expected = np.zeros(27, dtype=complex)
    expected[space(3, 3).index_of(t)] = 1.0
    assert np.max(np.abs(spec - expected)) <= 1e-10


def test_u2_inner_matches_explicit_loop():
    fs = [_random_f(3, 1, seed=20 + k) for k in range(4)]
    sp = space(3, 1)
    total = 0.0 + 0.0j
    for x in range(3):
        for h1 in range(3):
            for h2 in range(3):
                total += (
                    fs[0][x]
                    * np.conj(fs[1][sp.add(x, h2)])
                    * np.conj(fs[2][sp.add(x, h1)])
                    * fs[3][sp.add(sp.add(x, h1), h2)]
                )
    assert u2_inner(fs, 3, 1) == pytest.approx(complex(total / 27), abs=1e-12)


def test_u2_fourth_power_equals_spectral_moment():
    # u2_norms is the spectral moment itself, so the shift-table average is
    # the independent side of the identity
    f = _random_f(3, 3, seed=31)
    fourth = np.sum(np.abs(fourier_transform(f, 3, 3)) ** 4)
    assert u2_inner([f] * 4, 3, 3) == pytest.approx(fourth, abs=1e-10)


@pytest.mark.parametrize("p,n", [(3, 0), (3, 3), (5, 2), (7, 1)])
def test_u2_norms_match_the_shift_table_average(p, n):
    fs = [_random_f(p, n, seed=90 + k) for k in range(3)]
    want = [u2_inner([f] * 4, p, n).real ** 0.25 for f in fs]
    assert u2_norms(np.stack(fs), p, n) == pytest.approx(want, rel=1e-12)
    assert u2_norms(fs[1][None], p, n)[0] == pytest.approx(want[1], rel=1e-12)
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
                                v = g[pt]
                                term *= np.conj(v) if sum(eps) % 2 else v
                            total += term
    for route in (u3_inner, u3_inner_naive):
        assert route(fs, 3, 1) == pytest.approx(complex(total / 3 ** 6), abs=1e-12)


def test_u3_eighth_power_matches_derivative_route():
    f = _random_f(3, 2, seed=55)
    assert u3_norms(f[None], 3, 2)[0] ** 8 == pytest.approx(u3_inner_naive([f] * 8, 3, 2).real,
                                                            abs=1e-10)


def test_u3_inner_blocks_of_h_match_reference(monkeypatch):
    # 4 x 5 x 27 entries per buffer of four tables at p^n = 27: five blocks
    # of 5 h and a last one of 2
    monkeypatch.setattr(spectral, "DERIVATIVE_BLOCK_ENTRIES", 4 * 5 * 27)
    fs = [_random_f(3, 3, seed=70 + k, bounded=True) for k in range(8)]
    assert u3_inner(fs, 3, 3) == pytest.approx(u3_inner_naive(fs, 3, 3), abs=1e-12)


def _u3_twin(f, p, n):
    return u3_inner([f] * 8, p, n).real ** 0.125


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_u3_norms_match_the_inner_product(p, n):
    # one function alone, then a batch that repeats a function
    fs = [_random_f(p, n, seed=100 + k, bounded=k % 2 == 1) for k in range(3)]
    batch = fs + [fs[0]]
    want = [_u3_twin(f, p, n) for f in batch]
    assert u3_norms(fs[0][None], p, n) == pytest.approx(want[:1], rel=1e-12)
    got = u3_norms(np.stack(batch), p, n)
    assert got == pytest.approx(want, rel=1e-12)
    assert got[3] == got[0]
    assert u3_norms(fs[2][None], p, n)[0] == pytest.approx(want[2], rel=1e-12)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_u3_norms_match_the_reference_loop(p, n):
    fs = [_random_f(p, n, seed=110 + k) for k in range(2)]
    want = [u3_inner_naive([f] * 8, p, n).real ** 0.125 for f in fs]
    assert u3_norms(np.stack(fs), p, n) == pytest.approx(want, rel=1e-12)


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
    want = [_u3_twin(f, p, n) for f in fs]
    monkeypatch.setattr(spectral, "DERIVATIVE_BLOCK_ENTRIES", entries)
    assert u3_norms(np.stack(fs), p, n) == pytest.approx(want, rel=1e-12)


def test_u3_norms_reject_mixed_groups():
    # a stack holds one group; a last axis of another length is refused
    assert u3_norms(np.zeros((0, 9)), 3, 2).shape == (0,)
    with pytest.raises(ValueError):
        u3_norms(_random_f(3, 3, seed=1)[None], 3, 2)
    with pytest.raises(ValueError):
        u2_norms(_random_f(3, 2, seed=1)[None], 5, 2)


def test_u3_reference_is_capped():
    f = _random_f(3, 4, seed=3)
    with pytest.raises(CapExceeded):
        u3_inner_naive([f] * 8, 3, 4)
    with pytest.raises(ValueError):
        u3_inner([f] * 7, 3, 4)


def test_u3_exact_values_past_the_reference_cap():
    # p = 3, n = 5: quadratic phases and characters have U^3 norm 1, and
    # the indicator of a subgroup of density 1/3 has eighth power 1/3^4
    p, n = 3, 5
    rng = np.random.default_rng(7)
    raw = rng.integers(0, p, size=(n, n))
    form = (raw + raw.T) % p
    shift = tuple(int(c) for c in rng.integers(0, p, n))
    phase = quadratic_phase(p, form, shift)
    assert u3_norms(phase, p, n) == pytest.approx(1.0, abs=1e-10)
    assert u3_norms(_character(p, shift), p, n) == pytest.approx(1.0, abs=1e-10)
    indicator = _subgroup_indicator(p, n)
    assert u3_norms(indicator, p, n) ** 8 == pytest.approx(1 / 81, abs=1e-10)


def test_u2_never_exceeds_u3():
    for seed in range(5):
        f = _random_f(3, 2, seed=60 + seed, bounded=True)
        assert u2_norms(f, 3, 2) <= u3_norms(f, 3, 2) + 1e-9


def test_subgroup_indicator_reference_values():
    f = _subgroup_indicator(3, 2)
    assert u2_norms(f, 3, 2) ** 4 == pytest.approx(1 / 27, abs=1e-10)
    assert np.sum(np.abs(fourier_transform(f, 3, 2)) ** 4) == pytest.approx(1 / 27, abs=1e-10)
    assert u3_norms(f, 3, 2) ** 8 == pytest.approx(1 / 81, abs=1e-10)
    assert u3_inner_naive([f] * 8, 3, 2).real == pytest.approx(1 / 81, abs=1e-10)
    val = ap3_average(f, 3, 2)
    assert val.real == pytest.approx(1 / 9, abs=1e-10)
    assert abs(val.imag) <= 1e-12


def test_progression_averages_of_characters():
    # at p = 3 the three progression points sum to 3x + 3d = 0, so the
    # character average is 1; at p = 5 a nonzero frequency kills it
    assert ap3_average(_character(3, (1, 0)), 3, 2) == pytest.approx(1.0, abs=1e-10)
    assert abs(ap3_average(_character(5, (2,)), 5, 1)) <= 1e-10
    # four points sum to 4x + 6d, nonzero mod 5
    assert abs(ap4_average(_character(5, (2,)), 5, 1)) <= 1e-10
    assert ap4_average(np.ones(5), 5, 1) == pytest.approx(1.0)


def test_correlation_search_recovers_the_negated_form():
    f = quadratic_phase(3, np.eye(3, dtype=np.int64))
    best, r, value = max_quadratic_correlation(f, 3, 3)
    assert r is None
    assert value == pytest.approx(1.0, abs=1e-10)
    assert np.array_equal(best, np.diag([2, 2, 2]))


def test_correlation_search_with_linear_part():
    f = quadratic_phase(3, np.eye(2, dtype=np.int64), (1, 0))
    best, r, value = max_quadratic_correlation(f, 3, 2, include_linear=True)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert np.array_equal(best, np.diag([2, 2]))
    assert r == (2, 0)


def _brute_correlation(f, p, n, include_linear):
    # every form in increasing row-major entry tuple, every r in increasing
    # coordinate tuple; a later candidate wins only when strictly larger
    tri = [(i, j) for i in range(n) for j in range(i, n)]
    shifts = itertools.product(range(p), repeat=n) if include_linear else [None]
    shifts = list(shifts)
    best = (-1.0, None, None)
    for entries in itertools.product(range(p), repeat=len(tri)):
        m = np.zeros((n, n), dtype=np.int64)
        for (i, j), c in zip(tri, entries):
            m[i, j] = m[j, i] = c
        for r in shifts:
            phase = quadratic_phase(p, m, r)
            value = abs((f * phase).mean())
            if value > best[0]:
                best = (value, m.tolist(), r)
    return best


@pytest.mark.parametrize("include_linear", [False, True])
def test_correlation_search_matches_brute_force_loop(include_linear):
    f = _random_f(3, 2, seed=81)
    value, form, shift = _brute_correlation(f, 3, 2, include_linear)
    got_form, got_shift, got_value = max_quadratic_correlation(f, 3, 2,
                                                               include_linear=include_linear)
    assert (got_form.tolist(), got_shift) == (form, shift)
    assert got_value == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("include_linear", [False, True])
def test_correlation_search_ties_go_to_the_least_form(include_linear):
    # f = 0 ties every candidate at 0: the zero form, and r = 0, win
    got_form, got_shift, got_value = max_quadratic_correlation(
        np.zeros(9), 3, 2, include_linear=include_linear)
    assert got_form.tolist() == [[0, 0], [0, 0]] and got_value == 0.0
    assert got_shift == ((0, 0) if include_linear else None)


def test_correlation_search_cap():
    with pytest.raises(CapExceeded):
        max_quadratic_correlation(np.ones(3 ** 5), 3, 5)


def test_norms_reject_badly_negative_diagonals():
    # a diagonal inner value with a large negative real part cannot come
    # from a norm; the root extraction refuses it
    from qflab.spectral import _roots_of_diagonal

    with pytest.raises(NegativeDiagonal):
        _roots_of_diagonal(np.array([16.0, -1.0 + 0j]), 4, 1e-9)
    with pytest.raises(NegativeDiagonal):
        _roots_of_diagonal(np.array([16.0 + 1j]), 4, 1e-9)
    assert _roots_of_diagonal(np.array([16.0 + 0j, -1e-12]), 4, 1e-9) == pytest.approx([2.0, 0.0])
