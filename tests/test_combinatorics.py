"""Witness searches, shattering dimensions, atom-level structure."""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from qflab import combinatorics
from qflab.combinatorics import (
    SubsetBitmask,
    best_atom_union_approx,
    density_profile,
    has_k_ip,
    has_m_ip2,
    regularity_conclusion,
    vc2_dimension,
    vc_dimension,
)
from qflab.errors import CapExceeded
from qflab.factor import new_linear_factor, new_quadratic_factor
from qflab.fpn_core import GroupVector, run_counted, space


def _subgroup_mask(p, n):
    """Kernel of the first coordinate, as a bitmask."""
    sp = space(p, n)
    return SubsetBitmask(p, n, sp.digits[:, 0] == 0)


def _zero_quadric_mask(n):
    """x with x.x = 0 over F_3^n."""
    sp = space(3, n)
    d = sp.digits.astype(np.int64)
    return SubsetBitmask(3, n, (d * d).sum(axis=1) % 3 == 0)


def test_bitmask_roundtrip_and_counting():
    mask = SubsetBitmask.from_indices(3, 2, [0, 3, 7])
    assert mask.size == 3
    assert np.flatnonzero(mask.bits).tolist() == [0, 3, 7]
    again = SubsetBitmask.from_indices(3, 2, [7, 3, 0])
    assert again == mask
    assert hash(again) == hash(mask)
    comp = SubsetBitmask(3, 2, ~mask.bits)
    assert comp.size == 6
    assert not (mask.bits & comp.bits).any()
    assert GroupVector.from_index(3, 2, 3) in mask
    assert 1 not in mask


def test_subgroup_has_shattering_dimension_one():
    mask = _subgroup_mask(3, 4)
    assert vc_dimension(mask) == 1
    # one direction works; the witness replays on the defining mask only
    cert = has_k_ip(mask, 1)
    assert cert is not None
    assert cert.replay(mask)
    assert has_k_ip(mask, 2) is None


def test_zero_quadric_has_two_dimensional_witness():
    mask = _zero_quadric_mask(4)
    cert = has_k_ip(mask, 2)
    assert cert is not None
    assert cert.a[0] == 0 and len(cert.a) == 2 and len(cert.b) == 4
    assert cert.replay(mask)
    assert not cert.replay(SubsetBitmask(3, 4, ~mask.bits))
    assert not cert.replay(_subgroup_mask(3, 4))
    els = cert.elements()
    assert els["a"][0].coords == (0, 0, 0, 0)


def test_extreme_sets_have_dimension_zero():
    full = SubsetBitmask(3, 2, np.ones(9, dtype=bool))
    assert vc_dimension(full) == 0
    assert vc2_dimension(full) == 0
    empty = SubsetBitmask(3, 2, ~full.bits)
    assert vc_dimension(empty) == 0


def test_first_level_pattern_witness():
    mask = _zero_quadric_mask(3)
    cert = has_m_ip2(mask, 1)
    assert cert is not None
    assert cert.kind == "IP2"
    assert cert.replay(mask)
    assert vc2_dimension(mask) >= 1


def _mixed_factor_2d():
    lin = new_linear_factor(3, 2, [(1, 0)])
    return new_quadratic_factor(lin, [np.eye(2, dtype=np.int64)])


def test_density_profile_is_exact():
    factor = _mixed_factor_2d()
    mask = _subgroup_mask(3, 2)
    densities, empty = density_profile(mask, factor)
    # three of the nine joint labels are unreachable
    assert empty == 3
    assert len(densities) == 6
    assert all(isinstance(v, Fraction) for v in densities.values())
    assert list(densities) == factor.occupied_labels()
    recovered = sum(v * factor.atom_indices(lab).size
                    for lab, v in densities.items())
    assert recovered == mask.size
    # one pass over the 9 points once the label table is built
    assert run_counted(density_profile, mask, factor) == ((densities, empty), 9)


def test_atom_unions_are_fully_regular():
    factor = _mixed_factor_2d()
    labels = factor.occupied_labels()
    union = np.zeros(9, dtype=bool)
    for lab in labels[:2]:
        union[factor.atom_indices(lab)] = True
    mask = SubsetBitmask(3, 2, union)
    assert regularity_conclusion(mask, factor, Fraction(1, 100)) == 1
    approx, symdiff = best_atom_union_approx(mask, factor)
    assert symdiff == 0
    assert approx == mask


def test_majority_vote_symmetric_difference():
    factor = _mixed_factor_2d()
    rng = np.random.default_rng(23)
    mask = SubsetBitmask(3, 2, rng.random(9) < 0.5)
    approx, symdiff = best_atom_union_approx(mask, factor)
    assert symdiff == int((approx.bits ^ mask.bits).sum())
    assert run_counted(best_atom_union_approx, mask, factor) == ((approx, symdiff), 9)
    # no other union of atoms does better
    labels = factor.occupied_labels()
    for code in range(1 << len(labels)):
        bits = np.zeros(9, dtype=bool)
        for i, lab in enumerate(labels):
            if code >> i & 1:
                bits[factor.atom_indices(lab)] = True
        assert int((bits ^ mask.bits).sum()) >= symdiff


def test_search_caps():
    mask = _subgroup_mask(3, 2)
    with pytest.raises(CapExceeded):
        has_k_ip(mask, 5)
    with pytest.raises(ValueError):
        has_k_ip(mask, 0)
    with pytest.raises(CapExceeded):
        has_m_ip2(mask, 3)
    with pytest.raises(CapExceeded):
        has_m_ip2(_subgroup_mask(3, 7), 1)


def _explicit_search(mask, kind, size):
    """Loop twin of has_k_ip / has_m_ip2: candidates in canonical order with
    a_1 = b_1 = 0, every pattern tested point by point with scalar additions.
    Returns (a, b, c) of the first witness, or None."""
    sp = space(mask.p, mask.n)
    N = sp.size
    plus = lru_cache(maxsize=None)(lambda x, y: int(sp.add(x, y)))
    if kind == "IP":
        tuples = (((0,) + rest, ()) for rest in itertools.combinations(range(1, N), size - 1))
    else:
        tuples = (((0,) + t[:size - 1], (0,) + t[size - 1:])
                  for t in itertools.product(range(1, N), repeat=2 * (size - 1)))
    for a, b in tuples:
        elements = a if kind == "IP" else [plus(x, y) for x in a for y in b]
        firsts = {}
        for c in range(N):
            code = sum(int(mask.bits[plus(e, c)]) << i for i, e in enumerate(elements))
            firsts.setdefault(code, c)
        if len(firsts) == 1 << len(elements):
            completions = tuple(firsts[s] for s in range(len(firsts)))
            return (a, completions, ()) if kind == "IP" else (a, b, completions)
    return None


def _search_cases():
    """Random sets at several densities and every level set of x.x, on groups
    of at most 81 points."""
    rng = np.random.default_rng(5)
    for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (3, 4)):
        d = space(p, n).digits.astype(np.int64)
        quad = (d * d).sum(axis=1) % p
        sets = [rng.random(p ** n) < dens for dens in (0.15, 0.5, 0.85)]
        sets += [quad == level for level in range(p)]
        for bits in sets:
            yield SubsetBitmask(p, n, bits)


def _searches(mask):
    """(kind, size) pairs the twin can afford: k = 1..3 and m = 1, 2 up to 27
    points, k <= 2 up to 81."""
    small = mask.p ** mask.n <= 27
    pairs = [("IP", k) for k in (1, 2, 3) if small or k <= 2]
    return pairs + [("IP2", m) for m in (1, 2) if small]


def _certificate_tuple(cert):
    return None if cert is None else (cert.a, cert.b, cert.c)


def _check_against_twin(mask):
    """Compare every affordable search with its twin; return the searches
    that found a witness."""
    found = set()
    for kind, size in _searches(mask):
        search = has_k_ip if kind == "IP" else has_m_ip2
        cert = search(mask, size)
        assert _certificate_tuple(cert) == _explicit_search(mask, kind, size), (
            mask.p, mask.n, kind, size)
        if cert is not None:
            assert cert.kind == kind and cert.replay(mask)
            found.add((kind, size))
    return found


def test_search_matches_explicit_loop():
    found = [_check_against_twin(mask) for mask in _search_cases()]
    # both outcomes occur for the largest searches
    for search in (("IP", 3), ("IP2", 2)):
        assert any(search in f for f in found) and not all(search in f for f in found)


def test_search_across_several_blocks(monkeypatch):
    # four candidate rows per block on 25 and 27 points, so a scan of the
    # 24 or 26 candidates of one head spans several blocks, the last partial
    monkeypatch.setattr(combinatorics, "COVER_BLOCK", 4 * 27)
    late = 0
    for mask in _search_cases():
        if mask.p ** mask.n in (25, 27):
            _check_against_twin(mask)
            # the witness's row within its head's candidates: a_2 - 1 or b_2 - 1
            k2, m2 = has_k_ip(mask, 2), has_m_ip2(mask, 2)
            late += (k2 is not None and k2.a[1] > 4) + (m2 is not None and m2.b[1] > 4)
    assert late > 0
    # a scan with no witness forms every code of every block: N per
    # candidate (a_2, b_2 > a_2), on top of the shift table's N^2 entries
    d = space(3, 3).digits.astype(np.int64)
    for level in range(3):
        mask = SubsetBitmask(3, 3, (d * d).sum(axis=1) % 3 == level)
        cert, terms = run_counted(has_m_ip2, mask, 2)
        assert cert is None
        assert terms == 27 ** 2 + 325 * 27


@pytest.mark.parametrize("rows", [1, 3, 5, 7, 50, 2 ** 12])
def test_filled_blocks_keep_the_first_witness(monkeypatch, rows):
    # blocks of `rows` candidate rows straddle the candidate arrays: the
    # heads of a 3-IP search and the runs of a_2 of a 2-IP2 search. Every
    # search finds the certificate of the unpatched one, with and without
    # a witness.
    masks = [m for m in _search_cases() if m.p ** m.n <= 27]
    searches = [(has_k_ip, 2), (has_k_ip, 3), (has_m_ip2, 1), (has_m_ip2, 2)]
    want = [[_certificate_tuple(search(m, k)) for search, k in searches] for m in masks]
    assert {c is None for certs in want for c in certs} == {True, False}
    for mask, certs in zip(masks, want):
        monkeypatch.setattr(combinatorics, "COVER_BLOCK", rows * mask.p ** mask.n)
        assert [_certificate_tuple(search(mask, k)) for search, k in searches] == certs


def test_filled_blocks_are_full_until_the_last():
    # arrays shorter and longer than a block, and an empty one, give blocks
    # of exactly five rows in order, the last holding what is left
    arrays = [np.arange(k)[:, None] + 100 * k for k in (3, 0, 4, 9, 1, 2)]
    blocks = list(combinatorics._filled(iter(arrays), 5))
    assert [len(b) for b in blocks] == [5, 5, 5, 4]
    assert np.array_equal(np.concatenate(blocks), np.concatenate(arrays))


def test_shift_table_fills_in_blocks(monkeypatch):
    # 4 rows of 27 per block: blocks of 4, ..., 4 and a partial last one of 3
    mask = SubsetBitmask(3, 3, np.random.default_rng(8).random(27) < 0.5)
    idx = np.arange(27, dtype=np.int64)
    want = mask.bits[space(3, 3).sum_grid(idx, idx)]
    monkeypatch.setattr(combinatorics, "H_BLOCK_ENTRIES", 4 * 27)
    table, terms = run_counted(combinatorics._shift_table, mask)
    assert table.dtype == np.uint8
    assert np.array_equal(table, want)
    assert terms == 27 ** 2


def test_certificates_replay_on_their_set_only():
    d = space(3, 3).digits.astype(np.int64)
    quadric = SubsetBitmask(3, 3, (d * d).sum(axis=1) % 3 == 0)
    dense = SubsetBitmask(3, 3, np.random.default_rng(3).random(27) < 0.5)
    certs = [has_k_ip(quadric, 2), has_m_ip2(quadric, 1), has_m_ip2(dense, 2)]
    assert [c.kind for c in certs if c is not None] == ["IP", "IP2", "IP2"]
    for cert, mask in zip(certs, (quadric, quadric, dense)):
        assert cert.replay(mask)
        assert not cert.replay(SubsetBitmask(3, 3, ~mask.bits))
        assert not cert.replay(SubsetBitmask(3, 3, np.ones(27, dtype=bool)))
        assert not cert.replay(SubsetBitmask(3, 2, np.ones(9, dtype=bool)))
        # a moved completion or a dropped one breaks the pattern
        key = "b" if cert.kind == "IP" else "c"
        completions = getattr(cert, key)
        assert not replace(cert, **{key: completions[1:2] + completions[1:]}).replay(mask)
        assert not replace(cert, **{key: completions[:-1]}).replay(mask)


def test_replay_does_not_read_the_sum_table_the_search_reads(monkeypatch):
    # one wrong entry of the cached table of F_3^2 (3 + 0 read as 4) makes
    # the search certify a 3-IP the set does not have; replay adds by
    # coordinates, so it rejects the certificate
    sp = space(3, 2)
    mask = SubsetBitmask.from_indices(3, 2, [0, 2, 4, 7])
    assert has_k_ip(mask, 3) is None
    bad = sp.shift_table().copy()
    bad[3, 0] += 1
    monkeypatch.setattr(sp, "_shift_table", bad)
    cert = has_k_ip(mask, 3)
    assert cert is not None and not cert.replay(mask)
