"""Witness searches, shattering dimensions, atom-level structure."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

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
from qflab.fpn_core import GroupVector, space


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
    comp = mask.complement()
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
    assert not cert.replay(mask.complement())
    assert not cert.replay(_subgroup_mask(3, 4))
    els = cert.elements()
    assert els["a"][0].coords == (0, 0, 0, 0)


def test_extreme_sets_have_dimension_zero():
    full = SubsetBitmask(3, 2, np.ones(9, dtype=bool))
    assert vc_dimension(full) == 0
    assert vc2_dimension(full) == 0
    empty = full.complement()
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
    recovered = sum(v * factor.atom_indices(lab).size
                    for lab, v in densities.items())
    assert recovered == mask.size


def test_atom_unions_are_fully_regular():
    factor = _mixed_factor_2d()
    labels = [lab.values for lab in factor.occupied_labels()]
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
    # no other union of atoms does better
    labels = [lab.values for lab in factor.occupied_labels()]
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
        has_m_ip2(_subgroup_mask(3, 6), 1)
