"""Factors, atoms, bilinear level-set sizes and measures.

The frozen numbers here were derived by hand: atom sizes of the identity
form over F_3^2 from the values of x^2 mod 3, level-set sizes by counting
pairs with x^T y fixed, and the rank of the two-form factor by checking all
nontrivial form combinations.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qflab import factor as factor_module
from qflab.errors import AsymmetricForm, CapExceeded, DegenerateContext, DependentVectors, TooManyForms
from qflab.factor import (
    bilinear_level_sizes,
    degenerate_directions,
    direction_codes,
    level_masks,
    mu_weight,
    mu_weight_matrix,
    new_linear_factor,
    new_quadratic_factor,
    sigma3_codes,
)
from qflab.fpn_core import rank_mod_p, run_counted, space


def _identity_factor(p: int, n: int, ell: int = 0):
    vectors = [tuple(int(i == j) for j in range(n)) for i in range(ell)]
    return new_quadratic_factor(new_linear_factor(p, n, vectors),
                                [np.eye(n, dtype=np.int64)])


def test_linear_factor_partitions_the_group():
    lin = new_linear_factor(3, 3, [(1, 0, 0), (0, 1, 0)])
    seen = set()
    for a in range(3):
        for b in range(3):
            members = lin.atom_indices((a, b))
            assert members.size == 3
            seen.update(int(i) for i in members)
    assert len(seen) == 27


def test_linear_factor_rejects_dependent_vectors():
    with pytest.raises(DependentVectors):
        new_linear_factor(3, 2, [(1, 2), (2, 1)])


def test_a_linear_factor_is_the_factor_without_forms():
    lin = new_linear_factor(3, 3, [(1, 0, 0), (0, 1, 1)])
    assert (lin.ell, lin.q, lin.width, lin.rank) == (2, 0, 2, 3 + 1)
    assert lin.linear is lin
    assert new_quadratic_factor(lin, ()) is lin
    assert new_quadratic_factor(lin, []) is lin
    assert lin.all_labels() == [(a, b) for b in range(3) for a in range(3)]
    # with forms the factor keeps the one it was built from, and its caches
    factor = new_quadratic_factor(lin, [np.eye(3, dtype=np.int64)])
    assert factor.linear is lin and factor.q == 1
    assert factor.linear._codes is lin._codes
    with pytest.raises(ValueError, match="without forms"):
        new_quadratic_factor(factor, [np.eye(3, dtype=np.int64)])


def test_label_of_index_consistency():
    lin = new_linear_factor(3, 2, [(1, 1)])
    for idx in range(9):
        lab = ((idx % 3 + idx // 3) % 3,)
        assert idx in set(int(i) for i in lin.atom_indices(lab))


def _coordinate_label(p, n, vectors, forms, index):
    """The atom label of a point from its coordinates, in Python ints."""
    x = [index // p ** i % p for i in range(n)]
    linear = [sum(a * int(b) for a, b in zip(x, r)) % p for r in vectors]
    quadratic = [sum(x[i] * int(m[i][j]) * x[j] for i in range(n) for j in range(n)) % p
                 for m in forms]
    return tuple(linear + quadratic)


def _dense_factor_inputs(rng, p, n, ell, q):
    """ell independent vectors with at least two nonzero entries each, and
    q random symmetric forms."""
    while True:
        vectors = rng.integers(0, p, (ell, n))
        if (vectors != 0).sum(axis=1).min() >= 2 and rank_mod_p(vectors, p) == ell:
            break
    forms = [(a + a.T) % p for a in rng.integers(0, p, (q, n, n))]
    return [tuple(int(v) for v in r) for r in vectors], forms


@pytest.mark.parametrize("p, n", [(3, 4), (5, 3), (7, 2)])
def test_codes_match_labels_from_coordinates(p, n):
    rng = np.random.default_rng(30 + p)
    vectors, forms = _dense_factor_inputs(rng, p, n, 2, 2)
    factor = new_quadratic_factor(new_linear_factor(p, n, vectors), forms)
    labels = [_coordinate_label(p, n, vectors, forms, i) for i in range(p ** n)]
    assert factor._codes.tolist() == [space(p, 4).index_of(lab) for lab in labels]
    assert factor.linear._codes.tolist() == [space(p, 2).index_of(lab[:2]) for lab in labels]
    for i, lab in enumerate(labels):
        assert i in factor.atom_indices(lab)


def test_factor_codes_need_no_wide_copy_of_the_digits():
    # one int64 copy of the 3^12 x 12 digit table is 48.7 MiB
    p, n = 3, 12
    vectors, forms = _dense_factor_inputs(np.random.default_rng(12), p, n, 2, 2)
    factor = new_quadratic_factor(new_linear_factor(p, n, vectors), forms)
    tracemalloc.start()
    try:
        factor._codes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * p ** n * 8


def test_subgroup_basis_spans_the_kernel():
    lin = new_linear_factor(3, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    basis = lin.subgroup_basis()
    assert len(basis) == 2
    for b in basis:
        for v in lin.vectors:
            assert sum(x * y for x, y in zip(b, v)) % 3 == 0


def test_factor_data_are_read_only_int64_arrays_reduced_mod_p():
    lin = new_linear_factor(5, 3, [(6, -1, 0), (0, 0, 1)])
    factor = new_quadratic_factor(lin, [[[7, 1, 0], [1, -3, 0], [0, 0, 5]]])
    assert lin.vectors.tolist() == [[1, 4, 0], [0, 0, 1]]
    assert factor.forms.tolist() == [[[2, 1, 0], [1, 2, 0], [0, 0, 0]]]
    assert factor.vectors is lin.vectors and lin.forms.shape == (0, 3, 3)
    arrays = {"vectors": (factor.vectors, (2, 3)), "forms": (factor.forms, (1, 3, 3)),
              "no forms": (lin.forms, (0, 3, 3)), "basis": (lin.subgroup_basis(), (1, 3))}
    for name, (arr, shape) in arrays.items():
        assert arr.dtype == np.int64 and arr.shape == shape, name
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
    assert new_linear_factor(3, 2, []).subgroup_basis().tolist() == [[1, 0], [0, 1]]


def test_symmetric_form_validation():
    lin = new_linear_factor(3, 2, [])
    with pytest.raises(AsymmetricForm):
        new_quadratic_factor(lin, [[[0, 1], [2, 0]]])
    assert new_quadratic_factor(lin, [[[4, 1], [1, 2]]]).forms.tolist() == [[[1, 1], [1, 2]]]


def test_new_linear_factor_refuses_fractional_entries():
    with pytest.raises(ValueError, match="whole numbers"):
        new_linear_factor(3, 2, [(1.7, 0)])
    assert new_linear_factor(3, 2, [(1.0, 0)]).vectors.tolist() == [[1, 0]]


def test_new_quadratic_factor_refuses_fractional_entries():
    lin = new_linear_factor(3, 2, [])
    with pytest.raises(ValueError, match="whole numbers"):
        new_quadratic_factor(lin, [[[1.9, 0], [0, 1]]])
    assert new_quadratic_factor(lin, [[[1.0, 0], [0, 1]]]).forms.tolist() == [[[1, 0], [0, 1]]]


def test_atom_sizes_identity_form():
    # x^2 takes value 0 once and value 1 twice over F_3, so the level
    # counts of x^2 + y^2 are 1, 4, 4
    factor = _identity_factor(3, 2)
    sizes = sorted(factor.atom_indices((v,)).size for v in range(3))
    assert sizes == [1, 4, 4]


def test_rank_of_two_form_factor():
    # I - diag(1,2,1,2) = diag(0,-1,0,-1) has rank 2; no combination
    # does better
    lin = new_linear_factor(3, 4, [])
    factor = new_quadratic_factor(
        lin, [np.eye(4, dtype=np.int64), np.diag([1, 2, 1, 2])])
    assert factor.rank == 2


def test_rank_sentinel_without_forms():
    factor = new_quadratic_factor(new_linear_factor(3, 3, []), [])
    assert factor.rank == 3 + 1


def test_form_count_cap():
    lin = new_linear_factor(3, 2, [])
    with pytest.raises(TooManyForms):
        new_quadratic_factor(lin, [np.eye(2, dtype=np.int64)] * 7)


def test_occupied_labels_cover_the_group():
    factor = _identity_factor(3, 3, ell=1)
    total = sum(factor.atom_indices(lab).size for lab in factor.occupied_labels())
    assert total == 27


def test_bilinear_level_sizes_identity_form():
    factor = _identity_factor(3, 2)
    sizes = bilinear_level_sizes(factor)
    # x = 0 contributes 9 pairs to level 0; each of the 8 other x splits
    # its 9 partners evenly
    assert sizes.tolist() == [33, 24, 24]
    assert bilinear_level_sizes(factor) is sizes and not sizes.flags.writeable


def test_a_factor_past_the_enumeration_cap_gives_its_rank_and_level_sizes():
    # 3^15 points exceed the 2^20 enumeration cap: the rank and the level
    # sizes come from the forms alone, and only the atoms need the points.
    # Over F_3^15, x.y = b has 3^29 + 3^15 - 3^14 solutions at b = 0 and
    # 3^29 - 3^14 otherwise
    factor = _identity_factor(3, 15, ell=1)
    assert factor.rank == 15
    assert bilinear_level_sizes(factor).tolist() == [3 ** 29 + 3 ** 15 - 3 ** 14,
                                                    3 ** 29 - 3 ** 14, 3 ** 29 - 3 ** 14]
    with pytest.raises(CapExceeded):
        factor.atom_sizes


def _mask(factor, b, row, col) -> np.ndarray:
    """The level mask of one code triple: a stack of one has no padding."""
    return level_masks(factor, [(b, row, col)])[0]


def test_empty_level_set_refuses_a_measure(monkeypatch):
    # the zero form only produces level 0
    factor = new_quadratic_factor(new_linear_factor(3, 1, []),
                                  [np.zeros((1, 1), dtype=np.int64)])
    assert bilinear_level_sizes(factor)[1] == 0
    with pytest.raises(DegenerateContext, match=r"^beta\(\(1,\)\) is empty$"):
        mu_weight(factor, 1)
    # the weight is checked before a mask is built
    built = []
    with monkeypatch.context() as patch:
        patch.setattr(factor_module, "level_masks", lambda *args: built.append(args))
        with pytest.raises(DegenerateContext, match=r"^beta\(\(1,\)\) is empty$"):
            mu_weight_matrix(factor, 1, 0, 0)
    assert not built
    # the mask itself is well defined, as no pair lies in the empty level
    empty, full = level_masks(factor, [(1, 0, 0), (0, 0, 0)])
    assert not empty.any() and full.all()


def test_mu_weight_matrix_refuses_past_its_cap(monkeypatch):
    factor = _identity_factor(3, 8, ell=1)
    rows, cols = space(3, 2).index_of((0, 1)), space(3, 2).index_of((1, 0))
    entries = int(factor.atom_sizes[rows] * factor.atom_sizes[cols])
    assert entries > 1 << 18
    monkeypatch.setattr(factor_module, "BYTE_TABLE_CAP", entries - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=rf"exceeds BYTE_TABLE_CAP = {entries - 1}$"):
            level_masks(factor, [(0, rows, rows), (2, rows, cols)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < entries // 8
    with pytest.raises(CapExceeded, match=rf"exceeds BYTE_TABLE_CAP = {entries - 1}$"):
        mu_weight_matrix(factor, 2, rows, cols)
    monkeypatch.setattr(factor_module, "BYTE_TABLE_CAP", entries)
    assert mu_weight_matrix(factor, 2, rows, cols).size == entries


def test_level_masks_keep_nothing_between_calls():
    factor = _identity_factor(3, 3, ell=1)
    rows, cols = space(3, 2).index_of((0, 1)), space(3, 2).index_of((1, 0))
    first = level_masks(factor, [(2, rows, cols)])
    weight = mu_weight(factor, 2)
    held = dict(factor.__dict__)
    second = level_masks(factor, [(2, rows, cols)])
    assert second is not first and np.array_equal(second, first)
    second[0, 0, 0] = not second[0, 0, 0]  # a caller's own array
    assert not np.array_equal(level_masks(factor, [(2, rows, cols)]), second)
    # the measure is formed from a mask built on each call
    assert np.array_equal(mu_weight_matrix(factor, 2, rows, cols), first[0] * weight)
    assert factor.__dict__.keys() == held.keys()
    assert all(factor.__dict__[k] is v for k, v in held.items())


def test_level_mask_counts_only_the_masks_it_builds():
    factor = _identity_factor(3, 3, ell=1)
    bilinear_level_sizes(factor)
    rows, cols = space(3, 2).index_of((0, 1)), space(3, 2).index_of((1, 0))
    want = factor.atom_sizes[rows] * factor.atom_sizes[cols] * factor.q
    mask, terms = run_counted(level_masks, factor, [(2, rows, cols)])
    assert terms == want
    # a repeat within a call is built once, and every call builds anew
    assert run_counted(level_masks, factor, [(2, rows, cols)] * 3)[1] == want
    assert run_counted(level_masks, factor, [(2, rows, cols), (1, rows, cols),
                                             (2, rows, cols)])[1] == 2 * want
    assert run_counted(mu_weight_matrix, factor, 2, rows, cols)[1] == want
    flat = new_quadratic_factor(new_linear_factor(3, 2, [(1, 0)]), [])
    flat.member_table
    assert run_counted(level_masks, flat, [(0, 1, 2)])[1] == 0


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_mu_weight_matrix_is_the_level_mask_times_the_weight(p, q):
    n = 3
    rng = np.random.default_rng(10 * p + q)
    forms = []
    for _ in range(q):
        a = rng.integers(0, p, size=(n, n))
        forms.append((a + a.T) % p)
    factor = new_quadratic_factor(new_linear_factor(p, n, [(1, 0, 0)]), forms)
    digits = factor.space.digits.astype(np.int64)
    sizes = bilinear_level_sizes(factor) if q else np.ones(1, dtype=np.int64)
    atoms = np.flatnonzero(factor.atom_sizes)[:4].tolist()
    for b in np.flatnonzero(sizes).tolist():
        weight = mu_weight(factor, b)
        assert weight == (1.0 if q == 0 else p ** (2 * n) / int(sizes[b]))
        values = space(p, q).digits[b]
        for row in atoms:
            for col in atoms:
                mask = _mask(factor, b, row, col)
                x = digits[factor.atom_indices(factor.all_labels()[row])]
                y = digits[factor.atom_indices(factor.all_labels()[col])]
                want = np.ones((len(x), len(y)), dtype=bool)
                for j, m in enumerate(forms):
                    want &= (x @ m @ y.T) % p == values[j]
                assert np.array_equal(mask, want)
                w = mu_weight_matrix(factor, b, row, col)
                assert w.dtype == np.float64 and np.array_equal(w, mask * weight)
                assert np.array_equal(w == weight, mask) and not w[~mask].any()


def _level_mask_loop(factor, b, row, col) -> np.ndarray:
    """The level mask of one code triple, pair by pair in Python integers:
    (x, y) passes when x^T M_j y = b_j mod p for every form M_j."""
    p, n = factor.p, factor.n
    level = space(p, factor.q).coords_of(b)
    xs, ys = (space(p, factor.width).coords_of(c) for c in (row, col))
    xs, ys = factor.atom_indices(xs).tolist(), factor.atom_indices(ys).tolist()
    coords = [factor.space.coords_of(i) for i in range(factor.space.size)]
    mask = np.zeros((len(xs), len(ys)), dtype=bool)
    for i, x in enumerate(xs):
        for k, y in enumerate(ys):
            mask[i, k] = all(sum(coords[x][r] * m[r][c] * coords[y][c]
                                 for r in range(n) for c in range(n)) % p == v
                             for m, v in zip(factor.forms.tolist(), level))
    return mask


def _assert_stack(factor, triples, stack, want) -> None:
    """stack is the bool stack of the triples, padded to their largest row
    and column atoms, with want(b, row, col) in each corner and False
    elsewhere."""
    sizes = factor.atom_sizes
    height = max(int(sizes[row]) for _, row, _ in triples)
    width = max(int(sizes[col]) for _, _, col in triples)
    assert stack.dtype == np.bool_ and stack.shape == (len(triples), height, width)
    for t, mask in zip(triples, stack):
        r, c = sizes[t[1]], sizes[t[2]]
        assert np.array_equal(mask[:r, :c], want(*t))
        assert not mask[r:].any() and not mask[:, c:].any()


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_level_masks_batch_matches_a_loop_over_pairs(monkeypatch, p, q):
    # two calls over a batch of triples, some repeated: the first builds in
    # blocks of several triples, the second in blocks smaller than the
    # largest mask, a slab of rows at a time (a block holds
    # H_BLOCK_ENTRIES // 4 entries)
    n = 3 if p < 7 else 2
    rng = np.random.default_rng((800, p, q))
    forms = []
    for _ in range(q):
        a = rng.integers(0, p, size=(n, n))
        forms.append((a + a.T) % p)
    vectors = [] if q == 2 else [(1,) + (0,) * (n - 1)]
    factor = new_quadratic_factor(new_linear_factor(p, n, vectors), forms)
    sizes = factor.atom_sizes
    atoms = np.flatnonzero(sizes)
    triples = np.column_stack([rng.integers(0, p ** q, 40), rng.choice(atoms, 40),
                               rng.choice(atoms, 40)])
    triples = np.concatenate([triples, triples[:5]]).tolist()
    entries = {tuple(t): int(sizes[t[1]] * sizes[t[2]]) for t in triples}
    widest = max(entries.values())
    assert widest >= 4
    for block, batch in ((16 * widest, triples[:20] + triples[40:]),
                         (4 * (widest // 3), triples[20:])):
        monkeypatch.setattr(factor_module, "H_BLOCK_ENTRIES", block)
        stack, terms = run_counted(level_masks, factor, batch)
        assert terms == q * sum(entries[t] for t in {tuple(t) for t in batch})
        _assert_stack(factor, batch, stack, lambda *t: _level_mask_loop(factor, *t))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("ell", [0, 1, 2])
def test_level_masks_match_the_sum_code_twin(p, q, ell):
    # Q_j(x + y) = Q_j(x) + Q_j(y) + 2 x^T M_j y and the linear labels add,
    # so for odd p a pair of atoms a1 x a2 lies in level b exactly when
    # x + y has the label a1 + a2 + 2(0|b), digit by digit; 0|b is b after
    # l zeros. The second form of q = 2 is twice the first, so every level
    # with b_2 != 2 b_1 is empty.
    n = 3
    rng = np.random.default_rng((900, p, q, ell))
    vectors, forms = _dense_factor_inputs(rng, p, n, 2, min(q, 1))
    forms += [2 * m % p for m in forms[:q - 1]]
    factor = new_quadratic_factor(new_linear_factor(p, n, vectors[:ell]), forms)
    labels = space(p, ell + q)
    atoms = np.flatnonzero(factor.atom_sizes)
    pairs = rng.choice(atoms, (12, 2)).tolist()
    triples = [(b, row, col) for row, col in pairs for b in range(p ** q)]

    def twin(b, row, col):
        label = np.add(labels.coords_of(row), labels.coords_of(col))
        label[ell:] += 2 * np.array(space(p, q).coords_of(b), dtype=np.int64)
        xs, ys = (factor._members_by_code[a] for a in (row, col))
        return factor._codes[factor.space.sum_grid(xs, ys)] == labels.index_of(label % p)

    stack = level_masks(factor, triples)
    _assert_stack(factor, triples, stack, twin)
    if q == 2:
        empty = np.flatnonzero(bilinear_level_sizes(factor) == 0)
        assert empty.size == p ** 2 - p
        assert not stack[[k for k, t in enumerate(triples) if t[0] in empty]].any()


def test_mu_weight_matrix_values():
    # over every pair of atoms the measure of level 0 covers the 33 pairs
    # of beta(0), each weighted 81/33
    factor = _identity_factor(3, 2)
    atoms = range(3)
    sizes = factor.atom_sizes
    on = 0
    for row in atoms:
        for col in atoms:
            w = mu_weight_matrix(factor, 0, row, col)
            assert w.shape == (sizes[row], sizes[col])
            assert np.allclose(w[w > 0], 81.0 / 33.0)
            on += int((w > 0).sum())
    assert on == 33
    # without forms the measure is the constant 1
    flat = new_quadratic_factor(new_linear_factor(3, 2, [(1, 0)]), [])
    assert np.all(mu_weight_matrix(flat, 0, 0, 0) == 1.0)
    assert mu_weight_matrix(flat, 0, 0, 0).shape == (3, 3)


def test_member_table_pads_every_atom_to_the_largest():
    factor = _identity_factor(3, 3, ell=1)
    table, sizes = factor.member_table, factor.atom_sizes
    assert table.shape == (9, sizes.max()) and sizes.sum() == 27
    for code, lab in enumerate(factor.all_labels()):
        members = factor.atom_indices(lab)
        assert members.size == sizes[code]
        assert np.array_equal(table[code, :sizes[code]], members)
        assert not table[code, sizes[code]:].any()
        assert (factor._codes[members] == code).all()
    assert not table.flags.writeable


def test_direction_codes_match_the_labels():
    factor = _identity_factor(3, 3, ell=1)
    rng = np.random.default_rng(7)
    rows, dirs = [], []
    for _ in range(40):
        labels = [tuple(rng.integers(0, 3, 2).tolist()) for _ in range(3)]
        labels += [(int(rng.integers(0, 3)),) for _ in range(3)]
        dirs.append(labels)
        rows.append(sum(labels, ()))
    rows = direction_codes(factor, rows)
    for row, labels in zip(rows.tolist(), dirs):
        assert row[:3] == [a + 3 * b for a, b in labels[:3]]
        assert row[3:] == [b for (b,) in labels[3:]]
    empty = degenerate_directions(factor, rows)
    level_sizes = bilinear_level_sizes(factor)
    for labels, flag in zip(dirs, empty):
        sizes = [factor.atom_indices(a).size for a in labels[:3]]
        levels = [level_sizes[b] for (b,) in labels[3:]]
        assert flag == (0 in sizes + levels)


def test_sigma3_doubles_the_bilinear_labels():
    # codes of the identity factor with l = 1 read a + 3 b for the label (a, b)
    factor = _identity_factor(3, 3, ell=1)
    assert sigma3_codes(factor, [0, 0, 0, 1, 0, 0]).tolist() == [0 + 3 * 2]
    # linear entries never see the bilinear contribution
    assert sigma3_codes(factor, [1, 1, 1, 1, 1, 1]).tolist() == [0]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_sigma3_codes_name_the_atom_of_every_weighted_sum(p, q):
    # from the definition: every (x, y, z) in the three atoms whose pairs lie
    # in the three bilinear level sets sums into the target atom. Each row is
    # read off three random points, so it is nondegenerate and weights at
    # least those points.
    n = 3
    rng = np.random.default_rng(100 * p + q)
    vectors, forms = _dense_factor_inputs(rng, p, n, 1, q)
    factor = new_quadratic_factor(new_linear_factor(p, n, vectors), forms)
    digits = factor.space.digits.astype(np.int64)

    def level(x, y):
        return sum(int(digits[x] @ m @ digits[y]) % p * p ** j for j, m in enumerate(forms))

    rows = []
    for x, y, z in rng.integers(0, p ** n, size=(30, 3)).tolist():
        rows.append([int(factor._codes[v]) for v in (x, y, z)]
                    + [level(x, y), level(x, z), level(y, z)])
    assert not degenerate_directions(factor, rows).any()
    for row, target in zip(rows, sigma3_codes(factor, rows).tolist()):
        a1, a2, a3, b12, b13, b23 = row
        ok = (_mask(factor, b12, a1, a2)[:, :, None]
              & _mask(factor, b13, a1, a3)[:, None, :]
              & _mask(factor, b23, a2, a3)[None, :, :])
        members = (factor._members_by_code[a] for a in (a1, a2, a3))
        sums = factor.space.sum_grid3(*members)[ok]
        assert sums.size and (factor._codes[sums] == target).all()
