"""Linear and quadratic factors: atoms, bilinear level-set sizes, rank.

A linear factor is a list of linearly independent vectors r_1, ..., r_l; a
quadratic factor adds symmetric forms M_1, ..., M_q. Atoms are the joint
level sets {x : x^T r_i = a_i, x^T M_j x = b_j}. A factor is its codes:
each point's label (a_1, ..., a_l, b_1, ..., b_q), read in base p, summed
from `GroupSpace.form_values`. A label's code is its canonical index in
F_p^width, so `space(p, width)` encodes (`index_of`) and decodes
(`coords_of`) it, and the bilinear level-set sizes are one array by level
code. A direction (a1, a2, a3, b12, b13, b23) is a row of six codes, three
atom codes and three bilinear level codes: `direction_codes` encodes drawn
labels, and `degenerate_directions` and `sigma3_codes` read the rows. The
rank of a quadratic factor is the minimum rank over all nontrivial
combinations of its forms; high rank makes atoms and bilinear level sets
near-equidistributed, which is what the trend experiments measure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import CapExceeded, DegenerateContext, DependentVectors, TooManyForms
from .fpn_core import (
    H_BLOCK_ENTRIES,
    GroupSpace,
    GroupVector,
    SymmetricForm,
    count_terms,
    nullspace_mod_p,
    rank_mod_p,
    space,
)

MAX_FORMS = 6
MU_CAP = 1 << 26  # entry cap of one level mask; a mu weight is that mask and one number


class _LabelIndex:
    """Canonical-index members grouped by joint label.

    Subclasses set `p`, the label `width` and `_codes`, every point's label
    as its little-endian base-p value (its code), one int64 per point. Each
    counts p^n x width terms when it is first built.
    """

    p: int
    width: int
    _codes: np.ndarray

    @cached_property
    def atom_sizes(self) -> np.ndarray:
        """The member count of every label, by code."""
        return np.bincount(self._codes, minlength=self.p ** self.width)

    @cached_property
    def member_table(self) -> np.ndarray:
        """One row per label code, as wide as the largest label set: row c
        holds the members of code c in increasing order, then zeros."""
        order = np.argsort(self._codes, kind="stable")
        codes = self._codes[order]
        starts = np.concatenate([[0], np.cumsum(self.atom_sizes)[:-1]])
        table = np.zeros((self.atom_sizes.size, int(self.atom_sizes.max())), dtype=np.int64)
        table[codes, np.arange(codes.size) - starts[codes]] = order
        table.flags.writeable = False
        return table

    @cached_property
    def _members_by_code(self) -> list[np.ndarray]:
        return [row[:size] for row, size in zip(self.member_table, self.atom_sizes.tolist())]

    def atom_indices(self, label) -> np.ndarray:
        """Canonical-index members of the label's set: the atom B(label) of a
        quadratic factor, the coset L(label) of a linear one."""
        return self._members_by_code[space(self.p, self.width).index_of(label)]


class LinearFactor(_LabelIndex):
    """l linearly independent vectors partitioning F_p^n into p^l cosets."""

    def __init__(self, p: int, n: int, vectors: tuple[GroupVector, ...]) -> None:
        rows = []
        for v in vectors:
            if v.p != p or v.n != n:
                raise ValueError("vector in wrong group")
            rows.append(v.coords)
        if rows and rank_mod_p(np.array(rows, dtype=np.int64), p) != len(rows):
            raise DependentVectors("linear part is not independent")
        self.p = p
        self.n = n
        self.vectors = tuple(vectors)
        self.ell = self.width = len(rows)
        self.space: GroupSpace = space(p, n)
        self._rows = np.array(rows, dtype=np.int64).reshape(self.ell, n)

    @cached_property
    def _codes(self) -> np.ndarray:
        count_terms(self.space.size * self.width)
        codes = np.zeros(self.space.size, dtype=np.int64)
        for i, row in enumerate(self._rows):
            codes += self.space.form_values(r=row) * self.p ** i
        return codes

    def subgroup_basis(self) -> list[GroupVector]:
        """Basis of the kernel coset L(0), from mod-p row reduction."""
        if self.ell == 0:
            basis = [tuple(int(i == j) for j in range(self.n)) for i in range(self.n)]
        else:
            basis = nullspace_mod_p(self._rows, self.p, self.n)
        return [GroupVector(self.p, b) for b in basis]


class QuadraticFactor(_LabelIndex):
    """A linear factor refined by joint level sets of symmetric forms."""

    def __init__(self, linear: LinearFactor, forms: tuple[SymmetricForm, ...]) -> None:
        if len(forms) > MAX_FORMS:
            raise TooManyForms(f"at most {MAX_FORMS} forms supported, got {len(forms)}")
        for m in forms:
            if m.p != linear.p or m.n != linear.n:
                raise ValueError("form in wrong group")
        self.linear = linear
        self.forms = tuple(forms)
        self.p = linear.p
        self.n = linear.n
        self.ell = linear.ell
        self.q = len(forms)
        self.width = self.ell + self.q
        self.space = linear.space
        # minimum rank over the nontrivial form combinations; sentinel n+1
        # when there are no forms at all
        self.rank = min((r for _, r in self._line_ranks), default=self.n + 1)

    @cached_property
    def _line_ranks(self) -> list[tuple[np.ndarray, int]]:
        """(lambda, rank of sum_j lambda_j M_j) for one lambda per punctured
        line {c lambda : c != 0} of F_p^q: the one whose first nonzero entry
        is 1. The rank is constant on each such line."""
        p = self.p
        arrays = [m.as_array() for m in self.forms]
        lam_space = space(p, self.q)
        out = []
        for code in range(1, p ** self.q):
            lam = lam_space.digits[code].astype(np.int64)
            if lam[np.flatnonzero(lam)[0]] != 1:
                continue
            combo = sum(int(l) * a for l, a in zip(lam, arrays)) % p
            out.append((lam, rank_mod_p(combo, p)))
        return out

    @cached_property
    def _codes(self) -> np.ndarray:
        count_terms(self.space.size * self.width)
        codes = self.linear._codes
        for j, m in enumerate(self.forms):
            codes = codes + self.space.form_values(m.as_array()) * self.p ** (self.ell + j)
        return codes

    def all_labels(self) -> list[tuple[int, ...]]:
        """Every atom label, in code order."""
        return list(map(tuple, space(self.p, self.width).digits.tolist()))

    def occupied_labels(self) -> list[tuple[int, ...]]:
        return [lab for lab, size in zip(self.all_labels(), self.atom_sizes.tolist()) if size]


def new_linear_factor(p: int, n: int, vectors) -> LinearFactor:
    """Build a linear factor, verifying independence of its vectors."""
    vecs = tuple(v if isinstance(v, GroupVector) else GroupVector(p, tuple(v)) for v in vectors)
    return LinearFactor(p, n, vecs)


def new_quadratic_factor(linear: LinearFactor, forms) -> QuadraticFactor:
    """Attach symmetric forms to a linear factor and compute the rank."""
    shaped = tuple(
        m if isinstance(m, SymmetricForm) else SymmetricForm.from_array(linear.p, m)
        for m in forms
    )
    return QuadraticFactor(linear, shaped)


def level_masks(factor: QuadraticFactor, triples) -> np.ndarray:
    """The level masks of code triples (b, row, col), in order, as one bool
    stack (C, |row|, |col|) padded with False to the call's largest row and
    column atoms: mask c holds, in its corner, the member pairs of the atoms
    of codes row x col in the bilinear level set of code b; all True with
    no forms. Nothing is kept between calls.

    Each distinct triple, keyed by the int64 b A^2 + row A + col with A =
    p^width, is built once per call and counts |row| |col| q terms, one
    per form value. Triples go in blocks whose float32 form values take at
    most H_BLOCK_ENTRIES bytes (one triple's rows a slab at a time when one
    alone is larger). Per form, x^T M y is one batched float32 matmul of
    (x^T M mod p) with y, exact as every partial sum is at most n (p - 1)^2
    < 2^24, with its residue mod p read from a table at its int16 value
    (n (p - 1)^2 <= 720 for p^n <= 2^20). Raises CapExceeded, before a mask
    is allocated, when some |row| |col| exceeds MU_CAP: a mask takes 1 byte
    per entry.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    dims = (factor.p ** factor.q,) + (factor.p ** factor.width,) * 2
    keys, inverse = np.unique(np.ravel_multi_index(tuple(triples.T), dims),
                              return_inverse=True)
    levels, rows, cols = np.unravel_index(keys, dims)
    heights, widths = factor.atom_sizes[rows], factor.atom_sizes[cols]
    entries = heights * widths
    widest = int(entries.argmax())
    if entries[widest] > MU_CAP:
        raise CapExceeded(f"mu matrix of {heights[widest]} x {widths[widest]} entries "
                          f"exceeds the mu cap {MU_CAP}")
    count_terms(int(entries.sum()) * factor.q)
    height, width = int(heights.max()), int(widths.max())
    # the padding lies in no level set
    masks = ((np.arange(height)[:, None] < heights[:, None, None])
             & (np.arange(width) < widths[:, None, None]))
    p, digits, table = factor.p, factor.space.digits, factor.member_table
    values = space(p, factor.q).digits[levels]
    forms = [m.as_array() for m in factor.forms]
    residue = (np.arange(factor.n * (p - 1) ** 2 + 1) % p).astype(np.int8)  # v mod p by v
    budget = H_BLOCK_ENTRIES // 4  # entries whose float32 form values take H_BLOCK_ENTRIES bytes
    step = max(1, budget // (height * width))
    for lo in range(0, len(keys) if forms else 0, step):  # no forms: all pass
        block = slice(lo, lo + step)
        y = digits[table[cols[block], :width]].astype(np.float32).transpose(0, 2, 1)
        slab = max(1, budget // (len(y) * width))
        for start in range(0, height, slab):
            rows_in = slice(start, min(start + slab, height))
            x = digits[table[rows[block], rows_in]].astype(np.int64)
            for j, m in enumerate(forms):
                form = np.matmul(((x @ m) % p).astype(np.float32), y)
                masks[block, rows_in] &= (np.take(residue, form.astype(np.int16))
                                          == values[block, j, None, None])
    return masks[inverse]


def mu_weight(factor: QuadraticFactor, b: int) -> float:
    """The value p^(2n)/|beta(b)| of the measure mu_beta(b) on its level set,
    and 1.0 with no forms. Raises DegenerateContext when the level set is
    empty."""
    if factor.q == 0:
        return 1.0
    size = int(bilinear_level_sizes(factor)[b])
    if size == 0:
        values = tuple(int(v) for v in space(factor.p, factor.q).digits[b])
        raise DegenerateContext(f"beta({values}) is empty")
    return float(Fraction(factor.p ** (2 * factor.n), size))


def mu_weight_matrix(factor: QuadraticFactor, b: int, row: int, col: int) -> np.ndarray:
    """The measure mu_beta(b) on the atoms of codes row x col: the level
    mask times the level's weight (1 with no forms). The weight comes
    first, so an empty level raises DegenerateContext before a mask is
    built."""
    weight = mu_weight(factor, b)
    return level_masks(factor, [(b, row, col)])[0] * weight


# the histogram twin walks every pair; past this many it refuses
LEVEL_HISTOGRAM_CAP = 1 << 24


def bilinear_level_sizes(factor: QuadraticFactor) -> np.ndarray:
    """|beta(b)| for every bilinear label b, by code, from the ranks of the
    forms; computed once per factor and returned as the same read-only
    int64 array.

    Counting with characters, |beta(b)| = p^(2n-q) sum over lambda in F_p^q
    of p^(-rank M_lambda) omega^(-lambda.b), where M_lambda = sum_j
    lambda_j M_j. The rank is constant on each punctured line {c lambda :
    c != 0}, whose characters sum to p - 1 when lambda.b = 0 and to -1
    otherwise, so the count is an integer sum over the lines (Green-Tao,
    The distribution of polynomials over finite fields, 2009). With
    p^n <= 2^20 and q <= 6 every partial sum stays below 2^63. Counts p^q
    terms per punctured line, one per level set updated, on the first call.
    """
    p, q, n = factor.p, factor.q, factor.n
    if q < 1:
        raise ValueError("needs at least one form")
    if "_level_sizes" not in factor.__dict__:
        scaled = np.full(p ** q, p ** (2 * n), dtype=np.int64)  # p^q |beta(b)|
        for lam, r in factor._line_ranks:
            count_terms(p ** q)
            scaled += p ** (2 * n - r) * np.where(space(p, q).form_values(r=lam) == 0, p - 1, -1)
        scaled //= p ** q
        scaled.flags.writeable = False
        factor._level_sizes = scaled
    return factor._level_sizes


def bilinear_level_sizes_naive(factor: QuadraticFactor) -> np.ndarray:
    """Reference route: the joint histogram of the form values over all
    p^(2n) pairs, capped at LEVEL_HISTOGRAM_CAP pairs."""
    p, q = factor.p, factor.q
    if q < 1:
        raise ValueError("needs at least one form")
    sp = factor.space
    if sp.size ** 2 > LEVEL_HISTOGRAM_CAP:
        raise CapExceeded(f"p^(2n) = {sp.size ** 2} pairs exceed the histogram cap")
    digits = sp.digits.astype(np.int64)
    counts = np.zeros(p ** q, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(sp.size, 1))
    for start in range(0, sp.size, chunk):
        block = digits[start:start + chunk]
        code = np.zeros((block.shape[0], sp.size), dtype=np.int64)
        for j, m in enumerate(factor.forms):
            vals = (block @ m.as_array() @ digits.T) % p
            code += vals * (p ** j)
        counts += np.bincount(code.ravel(), minlength=p ** q)
    return counts


def direction_codes(factor: QuadraticFactor, labels) -> np.ndarray:
    """The codes (a1, a2, a3, b12, b13, b23) of directions, one row per row
    of label entries in that order: three atom labels of l + q entries,
    then three bilinear labels of q entries."""
    p, w, q = factor.p, factor.ell + factor.q, factor.q
    labels = np.asarray(labels, dtype=np.int64).reshape(len(labels), 3 * w + 3 * q) % p
    place = p ** np.arange(w, dtype=np.int64)
    parts = np.split(labels, [w, 2 * w, 3 * w, 3 * w + q, 3 * w + 2 * q], axis=1)
    return np.stack([part @ place[:part.shape[1]] for part in parts], axis=1)


def degenerate_directions(factor: QuadraticFactor, codes: np.ndarray) -> np.ndarray:
    """For each row (a1, a2, a3, b12, b13, b23) of direction codes, whether
    it names an empty atom or (with forms) an empty bilinear level set."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, 6)
    empty = (factor.atom_sizes[codes[:, :3]] == 0).any(axis=1)
    if factor.q:
        empty |= (bilinear_level_sizes(factor)[codes[:, 3:]] == 0).any(axis=1)
    return empty


def sigma3_codes(factor: QuadraticFactor, codes: np.ndarray) -> np.ndarray:
    """The code of the target atom a1 + a2 + a3 + 2(0|b12) + 2(0|b13) +
    2(0|b23) of each row (a1, a2, a3, b12, b13, b23) of direction codes,
    digit by digit; 0|b is the bilinear label after the factor's l leading
    zeros, so the doubled bilinear terms only touch the quadratic digits."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, 6)
    p, ell, q = factor.p, factor.ell, factor.q
    place = p ** np.arange(ell + q, dtype=np.int64)
    digits = (codes[:, :3, None] // place) % p  # (C, 3, l + q)
    total = digits.sum(axis=1)
    total[:, ell:] += 2 * ((codes[:, 3:, None] // place[:q]) % p).sum(axis=1)
    return (total % p) @ place
