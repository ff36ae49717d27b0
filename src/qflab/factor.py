"""Linear and quadratic factors: atoms, bilinear level sets, rank, projection.

A linear factor is a list of linearly independent vectors r_1, ..., r_l; a
quadratic factor adds symmetric forms M_1, ..., M_q. Atoms are the joint
level sets {x : x^T r_i = a_i, x^T M_j x = b_j}. The rank of a quadratic
factor is the minimum rank over all nontrivial combinations of its forms;
high rank makes atoms and bilinear level sets near-equidistributed, which is
what the trend experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DependentVectors, EmptyLevelSet, TooManyForms
from .fpn_core import (
    DEFAULT_ENUM_CAP,
    GroupSpace,
    GroupVector,
    SymmetricForm,
    nullspace_mod_p,
    rank_mod_p,
    space,
)

if TYPE_CHECKING:
    from .spectral import GroupFunction

MAX_FORMS = 6


@dataclass(frozen=True)
class AtomLabel:
    """Joint level-set label: l linear entries followed by q quadratic ones."""

    p: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(v) % self.p for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __add__(self, other: AtomLabel) -> AtomLabel:
        return AtomLabel(self.p, tuple((a + b) % self.p for a, b in zip(self.values, other.values)))


@dataclass(frozen=True)
class BilinearLabel:
    """Level label b in F_p^q for the pair sets {(x, y) : x^T M_j y = b_j}."""

    p: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(v) % self.p for v in self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DirectionTuple2:
    """Pair of coset labels (a1, a2) for the local U^2 inner product."""

    p: int
    a1: tuple[int, ...]
    a2: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.a1) != len(self.a2):
            raise ValueError("label lengths differ")
        object.__setattr__(self, "a1", tuple(int(v) % self.p for v in self.a1))
        object.__setattr__(self, "a2", tuple(int(v) % self.p for v in self.a2))


@dataclass(frozen=True)
class DirectionTuple3:
    """Labels (a1, a2, a3, b12, b13, b23) for the local U^3 inner product.

    The a_i are atom labels of length l+q; the b_ij are bilinear labels of
    length q, in the fixed pair order (12), (13), (23).
    """

    p: int
    a1: tuple[int, ...]
    a2: tuple[int, ...]
    a3: tuple[int, ...]
    b12: tuple[int, ...]
    b13: tuple[int, ...]
    b23: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.a1) == len(self.a2) == len(self.a3)):
            raise ValueError("atom label lengths differ")
        if not (len(self.b12) == len(self.b13) == len(self.b23)):
            raise ValueError("bilinear label lengths differ")
        for name in ("a1", "a2", "a3", "b12", "b13", "b23"):
            object.__setattr__(self, name, tuple(int(v) % self.p for v in getattr(self, name)))


class _LabelIndex:
    """Canonical-index members grouped by joint label.

    Subclasses set `p`, the label `width` and a `label_table` of shape
    (p^n, width); a label's code is its little-endian base-p value.
    """

    p: int
    width: int
    label_table: np.ndarray

    @cached_property
    def _codes(self) -> np.ndarray:
        return self.label_table @ (self.p ** np.arange(self.width, dtype=np.int64))

    @cached_property
    def _members_by_code(self) -> list[np.ndarray]:
        count = self.p ** self.width
        order = np.argsort(self._codes, kind="stable")
        bounds = np.searchsorted(self._codes[order], np.arange(count + 1))
        return [order[bounds[c]: bounds[c + 1]] for c in range(count)]

    def label_code(self, label) -> int:
        vals = _label_values(label)
        if len(vals) != self.width:
            raise ValueError(f"label length {len(vals)} != {self.width}")
        return sum((int(v) % self.p) * self.p ** i for i, v in enumerate(vals))


class LinearFactor(_LabelIndex):
    """l linearly independent vectors partitioning F_p^n into p^l cosets."""

    def __init__(self, p: int, n: int, vectors: tuple[GroupVector, ...], cap: int = DEFAULT_ENUM_CAP) -> None:
        rows = []
        for v in vectors:
            if v.p != p or v.n != n:
                raise ValueError("vector in wrong group")
            rows.append(v.coords)
        if rows and rank_mod_p(np.array(rows, dtype=np.int64), p) != len(rows):
            raise DependentVectors("linear part is not independent")
        if len(rows) > n:
            raise DependentVectors("more vectors than the dimension allows")
        self.p = p
        self.n = n
        self.vectors = tuple(vectors)
        self.ell = self.width = len(rows)
        self.space: GroupSpace = GroupSpace(p, n, cap=cap)
        self._rows = np.array(rows, dtype=np.int64).reshape(self.ell, n)

    @cached_property
    def label_table(self) -> np.ndarray:
        """Per-index linear labels, shape (p^n, l)."""
        digits = self.space.digits.astype(np.int64)
        return (digits @ self._rows.T) % self.p

    def coset_indices(self, label: tuple[int, ...]) -> np.ndarray:
        """Canonical-index members of the coset L(label); size is p^(n-l)."""
        return self._members_by_code[self.label_code(label)]

    def label_of_index(self, index: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.label_table[index])

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
        self.rank = self._compute_rank()

    def _compute_rank(self) -> int:
        # minimum rank over the p^q - 1 nontrivial form combinations;
        # sentinel n+1 when there are no forms at all
        if self.q == 0:
            return self.n + 1
        p = self.p
        best = self.n + 1
        arrays = [m.as_array() for m in self.forms]
        lam_space = space(p, self.q)
        for code in range(1, p ** self.q):
            lam = lam_space.coords_of(code)
            combo = sum(int(l) * a for l, a in zip(lam, arrays)) % p
            best = min(best, rank_mod_p(combo, p))
        return best

    @cached_property
    def label_table(self) -> np.ndarray:
        """Per-index joint labels, shape (p^n, l+q)."""
        digits = self.space.digits.astype(np.int64)
        cols = [self.linear.label_table]
        for m in self.forms:
            vals = np.einsum("xi,ij,xj->x", digits, m.as_array(), digits) % self.p
            cols.append(vals[:, None])
        return np.concatenate(cols, axis=1)

    def atom_indices(self, label) -> np.ndarray:
        return self._members_by_code[self.label_code(label)]

    def label_of_index(self, index: int) -> AtomLabel:
        return AtomLabel(self.p, tuple(int(v) for v in self.label_table[index]))

    def all_labels(self):
        width = self.ell + self.q
        sp = space(self.p, width) if width > 0 else None
        count = self.p ** width
        for code in range(count):
            coords = sp.coords_of(code) if sp is not None else ()
            yield AtomLabel(self.p, coords)

    def occupied_labels(self) -> list[AtomLabel]:
        return [lab for lab in self.all_labels() if self.atom_indices(lab.values).size > 0]


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


def atom_of(factor: QuadraticFactor, x: GroupVector) -> AtomLabel:
    """Label of the atom containing x: the x^T r_i followed by the x^T M_j x."""
    if x.p != factor.p or x.n != factor.n:
        raise ValueError("vector in wrong group")
    return factor.label_of_index(x.index)


def atom_members(factor: QuadraticFactor, label) -> list[GroupVector]:
    idxs = factor.atom_indices(_label_values(label))
    return [GroupVector.from_index(factor.p, factor.n, int(i)) for i in idxs]


def atom_size(factor: QuadraticFactor, label) -> int:
    return int(factor.atom_indices(_label_values(label)).size)


class BilinearLevelSet:
    """The set beta(b) = {(x, y) : x^T M_j y = b_j for all j} with its measure.

    The characteristic measure mu weights each member pair by p^(2n)/|beta|,
    so that mu integrates to 1 over all of F_p^n x F_p^n.
    """

    def __init__(self, factor: QuadraticFactor, label: BilinearLabel) -> None:
        if factor.q < 1:
            raise ValueError("bilinear level sets need at least one form")
        if len(label) != factor.q:
            raise ValueError(f"label length {len(label)} != q = {factor.q}")
        self.factor = factor
        self.label = label
        self.size = beta_sizes_cached(factor)[label.values]

    @property
    def mu(self) -> Fraction:
        if self.size == 0:
            raise EmptyLevelSet(f"beta({self.label.values}) is empty")
        return Fraction(self.factor.p ** (2 * self.factor.n), self.size)

    def contains(self, x: GroupVector, y: GroupVector) -> bool:
        return bool(self.pair_mask([x.index], [y.index])[0, 0])

    def pair_mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Boolean membership matrix over two canonical-index arrays."""
        return bilinear_pair_mask(self.factor, self.label.values, xs, ys)


def bilinear_level_set(factor: QuadraticFactor, blabel) -> BilinearLevelSet:
    """Construct beta(b) for the factor's forms; size 0 is representable."""
    label = blabel if isinstance(blabel, BilinearLabel) else BilinearLabel(factor.p, tuple(blabel))
    return BilinearLevelSet(factor, label)


def beta_sizes_cached(factor: QuadraticFactor) -> dict[tuple[int, ...], int]:
    """All level-set sizes for the factor, computed once and memoized."""
    cached = getattr(factor, "_beta_sizes", None)
    if cached is None:
        cached = bilinear_level_sizes(factor)
        factor._beta_sizes = cached
    return cached


def bilinear_pair_mask(factor: QuadraticFactor, values: tuple[int, ...],
                       rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Boolean matrix of beta(values) membership over two index arrays."""
    p = factor.p
    digits = factor.space.digits.astype(np.int64)
    dx = digits[np.asarray(rows)]
    dy = digits[np.asarray(cols)]
    ok = np.ones((dx.shape[0], dy.shape[0]), dtype=bool)
    for j, m in enumerate(factor.forms):
        vals = (dx @ m.as_array() @ dy.T) % p
        ok &= vals == values[j]
    return ok


def mu_weight_matrix(factor: QuadraticFactor, blabel, rows: np.ndarray,
                     cols: np.ndarray) -> np.ndarray:
    """The measure mu_beta(b) sampled on rows x cols: p^(2n)/|beta| on
    members, 0 elsewhere. With no forms the measure is identically 1."""
    if factor.q == 0:
        return np.ones((np.asarray(rows).size, np.asarray(cols).size))
    values = _label_values(blabel)
    if len(values) != factor.q:
        raise ValueError(f"bilinear label length {len(values)} != q = {factor.q}")
    size = beta_sizes_cached(factor)[values]
    if size == 0:
        raise EmptyLevelSet(f"beta({values}) is empty")
    weight = float(Fraction(factor.p ** (2 * factor.n), size))
    return bilinear_pair_mask(factor, values, rows, cols) * weight


def bilinear_level_sizes(factor: QuadraticFactor) -> dict[tuple[int, ...], int]:
    """Sizes of all p^q level sets at once (joint histogram over pairs)."""
    p, q = factor.p, factor.q
    if q < 1:
        raise ValueError("needs at least one form")
    sp = factor.space
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
    lab_space = space(p, q)
    return {lab_space.coords_of(c): int(counts[c]) for c in range(p ** q)}


def project_onto_factor(f: "GroupFunction", factor: QuadraticFactor) -> "GroupFunction":
    """Conditional expectation: replace f by its mean on each atom."""
    from .spectral import GroupFunction

    if f.p != factor.p or f.n != factor.n:
        raise ValueError("function in wrong group")
    values = np.array(f.values, dtype=np.complex128)
    out = np.empty_like(values)
    for members in factor._members_by_code:
        if members.size == 0:
            continue
        out[members] = values[members].mean()
    return GroupFunction(f.p, f.n, out)


def refines(finer: QuadraticFactor, coarser: QuadraticFactor) -> bool:
    """True iff every atom of `finer` lies inside a single atom of `coarser`.

    Checked semantically by enumeration, not by comparing defining data.
    """
    if (finer.p, finer.n) != (coarser.p, coarser.n):
        raise ValueError("factors on different groups")
    fine_codes = finer._codes
    coarse_codes = coarser._codes
    seen: dict[int, int] = {}
    for fc, cc in zip(fine_codes.tolist(), coarse_codes.tolist()):
        prev = seen.get(fc)
        if prev is None:
            seen[fc] = cc
        elif prev != cc:
            return False
    return True


def sigma2(d: DirectionTuple2) -> tuple[int, ...]:
    """The coset label a1 + a2 on which local U^2 evaluates its arguments."""
    return tuple((x + y) % d.p for x, y in zip(d.a1, d.a2))


def sigma3(factor: QuadraticFactor, d: DirectionTuple3) -> AtomLabel:
    """The atom label a1+a2+a3+2(0b12)+2(0b13)+2(0b23).

    0b means the bilinear label padded with the factor's l initial zeros, so
    the doubled bilinear contributions only touch the quadratic entries.
    """
    if len(d.a1) != factor.ell + factor.q or len(d.b12) != factor.q:
        raise ValueError("direction tuple does not match factor complexity")
    p = factor.p
    out = [(x + y + z) % p for x, y, z in zip(d.a1, d.a2, d.a3)]
    for b in (d.b12, d.b13, d.b23):
        for j, v in enumerate(b):
            out[factor.ell + j] = (out[factor.ell + j] + 2 * v) % p
    return AtomLabel(p, tuple(out))


def _label_values(label) -> tuple[int, ...]:
    if isinstance(label, AtomLabel):
        return label.values
    if isinstance(label, BilinearLabel):
        return label.values
    return tuple(int(v) for v in label)
