"""Exact arithmetic over F_p and Z[omega], group enumeration, and character sums.

Conventions used by the whole package:

* p is an odd prime, 3 <= p <= 13.
* Elements of F_p^n are stored by canonical index, little-endian base p:
  index = sum_i coords[i] * p^i. All dense tables are indexed this way.
* omega denotes a fixed primitive p-th root of unity, embedded into the
  complex numbers as exp(2*pi*i/p).
* Character sums with integer weights are evaluated exactly in Z[omega] and
  only embedded into floating point at the very end.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import AsymmetricForm, CapExceeded, DependentBasis

ODD_PRIMES = (3, 5, 7, 11, 13)
DEFAULT_ENUM_CAP = 1 << 20
DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# primes and scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldPrime:
    """A validated odd prime in the supported range."""

    p: int

    def __post_init__(self) -> None:
        if self.p not in ODD_PRIMES:
            raise ValueError(f"p must be an odd prime in {ODD_PRIMES}, got {self.p}")


# Normalized averages are carried as ordinary python complex numbers; the
# type alias keeps signatures readable.
ComplexScalar = complex


def check_finite(z: complex) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite scalar {z!r}")
    return z


# ---------------------------------------------------------------------------
# the group F_p^n
# ---------------------------------------------------------------------------

class GroupSpace:
    """Cached index arithmetic for F_p^n.

    Holds the digit table (canonical index -> coordinate vector) and the
    base-p place values, and exposes vectorized add/negate/dot on indices.
    """

    def __init__(self, p: int, n: int, cap: int = DEFAULT_ENUM_CAP) -> None:
        FieldPrime(p)
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        size = p ** n
        if size > cap:
            raise CapExceeded(f"p^n = {size} exceeds cap {cap}")
        self.p = p
        self.n = n
        self.size = size
        self.powers = np.array([p ** i for i in range(n)], dtype=np.int64)
        # digit table built arithmetically, one column per coordinate
        idx = np.arange(size, dtype=np.int64)
        digits = np.empty((size, n), dtype=np.int8)
        for i in range(n):
            digits[:, i] = (idx // (p ** i)) % p
        self.digits = digits

    def coords_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.digits[index])

    def index_of(self, coords) -> int:
        arr = np.asarray(coords, dtype=np.int64) % self.p
        if arr.shape != (self.n,):
            raise ValueError(f"expected {self.n} coordinates, got {arr.shape}")
        return int(arr @ self.powers)

    def add(self, a, b):
        """Index-wise addition; accepts scalars or arrays, broadcasting."""
        da = self.digits[np.asarray(a)].astype(np.int64)
        db = self.digits[np.asarray(b)].astype(np.int64)
        return ((da + db) % self.p) @ self.powers

    def neg(self, a):
        da = self.digits[np.asarray(a)].astype(np.int64)
        return ((-da) % self.p) @ self.powers

    def sum_grid(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix s[i, j] = index of a[i] + b[j]."""
        da = self.digits[np.asarray(a)].astype(np.int64)
        db = self.digits[np.asarray(b)].astype(np.int64)
        s = (da[:, None, :] + db[None, :, :]) % self.p
        return s @ self.powers

    def sum_grid3(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Tensor s[i, j, k] = index of a[i] + b[j] + c[k]."""
        da = self.digits[np.asarray(a)].astype(np.int64)
        db = self.digits[np.asarray(b)].astype(np.int64)
        dc = self.digits[np.asarray(c)].astype(np.int64)
        s = (da[:, None, None, :] + db[None, :, None, :] + dc[None, None, :, :]) % self.p
        return s @ self.powers


@lru_cache(maxsize=64)
def space(p: int, n: int) -> GroupSpace:
    return GroupSpace(p, n)


@dataclass(frozen=True)
class GroupVector:
    """An element of F_p^n with a canonical integer index."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        FieldPrime(self.p)
        object.__setattr__(self, "coords", tuple(int(c) % self.p for c in self.coords))

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def index(self) -> int:
        return sum(c * self.p ** i for i, c in enumerate(self.coords))

    @classmethod
    def from_index(cls, p: int, n: int, index: int) -> GroupVector:
        return cls(p, space(p, n).coords_of(index))

    @classmethod
    def zero(cls, p: int, n: int) -> GroupVector:
        return cls(p, (0,) * n)

    def __add__(self, other: GroupVector) -> GroupVector:
        self._check(other)
        return GroupVector(self.p, tuple((a + b) % self.p for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> GroupVector:
        return GroupVector(self.p, tuple((-a) % self.p for a in self.coords))

    def __sub__(self, other: GroupVector) -> GroupVector:
        return self + (-other)

    def dot(self, other: GroupVector) -> int:
        self._check(other)
        return sum(a * b for a, b in zip(self.coords, other.coords)) % self.p

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other: GroupVector) -> None:
        if self.p != other.p or self.n != other.n:
            raise ValueError("mismatched group")


def enumerate_group(p: int, n: int, cap: int = DEFAULT_ENUM_CAP):
    """Yield all p^n vectors exactly once, in canonical-index order."""
    sp = GroupSpace(p, n, cap=cap)
    for i in range(sp.size):
        yield GroupVector(p, sp.coords_of(i))


# ---------------------------------------------------------------------------
# symmetric forms and mod-p linear algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricForm:
    """A symmetric n x n matrix over F_p."""

    p: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        FieldPrime(self.p)
        rows = tuple(tuple(int(v) % self.p for v in row) for row in self.entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise AsymmetricForm(f"entries[{i}][{j}] != entries[{j}][{i}]")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)

    @classmethod
    def from_array(cls, p: int, arr) -> SymmetricForm:
        a = np.asarray(arr, dtype=np.int64) % p
        return cls(p, tuple(tuple(int(v) for v in row) for row in a))

    @classmethod
    def identity(cls, p: int, n: int) -> SymmetricForm:
        return cls.from_array(p, np.eye(n, dtype=np.int64))

    @classmethod
    def zero(cls, p: int, n: int) -> SymmetricForm:
        return cls.from_array(p, np.zeros((n, n), dtype=np.int64))

    def evaluate(self, x: GroupVector) -> int:
        """x^T M x mod p."""
        v = np.array(x.coords, dtype=np.int64)
        return int(v @ self.as_array() @ v % self.p)


def _row_reduce(m: np.ndarray, p: int) -> list[int]:
    """Bring the 2-D array m, entries already reduced mod p, to reduced row
    echelon form over F_p in place; return the pivot columns in order."""
    rows, cols = m.shape
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        pivot = next((r for r in range(rank, rows) if m[r, col] != 0), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, col]), p - 2, p)) % p
        for r in range(rows):
            if r != rank and m[r, col] != 0:
                m[r] = (m[r] - m[r, col] * m[rank]) % p
        pivots.append(col)
    return pivots


def rank_mod_p(matrix, p: int) -> int:
    """Rank of an integer matrix over F_p by Gaussian elimination."""
    m = np.array(matrix, dtype=np.int64) % p
    if m.size == 0:
        return 0
    return len(_row_reduce(m, p))


def nullspace_mod_p(matrix, p: int, n: int) -> list[tuple[int, ...]]:
    """Basis of {x in F_p^n : matrix @ x = 0}, canonical (RREF-derived) order."""
    work = np.array(matrix, dtype=np.int64).reshape(-1, n) % p
    pivots = _row_reduce(work, p)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-int(work[r, fc])) % p
        basis.append(tuple(vec))
    return basis


def matrix_rank(form: SymmetricForm) -> int:
    """Rank of a symmetric form over F_p."""
    return rank_mod_p(form.as_array(), form.p)


def restrict_form(form: SymmetricForm, basis: list[GroupVector]) -> SymmetricForm:
    """Restriction B^T M B of a form to the subspace spanned by `basis`.

    The result is a symmetric form on dim(W) coordinates. The basis must be
    linearly independent.
    """
    p = form.p
    k = len(basis)
    if k == 0:
        return SymmetricForm(p, ())
    bmat = np.array([v.coords for v in basis], dtype=np.int64).T  # n x k
    if rank_mod_p(bmat.T, p) != k:
        raise DependentBasis("restriction basis is linearly dependent")
    restricted = (bmat.T @ form.as_array() @ bmat) % p
    return SymmetricForm.from_array(p, restricted)


# ---------------------------------------------------------------------------
# exact cyclotomic integers
# ---------------------------------------------------------------------------

class CyclotomicValue:
    """An element of Z[omega], omega a primitive p-th root of unity.

    Internally a length-p integer vector under omega^p = 1, canonicalized so
    the omega^(p-1) coordinate is zero (subtract it from every coordinate,
    using 1 + omega + ... + omega^(p-1) = 0). The canonical representation
    therefore has p-1 free coefficients and is unique.
    """

    __slots__ = ("p", "_vec")

    def __init__(self, p: int, vec) -> None:
        FieldPrime(p)
        arr = np.zeros(p, dtype=object)
        given = np.asarray(vec, dtype=object)
        if given.size > p:
            raise ValueError("coefficient vector longer than p")
        arr[: given.size] = given
        # canonicalize: kill the omega^(p-1) coordinate
        last = arr[p - 1]
        if last != 0:
            arr = arr - last
        arr[p - 1] = 0
        self.p = p
        self._vec = arr

    @classmethod
    def zero(cls, p: int) -> CyclotomicValue:
        return cls(p, [])

    @classmethod
    def one(cls, p: int) -> CyclotomicValue:
        return cls(p, [1])

    @classmethod
    def from_int(cls, p: int, value: int) -> CyclotomicValue:
        return cls(p, [int(value)])

    @classmethod
    def omega_power(cls, p: int, k: int) -> CyclotomicValue:
        vec = [0] * p
        vec[k % p] = 1
        return cls(p, vec)

    @classmethod
    def from_counts(cls, p: int, counts) -> CyclotomicValue:
        """sum_k counts[k] * omega^k for a length-p integer count vector."""
        return cls(p, [int(c) for c in counts])

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Canonical coefficients of 1, omega, ..., omega^(p-2)."""
        return tuple(int(v) for v in self._vec[: self.p - 1])

    def is_rational(self) -> bool:
        return all(v == 0 for v in self._vec[1: self.p - 1])

    def rational_value(self) -> int:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return int(self._vec[0])

    def __add__(self, other: CyclotomicValue) -> CyclotomicValue:
        self._check(other)
        return CyclotomicValue(self.p, self._vec + other._vec)

    def __sub__(self, other: CyclotomicValue) -> CyclotomicValue:
        self._check(other)
        return CyclotomicValue(self.p, self._vec - other._vec)

    def __neg__(self) -> CyclotomicValue:
        return CyclotomicValue(self.p, -self._vec)

    def __mul__(self, other) -> CyclotomicValue:
        if isinstance(other, int):
            return CyclotomicValue(self.p, self._vec * other)
        self._check(other)
        p = self.p
        out = np.zeros(p, dtype=object)
        for i in range(p):
            a = self._vec[i]
            if a == 0:
                continue
            for j in range(p):
                b = other._vec[j]
                if b == 0:
                    continue
                out[(i + j) % p] += a * b
        return CyclotomicValue(p, out)

    __rmul__ = __mul__

    def conj(self) -> CyclotomicValue:
        p = self.p
        out = np.zeros(p, dtype=object)
        for k in range(p):
            out[(-k) % p] += self._vec[k]
        return CyclotomicValue(p, out)

    def mag2(self) -> CyclotomicValue:
        """Exact |v|^2 = v * conj(v), as a cyclotomic value."""
        return self * self.conj()

    def mag2_rational(self) -> Fraction | None:
        """|v|^2 as an exact Fraction when it is rational, else None."""
        m = self.mag2()
        if m.is_rational():
            return Fraction(m.rational_value())
        return None

    def as_complex(self) -> complex:
        p = self.p
        total = 0j
        for k in range(p):
            v = self._vec[k]
            if v != 0:
                total += int(v) * cmath.exp(2j * math.pi * k / p)
        return total

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.is_rational() and int(self._vec[0]) == other
        if not isinstance(other, CyclotomicValue):
            return NotImplemented
        return self.p == other.p and all(a == b for a, b in zip(self._vec, other._vec))

    def __hash__(self) -> int:
        return hash((self.p, tuple(int(v) for v in self._vec)))

    def __repr__(self) -> str:
        return f"CyclotomicValue(p={self.p}, coeffs={self.coeffs})"

    def _check(self, other: CyclotomicValue) -> None:
        if self.p != other.p:
            raise ValueError("mismatched primes")


# ---------------------------------------------------------------------------
# character sums
# ---------------------------------------------------------------------------

def linear_char_sum(r: GroupVector) -> tuple[CyclotomicValue, ComplexScalar]:
    """The sum over y in F_p^n of omega^(r.y), exactly, plus its expectation.

    Returns (exact unnormalized sum, normalized expectation). The exact part
    is the integer p^n when r = 0 and the integer 0 otherwise; no enumeration
    or floating arithmetic is involved beyond the trivial embedding.
    """
    p, n = r.p, r.n
    size = p ** n
    if r.is_zero():
        return CyclotomicValue.from_int(p, size), complex(1.0)
    # one nonzero component already annihilates the product of per-coordinate
    # sums, because sum_k omega^(c*k) = 0 for c != 0
    return CyclotomicValue.zero(p), complex(0.0)


def linear_char_sum_multi(rs: list[GroupVector]) -> tuple[CyclotomicValue, ComplexScalar]:
    """Joint version over independent variables y_1, ..., y_t, one per r_i.

    E over all y_i of omega^(sum r_i . y_i) is 1 exactly when every r_i = 0.
    The prime is read from the vectors, so at least one is required.
    """
    if not rs:
        raise ValueError("no vectors given, so the prime is unknown")
    p = rs[0].p
    total = p ** sum(r.n for r in rs)
    if all(r.is_zero() for r in rs):
        return CyclotomicValue.from_int(p, total), complex(1.0)
    return CyclotomicValue.zero(p), complex(0.0)


def phase_value_counts(p: int, values: np.ndarray) -> np.ndarray:
    """Count how many entries take each residue value 0..p-1."""
    return np.bincount(np.asarray(values, dtype=np.int64) % p, minlength=p)


def omega_table(p: int) -> np.ndarray:
    """omega^k for k = 0..p-1 as complex doubles."""
    ks = np.arange(p)
    return np.exp(2j * np.pi * ks / p)


def quad_char_sum(form: SymmetricForm, b: GroupVector) -> ComplexScalar:
    """E_x omega^(x^T M x + b^T x), via exact level-set counts.

    The phase values are tallied exactly in Z; only the final embedding of
    sum_v count[v] * omega^v into the complex plane is floating point.
    """
    p, n = form.p, form.n
    if b.p != p or b.n != n:
        raise ValueError("mismatched b")
    sp = space(p, n)
    digits = sp.digits.astype(np.int64)
    m = form.as_array()
    bvec = np.array(b.coords, dtype=np.int64)
    vals = (np.einsum("xi,ij,xj->x", digits, m, digits) + digits @ bvec) % p
    counts = phase_value_counts(p, vals)
    exact = CyclotomicValue.from_counts(p, counts)
    return check_finite(exact.as_complex() / sp.size)


def bilinear_char_sum(form: SymmetricForm, c: GroupVector, d: GroupVector) -> ComplexScalar:
    """E_{x,y} omega^(x^T M y + c^T x + d^T y).

    The inner sum over y vanishes unless M^T x + d = 0, so the double sum
    collapses to a single exact character sum over the solution set of that
    linear system.
    """
    p, n = form.p, form.n
    if c.p != p or c.n != n or d.p != p or d.n != n:
        raise ValueError("mismatched linear parts")
    sp = space(p, n)
    digits = sp.digits.astype(np.int64)
    m = form.as_array()
    dvec = np.array(d.coords, dtype=np.int64)
    cvec = np.array(c.coords, dtype=np.int64)
    residual = (digits @ m + dvec) % p  # row x: x^T M + d
    solutions = np.all(residual == 0, axis=1)
    if not solutions.any():
        return complex(0.0)
    vals = (digits[solutions] @ cvec) % p
    counts = phase_value_counts(p, vals)
    exact = CyclotomicValue.from_counts(p, counts)
    return check_finite(exact.as_complex() / sp.size)
