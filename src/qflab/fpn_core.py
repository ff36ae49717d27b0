"""Arithmetic over F_p, index tables for F_p^n, and character sums.

Conventions used by the whole package:

* p is an odd prime, 3 <= p <= 13.
* Elements of F_p^n are stored by canonical index, little-endian base p:
  index = sum_i coords[i] * p^i. All dense tables are indexed this way.
* omega denotes a fixed primitive p-th root of unity, embedded into the
  complex numbers as exp(2*pi*i/p).
* Character sums tally the exact integer count of each phase value and
  embed the count vector into the complex numbers once, at the very end.
"""

from __future__ import annotations

import cmath
import contextvars
import math
from functools import lru_cache

import numpy as np

from .errors import CapExceeded

ODD_PRIMES = (3, 5, 7, 11, 13)
DEFAULT_ENUM_CAP = 1 << 20
DEFAULT_TOL = 1e-9
# entries of one block of a bounded buffer; the largest whole-group sum table
# a GroupSpace keeps takes as many bytes, in int16 (N^2 <= 4 H_BLOCK_ENTRIES)
H_BLOCK_ENTRIES = 1 << 18
ENTRY_CAP = 1 << 24  # most entries or terms of one table, average, context or reference sum
BYTE_TABLE_CAP = 1 << 26  # most entries of one one-byte table
MAX_IP2_M = 2  # largest m of an m-IP2 pattern: its W part holds 2^(m^2) vertices


# ---------------------------------------------------------------------------
# the run's work tally
# ---------------------------------------------------------------------------

_TERMS: contextvars.ContextVar[int | None] = contextvars.ContextVar("terms", default=None)


def count_terms(k: int) -> None:
    """Add k terms to the tally of the run `run_counted` opened; a no-op outside a
    run. Kernels count one term per scalar entry formed or per multiply-add."""
    total = _TERMS.get()
    if total is not None:
        _TERMS.set(total + int(k))


def run_counted(fn, *args):
    """Call fn(*args) with a fresh tally; return (its result, terms counted)."""
    token = _TERMS.set(0)
    try:
        return fn(*args), _TERMS.get()
    finally:
        _TERMS.reset(token)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def check_prime(p: int) -> None:
    if p not in ODD_PRIMES:
        raise ValueError(f"p must be an odd prime in {ODD_PRIMES}, got {p}")


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
    base-p place values, and exposes vectorized add/negate on indices.
    Every sum of indices goes through `_sums`.
    """

    def __init__(self, p: int, n: int) -> None:
        check_prime(p)
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        size = p ** n
        if size > DEFAULT_ENUM_CAP:
            raise CapExceeded(f"p^n = {size} exceeds cap {DEFAULT_ENUM_CAP}")
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
        self._shift_table: np.ndarray | None = None

    def coords_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.digits[index])

    def index_of(self, coords) -> int:
        arr = np.asarray(coords, dtype=np.int64) % self.p
        if arr.shape != (self.n,):
            raise ValueError(f"expected {self.n} coordinates, got {arr.shape}")
        return int(arr @ self.powers)

    def add(self, a, b):
        """Index of a + b; accepts scalars or arrays, broadcasting. Counts
        nothing."""
        return self._sums(a, b)

    def form_values(self, m=None, r=None) -> np.ndarray:
        """x^T M x + x^T r mod p for every point x, by index, as int64. An
        n x k matrix r gives each point its k values, and takes no M. The
        int8 digits are widened in blocks of at most H_BLOCK_ENTRIES entries.
        Counts nothing."""
        r = None if r is None else np.asarray(r, dtype=np.int64)
        out = np.zeros((self.size,) + (() if r is None else r.shape[1:]), dtype=np.int64)
        rows = max(1, H_BLOCK_ENTRIES // max(1, self.n))
        for start in range(0, self.size, rows):
            x = self.digits[start:start + rows].astype(np.int64)
            if m is not None:
                out[start:start + rows] += ((x @ m) * x).sum(axis=1)
            if r is not None:
                out[start:start + rows] += x @ r
        out %= self.p
        return out

    def neg(self, a):
        da = self.digits[np.asarray(a)].astype(np.int64)
        return ((-da) % self.p) @ self.powers

    def sums(self, a, b) -> np.ndarray:
        """s[a, b] for the table s[i, j] = index of i + j, indexed as a numpy
        array: index arrays broadcast against each other, and a slice
        selects a block (a slice of a spans its own axis, before b's).
        Counts one term per entry."""
        out = self._sums(a, b)
        count_terms(out.size)
        return out

    def sum_grid(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix s[i, j] = index of a[i] + b[j]. Counts one term per entry."""
        return self.sums(np.asarray(a)[:, None], b)

    def sum_grid3(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Tensor s[i, j, k] = index of a[i] + b[j] + c[k]. Counts one term
        per entry."""
        return self.sums(self._sums(np.asarray(a)[:, None], b)[:, :, None], c)

    def shift_table(self) -> np.ndarray:
        """The whole-group table s[i, j] = index of i + j as int16, built on
        the first call and kept read-only: for n <= 1 by adding mod p, and
        otherwise as one broadcast of the tables of its halves F_p^(n-k) and
        F_p^k, k = n // 2, since index i of F_p^n is (its high half) p^k +
        (its low half). Built only while N^2 <= 4 H_BLOCK_ENTRIES, so that
        it takes at most the bytes of H_BLOCK_ENTRIES int64 entries (N <=
        1,024); raises CapExceeded past that. Counts nothing: its readers
        count what they read, so a run's tally does not depend on an
        earlier run."""
        if self._shift_table is None:
            if self.size ** 2 > 4 * H_BLOCK_ENTRIES:
                raise CapExceeded(f"a sum table of p^n = {self.size} points exceeds "
                                  f"{4 * H_BLOCK_ENTRIES} entries")
            if self.n <= 1:
                table = self._split_sums(slice(None), slice(None)).astype(np.int16)
            else:
                k = self.n // 2
                high = space(self.p, self.n - k).shift_table()
                low = space(self.p, k).shift_table()
                table = (high[:, None, :, None] * self.p ** k
                         + low[None, :, None, :]).reshape(self.size, self.size)
            table.setflags(write=False)
            self._shift_table = table
        return self._shift_table

    def _sums(self, a, b):
        """The one route for index addition, indexed like `sums`, as int64.
        One gather from the whole-group table when it has at most
        4 H_BLOCK_ENTRIES entries (p^n <= 1,024); otherwise added by halves
        of the digits."""
        if self.size ** 2 <= 4 * H_BLOCK_ENTRIES:
            return self.shift_table()[a, b].astype(np.int64)
        return self._split_sums(a, b)

    def _split_sums(self, a, b):
        """Adds the low k = n // 2 digits and the high n - k digits of each
        index in F_p^k and F_p^(n-k), since addition in F_p^n carries nothing
        from one digit to the next; one digit adds mod p, and F_p^0 has only
        the index 0. The high sums are scaled in place and the low ones added
        in blocks of leading rows of at most H_BLOCK_ENTRIES entries (one row
        when a row is longer), so the peak is the output plus one block."""
        if isinstance(a, slice):
            a = np.arange(*a.indices(self.size))[:, None]
        if isinstance(b, slice):
            b = np.arange(*b.indices(self.size))
        if self.n <= 1:
            return (a + b) % self.size
        k = self.n // 2
        m = self.p ** k
        out = space(self.p, self.n - k)._sums(a // m, b // m)
        out *= m
        low = space(self.p, k)
        if np.ndim(out) == 0:
            return out + low._sums(a % m, b % m)
        a, b = np.broadcast_arrays(a % m, b % m)
        rows = max(1, H_BLOCK_ENTRIES // max(1, math.prod(out.shape[1:])))
        for start in range(0, len(out), rows):
            out[start:start + rows] += low._sums(a[start:start + rows], b[start:start + rows])
        return out


@lru_cache(maxsize=64)
def space(p: int, n: int) -> GroupSpace:
    return GroupSpace(p, n)


# ---------------------------------------------------------------------------
# mod-p linear algebra
# ---------------------------------------------------------------------------

def _row_reduce(m: np.ndarray, p: int) -> list[int]:
    """Bring the 2-D array m, entries already reduced mod p, to reduced row
    echelon form over F_p in place; return the pivot columns in order.
    Counts one term per entry of each row operation (scaling a pivot row or
    clearing a column from another row)."""
    rows, cols = m.shape
    pivots: list[int] = []
    ops = 0
    for col in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        pivot = next((r for r in range(rank, rows) if m[r, col] != 0), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, col]), p - 2, p)) % p
        ops += 1
        for r in range(rows):
            if r != rank and m[r, col] != 0:
                m[r] = (m[r] - m[r, col] * m[rank]) % p
                ops += 1
        pivots.append(col)
    count_terms(ops * cols)
    return pivots


def rank_mod_p(matrix, p: int) -> int:
    """Rank of an integer matrix over F_p by Gaussian elimination; counts
    the entries of its row operations."""
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


# ---------------------------------------------------------------------------
# character sums
# ---------------------------------------------------------------------------

def omega_table(p: int) -> np.ndarray:
    """omega^k for k = 0..p-1 as complex doubles."""
    ks = np.arange(p)
    return np.exp(2j * np.pi * ks / p)


def _embed_counts(p: int, counts: np.ndarray) -> complex:
    """sum_k counts[k] * omega^k as a complex number.

    The counts are first shifted so the omega^(p-1) entry is zero (using
    1 + omega + ... + omega^(p-1) = 0), then the remaining terms are added
    one at a time in order k = 0..p-2. Reports depend on this exact
    floating-point order, so a matrix product must not replace the loop.
    """
    c = counts - counts[p - 1]
    total = 0j
    for k in range(p - 1):
        if c[k] != 0:
            total += int(c[k]) * cmath.exp(2j * math.pi * k / p)
    return total


def _form_batches(forms, p: int):
    """The forms (..., n, n) as int64 (F, n, n), their group, and the point
    blocks of a batch: (slice of forms, int64 digits of a block of points),
    each block at most H_BLOCK_ENTRIES entries of (forms, points, n), the
    whole group per block of forms when one form's table fits."""
    forms = np.asarray(forms, dtype=np.int64)
    n = forms.shape[-1]
    if forms.shape[-2:] != (n, n):
        raise ValueError(f"expected trailing axes ({n}, {n}), got shape {forms.shape}")
    sp = space(p, n)
    flat = forms.reshape((math.prod(forms.shape[:-2]), n, n))
    step = max(1, H_BLOCK_ENTRIES // max(1, n * sp.size))
    rows = max(1, H_BLOCK_ENTRIES // max(1, n * step))

    def blocks():
        for lo in range(0, len(flat), step):
            for start in range(0, sp.size, rows):
                yield slice(lo, lo + step), sp.digits[start:start + rows].astype(np.int64)
    return flat, sp, blocks()


def _tally(values: np.ndarray, p: int, keep: np.ndarray | None = None) -> np.ndarray:
    """Per row of the (F, points) values, the count of each residue
    0..p-1, over the points `keep` marks (every point by default)."""
    codes = values % p + p * np.arange(len(values))[:, None]
    codes = codes.ravel() if keep is None else codes[keep]
    return np.bincount(codes, minlength=len(values) * p).reshape(len(values), p)


def _vectors(vectors, count: int, n: int, name: str) -> np.ndarray:
    rows = np.asarray(vectors, dtype=np.int64)
    if rows.size != count * n:
        raise ValueError(f"need one {name} of {n} entries per form")
    return rows.reshape(count, n)


def quad_char_sums(forms, bs, p: int) -> np.ndarray:
    """E_x omega^(x^T M x + b^T x) for each form M of the stack (..., n, n)
    and its vector b of the stack (..., n), via exact level-set counts.

    The phase values are tallied exactly in Z, in blocks of
    `_form_batches`; only the final embedding of each form's counts by
    `_embed_counts` is floating point. Counts p^n terms per form.
    """
    flat, sp, blocks = _form_batches(forms, p)
    rs = _vectors(bs, len(flat), sp.n, "vector b")
    count_terms(len(flat) * sp.size)
    counts = np.zeros((len(flat), p), dtype=np.int64)
    for chunk, x in blocks:
        values = ((x @ flat[chunk]) * x).sum(axis=-1) + rs[chunk] @ x.T
        counts[chunk] += _tally(values, p)
    sums = [check_finite(_embed_counts(p, c) / sp.size) for c in counts]
    return np.array(sums, dtype=np.complex128).reshape(np.shape(forms)[:-2])


def bilinear_char_sums(forms, cs, ds, p: int) -> np.ndarray:
    """E_{x,y} omega^(x^T M y + c^T x + d^T y) for each form M of the stack
    (..., n, n) and its vectors c and d of the stacks (..., n).

    The inner sum over y vanishes unless M^T x + d = 0, so the double sum
    collapses to a single exact character sum over the solution set of that
    linear system, tested in the blocks of `_form_batches`. Counts p^n
    terms per form, one per x.
    """
    flat, sp, blocks = _form_batches(forms, p)
    cvec = _vectors(cs, len(flat), sp.n, "vector c")
    dvec = _vectors(ds, len(flat), sp.n, "vector d")
    count_terms(len(flat) * sp.size)
    counts = np.zeros((len(flat), p), dtype=np.int64)  # solutions x by the value of c^T x
    for chunk, x in blocks:
        solutions = np.all((x @ flat[chunk] + dvec[chunk, None]) % p == 0, axis=-1)  # x^T M + d
        counts[chunk] += _tally(cvec[chunk] @ x.T, p, solutions)
    sums = [check_finite(_embed_counts(p, c) / sp.size) if c.any() else 0j for c in counts]
    return np.array(sums, dtype=np.complex128).reshape(np.shape(forms)[:-2])
