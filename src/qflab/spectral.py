"""Fourier transform on F_p^n, global U^2/U^3 norms, AP averages, and the
brute-force quadratic-correlation oracle.

Index and sign conventions:

* fhat(t) = E_x f(x) omega^(-x.t); inversion f(x) = sum_t fhat(t) omega^(x.t).
* L^q norms on physical space are normalized (expectations); l^q norms on the
  frequency side are unnormalized sums.
* In the U^2/U^3 inner products the function at vertex eps is conjugated when
  |eps| (the number of ones) is odd, and its argument is
  x_{eps(1)} + y_{eps(2)} (+ z_{eps(3)}).

Octuples for the U^3 inner product are passed as a list of eight functions in
lexicographic order of (eps1, eps2, eps3):
(0,0,0), (0,0,1), (0,1,0), (0,1,1), (1,0,0), (1,0,1), (1,1,0), (1,1,1).

`u2_inner` averages an O(p^(2n)) shift table. `u3_inner` conditions on the
z-difference h and contracts four derivative tables on the frequency side,
sum_t A^(t) B^(-t) C^(-t) D^(t), transformed for every h at once, in
O(p^(2n) p n); its independent physical-space twin `u3_inner_naive` is the
factorized O(p^(5n)) loop and raises CapExceeded past p^n = U3_REFERENCE_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, NegativeDiagonal
from .fpn_core import DEFAULT_TOL, GroupVector, SymmetricForm, count_terms, omega_table, space

NAIVE_CAP = 1 << 24  # pairwise-table cap for the quadratic-cost fallbacks
U3_REFERENCE_CAP = 27  # largest p^n the O(p^(5n)) reference loop accepts
H_BLOCK_ENTRIES = 1 << 18  # entries per block of h in u3_inner; bounds its memory
CORRELATION_SEARCH_CAP = 3 ** 10  # most candidate forms the correlation oracle scans
EPS3_ORDER = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
              (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]


class GroupFunction:
    """A dense table of values on F_p^n, canonically indexed.

    `one_bounded` is a certified assertion that the sup norm is at most
    1 + 1e-12; the pattern-control experiments require it on their inputs.
    Real-valued tables are kept in float64 so downstream contractions can use
    the cheaper real path.
    """

    def __init__(self, p: int, n: int, values, one_bounded: bool = False) -> None:
        sp = space(p, n)
        arr = np.asarray(values)
        if arr.shape != (sp.size,):
            raise ValueError(f"expected {sp.size} values, got shape {arr.shape}")
        if np.iscomplexobj(arr):
            arr = arr.astype(np.complex128)
        else:
            arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite function values")
        if one_bounded and np.abs(arr).max(initial=0.0) > 1 + 1e-12:
            raise ValueError("one_bounded asserted but sup norm exceeds 1")
        arr.setflags(write=False)
        self.p = p
        self.n = n
        self.values = arr
        self.one_bounded = bool(one_bounded)

    @property
    def size(self) -> int:
        return self.p ** self.n

    @classmethod
    def constant(cls, p: int, n: int, c: complex) -> GroupFunction:
        sp = space(p, n)
        val = complex(c)
        if val.imag == 0.0:
            return cls(p, n, np.full(sp.size, val.real), one_bounded=abs(val) <= 1)
        return cls(p, n, np.full(sp.size, val), one_bounded=abs(val) <= 1)

    @classmethod
    def indicator(cls, p: int, n: int, indices) -> GroupFunction:
        sp = space(p, n)
        vals = np.zeros(sp.size)
        vals[np.asarray(indices, dtype=np.int64)] = 1.0
        return cls(p, n, vals, one_bounded=True)

    @classmethod
    def character(cls, t: GroupVector) -> GroupFunction:
        """x -> omega^(x.t)."""
        sp = space(t.p, t.n)
        digits = sp.digits.astype(np.int64)
        phases = (digits @ np.array(t.coords, dtype=np.int64)) % t.p
        return cls(t.p, t.n, omega_table(t.p)[phases], one_bounded=True)

    @classmethod
    def quadratic_phase(cls, form: SymmetricForm, r: GroupVector | None = None) -> GroupFunction:
        """x -> omega^(x^T M x + r.x)."""
        p, n = form.p, form.n
        sp = space(p, n)
        digits = sp.digits.astype(np.int64)
        vals = np.einsum("xi,ij,xj->x", digits, form.as_array(), digits)
        if r is not None:
            vals = vals + digits @ np.array(r.coords, dtype=np.int64)
        return cls(p, n, omega_table(p)[vals % p], one_bounded=True)

    def conj(self) -> GroupFunction:
        return GroupFunction(self.p, self.n, np.conj(self.values), one_bounded=self.one_bounded)

    def __add__(self, other: GroupFunction) -> GroupFunction:
        self._check(other)
        return GroupFunction(self.p, self.n, self.values + other.values)

    def __sub__(self, other: GroupFunction) -> GroupFunction:
        self._check(other)
        return GroupFunction(self.p, self.n, self.values - other.values)

    def scale(self, c: complex) -> GroupFunction:
        return GroupFunction(self.p, self.n, self.values * c)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.mean(np.abs(self.values) ** 2)))

    def _check(self, other: GroupFunction) -> None:
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("mismatched group")


@dataclass(frozen=True)
class SpectrumTable:
    """Fourier coefficients over the dual group, same canonical index space."""

    p: int
    n: int
    table: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.table, dtype=np.complex128)
        if arr.shape != (self.p ** self.n,):
            raise ValueError("bad spectrum length")
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    def sup(self) -> float:
        return float(np.abs(self.table).max(initial=0.0))

    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.table) ** 2)))

    def l4_fourth(self) -> float:
        return float(np.sum(np.abs(self.table) ** 4))


def _axis_dft(values: np.ndarray, p: int, n: int, kernel: np.ndarray) -> np.ndarray:
    """Apply the p x p kernel along every coordinate axis of the table.

    The first axis of `values` is the group index; any trailing axes are a
    batch, and each column is transformed independently. Counts entries x
    p x n terms.
    """
    count_terms(values.size * p * n)
    if n == 0:
        return values.astype(np.complex128)
    batch = values.shape[1:]
    tensor = values.reshape((p,) * n + batch, order="F").astype(np.complex128)
    for axis in range(n):
        tensor = np.moveaxis(np.tensordot(kernel, np.moveaxis(tensor, axis, 0), axes=(1, 0)), 0, axis)
    return tensor.reshape((-1,) + batch, order="F")


def _dft_kernel(p: int, sign: int) -> np.ndarray:
    """k[t, x] = omega^(sign * x t) / p, the normalized one-axis transform."""
    om = omega_table(p)
    return om[(sign * np.outer(np.arange(p), np.arange(p))) % p] / p


def fourier_transform(f: GroupFunction) -> SpectrumTable:
    """fhat(t) = E_x f(x) omega^(-x.t), by dimension-wise DFT."""
    p, n = f.p, f.n
    return SpectrumTable(p, n, _axis_dft(f.values, p, n, _dft_kernel(p, -1)))


def fourier_transform_naive(f: GroupFunction) -> SpectrumTable:
    """Same transform by the quadratic-cost double loop; cross-check path.
    Counts p^(2n) terms, the multiply-adds of its matrix product."""
    p, n = f.p, f.n
    sp = space(p, n)
    if sp.size ** 2 > NAIVE_CAP:
        raise CapExceeded(f"naive transform needs {sp.size}^2 phase entries")
    digits = sp.digits.astype(np.int64)
    dots = (digits @ digits.T) % p
    phases = omega_table(p)[(-dots) % p]
    count_terms(phases.size)
    return SpectrumTable(p, n, phases @ f.values.astype(np.complex128) / sp.size)


def inverse_transform(spec: SpectrumTable) -> GroupFunction:
    """f(x) = sum_t fhat(t) omega^(x.t) (unnormalized dual sum)."""
    p, n = spec.p, spec.n
    om = omega_table(p)
    kernel = om[np.outer(np.arange(p), np.arange(p)) % p]
    return GroupFunction(p, n, _axis_dft(spec.table, p, n, kernel))


# ---------------------------------------------------------------------------
# U^2
# ---------------------------------------------------------------------------

def u2_inner(f00: GroupFunction, f01: GroupFunction, f10: GroupFunction,
             f11: GroupFunction) -> complex:
    """E over x0,x1,y0,y1 of the conjugation-twisted four-vertex product.

    Evaluated by conditioning on the pair (y0, y1): the x0 and x1 averages
    split into two correlation factors that depend only on h = y1 - y0, so
    the whole average is a single h-expectation of their product.
    """
    for g in (f01, f10, f11):
        f00._check(g)
    p, n = f00.p, f00.n
    sp = space(p, n)
    N = sp.size
    if N * N > NAIVE_CAP:
        raise CapExceeded("group too large for the pairwise correlation table")
    idx = np.arange(N, dtype=np.int64)
    shift = sp.sum_grid(idx, idx)  # shift[x, h] = x + h
    a = f00.values
    b = np.conj(f01.values)[shift]  # b[x, h] = conj f01(x + h)
    fcorr = (a[:, None] * b).mean(axis=0)  # F(h)
    c = np.conj(f10.values)
    d = f11.values[shift]
    gcorr = (c[:, None] * d).mean(axis=0)  # G(h)
    return complex((fcorr * gcorr).mean())


def u2_norm(f: GroupFunction, tol: float = DEFAULT_TOL) -> float:
    val = u2_inner(f, f, f, f)
    return _root_of_diagonal(val, 4, tol)


# ---------------------------------------------------------------------------
# U^3
# ---------------------------------------------------------------------------

def _box_sum(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
             p: int, n: int) -> np.ndarray:
    """E over x0,x1,y0,y1 of a(x0+y0) b(x0+y1) c(x1+y0) d(x1+y1), unconjugated.

    Expanding each table in characters leaves sum_t A^(t) B^(-t) C^(-t) D^(t);
    the (-t) transforms are taken with the conjugate kernel. Tables may carry
    a trailing batch axis, and one sum is returned per column.
    """
    minus, plus = _dft_kernel(p, -1), _dft_kernel(p, 1)
    prod = (_axis_dft(a, p, n, minus) * _axis_dft(b, p, n, plus)
            * _axis_dft(c, p, n, plus) * _axis_dft(d, p, n, minus))
    return prod.sum(axis=0)


def u3_inner(octuple: list[GroupFunction]) -> complex:
    """Eight-vertex inner product over x0,x1,y0,y1,z0,z1.

    Spectral evaluation: fix h = z1 - z0 and absorb z0 into x0 and x1. Each
    pair of vertices (e1, e2, 0), (e1, e2, 1) then merges into one derivative
    table d[u, h] = C^|e1 e2 0| f_(e1 e2 0)(u) * C^|e1 e2 1| f_(e1 e2 1)(u + h),
    and the average is E_h of the box sum of the four tables, transformed
    along u for a block of h at once. Cost O(p^(2n) p n).
    """
    if len(octuple) != 8:
        raise ValueError("need eight functions in lexicographic eps order")
    base = octuple[0]
    for g in octuple[1:]:
        base._check(g)
    p, n = base.p, base.n
    sp = space(p, n)
    N = sp.size
    if N * N > NAIVE_CAP:
        raise CapExceeded("group too large for the pairwise derivative tables")
    vals = [np.conj(g.values) if sum(eps) % 2 else g.values
            for eps, g in zip(EPS3_ORDER, octuple)]
    idx = np.arange(N, dtype=np.int64)
    block = max(1, H_BLOCK_ENTRIES // N)
    total = 0.0 + 0.0j
    for start in range(0, N, block):
        shift = sp.sum_grid(idx, idx[start:start + block])  # shift[u, j] = u + h_j
        a, b, c, d = (vals[2 * k][:, None] * vals[2 * k + 1][shift] for k in range(4))
        total += _box_sum(a, b, c, d, p, n).sum()
    return complex(total / N)


def u3_inner_naive(octuple: list[GroupFunction]) -> complex:
    """Same average as `u3_inner`, in physical space; the reference route.

    Factorized evaluation: for each (y0, y1) the two z-averages (one for the
    eps3 = 0 face, one for eps3 = 1) are rank-one contractions over z, done
    as matrix products; the outer x0,x1 average is then an elementwise
    product. Cost O(p^(5n)) instead of the naive O(p^(6n)).
    """
    if len(octuple) != 8:
        raise ValueError("need eight functions in lexicographic eps order")
    f = {eps: g for eps, g in zip(EPS3_ORDER, octuple)}
    base = octuple[0]
    for g in octuple[1:]:
        base._check(g)
    p, n = base.p, base.n
    sp = space(p, n)
    N = sp.size
    if N > U3_REFERENCE_CAP:
        raise CapExceeded(f"reference eight-vertex sum is capped at p^n <= {U3_REFERENCE_CAP}")
    idx = np.arange(N, dtype=np.int64)
    table = sp.sum_grid(idx, idx)  # table[u, v] = u + v

    def shifted(g: GroupFunction, y: int) -> np.ndarray:
        # matrix m[x, z] = g(x + y + z)
        vals = g.values[sp.add(idx, y)]
        return vals[table]

    total = 0.0 + 0.0j
    for y0 in range(N):
        p000 = shifted(f[(0, 0, 0)], y0)
        p100 = np.conj(shifted(f[(1, 0, 0)], y0))
        p001 = np.conj(shifted(f[(0, 0, 1)], y0))
        p101 = shifted(f[(1, 0, 1)], y0)
        for y1 in range(N):
            a0 = p000 * np.conj(shifted(f[(0, 1, 0)], y1))
            b0 = p100 * shifted(f[(1, 1, 0)], y1)
            a1 = p001 * shifted(f[(0, 1, 1)], y1)
            b1 = p101 * np.conj(shifted(f[(1, 1, 1)], y1))
            z0 = a0 @ b0.T
            z1 = a1 @ b1.T
            total += np.multiply(z0, z1).sum()
    return complex(total / N ** 6)


def u3_norm(f: GroupFunction, tol: float = DEFAULT_TOL) -> float:
    val = u3_inner([f] * 8)
    return _root_of_diagonal(val, 8, tol)


# ---------------------------------------------------------------------------
# AP averages
# ---------------------------------------------------------------------------

def ap3_average(f: GroupFunction) -> complex:
    """E_{x,d} f(x) f(x+d) f(x+2d)."""
    sp = space(f.p, f.n)
    N = sp.size
    idx = np.arange(N, dtype=np.int64)
    step1 = sp.sum_grid(idx, idx)          # x + d
    twice = sp.add(idx, idx)               # 2d
    step2 = sp.sum_grid(idx, twice)        # x + 2d
    v = f.values
    return complex((v[:, None] * v[step1] * v[step2]).mean())


def ap4_average(f: GroupFunction) -> complex:
    """E_{x,d} f(x) f(x+d) f(x+2d) f(x+3d)."""
    sp = space(f.p, f.n)
    N = sp.size
    idx = np.arange(N, dtype=np.int64)
    twice = sp.add(idx, idx)
    thrice = sp.add(twice, idx)
    step1 = sp.sum_grid(idx, idx)
    step2 = sp.sum_grid(idx, twice)
    step3 = sp.sum_grid(idx, thrice)
    v = f.values
    return complex((v[:, None] * v[step1] * v[step2] * v[step3]).mean())


# ---------------------------------------------------------------------------
# quadratic-correlation oracle
# ---------------------------------------------------------------------------

def max_quadratic_correlation(
    f: GroupFunction,
    include_linear: bool = False,
) -> tuple[SymmetricForm, GroupVector | None, float]:
    """Exhaustively maximize |E_x f(x) omega^(x^T M x [+ r.x])|.

    Returns (M, r, value); r is None unless include_linear. Ties are broken
    by the lexicographically least row-major entry tuple (then least r).
    Counts p^n terms per candidate form, plus the transforms it takes.
    """
    p, n = f.p, f.n
    free = n * (n + 1) // 2
    count = p ** free
    if count > CORRELATION_SEARCH_CAP:
        raise CapExceeded(f"{count} candidate forms exceed search cap {CORRELATION_SEARCH_CAP}")
    sp = space(p, n)
    digits = sp.digits.astype(np.int64)
    om = omega_table(p)
    tri = [(i, j) for i in range(n) for j in range(i, n)]
    coeff_space = space(p, free) if free > 0 else None

    best_val = -1.0
    best_key: tuple | None = None
    best_m: SymmetricForm | None = None
    best_r: GroupVector | None = None
    for code in range(count):
        coeffs = coeff_space.coords_of(code) if coeff_space is not None else ()
        m = np.zeros((n, n), dtype=np.int64)
        for (i, j), c in zip(tri, coeffs):
            m[i, j] = c
            m[j, i] = c
        qvals = np.einsum("xi,ij,xj->x", digits, m, digits) % p
        count_terms(sp.size)
        if include_linear:
            g = f.values * om[qvals]
            spec = fourier_transform(GroupFunction(p, n, g))
            mags = np.abs(spec.table)
            # E g(x) omega^(r.x) = ghat(-r); scan all r
            for r_idx in range(sp.size):
                val = float(mags[sp.neg(r_idx)])
                key = (tuple(int(v) for v in m.ravel()), sp.coords_of(r_idx))
                if val > best_val or (val == best_val and (best_key is None or key < best_key)):
                    best_val, best_key = val, key
                    best_m = SymmetricForm.from_array(p, m)
                    best_r = GroupVector(p, sp.coords_of(r_idx))
        else:
            val = float(np.abs((f.values * om[qvals]).mean()))
            key = (tuple(int(v) for v in m.ravel()),)
            if val > best_val or (val == best_val and (best_key is None or key < best_key)):
                best_val, best_key = val, key
                best_m = SymmetricForm.from_array(p, m)
                best_r = None
    assert best_m is not None
    return best_m, best_r, best_val


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _diagonal_real(val: complex, tol: float) -> float:
    if abs(val.imag) > tol:
        raise NegativeDiagonal(f"diagonal inner product has imaginary part {val.imag}")
    real = val.real
    if real < -tol:
        raise NegativeDiagonal(f"diagonal inner product is {real}")
    return max(real, 0.0)


def _root_of_diagonal(val: complex, degree: int, tol: float) -> float:
    return _diagonal_real(val, tol) ** (1.0 / degree)
