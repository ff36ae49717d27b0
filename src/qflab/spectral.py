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

Every quantity has one batched route over value stacks: an array whose last
axis is the group index and whose leading axes are a batch (for the inner
products the axis before it holds the four or eight functions). They are
`fourier_transforms`, `inverse_transforms`, `u2_inners`, `u3_inners`,
`u2_norms`, `u3_norms`, `ap3_averages` and `ap4_averages`. Each fills its
temporaries in blocks of at most DERIVATIVE_BLOCK_ENTRIES complex entries,
whole problems per block where they fit, and computes each problem as it
would alone, so a batch row is bit for bit its batch of one. The
single-problem names (`fourier_transform`, `u2_inner`, `ap3_average`, ...)
are those batches of one, on GroupFunctions.

Every transform is one function, `_dft`, called only by the public pair
`fourier_transforms` and `inverse_transforms`: the table's last axis is
the group index and any leading axes are a batch, taken in blocks of
rows. Each round views a block as (rest, p) with the lowest remaining
digit last, applies the memoized read-only p x p kernel in numpy's own
loop (`np.einsum` without `optimize`, so no BLAS call orders the sum),
and rotates that digit to the front; after n rounds every digit is
transformed and back in its place. Each output entry of a round sums its
p terms in one fixed order, so a row's transform depends neither on its
batch nor on the BLAS kernel. `u2_norms`, `u3_inners`, `u3_norms`,
`max_quadratic_correlation`, `pattern_ops.t_ip2s` and, through
`u2_norms`, `local_norms.local_u2_norms` transform through that pair.

`u2_inners` averages the shift table's correlations. `u3_inners`
conditions on the z-difference h and contracts four derivative tables on
the frequency side, sum_t A^(t) B^(-t) C^(-t) D^(t), in O(p^(2n) p n); its
independent physical-space twin `u3_inner_naive` is the factorized
O(p^(5n)) loop and raises CapExceeded past p^n = U3_REFERENCE_CAP.
`_derivative_blocks` is the block loop of `u3_inners`, `u3_norms` and the
global IP2 average `pattern_ops.t_ip2s`: for a block of h it forms every
derivative table a(u) b(u + h) in one complex buffer of shape (tables, h,
N), at most DERIVATIVE_BLOCK_ENTRIES entries, so one transform covers all
of them.

The diagonal norms take one batched route each. `u2_norms` is the fourth
moment of `fourier_transforms`. `u3_norms` is E_h of the fourth moment of the
derivative spectra over h = 0 and one h of each pair {h, -h}, weighted 2;
`u2_inners` and `u3_inners` are their twins.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CapExceeded, NegativeDiagonal
from .fpn_core import (
    DEFAULT_TOL,
    H_BLOCK_ENTRIES,
    GroupSpace,
    GroupVector,
    SymmetricForm,
    count_terms,
    omega_table,
    space,
)

NAIVE_CAP = 1 << 24  # pairwise-table cap for the quadratic-cost fallbacks
U3_REFERENCE_CAP = 27  # largest p^n the O(p^(5n)) reference loop accepts
CORRELATION_SEARCH_CAP = 3 ** 10  # most candidate forms the correlation oracle scans
# entries per buffer of derivative tables: 256 KiB of complex values, so that a
# block and the transform's temporaries stay in a core's 2 MiB L2 cache; of
# 2^12 to 2^18, 2^13 and 2^14 were fastest for u3_norms and t_ip2 at p^n = 81,
# 243 and 729 (BENCH_17.json)
DERIVATIVE_BLOCK_ENTRIES = 1 << 14
EPS3_ORDER = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
              (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]


class GroupFunction:
    """A dense read-only table of finite values on F_p^n, canonically
    indexed. Real-valued tables are kept in float64 so downstream
    contractions can use the cheaper real path.
    """

    def __init__(self, p: int, n: int, values) -> None:
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
        arr.setflags(write=False)
        self.p = p
        self.n = n
        self.values = arr

    @property
    def size(self) -> int:
        return self.p ** self.n

    @classmethod
    def constant(cls, p: int, n: int, c: complex) -> GroupFunction:
        sp = space(p, n)
        val = complex(c)
        return cls(p, n, np.full(sp.size, val.real if val.imag == 0.0 else val))

    @classmethod
    def indicator(cls, p: int, n: int, indices) -> GroupFunction:
        sp = space(p, n)
        vals = np.zeros(sp.size)
        vals[np.asarray(indices, dtype=np.int64)] = 1.0
        return cls(p, n, vals)

    @classmethod
    def character(cls, t: GroupVector) -> GroupFunction:
        """x -> omega^(x.t)."""
        phases = space(t.p, t.n).form_values(r=t.coords)
        return cls(t.p, t.n, omega_table(t.p)[phases])

    @classmethod
    def quadratic_phase(cls, form: SymmetricForm, r: GroupVector | None = None) -> GroupFunction:
        """x -> omega^(x^T M x + r.x)."""
        p, n = form.p, form.n
        vals = space(p, n).form_values(form.as_array(), None if r is None else r.coords)
        return cls(p, n, omega_table(p)[vals])

    def __add__(self, other: GroupFunction) -> GroupFunction:
        self._check(other)
        return GroupFunction(self.p, self.n, self.values + other.values)

    def scale(self, c: complex) -> GroupFunction:
        return GroupFunction(self.p, self.n, self.values * c)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.mean(np.abs(self.values) ** 2)))

    def _check(self, other: GroupFunction) -> None:
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("mismatched group")


@lru_cache(maxsize=None)
def _dft_kernel(p: int, sign: int) -> np.ndarray:
    """k[t, x] = omega^(sign x t) over F_p, divided by p for the normalized
    forward transform (sign -1) and undivided for the dual sum (sign +1).
    One symmetric read-only kernel per (p, sign)."""
    d = np.arange(p)
    kernel = omega_table(p)[(sign * np.outer(d, d)) % p]
    if sign < 0:
        kernel = kernel / p
    kernel.setflags(write=False)
    return kernel


def _dft(values, p: int, n: int, sign: int) -> np.ndarray:
    """The transform with `_dft_kernel`'s sign along every coordinate axis
    of each row of a value stack (last axis the group index): the
    normalized forward transform for sign -1, the dual sum for sign +1.

    Rows go in blocks of at most DERIVATIVE_BLOCK_ENTRIES entries, each row
    transformed independently. Each of the n rounds views a block as
    (rest, p), the lowest remaining digit last, multiplies by the symmetric
    p x p kernel in `np.einsum`'s own loop and rotates that digit to the
    front. Counts entries x p x n terms, its multiply-adds.
    """
    values, sp = _group(values, p, n)
    N = sp.size
    rows = values.reshape(-1, N)
    out = np.empty(rows.shape, dtype=np.complex128)
    kernel = _dft_kernel(p, sign)
    for block in _chunks(len(rows), N):
        table = np.asarray(rows[block], dtype=np.complex128)
        count_terms(table.size * p * n)
        for _ in range(n):
            table = np.einsum("rk,kt->rt", table.reshape(-1, p), kernel, optimize=False)
            table = np.swapaxes(table.reshape(-1, N // p, p), -1, -2).reshape(-1, N)
        out[block] = table
    return out.reshape(values.shape)


def fourier_transforms(values, p: int, n: int) -> np.ndarray:
    """fhat(t) = E_x f(x) omega^(-x.t) of each row of the stack, by
    dimension-wise DFT. Counts entries x p x n terms."""
    return _dft(values, p, n, -1)


def inverse_transforms(tables, p: int, n: int) -> np.ndarray:
    """f(x) = sum_t fhat(t) omega^(x.t) (unnormalized dual sum) of each row
    of the stack. Counts entries x p x n terms."""
    return _dft(tables, p, n, 1)


def fourier_transform(f: GroupFunction) -> np.ndarray:
    """`fourier_transforms` of one function: its (p^n,) complex spectrum
    over the dual group, in the same canonical index order."""
    return fourier_transforms(f.values, f.p, f.n)


def fourier_transform_naive(f: GroupFunction) -> np.ndarray:
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
    values = np.einsum("tx,x->t", phases, f.values.astype(np.complex128), optimize=False)
    return values / sp.size


# ---------------------------------------------------------------------------
# U^2
# ---------------------------------------------------------------------------

def u2_inners(values, p: int, n: int) -> np.ndarray:
    """E over x0,x1,y0,y1 of the conjugation-twisted four-vertex product,
    for each quadruple of the stack (..., 4, N), in vertex order
    f00, f01, f10, f11.

    Evaluated by conditioning on the pair (y0, y1): the x0 and x1 averages
    split into two correlation factors that depend only on h = y1 - y0,
    F(h) = E_x f00(x) conj f01(x + h) and G(h) = E_x conj f10(x) f11(x + h),
    so the whole average is E_h F(h) G(h). Each block of quadruples and of
    h gathers its (quadruples, x, h) tables from one read of the shift
    table, at most DERIVATIVE_BLOCK_ENTRIES entries, every h of a quadruple
    at once when N^2 fits. Counts one term per shift-table entry read, N^2
    per block of quadruples. Raises CapExceeded when N^2 > NAIVE_CAP.
    """
    values, sp = _group(values, p, n, 4)
    N = sp.size
    if N * N > NAIVE_CAP:
        raise CapExceeded("group too large for the pairwise correlation table")
    quads = values.reshape(-1, 4, N)
    out = np.empty(len(quads), dtype=np.complex128)
    width = min(N, max(1, DERIVATIVE_BLOCK_ENTRIES // N))  # h per block
    for block in _chunks(len(quads), N * width):
        q = quads[block]
        a, b, c, d = q[:, 0, :, None], np.conj(q[:, 1]), np.conj(q[:, 2])[:, :, None], q[:, 3]
        corr = np.empty((len(q), N), dtype=np.result_type(q, 1.0))
        for start in range(0, N, width):
            shift = sp.sums(slice(None), slice(start, start + width))  # x + h
            # f00(x) conj f01(x + h), then conj f10(x) f11(x + h), formed in
            # place with the x-side first: a complex product rounds
            # otherwise with its operands swapped
            table = b.take(shift, axis=1)
            np.multiply(a, table, out=table)
            corr[:, start:start + width] = table.mean(axis=1)
            table = d.take(shift, axis=1)
            np.multiply(c, table, out=table)
            corr[:, start:start + width] *= table.mean(axis=1)
        out[block] = corr.mean(axis=1)
    return out.reshape(values.shape[:-2])


def u2_inner(f00: GroupFunction, f01: GroupFunction, f10: GroupFunction,
             f11: GroupFunction) -> complex:
    """`u2_inners` of one quadruple."""
    fs = _same_group([f00, f01, f10, f11])
    return complex(u2_inners(np.stack([f.values for f in fs]), f00.p, f00.n))


def u2_norms(values, p: int, n: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The U^2 norm of each row of the stack, from the fourth moment of its
    spectrum: ||f||_{U^2}^4 = sum_t |fhat(t)|^4. Counts the transform's
    entries x p x n and one term per entry of the |fhat|^4 sum."""
    return _roots_of_diagonal(_fourth_moments(fourier_transforms(values, p, n)), 4, tol)


# ---------------------------------------------------------------------------
# U^3
# ---------------------------------------------------------------------------

def _derivative_blocks(sp: GroupSpace, a: np.ndarray, b: np.ndarray,
                       hs: np.ndarray | None = None):
    """For each block of h, the buffer buf[k, j, u] = a[k, u] b[k, u + h_j]
    over the rows of the (tables, N) stacks a and b, shape (tables, h, N).

    The h run over the indices `hs`, every h in increasing order by default.
    Blocks take DERIVATIVE_BLOCK_ENTRIES // (tables N) of them, at least
    one, in order, the last block holding what is left. Counts one term per
    shift-table entry, h x N per block. Raises CapExceeded when
    N^2 > NAIVE_CAP.
    """
    N = sp.size
    if N * N > NAIVE_CAP:
        raise CapExceeded("group too large for the pairwise derivative tables")
    idx = np.arange(N, dtype=np.int64)
    hs = idx if hs is None else hs
    block = max(1, DERIVATIVE_BLOCK_ENTRIES // (len(a) * N))
    a, b = a[:, None, :], b.astype(np.complex128, copy=False)
    for start in range(0, len(hs), block):
        buf = b.take(sp.sums(hs[start:start + block, None], idx), axis=1)  # b_k(h_j + u)
        buf *= a
        yield buf


def _box_sums(stack: np.ndarray, p: int, n: int) -> np.ndarray:
    """The box sum E over x0,x1,y0,y1 of a(x0+y0) b(x0+y1) c(x1+y0) d(x1+y1),
    one per row of a stack (4, ..., N) of tables (a, conj b, conj c, d).
    Expanding each table in characters leaves sum_t A^(t) B^(-t) C^(-t) D^(t),
    which is sum_t T0(t) conj T1(t) conj T2(t) T3(t) over the minus-kernel
    transforms T: taking b and c conjugated lets one kernel serve all four,
    since the plus transform of b is conj DFT-(conj b)."""
    t = fourier_transforms(stack, p, n)
    return (t[0] * t[3] * np.conj(t[1] * t[2])).sum(axis=-1)


def u3_inners(values, p: int, n: int) -> np.ndarray:
    """Eight-vertex inner product over x0,x1,y0,y1,z0,z1, for each octuple
    of the stack (..., 8, N), in lexicographic eps order.

    Spectral evaluation: fix h = z1 - z0 and absorb z0 into x0 and x1. Each
    pair of vertices (e1, e2, 0), (e1, e2, 1) then merges into one derivative
    table, and the average is E_h of the box sum of the four tables. The
    tables enter as f_(e1 e2 0)(u) conj f_(e1 e2 1)(u + h), which is the box
    sum's a and d and the conjugates of its b and c, so each block of h is
    one (4 octuples, h, N) buffer from `_derivative_blocks` and one
    transform; octuples share a buffer when all their h fit in one. Cost
    O(p^(2n) p n) per octuple. Counts one term per shift-table entry and
    entries x p x n per transform: p^(2n) (4 p n + 1) for one octuple, the
    shift table read once per block of octuples.
    """
    values, sp = _group(values, p, n, 8)
    N = sp.size
    octs = values.reshape(-1, 8, N)
    out = np.zeros(len(octs), dtype=np.complex128)
    for block in _chunks(len(octs), 4 * N * N):
        o = octs[block]
        a = o[:, 0::2].swapaxes(0, 1).reshape(-1, N)  # f_(e1 e2 0), pair-major
        b = np.conj(o[:, 1::2]).swapaxes(0, 1).reshape(-1, N)
        for buf in _derivative_blocks(sp, a, b):
            out[block] += _box_sums(buf.reshape(4, len(o), -1, N), p, n).sum(axis=-1)
    return (out / N).reshape(values.shape[:-2])


def u3_inner(octuple: list[GroupFunction]) -> complex:
    """`u3_inners` of one octuple."""
    if len(octuple) != 8:
        raise ValueError("need eight functions in lexicographic eps order")
    fs = _same_group(octuple)
    return complex(u3_inners(np.stack([f.values for f in fs]), fs[0].p, fs[0].n))


def u3_inner_naive(octuple: list[GroupFunction]) -> complex:
    """Same average as `u3_inners`, in physical space; the reference route.

    Factorized evaluation: for each (y0, y1) the two z-averages (one for the
    eps3 = 0 face, one for eps3 = 1) are rank-one contractions over z, done
    as matrix products; the outer x0,x1 average is then an elementwise
    product. Cost O(p^(5n)) instead of the naive O(p^(6n)).
    """
    if len(octuple) != 8:
        raise ValueError("need eight functions in lexicographic eps order")
    f = {eps: g for eps, g in zip(EPS3_ORDER, octuple)}
    _same_group(octuple)
    p, n = octuple[0].p, octuple[0].n
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


def u3_norms(values, p: int, n: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The U^3 norm of each row of the stack, from its derivatives:
    ||f||_{U^3}^8 = E_h sum_t |(Delta_h f)^(t)|^4 with
    Delta_h f(u) = f(u) conj f(u + h), the diagonal of `u3_inners`.

    Each block of h is one (F, h, N) buffer from `_derivative_blocks` over
    the pairs (f, conj f) and one transform. Since Delta_(-h) f is a
    translate of conj Delta_h f, the h-th and (-h)-th sums agree: h scans
    the h <= -h by index, weighted 2 when -h != h, which at odd p is every
    h but 0 and halves the scan. Functions go in chunks whose whole scan
    fits DERIVATIVE_BLOCK_ENTRIES entries (one function when none does),
    and each function's weighted sum over h is its own row's numpy sum, so
    its norm depends neither on its batch nor on the BLAS kernel. Counts,
    per chunk, one term per shift-table entry (h x N per block), the
    transform's entries x p x n and one term per entry of the |T|^4 sum:
    about (N + 1) / 2 x N x (1 + F (p n + 1)) at odd p.
    """
    values, sp = _group(values, p, n)
    N = sp.size
    rows = values.reshape(-1, N)
    idx = np.arange(N, dtype=np.int64)
    neg = sp.neg(idx)
    hs = idx[idx <= neg]
    weights = np.where(hs == neg[hs], 1.0, 2.0)
    eighth = np.empty(len(rows))
    for block in _chunks(len(rows), N * len(hs)):
        f = rows[block]
        moments = np.empty((len(f), len(hs)))
        start = 0
        for buf in _derivative_blocks(sp, f, np.conj(f), hs):
            stop = start + buf.shape[1]
            moments[:, start:stop] = _fourth_moments(fourier_transforms(buf, p, n))
            start = stop
        eighth[block] = (moments * weights).sum(axis=1)
    return _roots_of_diagonal(eighth / N, 8, tol).reshape(values.shape[:-1])


# ---------------------------------------------------------------------------
# AP averages
# ---------------------------------------------------------------------------

def _ap_averages(values, p: int, n: int, k: int) -> np.ndarray:
    """E_{x,d} f(x) f(x+d) ... f(x+(k-1)d) for each row of the stack,
    multiplied left to right. A block holds the (x, d) products of as many
    whole functions as fit DERIVATIVE_BLOCK_ENTRIES entries, or of a block
    of x rows of one function when N^2 does not fit. Counts one term per
    sum-table entry read: (k - 1) N^2 per block of functions."""
    values, sp = _group(values, p, n)
    N = sp.size
    rows = values.reshape(-1, N)
    idx = np.arange(N, dtype=np.int64)
    steps = [idx]  # j d for j = 1 .. k - 1
    for _ in range(2, k):
        steps.append(sp.add(steps[-1], idx))
    width = min(N, max(1, DERIVATIVE_BLOCK_ENTRIES // N))  # x rows per block
    out = np.zeros(len(rows), dtype=np.result_type(rows, 1.0))  # real tables stay real
    for block in _chunks(len(rows), width * N):
        v = rows[block]
        for start in range(0, N, width):
            xs = slice(start, start + width)
            prod = v[:, xs, None] * v.take(sp.sums(xs, slice(None)), axis=1)  # x + d
            for step in steps[1:]:
                prod *= v.take(sp.sums(xs, step), axis=1)  # x + j d
            out[block] += prod.reshape(len(v), -1).sum(axis=1)
    return (out / (N * N)).reshape(values.shape[:-1])


def ap3_averages(values, p: int, n: int) -> np.ndarray:
    """E_{x,d} f(x) f(x+d) f(x+2d) for each row of the stack."""
    return _ap_averages(values, p, n, 3)


def ap4_averages(values, p: int, n: int) -> np.ndarray:
    """E_{x,d} f(x) f(x+d) f(x+2d) f(x+3d) for each row of the stack."""
    return _ap_averages(values, p, n, 4)


def ap3_average(f: GroupFunction) -> complex:
    """`ap3_averages` of one function."""
    return complex(ap3_averages(f.values, f.p, f.n))


def ap4_average(f: GroupFunction) -> complex:
    """`ap4_averages` of one function."""
    return complex(ap4_averages(f.values, f.p, f.n))


# ---------------------------------------------------------------------------
# quadratic-correlation oracle
# ---------------------------------------------------------------------------

def max_quadratic_correlation(
    f: GroupFunction,
    include_linear: bool = False,
) -> tuple[SymmetricForm, GroupVector | None, float]:
    """Exhaustively maximize |E_x f(x) omega^(x^T M x [+ r.x])|.

    Returns (M, r, value); r is None unless include_linear. Every candidate
    form is scored at once: the q-values of all forms are one (forms, N)
    table, the product of their upper-triangle coefficients with the
    monomials x_i x_j (doubled off the diagonal), and with include_linear
    one batched transform scores every (M, r), since E g(x) omega^(r.x) =
    ghat(-r). Forms go in blocks of at most H_BLOCK_ENTRIES table entries.
    Exact ties are broken by the lexicographically least row-major entry
    tuple, then the least r. Counts p^n terms per candidate form, plus the
    transform's entries x p x n.
    """
    p, n = f.p, f.n
    free = n * (n + 1) // 2
    count = p ** free
    if count > CORRELATION_SEARCH_CAP:
        raise CapExceeded(f"{count} candidate forms exceed search cap {CORRELATION_SEARCH_CAP}")
    sp = space(p, n)
    N = sp.size
    digits = sp.digits.astype(np.int64)
    tri = [(i, j) for i in range(n) for j in range(i, n)]
    monomials = np.array([digits[:, i] * digits[:, j] * (1 if i == j else 2) for i, j in tri],
                         dtype=np.int64).reshape(free, N)
    coeffs = space(p, free).digits.astype(np.int64)  # form code -> entries in tri order
    om = omega_table(p)
    scores = np.empty((count, N) if include_linear else count)
    neg = sp.neg(np.arange(N))
    block = max(1, H_BLOCK_ENTRIES // N)
    for start in range(0, count, block):
        rows = slice(start, start + block)
        g = f.values * om[(coeffs[rows] @ monomials) % p]
        count_terms(g.size)
        if include_linear:
            scores[rows] = np.abs(fourier_transforms(g, p, n))[:, neg]
        else:
            scores[rows] = np.abs(g.mean(axis=1))
    # the tied entries, ranked by the entry tuple (the row-major tuple of a
    # symmetric M orders as its upper triangle in tri order), then by r
    tied = np.argwhere(scores == scores.max())
    rank = coeffs[tied[:, 0]] @ p ** np.arange(free - 1, -1, -1)
    if include_linear:
        rank = rank * N + digits[tied[:, 1]] @ p ** np.arange(n - 1, -1, -1)
    best = tied[np.argmin(rank)]
    m = np.zeros((n, n), dtype=np.int64)
    for (i, j), c in zip(tri, coeffs[best[0]]):
        m[i, j] = m[j, i] = c
    r = GroupVector(p, sp.coords_of(best[1])) if include_linear else None
    return SymmetricForm.from_array(p, m), r, float(scores[tuple(best)])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _same_group(fs) -> list[GroupFunction]:
    fs = list(fs)
    for g in fs[1:]:
        fs[0]._check(g)
    return fs


def _group(values, p: int, n: int, width: int | None = None) -> tuple[np.ndarray, GroupSpace]:
    """The value stack as an array whose last axis is the group index, and
    its group; with `width`, the axis before it must hold that many
    functions."""
    sp = space(p, n)
    values = np.asarray(values)
    want = (sp.size,) if width is None else (width, sp.size)
    if values.shape[len(values.shape) - len(want):] != want:
        raise ValueError(f"expected trailing axes {want}, got shape {values.shape}")
    return values, sp


def _chunks(count: int, entries: int):
    """Slices of a batch of `count` problems of `entries` buffer entries
    each, in order: as many as fit DERIVATIVE_BLOCK_ENTRIES, at least one."""
    step = max(1, DERIVATIVE_BLOCK_ENTRIES // max(1, entries))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _fourth_moments(table: np.ndarray) -> np.ndarray:
    """sum_t |T(t)|^4 over the last axis of a complex table. Counts one term
    per entry."""
    count_terms(table.size)
    square = table.real ** 2 + table.imag ** 2
    return (square * square).sum(axis=-1)


def _diagonal_real(val: complex, tol: float) -> float:
    if abs(val.imag) > tol:
        raise NegativeDiagonal(f"diagonal inner product has imaginary part {val.imag}")
    real = val.real
    if real < -tol:
        raise NegativeDiagonal(f"diagonal inner product is {real}")
    return max(real, 0.0)


def _roots_of_diagonal(vals, degree: int, tol: float) -> np.ndarray:
    """The degree-th root of each diagonal value of the array `vals`, after
    `_diagonal_real`'s checks, which raise NegativeDiagonal on the first
    value that fails them. Each root is a Python float power, so it rounds
    as one root taken alone does."""
    vals = np.asarray(vals)
    bad = np.flatnonzero((np.abs(vals.imag) > tol) | (vals.real < -tol))
    if bad.size:
        _diagonal_real(complex(vals.flat[bad[0]]), tol)
    roots = [max(v, 0.0) ** (1.0 / degree) for v in vals.real.ravel().tolist()]
    return np.array(roots, dtype=np.float64).reshape(vals.shape)
