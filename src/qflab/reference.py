"""Reference routes that only the tests call: each is the independent,
small-size twin of a fast route that the experiments run, and no run
imports this module.

* `u3_inner_naive`, of `spectral.u3_inners`: the U^3 inner product in
  physical space, O(p^(5n)), capped at p^(5n) <= ENTRY_CAP.
* `bilinear_level_sizes_naive`, of `factor.bilinear_level_sizes`: the joint
  histogram of the form values over all p^(2n) pairs.
* `local_u3_inner_naive`, of `local_norms.local_u3_inners`: the literal
  six-fold nested sum over atom members with every mu factor.
* `t_ip_naive`, of `pattern_ops.t_ips`: the nested sum over all m + 2^m
  variables as one broadcast product.
* `t_ip2_per_s_oracle`, of `pattern_ops.t_ip2s`: explicit loops over the
  (x_i), (y_j) tuples and one direct loop per z_S-average.

Each takes tables, (p^n,) arrays, as the fast route does, and raises
CapExceeded past its size cap.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import CapExceeded
from .factor import QuadraticFactor, mu_weight_matrix
from .fpn_core import ENTRY_CAP, H_BLOCK_ENTRIES, space
from .local_norms import LocalContext3
from .pattern_ops import _ip2_check, _ip_check
from .spectral import EPS3_ORDER, _check_tables


def u3_inner_naive(octuple: list, p: int, n: int) -> complex:
    """Same average as `u3_inners`, in physical space; the reference route.

    Factorized evaluation: for each (y0, y1) the two z-averages (one for the
    eps3 = 0 face, one for eps3 = 1) are rank-one contractions over z, done
    as matrix products; the outer x0,x1 average is then an elementwise
    product. Cost O(p^(5n)) instead of the naive O(p^(6n)).
    """
    if len(octuple) != 8:
        raise ValueError("need eight functions in lexicographic eps order")
    _check_tables(octuple, p, n)
    f = dict(zip(EPS3_ORDER, octuple))
    sp = space(p, n)
    N = sp.size
    if N ** 5 > ENTRY_CAP:
        raise CapExceeded("reference eight-vertex sum is capped at "
                          f"p^n <= {int(ENTRY_CAP ** 0.2)}")
    idx = np.arange(N, dtype=np.int64)
    table = sp.sum_grid(idx, idx)  # table[u, v] = u + v

    def shifted(g: np.ndarray, y: int) -> np.ndarray:
        # matrix m[x, z] = g(x + y + z)
        vals = g[sp.add(idx, y)]
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


def bilinear_level_sizes_naive(factor: QuadraticFactor) -> np.ndarray:
    """Reference route: the joint histogram of the form values over all
    p^(2n) pairs, capped at ENTRY_CAP pairs."""
    p, q = factor.p, factor.q
    if q < 1:
        raise ValueError("needs at least one form")
    sp = factor.space
    if sp.size ** 2 > ENTRY_CAP:
        raise CapExceeded(f"p^(2n) = {sp.size ** 2} pairs exceed the histogram cap")
    digits = sp.digits.astype(np.int64)
    counts = np.zeros(p ** q, dtype=np.int64)
    chunk = max(1, H_BLOCK_ENTRIES // max(sp.size, 1))
    for start in range(0, sp.size, chunk):
        block = digits[start:start + chunk]
        code = np.zeros((block.shape[0], sp.size), dtype=np.int64)
        for j, m in enumerate(factor.forms):
            vals = (block @ m @ digits.T) % p
            code += vals * (p ** j)
        counts += np.bincount(code.ravel(), minlength=p ** q)
    return counts


def local_u3_inner_naive(factor: QuadraticFactor, codes, octuple: list) -> complex:
    """Reference evaluation at the direction of codes: the literal six-fold
    nested sum over atom members with all twelve mu factors formed term by
    term. Refuses a degenerate direction through `LocalContext3`."""
    a1, a2, a3, b12, b13, b23 = LocalContext3(factor, codes).codes
    if len(octuple) != 8:
        raise ValueError("need eight functions in lexicographic eps order")
    _check_tables(octuple, factor.p, factor.n)
    members = [factor._members_by_code[a] for a in (a1, a2, a3)]
    s1, s2, s3 = (a.size for a in members)
    if (s1 * s2 * s3) ** 2 > ENTRY_CAP:
        raise CapExceeded("six-fold nested sum too large")
    sums = factor.space.sum_grid3(*members)
    tensors = [g[sums] for g in octuple]
    t000, t001, t010, t011, t100, t101, t110, t111 = tensors
    mu12, mu13, mu23 = (mu_weight_matrix(factor, *t)
                        for t in ((b12, a1, a2), (b13, a1, a3), (b23, a2, a3)))
    total = 0.0 + 0.0j
    for i0 in range(s1):
        for i1 in range(s1):
            for j0 in range(s2):
                for j1 in range(s2):
                    w_xy = mu12[i0, j0] * mu12[i0, j1] * mu12[i1, j0] * mu12[i1, j1]
                    if w_xy == 0.0:
                        continue
                    for k0 in range(s3):
                        wk0 = mu13[i0, k0] * mu13[i1, k0] * mu23[j0, k0] * mu23[j1, k0]
                        if wk0 == 0.0:
                            continue
                        face0 = (t000[i0, j0, k0] * np.conj(t010[i0, j1, k0])
                                 * np.conj(t100[i1, j0, k0]) * t110[i1, j1, k0])
                        for k1 in range(s3):
                            wk1 = mu13[i0, k1] * mu13[i1, k1] * mu23[j0, k1] * mu23[j1, k1]
                            if wk1 == 0.0:
                                continue
                            face1 = (np.conj(t001[i0, j0, k1]) * t011[i0, j1, k1]
                                     * t101[i1, j0, k1] * np.conj(t111[i1, j1, k1]))
                            total += w_xy * wk0 * wk1 * face0 * face1
    return complex(total / (s1 * s2 * s3) ** 2)


def t_ip_naive(m: int, grid: dict, p: int, n: int) -> complex:
    """Reference route: the literal nested sum over all m + 2^m variables,
    formed as one broadcast product of gathered tables."""
    _ip_check(m, grid)
    _check_tables(grid.values(), p, n)
    sp = space(p, n)
    N = sp.size
    nvars = m + (1 << m)
    if N ** nvars > ENTRY_CAP:
        raise CapExceeded("naive IP sum too large")
    idx = np.arange(N, dtype=np.int64)
    shape = (N,) * nvars
    prod = np.ones(shape, dtype=np.complex128)
    for i in range(m):
        for s in range(1 << m):
            xi = idx.reshape((1,) * i + (N,) + (1,) * (nvars - i - 1))
            ys = idx.reshape((1,) * (m + s) + (N,) + (1,) * (nvars - m - s - 1))
            prod = prod * grid[(i + 1, s)][sp.add(xi, ys)]
    return complex(prod.mean())


def t_ip2_per_s_oracle(m: int, grid: dict, p: int, n: int) -> complex:
    """Reference route for the global operator: explicit loops over the
    (x_i), (y_j) tuples, each z_S-average computed by its own direct loop
    in Python scalars, with sums read from the group's addition table."""
    _ip2_check(m, grid)
    _check_tables(grid.values(), p, n)
    sp = space(p, n)
    N = sp.size
    if N ** (2 * m + 1) * (1 << (m * m)) > ENTRY_CAP:
        raise CapExceeded("per-subset oracle too large")
    idx = np.arange(N, dtype=np.int64)
    add = sp.sum_grid(idx, idx).tolist()
    vals = {k: g.tolist() for k, g in grid.items()}
    total = 0.0 + 0.0j
    for xv in itertools.product(range(N), repeat=m):
        for yv in itertools.product(range(N), repeat=m):
            prod = 1.0 + 0.0j
            for s in range(1 << (m * m)):
                zsum = 0.0 + 0.0j
                for z in range(N):
                    term = 1.0 + 0.0j
                    for i in range(1, m + 1):
                        for j in range(1, m + 1):
                            arg = add[add[xv[i - 1]][yv[j - 1]]][z]
                            term *= vals[(i, j, s)][arg]
                    zsum += term
                prod *= zsum / N
            total += prod
    return complex(total / N ** (2 * m))
