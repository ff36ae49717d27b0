"""Local U^2(d) and U^3(d) semi-norms, restricted Fourier analysis on cosets,
and the one contraction per arity that every conditioned average calls.

The local U^2 inner product averages the four-vertex product with x0, x1
confined to the coset L(a1) and y0, y1 to L(a2); every argument x + y then
lies in the single coset L(a1 + a2), so the value only sees f there.

The local U^3 inner product confines x's, y's, z's to three quadratic atoms
and reweights each of the twelve cross pairs by the characteristic measure
mu of a prescribed bilinear level set. All eight corner sums land in the
atom labeled sigma3(d) = a1 + a2 + a3 + 2(0|b12) + 2(0|b13) + 2(0|b23).

`_binary_contract` is the bipartite contraction: local U^2, the IP averages
and the bipartite operator. `_ternary_contract` is the weighted 3-partite
one: local U^3, IP2, the ternary operator and the weighted ternary density.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapExceeded, DegenerateContext, EmptyLevelSet
from .factor import (
    AtomLabel,
    DirectionTuple2,
    DirectionTuple3,
    LinearFactor,
    QuadraticFactor,
    mu_weight_matrix,
    sigma2,
    sigma3,
)
from .fpn_core import DEFAULT_TOL, GroupSpace, GroupVector, count_terms, space
from .spectral import (
    GroupFunction,
    SpectrumTable,
    _root_of_diagonal,
    fourier_transform,
)

GRID_CAP = 1 << 24  # entry cap of one sum table or average of the binary contraction
TENSOR_CAP = 1 << 24  # member-tensor entry cap of the ternary contraction
BLOCK_ENTRIES = 1 << 15  # entries per temporary of one block of the ternary contraction
NAIVE_CAP6 = 1 << 22  # term cap for the six-fold nested reference sum


class LocalContext2:
    """A linear factor with a pair of coset labels (a1, a2)."""

    def __init__(self, linear: LinearFactor, d: DirectionTuple2) -> None:
        if d.p != linear.p or len(d.a1) != linear.ell:
            raise ValueError("direction tuple does not match factor")
        self.linear = linear
        self.d = d
        self.xs = linear.coset_indices(d.a1)
        self.ys = linear.coset_indices(d.a2)
        self.sigma = sigma2(d)

    def target_indices(self) -> np.ndarray:
        return self.linear.coset_indices(self.sigma)

    def default_shift(self) -> GroupVector:
        """Canonical-index-least element of the target coset L(a1 + a2)."""
        idx = int(self.target_indices().min())
        return GroupVector.from_index(self.linear.p, self.linear.n, idx)


def _binary_contract(sp: GroupSpace, xs: list, ys: list, values: dict) -> complex:
    """The bipartite average over parts U (any number of vertices) and V
    (at most three vertices):

        E over y_v in ys[v] of prod over u of
        E over x_u in xs[u] of prod over v of g_uv[x_u + y_v],

    where values[u, v] = g_uv is an array on the group (conjugated by the
    caller where the pattern asks for it). Once the y's are fixed the
    x_u-averages are independent: a mean for one y-vertex, one matmul for
    two, an einsum for three. Each distinct (x members, y members) pair of
    arrays, by identity, gets one sum table t[j, i] = y_j + x_i. Raises
    CapExceeded when a sum table or an average would hold more than
    GRID_CAP entries. Counts the multiply-adds of the averages, |x_u| prod
    |y_v| for each u.
    """
    ysizes = [a.size for a in ys]
    if max([math.prod(ysizes)] + [a.size * b for a in xs for b in ysizes]) > GRID_CAP:
        raise CapExceeded("binary member tables too large")
    count_terms(sum(a.size for a in xs) * math.prod(ysizes))
    tables: dict[tuple, np.ndarray] = {}
    prod = None
    for u, x in enumerate(xs):
        mats = []
        for v, y in enumerate(ys):
            key = (id(y), id(x))
            if key not in tables:
                tables[key] = sp.sum_grid(y, x)
            mats.append(values[(u, v)][tables[key]])
        if len(ys) == 1:
            avg = mats[0].mean(axis=1)
        elif len(ys) == 2:
            avg = mats[0] @ mats[1].T / x.size
        else:
            avg = np.einsum("ax,bx,cx->abc", *mats) / x.size
        prod = avg if prod is None else prod * avg
    return complex(prod.mean())


def local_u2_inner(ctx: LocalContext2, f00: GroupFunction, f01: GroupFunction,
                   f10: GroupFunction, f11: GroupFunction) -> complex:
    """E over x0,x1 in L(a1), y0,y1 in L(a2) of the twisted four-product:
    the binary contraction with two vertices per part, slot (u, v) reading
    f_uv, conjugated when u + v is odd."""
    for g in (f00, f01, f10, f11):
        if (g.p, g.n) != (ctx.linear.p, ctx.linear.n):
            raise ValueError("function in wrong group")
    values = {(0, 0): f00.values, (0, 1): np.conj(f01.values),
              (1, 0): np.conj(f10.values), (1, 1): f11.values}
    return _binary_contract(ctx.linear.space, [ctx.xs] * 2, [ctx.ys] * 2, values)


def local_u2_norm(ctx: LocalContext2, f: GroupFunction, tol: float = DEFAULT_TOL) -> float:
    return _root_of_diagonal(local_u2_inner(ctx, f, f, f, f), 4, tol)


def restricted_fourier(f: GroupFunction, subgrp: LinearFactor, z: GroupVector) -> SpectrumTable:
    """Fourier transform of h -> f(z + h) on the subgroup L(0), relative to
    a fixed kernel basis; the spectrum lives on F_p^(n - l)."""
    p, n = subgrp.p, subgrp.n
    if (f.p, f.n) != (p, n) or (z.p, z.n) != (p, n):
        raise ValueError("mismatched group")
    basis = subgrp.subgroup_basis()
    m = len(basis)
    sub = space(p, m)
    if m == 0:
        vals = np.array([f.values[z.index]])
        return fourier_transform(GroupFunction(p, 0, vals))
    bmat = np.array([b.coords for b in basis], dtype=np.int64)  # (m, n)
    coords = (sub.digits.astype(np.int64) @ bmat + np.array(z.coords, dtype=np.int64)) % p
    indices = coords @ subgrp.space.powers
    return fourier_transform(GroupFunction(p, m, f.values[indices]))


def local_u2_fourth_via_spectrum(ctx: LocalContext2, f: GroupFunction,
                                 z: GroupVector | None = None) -> float:
    """Sum of |fhat|^4 of the shifted restriction to the kernel coset; equals
    the fourth power of the local U^2 norm for any shift z in L(a1 + a2)."""
    if z is None:
        z = ctx.default_shift()
    spec = restricted_fourier(f, ctx.linear, z)
    return spec.l4_fourth()


class LocalContext3:
    """A quadratic factor with atom labels (a1, a2, a3) and bilinear labels
    (b12, b13, b23); caches member arrays and mu weight matrices.

    Degenerate when any referenced atom or level set is empty: the defining
    expectations divide by those sizes, so evaluation refuses.
    """

    def __init__(self, factor: QuadraticFactor, d: DirectionTuple3) -> None:
        if d.p != factor.p or len(d.a1) != factor.ell + factor.q or len(d.b12) != factor.q:
            raise ValueError("direction tuple does not match factor")
        self.factor = factor
        self.d = d
        self.xs = factor.atom_indices(d.a1)
        self.ys = factor.atom_indices(d.a2)
        self.zs = factor.atom_indices(d.a3)
        for name, arr in (("a1", self.xs), ("a2", self.ys), ("a3", self.zs)):
            if arr.size == 0:
                raise DegenerateContext(f"atom {name} = {getattr(d, name)} is empty")
        try:
            self.mu12 = mu_weight_matrix(factor, d.b12, self.xs, self.ys)
            self.mu13 = mu_weight_matrix(factor, d.b13, self.xs, self.zs)
            self.mu23 = mu_weight_matrix(factor, d.b23, self.ys, self.zs)
        except EmptyLevelSet as exc:
            raise DegenerateContext(str(exc)) from exc
        self.sigma: AtomLabel = sigma3(factor, d)

    def target_indices(self) -> np.ndarray:
        return self.factor.atom_indices(self.sigma.values)


def _member_tensor(ctx: LocalContext3, g: GroupFunction) -> np.ndarray:
    """tensor[i, j, k] = g(x_i + y_j + z_k) over the three member arrays."""
    return g.values[ctx.factor.space.sum_grid3(ctx.xs, ctx.ys, ctx.zs)]


def _outer_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows a[j0] * b[j1] for every (j0, j1), j0-major."""
    return (a[:, None] * b[None]).reshape((-1,) + a.shape[1:])


def _support(w: np.ndarray) -> np.ndarray | slice:
    """Indices of the columns of w with a nonzero in some row; the whole
    axis as a slice (a view, no gather) when every column has one."""
    kept = np.logical_or.reduce(w, axis=0).nonzero()[0]
    return slice(None) if kept.size == w.shape[1] else kept


def _cut(a: np.ndarray, xk: np.ndarray | slice, zk: np.ndarray | slice) -> np.ndarray:
    """a[..., xk, zk]: the kept members of the last two axes, in one gather."""
    if isinstance(xk, slice) or isinstance(zk, slice):
        return a[..., xk, :][..., zk]
    return a[..., xk[:, None], zk]


def _kept(keep: np.ndarray | slice, size: int) -> int:
    """How many members of an axis of `size` a support keeps."""
    return size if isinstance(keep, slice) else keep.size


def _ternary_contract(sp: GroupSpace, xs: list, ys: list, zs: list, values: dict,
                      muv: dict, muw: dict, mvw: dict) -> complex:
    """The weighted ternary average over parts U, V (at most two vertices
    each) and W (any number of vertices):

        E over x_u in xs[u], y_v in ys[v] of prod muv[u, v](x_u, y_v) times
        prod over w of E over z in zs[w] of prod muw[u, w](x_u, z)
        prod mvw[v, w](y_v, z) prod g_uvw[x_u + y_v + z],

    where values[u, v, w] = (array, conjugated) and g_uvw is the array,
    complex-conjugated when the flag is set.

    Once the y's are fixed the z-averages are independent: each is one
    weighted matrix product over (x_0, z) and (x_1, z), and the outer
    average weights their product by muv. Blocks of y-tuples go through
    one batched matmul; each temporary of a block holds at most
    BLOCK_ENTRIES entries unless one y-tuple alone needs more. Member
    tensors are y-major, t[j, i, k] = g(x_i + y_j + z_k), built once per
    distinct (value array, member arrays) by identity and conjugated on
    demand. W-vertices whose inputs repeat share one z-average. A
    W-vertex whose inputs are an earlier slot's with every conjugate flag
    flipped reads the conjugate of each of that slot's tensors; when its
    z weights are real (checked, not assumed) its z-average is the
    conjugate of that slot's, so it takes that and skips its own matmul.

    The weights vanish off a bilinear level set, so each block of y0 rows
    keeps only the x_u with muv[u, 0](x_u, y0) != 0 and the z_w with
    mvw[0, w](y0, z) != 0 for some y0 of the block; every dropped term has
    weight 0. A block that keeps no x_u or no z_w of a computed slot adds
    nothing and is skipped, and an axis kept whole is used as is, with no
    gather. The number of y0 rows per block comes from the whole member
    arrays, the number of y1's at a time from the members the rows keep: a
    row that weights every member takes fewer y1's at a time than one that
    keeps a third, so the temporaries, and the peak memory, do not depend
    on which rows happen to keep everything. Counts, per block and
    computed slot, the multiply-adds it does: |y-tuples| |x_0 kept|
    |x_1 kept| |z kept|; a mirrored slot counts none.
    """
    nu, nv, nw = len(xs), len(ys), len(zs)
    for u, v, w in itertools.product(range(nu), range(nv), range(nw)):
        if xs[u].size * ys[v].size * zs[w].size > TENSOR_CAP:
            raise CapExceeded("member tensor too large")
    grids: dict[tuple, np.ndarray] = {}
    tensors: dict[tuple, np.ndarray] = {}

    def tensor(u: int, v: int, w: int) -> np.ndarray:
        g, conj = values[(u, v, w)]
        members = (id(ys[v]), id(xs[u]), id(zs[w]))
        raw = (id(g), False) + members
        if raw not in tensors:
            if members not in grids:
                grids[members] = sp.sum_grid3(ys[v], xs[u], zs[w])
            tensors[raw] = g[grids[members]]
        key = (id(g), conj) + members
        if key not in tensors:
            tensors[key] = np.conj(tensors[raw])
        return tensors[key]

    # slot key -> [w, tensors or None, mirrored slot key or None, count]
    slots: dict[tuple, list] = {}
    for w in range(nw):
        inputs = [values[(u, v, w)] for u in range(nu) for v in range(nv)]
        weights = [muw[(u, w)] for u in range(nu)] + [mvw[(v, w)] for v in range(nv)]
        rest = (id(zs[w]),) + tuple(id(m) for m in weights)
        skey = (tuple((id(g), c) for g, c in inputs),) + rest
        flipped = (tuple((id(g), not c) for g, c in inputs),) + rest
        if skey in slots:
            slots[skey][3] += 1
        elif flipped in slots and all(np.isrealobj(m) for m in weights):
            slots[skey] = [w, None, flipped, 1]
        else:
            slots[skey] = [w, [tensor(u, v, w) for u in range(nu) for v in range(nv)], None, 1]
    mirrored = {m for _, _, m, _ in slots.values() if m is not None}
    computed = [w for w, ts, _, _ in slots.values() if ts is not None]
    denom = math.prod(a.size for a in (*xs, *ys))
    xweights = [[muv[(u, v)].T for v in range(nv)] for u in range(nu)]

    sy0 = ys[0].size
    sy1 = ys[1].size if nv == 2 else 1

    def per(kx: list, kz: list) -> int:  # entries of the widest temporary per y-tuple
        return max([x * z for x in kx for z in kz] + [kx[0] * kx[-1]])

    rows = max(1, BLOCK_ENTRIES // (per([a.size for a in xs], [a.size for a in zs]) * sy1))
    total = 0.0
    work = 0
    for j0 in range(0, sy0, rows):
        b0 = slice(j0, j0 + rows)
        # the x_u and z_w members that some y0 of the block weights
        xk = [_support(m[0][b0]) for m in xweights]
        zk = {w: _support(mvw[(0, w)][b0]) for w in computed}
        kx = [_kept(k, a.size) for k, a in zip(xk, xs)]
        nz = [_kept(zk[w], zs[w].size) for w in computed]
        if 0 in kx or 0 in nz:
            continue  # every term of the block has a zero weight
        nrows = min(j0 + rows, sy0) - j0
        work += nrows * sy1 * math.prod(kx) * sum(nz)
        cols = min(sy1, max(1, BLOCK_ENTRIES // (nrows * per(kx, nz))))
        # the y0-only factors of each computed slot, the z weights on u = 0
        heads = {}
        for skey, (w, ts, _, _) in slots.items():
            if ts is not None:
                zweight = (_cut(muw[(0, w)], xk[0], zk[w])[None]
                           * (mvw[(0, w)][b0, zk[w]][:, None, :] / zs[w].size))
                heads[skey] = ([_cut(ts[0][b0], xk[0], zk[w]) * zweight]
                               + [_cut(ts[u * nv][b0], xk[u], zk[w])
                                  * _cut(muw[(u, w)], xk[u], zk[w])[None]
                                  for u in range(1, nu)])
        for j1 in range(0, sy1, cols):
            b1 = slice(j1, j1 + cols)
            prod = None
            gs = {}
            for skey, (w, ts, mirror, count) in slots.items():
                if mirror is not None:
                    g = np.conj(gs[mirror])
                else:
                    r = heads[skey]
                    if nv == 2:  # times the y1-only factors, the y1 z weights on u = 0
                        tails = [_cut(ts[1][b1], xk[0], zk[w]) * mvw[(1, w)][b1, zk[w]][:, None, :]]
                        tails += [_cut(ts[u * nv + 1][b1], xk[u], zk[w]) for u in range(1, nu)]
                        r = [_outer_rows(h, t) for h, t in zip(r, tails)]
                    g = r[0].sum(axis=2) if nu == 1 else r[0] @ r[1].transpose(0, 2, 1)
                if skey in mirrored:  # kept only while a later slot needs it
                    gs[skey] = g
                for _ in range(count):
                    prod = g if prod is None else prod * g
            wx = [_outer_rows(m[0][b0, k], m[1][b1, k]) if nv == 2 else m[0][b0, k]
                  for m, k in zip(xweights, xk)]
            if nu == 1:
                total += (wx[0] * prod).sum()
            else:
                total += (wx[0][:, None, :] @ prod @ wx[1][:, :, None]).sum()
    count_terms(work)
    return complex(total / denom)


def local_u3_inner(ctx: LocalContext3, octuple: list[GroupFunction]) -> complex:
    """The mu-weighted eight-vertex expectation over the three atoms: the
    ternary contraction with |U| = |V| = |W| = 2, slot (u, v, w) reading
    octuple[4u + 2v + w], conjugated when u + v + w is odd."""
    if len(octuple) != 8:
        raise ValueError("need eight functions in lexicographic eps order")
    for g in octuple:
        if (g.p, g.n) != (ctx.factor.p, ctx.factor.n):
            raise ValueError("function in wrong group")
    values = {(u, v, w): (g.values, (u + v + w) % 2 == 1)
              for (u, v, w), g in zip(itertools.product(range(2), repeat=3), octuple)}
    two = range(2)
    return _ternary_contract(
        ctx.factor.space, [ctx.xs] * 2, [ctx.ys] * 2, [ctx.zs] * 2, values,
        {(a, b): ctx.mu12 for a in two for b in two},
        {(a, b): ctx.mu13 for a in two for b in two},
        {(a, b): ctx.mu23 for a in two for b in two})


def local_u3_inner_naive(ctx: LocalContext3, octuple: list[GroupFunction]) -> complex:
    """Reference evaluation: the literal six-fold nested sum over atom
    members with all twelve mu factors formed term by term."""
    if len(octuple) != 8:
        raise ValueError("need eight functions in lexicographic eps order")
    s1, s2, s3 = ctx.xs.size, ctx.ys.size, ctx.zs.size
    if (s1 * s2 * s3) ** 2 > NAIVE_CAP6:
        raise CapExceeded("six-fold nested sum too large")
    tensors = [_member_tensor(ctx, g) for g in octuple]
    t000, t001, t010, t011, t100, t101, t110, t111 = tensors
    mu12, mu13, mu23 = ctx.mu12, ctx.mu13, ctx.mu23
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


def local_u3_norm(ctx: LocalContext3, f: GroupFunction, tol: float = DEFAULT_TOL) -> float:
    return _root_of_diagonal(local_u3_inner(ctx, [f] * 8), 8, tol)


def support_triples_consistent(ctx: LocalContext3) -> bool:
    """Every (x, y, z) with nonzero pair weights sums into the atom labeled
    sigma3(d); hence the inner product only reads its arguments there."""
    factor = ctx.factor
    sp = factor.space
    target = factor.label_code(ctx.sigma.values)
    codes = factor._codes[sp.sum_grid3(ctx.xs, ctx.ys, ctx.zs)]
    mask = ((ctx.mu12[:, :, None] != 0.0)
            & (ctx.mu13[:, None, :] != 0.0)
            & (ctx.mu23[None, :, :] != 0.0))
    if not mask.any():
        return True
    return bool((codes[mask] == target).all())


def local_u3_dominates_check(linear: LinearFactor, a1, a2, a3, f: GroupFunction,
                             tol: float = DEFAULT_TOL) -> tuple[float, float, float]:
    """On a purely linear factor, the local U^3 norm with zero bilinear
    labels dominates the local U^2 norm at the direction (a1 + a2, a3).
    Returns (u3val, u2val, margin)."""
    p = linear.p
    a1 = tuple(int(v) % p for v in a1)
    a2 = tuple(int(v) % p for v in a2)
    a3 = tuple(int(v) % p for v in a3)
    quad = QuadraticFactor(linear, ())
    d3 = DirectionTuple3(p, a1, a2, a3, (), (), ())
    ctx3 = LocalContext3(quad, d3)
    u3val = local_u3_norm(ctx3, f, tol)
    a12 = tuple((u + v) % p for u, v in zip(a1, a2))
    ctx2 = LocalContext2(linear, DirectionTuple2(p, a12, a3))
    u2val = local_u2_norm(ctx2, f, tol)
    return u3val, u2val, u3val - u2val
