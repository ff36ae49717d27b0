"""Local U^2(d) and U^3(d) semi-norms and the one contraction per arity
that every conditioned average calls.

The local U^2 inner product averages the four-vertex product with x0, x1
confined to the coset L(a1) and y0, y1 to L(a2); every argument x + y then
lies in the single coset L(a1 + a2), so the value only sees f there. The
local U^2 norm is taken on the frequency side: its fourth power is the
fourth moment of the spectrum of f restricted to that coset, read through
a kernel basis of L(0). `local_u2_norms` takes a batch of (coset code,
function) pairs in one gather and one transform; `local_u2_inner(ctx, f,
f, f, f)`, the binary contraction, is its twin.

The local U^3 inner product confines x's, y's, z's to three quadratic atoms
and reweights each of the twelve cross pairs by the characteristic measure
mu of a prescribed bilinear level set. All eight corner sums land in the
atom labeled sigma3(d) = a1 + a2 + a3 + 2(0|b12) + 2(0|b13) + 2(0|b23).

`_binary_contract` is the bipartite contraction: the local U^2 inner
product, the IP averages and the bipartite operator. Its value arrays may
carry leading batch axes, so `pattern_ops.t_ips` sends a block of global
IP grids through one call. `_ternary_contract`
is the weighted 3-partite one: local U^3, IP2, the ternary operator and the
weighted ternary density. It takes a batch of problems named by integer
codes (atoms, bilinear levels and value arrays, laid out by a
`TernaryShape`), so `local_u3_norms` and `local_u3_inners` evaluate the
norms or octuple inner products of a whole array of direction codes in one
call. Per y-tuple it keeps exactly the x's and z's that the bilinear
weights allow, sorts the y-tuples of the whole batch into buckets by how
many they keep, and contracts each bucket in blocks of one gather and one
batched matmul. A diagonal norm is unchanged when y0 and y1 swap, so it
scans only the y-tuples with j0 <= j1.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, DegenerateContext
from .factor import (
    DirectionTuple2,
    DirectionTuple3,
    LinearFactor,
    QuadraticFactor,
    _code,
    level_mask,
    mu_weight,
    mu_weight_matrix,
    sigma2,
    sigma3,
)
from .fpn_core import DEFAULT_TOL, H_BLOCK_ENTRIES, GroupSpace, count_terms, space
from .spectral import GroupFunction, _axis_dft, _fourth_moments, _roots_of_diagonal

GRID_CAP = 1 << 24  # entry cap of one sum table or average of the binary contraction
TENSOR_CAP = 1 << 24  # cap on |x| |y| |z| of one context of the ternary contraction
BLOCK_ENTRIES = 1 << 13  # entries per kept (x, z) slab of one block of the ternary contraction
NAIVE_CAP6 = 1 << 22  # term cap for the six-fold nested reference sum


class LocalContext2:
    """A linear factor with a pair of coset labels (a1, a2) and the code of
    their target coset a1 + a2."""

    def __init__(self, linear: LinearFactor, d: DirectionTuple2) -> None:
        if d.p != linear.p or len(d.a1) != linear.ell:
            raise ValueError("direction tuple does not match factor")
        self.linear = linear
        self.d = d
        self.xs = linear.coset_indices(d.a1)
        self.ys = linear.coset_indices(d.a2)
        self.sigma = sigma2(d)
        self.code = linear.label_code(self.sigma)

    def target_indices(self) -> np.ndarray:
        return self.linear.coset_indices(self.sigma)


def _outer_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows a[..., j0, :] * b[..., j1, :] for every (j0, j1), j0-major, over
    any leading batch axes."""
    return (a[..., :, None, :] * b[..., None, :, :]).reshape(a.shape[:-2] + (-1, a.shape[-1]))


def _binary_contract(sp: GroupSpace, xs: list, ys: list, values: dict) -> np.ndarray:
    """The bipartite average over parts U (any number of vertices) and V
    (at most three vertices):

        E over y_v in ys[v] of prod over u of
        E over x_u in xs[u] of prod over v of g_uv[x_u + y_v],

    where values[u, v] = g_uv is an array on the group (conjugated by the
    caller where the pattern asks for it), or a stack of them with leading
    batch axes, one average per batch row (a 0-d array without them). Once
    the y's are fixed the x_u-averages are independent: a mean for one
    y-vertex, one matmul for two, and for three one matmul of the outer
    rows of the first two tables with the third. Each distinct (x members,
    y members) pair of arrays, by identity, gets one sum table
    t[j, i] = y_j + x_i, shared by the batch. Raises CapExceeded when a sum
    table or an average would hold more than GRID_CAP entries. Counts the
    multiply-adds of the averages, |x_u| prod |y_v| for each u and row.
    """
    ysizes = [a.size for a in ys]
    if max([math.prod(ysizes)] + [a.size * b for a in xs for b in ysizes]) > GRID_CAP:
        raise CapExceeded("binary member tables too large")
    batch = values[(0, 0)].shape[:-1]
    count_terms(math.prod(batch) * sum(a.size for a in xs) * math.prod(ysizes))
    tables: dict[tuple, np.ndarray] = {}
    prod = None
    for u, x in enumerate(xs):
        mats = []
        for v, y in enumerate(ys):
            key = (id(y), id(x))
            if key not in tables:
                tables[key] = sp.sum_grid(y, x)
            mats.append(values[(u, v)].take(tables[key], axis=-1))
        if len(ys) == 1:
            avg = mats[0].mean(axis=-1)
        elif len(ys) == 2:
            avg = mats[0] @ mats[1].swapaxes(-1, -2) / x.size
        else:
            avg = (_outer_rows(mats[0], mats[1]) @ mats[2].swapaxes(-1, -2)).reshape(
                batch + tuple(ysizes)) / x.size
        prod = avg if prod is None else prod * avg
    return prod.reshape(batch + (-1,)).mean(axis=-1)


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
    return complex(_binary_contract(ctx.linear.space, [ctx.xs] * 2, [ctx.ys] * 2, values))


def local_u2_norms(linear: LinearFactor, codes, fs: list[GroupFunction],
                   tol: float = DEFAULT_TOL) -> list[float]:
    """The local U^2 norm of fs[i] on the coset of code codes[i] (a
    direction's target coset a1 + a2), for every i, on the frequency side:
    ||f||_{U^2(d)}^4 = sum_t |ghat(t)|^4 for g(h) = f(c + h) on L(0), with
    c the coset's least member and h running over L(0) in the order of its
    kernel basis (Gowers, GAFA 2001). Each block of at most H_BLOCK_ENTRIES
    entries is one gather through `GroupSpace.sums` and one transform of
    its (F, p^(n - l)) stack. Counts the gather's entries, the transform's
    entries x p x (n - l) and one term per entry of the |ghat|^4 sum."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    if len(codes) != len(fs):
        raise ValueError("need one function per coset code")
    for g in fs:
        if (g.p, g.n) != (linear.p, linear.n):
            raise ValueError("function in wrong group")
    p, n, m = linear.p, linear.n, linear.n - linear.ell
    basis = np.array([b.coords for b in linear.subgroup_basis()], dtype=np.int64)
    kernel = space(p, m).form_values(r=basis.reshape(m, n)) @ linear.space.powers
    starts = linear.member_table[codes, 0]
    step = max(1, H_BLOCK_ENTRIES // kernel.size)
    fourth = []
    for lo in range(0, len(fs), step):
        sums = linear.space.sums(starts[lo:lo + step, None], kernel)
        stack = np.stack([g.values[s] for g, s in zip(fs[lo:lo + step], sums)])
        fourth.extend(_fourth_moments(_axis_dft(stack, p, m, -1)).tolist())
    return _roots_of_diagonal(np.array(fourth), 4, tol).tolist()


class LocalContext3:
    """A quadratic factor with atom labels (a1, a2, a3) and bilinear labels
    (b12, b13, b23): their codes, member arrays and mu weight matrices, each
    formed from the factor's cached level mask.

    Degenerate when any referenced atom or level set is empty: the defining
    expectations divide by those sizes, so evaluation refuses.
    """

    def __init__(self, factor: QuadraticFactor, d: DirectionTuple3) -> None:
        if d.p != factor.p or len(d.a1) != factor.ell + factor.q or len(d.b12) != factor.q:
            raise ValueError("direction tuple does not match factor")
        self.factor = factor
        self.d = d
        self.codes = tuple(_code(d.p, lab) for lab in (d.a1, d.a2, d.a3, d.b12, d.b13, d.b23))
        self.xs = factor.atom_indices(d.a1)
        self.ys = factor.atom_indices(d.a2)
        self.zs = factor.atom_indices(d.a3)
        for name, arr in (("a1", self.xs), ("a2", self.ys), ("a3", self.zs)):
            if arr.size == 0:
                raise DegenerateContext(f"atom {name} = {getattr(d, name)} is empty")
        a1, a2, a3, b12, b13, b23 = self.codes
        self.mu12 = mu_weight_matrix(factor, b12, a1, a2)
        self.mu13 = mu_weight_matrix(factor, b13, a1, a3)
        self.mu23 = mu_weight_matrix(factor, b23, a2, a3)
        self.sigma = sigma3(factor, d)

    def target_indices(self) -> np.ndarray:
        return self.factor.atom_indices(self.sigma)


def _member_tensor(ctx: LocalContext3, g: GroupFunction) -> np.ndarray:
    """tensor[i, j, k] = g(x_i + y_j + z_k) over the three member arrays."""
    return g.values[ctx.factor.space.sum_grid3(ctx.xs, ctx.ys, ctx.zs)]


class TernaryShape(NamedTuple):
    """Where each vertex, pair and slot of a ternary problem reads its code,
    as columns of a row of integers: xs[u], ys[v] and zs[w] are the columns
    of the vertices' atom codes; muv, muw and mvw hold ((a, b), column) for
    each pair, the column of its bilinear code (the pair's atoms are its
    vertices'); values holds ((u, v, w), column, conjugated) for each slot,
    the column of an index into the problem's list of value arrays."""

    xs: tuple
    ys: tuple
    zs: tuple
    values: tuple
    muv: tuple
    muw: tuple
    mvw: tuple


def _ternary_contract(factor: QuadraticFactor, shape: TernaryShape, codes: np.ndarray,
                      arrays: list) -> np.ndarray:
    """The weighted ternary average over parts U, V (at most two vertices
    each) and W (any number of vertices), for each row of codes:

        E over x_u in xs[u], y_v in ys[v] of prod muv[u, v](x_u, y_v) times
        prod over w of E over z in zs[w] of prod muw[u, w](x_u, z)
        prod mvw[v, w](y_v, z) prod g_uvw[x_u + y_v + z],

    where the row names each vertex's atom, each pair's bilinear level and
    each slot's value array g_uvw (complex-conjugated when the shape says
    so) as laid out by `shape`. Returns one complex value per row, in order.

    The rows are stacked along a leading context axis (`_Stack`), a block
    of contexts at a time; a block holds at most H_BLOCK_ENTRIES y-tuples
    and value entries. Raises CapExceeded when some |x_u| |y_v| |z_w|
    exceeds TENSOR_CAP, and DegenerateContext when a row names an empty
    atom or level set.
    """
    codes = np.asarray(codes, dtype=np.int64).reshape(len(codes), -1)
    sizes = factor.atom_sizes
    parts = [sizes[codes[:, list(cols)]] for cols in (shape.xs, shape.ys, shape.zs)]
    if min(int(a.min()) for a in parts) == 0:
        raise DegenerateContext("a ternary problem names an empty atom")
    widest = int((parts[0].max(axis=1) * parts[1].max(axis=1) * parts[2].max(axis=1)).max())
    if widest > TENSOR_CAP:
        raise CapExceeded(f"|x| |y| |z| = {widest} exceeds the ternary cap {TENSOR_CAP}")
    out = np.zeros(len(codes), dtype=np.complex128)
    ytuples = math.prod(parts[1].max(axis=0).tolist())
    step = max(1, H_BLOCK_ENTRIES // (ytuples + factor.space.size))  # contexts per block
    for start in range(0, len(codes), step):
        out[start:start + step] = _Stack(factor, shape, codes[start:start + step],
                                         arrays).contract(factor.space)
    return out


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values and each value's position among them, as
    np.unique gives them, without its sort when every value is the first."""
    if (values == values[0]).all():
        return values[:1], np.zeros(len(values), dtype=np.intp)
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct, inverse.reshape(-1)


class _Stack:
    """C ternary problems of one shape, stacked along a leading context axis:
    member arrays (C, |part|), weights and value places, each filled for its
    place with one gather over the rows' codes. A member place gathers rows
    of the factor's member table, zero-padded to the block's largest atom.
    A weight place is a mu measure kept as its two parts: a bool stack (C,
    |a|, |b|) of the level masks of the block's distinct (bilinear, row
    atom, column atom) code triples, zero-padded alike, and one float per
    context, its level's weight p^(2n)/|beta|. A weight is read by gathering
    the mask and multiplying by the context's weight, which gives the mu
    matrix's values bit for bit (True w = w, False w = 0). A value place is
    a table of the block's distinct value arrays
    and, unless every context reads the same array (then held once), each
    context's row in it. Two places share one stack when every context
    names the same codes in both. A padded member has zero weight with
    every other vertex, so it is never kept; `lengths` holds each member
    stack's true length per context.

    Once the y's are fixed the z-averages are independent: each is one
    weighted matrix product over (x_0, z) and (x_1, z), and the outer
    average weights their product by muv. The weights vanish off a bilinear
    level set, so each y-tuple (y_0, y_1) keeps exactly the x_u in every
    mask muv[u, v](x_u, y_v) and the z_w in every mask mvw[v, w](y_v, z_w);
    every dropped term has weight 0, and a y-tuple that keeps no x_u or no
    z_w of a computed slot adds nothing. The kept counts are one float32
    matmul of two masks, exact as each is at most |atom| <= 2^20 < 2^24.
    The y-tuples of every context are grouped by their kept counts into
    buckets. A bucket goes in
    blocks of at most BLOCK_ENTRIES // (widest kept slab) y-tuples, the last
    block holding what is left; each block gathers its members through
    `GroupSpace.sums`, takes one batched matmul of shape (P, |x_0|,
    |z|) @ (P, |z|, |x_1|) per computed slot, and adds its values to their
    contexts with `np.bincount`.

    W-vertices whose inputs repeat share one z-average. A W-vertex whose
    inputs are an earlier slot's with every conjugate flag flipped reads the
    conjugate of each of that slot's tensors; as its z weights are real, its
    z-average is the conjugate of that slot's, so it takes that and skips
    its own matmul.

    Half the y-pairs: when y_0 and y_1 are one stack, each y's muv and mvw
    weights are the other y's, every slot (u, 1, w) reads slot (u, 0, w)'s
    value place with its conjugate flag flipped, and every weight is real,
    swapping y_0 and y_1 maps each term to its conjugate. The scan then
    keeps only the y-tuples with j_0 <= j_1, weights those with j_0 < j_1 by
    2 and returns the real part; this is exact.

    Counts the multiply-adds of each computed slot, |x_0 kept| |x_1 kept|
    |z kept| per kept y-tuple; a mirrored slot counts none. The index sums
    count their own entries.
    """

    def __init__(self, factor: QuadraticFactor, shape: TernaryShape, codes: np.ndarray,
                 arrays: list) -> None:
        self.nctx = len(codes)
        sizes = factor.atom_sizes
        places: dict[tuple, object] = {}  # by the codes a place reads
        self.lengths: dict[int, np.ndarray] = {}

        @functools.cache  # by the columns a place reads
        def member(col: int) -> np.ndarray:
            key = ("member", codes[:, col].tobytes())
            if key not in places:
                lengths = sizes[codes[:, col]]
                stacked = factor.member_table[codes[:, col], :lengths.max()]
                self.lengths[id(stacked)] = lengths.astype(np.float64)
                places[key] = stacked
            return places[key]

        @functools.cache
        def weight(col: int, row: int, other: int) -> tuple:
            triples = np.ascontiguousarray(codes[:, [col, row, other]])
            key = ("weight", triples.tobytes())
            if key not in places:  # one void item per (bilinear, row, column) triple
                distinct, inverse = _distinct(triples.view(np.dtype((np.void, 24))).reshape(-1))
                levels, at = _distinct(codes[:, col])  # weights first: an empty level raises
                weights = np.array([mu_weight(factor, b) for b in levels.tolist()])[at]
                masks = [level_mask(factor, *t)
                         for t in distinct.view(np.int64).reshape(-1, 3).tolist()]
                padded = np.zeros((len(masks), sizes[codes[:, row]].max(),
                                   sizes[codes[:, other]].max()), dtype=bool)
                for k, m in enumerate(masks):
                    padded[k, :m.shape[0], :m.shape[1]] = m
                places[key] = (padded[inverse], weights)
            return places[key]

        @functools.cache
        def value(col: int) -> tuple:
            key = ("value", codes[:, col].tobytes())
            if key not in places:
                distinct, rows = _distinct(codes[:, col])
                if distinct.size == 1:
                    places[key] = (arrays[distinct[0]][None], None)
                else:
                    places[key] = (np.stack([arrays[k] for k in distinct.tolist()]), rows)
            return places[key]

        self.xs, self.ys, self.zs = ([member(c) for c in cols]
                                     for cols in (shape.xs, shape.ys, shape.zs))
        self.values = {k: (value(col), conj) for k, col, conj in shape.values}
        self.muv, self.muw, self.mvw = (
            {(a, b): weight(col, rows[a], others[b]) for (a, b), col in pairs}
            for pairs, rows, others in ((shape.muv, shape.xs, shape.ys),
                                        (shape.muw, shape.xs, shape.zs),
                                        (shape.mvw, shape.ys, shape.zs)))

    def contract(self, sp: GroupSpace) -> np.ndarray:
        """The C values, in order."""
        xs, ys, zs, muv, muw, mvw = self.xs, self.ys, self.zs, self.muv, self.muw, self.mvw
        nu, nv, nw = len(xs), len(ys), len(zs)
        # slot key -> [w, mirrored slot key or None, count]
        self.slots: dict[tuple, list] = {}
        for w in range(nw):
            inputs = [self.values[(u, v, w)] for u in range(nu) for v in range(nv)]
            weights = [muw[(u, w)] for u in range(nu)] + [mvw[(v, w)] for v in range(nv)]
            rest = (id(zs[w]),) + tuple(id(m) for m in weights)
            skey = (tuple((id(g), c) for g, c in inputs),) + rest
            flipped = (tuple((id(g), not c) for g, c in inputs),) + rest
            if skey in self.slots:
                self.slots[skey][2] += 1
            elif flipped in self.slots:
                self.slots[skey] = [w, flipped, 1]
            else:
                self.slots[skey] = [w, None, 1]
        self.mirrored = {m for _, m, _ in self.slots.values() if m is not None}
        computed = [w for w, m, _ in self.slots.values() if m is None]
        values = self.values
        self.half = (nv == 2 and ys[0] is ys[1]
                     and all(muv[(u, 0)] is muv[(u, 1)] for u in range(nu))
                     and all(mvw[(0, w)] is mvw[(1, w)] for w in range(nw))
                     and all(values[(u, 1, w)][0] is values[(u, 0, w)][0]
                             and values[(u, 1, w)][1] != values[(u, 0, w)][1]
                             for u in range(nu) for w in range(nw)))
        # the kept members of x_u depend on its members and its y weights, of
        # z_w likewise; vertices that share them share a class, named by its
        # first vertex, and one gather
        xkey = [(id(xs[u]),) + tuple(id(muv[(u, v)]) for v in range(nv)) for u in range(nu)]
        self.xc = [xkey.index(k) for k in xkey]
        zfirst: dict[tuple, int] = {}
        self.zc = {w: zfirst.setdefault((id(zs[w]),) + tuple(id(mvw[(v, w)]) for v in range(nv)), w)
                   for w in computed}
        # level masks, (C, |x|, |y_v|) per x class and (C, |y_v|, |z|) per z class
        self.xmask = {u: [muv[(u, v)][0] for v in range(nv)] for u in dict.fromkeys(self.xc)}
        self.zmask = {w: [mvw[(v, w)][0] for v in range(nv)]
                      for w in dict.fromkeys(self.zc.values())}
        counts = []  # kept members per y-tuple, (C, |y_0|, |y_1|) or (C, |y_0|)
        for m0, *m1 in self.xmask.values():
            counts.append(np.matmul(m0.transpose(0, 2, 1).astype(np.float32),
                                    m1[0].astype(np.float32)) if m1 else m0.sum(axis=1))
        for m0, *m1 in self.zmask.values():
            counts.append(np.matmul(m0.astype(np.float32),
                                    m1[0].transpose(0, 2, 1).astype(np.float32)) if m1
                          else m0.sum(axis=2))
        keys = np.stack([c.reshape(-1) for c in counts], axis=1).astype(np.int64)
        alive = (keys > 0).all(axis=1)
        sy1 = ys[-1].shape[1]
        if self.half:  # j_0 <= j_1
            alive &= np.tile(np.triu(np.ones((sy1, sy1), dtype=bool)).reshape(-1), self.nctx)
        live = np.flatnonzero(alive)
        if not live.size:
            return np.zeros(self.nctx, dtype=np.complex128)
        order = np.lexsort(keys[live].T)
        keys, order = keys[live[order]], live[order]  # y-tuples sorted by kept counts
        # bucket b holds the sorted y-tuples edges[b]:edges[b + 1]
        edges = [0, *(np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1).tolist(),
                 live.size]
        ntuple = math.prod(y.shape[1] for y in ys)
        total = np.zeros(self.nctx, dtype=np.complex128)
        work = 0
        for lo, hi in zip(edges, edges[1:]):
            kept = keys[lo].tolist()
            kx = dict(zip(self.xmask, kept))
            kz = dict(zip(self.zmask, kept[len(self.xmask):]))
            per = max([kx[self.xc[u]] * kz[self.zc[w]] for u in range(nu) for w in computed]
                      + [kx[self.xc[0]] * kx[self.xc[-1]]])
            step = max(1, BLOCK_ENTRIES // per)
            work += ((hi - lo) * math.prod(kx[c] for c in self.xc)
                     * sum(kz[self.zc[w]] for w in computed))
            for start in range(lo, hi, step):
                t = order[start:min(start + step, hi)]
                total += self.block(sp, t // ntuple, [(t % ntuple) // sy1, t % sy1][2 - nv:],
                                    kx, kz)
        count_terms(work)
        if self.half:
            total = total.real.astype(np.complex128)
        return total / math.prod(self.lengths[id(a)] for a in (*xs, *ys))

    def block(self, sp: GroupSpace, c: np.ndarray, j: list, kx: dict, kz: dict) -> np.ndarray:
        """The summed values, per context, of one block of a bucket: y-tuple
        i is (ys[v][c[i], j[v][i]]) and keeps kx[class] x's and kz[class]
        z's."""
        xs, ys, zs, muv, muw, mvw = self.xs, self.ys, self.zs, self.muv, self.muw, self.mvw
        xc, zc = self.xc, self.zc
        nu, nv = len(xs), len(ys)
        size = len(c)
        col = c[:, None]

        def kept(masks: list, count: int) -> np.ndarray:  # (P, count) member positions
            both = masks[0]
            for m in masks[1:]:
                both = both & m
            return np.nonzero(both)[1].reshape(size, count)

        xk = {u: kept([m[c, :, jv] for m, jv in zip(ms, j)], kx[u]) for u, ms in self.xmask.items()}
        zk = {w: kept([m[c, jv] for m, jv in zip(ms, j)], kz[w]) for w, ms in self.zmask.items()}
        xg = {u: xs[u][col, k] for u, k in xk.items()}
        zg = {w: zs[w][col, k] for w, k in zk.items()}
        yg = [ys[v][c, jv] for v, jv in enumerate(j)]
        sums: dict[tuple, np.ndarray] = {}
        tensors: dict[tuple, np.ndarray] = {}

        def tensor(u: int, v: int, w: int) -> np.ndarray:  # g_uvw[x_u + y_v + z], (P, |x_u|, |z|)
            place, conj = self.values[(u, v, w)]
            cls = (v, xc[u], zc[w])
            key = (id(place),) + cls
            if key not in tensors:
                if cls[:2] not in sums:
                    sums[cls[:2]] = sp.sums(xg[xc[u]], yg[v][:, None])
                if cls not in sums:
                    sums[cls] = sp.sums(sums[cls[:2]][:, :, None], zg[zc[w]][:, None, :])
                table, rows = place
                index = sums[cls] if rows is None else (
                    sums[cls] + (rows[c] * table.shape[1])[:, None, None])
                tensors[key] = table.reshape(-1)[index]
            return np.conj(tensors[key]) if conj else tensors[key]

        def weighed(terms) -> np.ndarray:  # prod of weight places at (rows, cols), (P, k)
            # a weight is w or 0, so the product is the masks' and times the
            # weights' product, bit for bit
            mask, weight = True, 1.0
            for (m, wt), rows, cols in terms:
                mask = mask & m[col, rows, cols]
                weight = weight * wt[col]
            return mask * weight

        weights: dict[tuple, np.ndarray] = {}

        def xz_weight(u: int, w: int) -> np.ndarray:  # muw[u, w] on the kept (x_u, z)
            m, wt = muw[(u, w)]
            key = (id(m), xc[u], zc[w])
            if key not in weights:
                rows = (col * m.shape[1] + xk[xc[u]]) * m.shape[2]
                weights[key] = (m.reshape(-1)[rows[:, :, None] + zk[zc[w]][:, None, :]]
                                * wt[c][:, None, None])
            return weights[key]

        prod = None
        gs = {}
        for skey, (w, mirror, count) in self.slots.items():
            if mirror is not None:
                g = np.conj(gs[mirror])
            else:
                r = []
                for u in range(nu):
                    a = xz_weight(u, w) * tensor(u, 0, w)
                    for v in range(1, nv):
                        a *= tensor(u, v, w)
                    r.append(a)
                # the y z weights and 1/|z| go on u = 0 only
                zweight = weighed((mvw[(v, w)], j[v][:, None], zk[zc[w]]) for v in range(nv))
                r[0] *= (zweight / self.lengths[id(zs[w])][col])[:, None, :]
                g = r[0].sum(axis=2) if nu == 1 else r[0] @ r[1].transpose(0, 2, 1)
            if skey in self.mirrored:  # kept only while a later slot needs it
                gs[skey] = g
            for _ in range(count):
                prod = g if prod is None else prod * g
        wx = [weighed((muv[(u, v)], xk[xc[u]], j[v][:, None]) for v in range(nv))
              for u in range(nu)]
        if nu == 1:
            val = (wx[0] * prod).sum(axis=1)
        else:
            val = (wx[0][:, None, :] @ prod @ wx[1][:, :, None]).reshape(size)
        if self.half:  # the y-tuples with j_0 < j_1 stand for their swaps too
            val = val * np.where(j[0] < j[1], 2.0, 1.0)
        return np.bincount(c, val.real, self.nctx) + 1j * np.bincount(c, val.imag, self.nctx)


@functools.lru_cache(maxsize=None)
def u3_shape(octuple: bool) -> TernaryShape:
    """The local U^3 inner product as a ternary shape with |U| = |V| = |W|
    = 2 on the direction codes (a1, a2, a3, b12, b13, b23) in columns 0-5:
    slot (u, v, w) reads column 6 + 4u + 2v + w (octuple) or column 6 (the
    diagonal), conjugated when u + v + w is odd."""
    values = tuple(((u, v, w), 6 + (4 * u + 2 * v + w if octuple else 0), (u + v + w) % 2 == 1)
                   for u, v, w in itertools.product(range(2), repeat=3))
    pairs = list(itertools.product(range(2), repeat=2))
    return TernaryShape((0, 0), (1, 1), (2, 2), values, *(tuple((k, col) for k in pairs)
                                                         for col in (3, 4, 5)))


def value_columns(fs: list[GroupFunction], p: int, n: int) -> tuple[list[int], list[np.ndarray]]:
    """An index per function into a list of the distinct functions' values
    (by identity); raises ValueError for a function off F_p^n."""
    for g in fs:
        if (g.p, g.n) != (p, n):
            raise ValueError("function in wrong group")
    index: dict[int, int] = {}
    columns = [index.setdefault(id(g), len(index)) for g in fs]
    return columns, list({id(g): g.values for g in fs}.values())


def local_u3_inners(factor: QuadraticFactor, codes, octuples: list) -> np.ndarray:
    """The mu-weighted eight-vertex expectation over the three atoms of the
    direction codes[i] = (a1, a2, a3, b12, b13, b23) on octuples[i], for
    every i: one ternary contraction, slot (u, v, w) reading octuple[4u +
    2v + w]. Every direction must be nondegenerate."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, 6)
    if any(len(o) != 8 for o in octuples):
        raise ValueError("need eight functions in lexicographic eps order")
    if len(codes) != len(octuples):
        raise ValueError("need one octuple per direction")
    if not octuples:
        return np.zeros(0, dtype=np.complex128)
    columns, arrays = value_columns([g for o in octuples for g in o], factor.p, factor.n)
    return _ternary_contract(factor, u3_shape(True),
                             np.column_stack([codes, np.reshape(columns, (-1, 8))]), arrays)


def local_u3_inner(ctx: LocalContext3, octuple: list[GroupFunction]) -> complex:
    """The batch of one of `local_u3_inners`."""
    return complex(local_u3_inners(ctx.factor, [ctx.codes], [octuple])[0])


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


def local_u3_norms(factor: QuadraticFactor, codes, fs: list[GroupFunction],
                   tol: float = DEFAULT_TOL) -> list[float]:
    """The local U^3 norm of fs[i] at the direction of codes[i] = (a1, a2,
    a3, b12, b13, b23), for every i: one ternary contraction over the
    diagonal octuples of the whole batch. Every direction must be
    nondegenerate (`degenerate_directions`)."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, 6)
    if len(codes) != len(fs):
        raise ValueError("need one function per direction")
    if not fs:
        return []
    columns, arrays = value_columns(fs, factor.p, factor.n)
    values = _ternary_contract(factor, u3_shape(False), np.column_stack([codes, columns]),
                               arrays)
    return _roots_of_diagonal(np.asarray(values), 8, tol).tolist()

