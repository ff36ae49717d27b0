"""Local U^2(d) and U^3(d) semi-norms and the one contraction per arity
that every conditioned average calls.

A function is its table, a (p^n,) float64 or complex128 array on the
factor's group; every route checks that each table it takes has p^n
entries. `value_columns` numbers a batch's distinct tables by identity,
so that slots holding one array object share a value place and a W-slot.

The local U^2 inner product averages the four-vertex product with x0, x1
confined to the coset L(a1) and y0, y1 to L(a2), a pair of coset codes;
every argument x + y then lies in the single coset L(a1 + a2), of code
`space(p, l).add(a1, a2)`, so the value only sees f there. The
local U^2 norm is the global one on that coset: `local_u2_norms` gathers
a batch of (coset code, function) pairs onto L(0), read through a kernel
basis (`_coset_stacks`), and calls `spectral.u2_norms` on the gathered
stack; `local_u2_inner(factor, (a1, a2), f, f, f, f)`, the binary
contraction, is its twin. The coset routines take any factor and read the
cosets of its linear part, `factor.linear`.

The local U^3 inner product confines x's, y's, z's to three quadratic atoms
and reweights each of the twelve cross pairs by the characteristic measure
mu of a prescribed bilinear level set. A direction d is a row of six
codes (a1, a2, a3, b12, b13, b23), as `factor.direction_codes` lays it out,
and all eight corner sums land in the atom of code `sigma3_codes(d)`,
labeled a1 + a2 + a3 + 2(0|b12) + 2(0|b13) + 2(0|b23).

Every local route takes the factor and codes: a coset pair (a1, a2), a
direction, or an array of directions. A single pair or direction with the
wrong number of codes is refused with ValueError. The one context class
here, `LocalContext3`, is a checked direction that names no empty atom or
level set: the rejection samplers draw through it, and its
`DegenerateContext` message reaches the reports. It holds no member
arrays, masks or measures; each routine reads the members it uses from the factor's caches by code (the
coset members through `_coset_members`, the atoms' through the member
table) and builds the level masks it reads with one `level_masks` call
per mask place, which the factor does not keep. A measure mu_beta(b) is
its level mask times one number, the level's weight p^(2n)/|beta(b)|, so
every term a mask keeps carries the same weights: the contraction counts
on masks and multiplies each context's sum once by its weight product.
Only the naive twin `reference.local_u3_inner_naive` forms float64
measures, with `factor.mu_weight_matrix`.

`_binary_contract` is the bipartite contraction: the local U^2 inner
product, the IP averages and the bipartite operator. Its value arrays may
carry leading batch axes, so `pattern_ops.t_ips` sends a block of global
IP grids through one call. `_ternary_contract`
is the weighted 3-partite one: local U^3, IP2, the ternary operator and the
weighted ternary density. It takes a batch of problems named by integer
codes (atoms, bilinear levels and value arrays, laid out by a
`TernaryShape`), so `local_u3_norms` and `local_u3_inners` evaluate the
norms or octuple inner products of a whole array of direction codes in one
call. Per y-tuple it keeps exactly the x's and z's that the level
masks allow, sorts the y-tuples of the whole batch into buckets by how
many they keep, and contracts each bucket in blocks of one gather and one
batched matmul. A diagonal norm is unchanged when y0 and y1 swap, so it
scans only the y-tuples with j0 <= j1.

A factor with no forms has cosets for atoms and weights every pair 1, so
a local U^3 quantity is the global one on the direction's target coset
(`_target_stacks`): at q = 0, `local_u3_norms` and `local_u3_inners` (and
`pattern_ops.t_ip2_local` and `weighted_ternary_densities`) make the
gather of `local_u2_norms` and call `spectral.u3_norms` and
`spectral.u3_inners` over F_p^(n - l). The contraction is their twin
there.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import CapExceeded, DegenerateContext
from .factor import (
    QuadraticFactor,
    level_masks,
    mu_weight,
    sigma3_codes,
)
from .fpn_core import DEFAULT_TOL, ENTRY_CAP, H_BLOCK_ENTRIES, GroupSpace, count_terms, space
from .spectral import _check_tables, _roots_of_diagonal, u2_norms, u3_inners, u3_norms

BLOCK_ENTRIES = 1 << 13  # entries per kept (x, z) slab of one block of the ternary contraction


def _check_codes(codes, bound: int) -> None:
    """Raise ValueError unless every code lies in [0, bound): one test over
    an array of a batch's codes, a loop over one context's tuple of ints."""
    if isinstance(codes, np.ndarray):
        ok = not codes.size or 0 <= codes.min() <= codes.max() < bound
    else:
        ok = all(0 <= c < bound for c in codes)
    if not ok:
        raise ValueError(f"label codes must lie in [0, {bound})")


_ARITY = {2: "a coset pair is two codes (a1, a2)",
          6: "a direction is six codes (a1, a2, a3, b12, b13, b23)"}


def _code_tuple(codes, count: int) -> tuple:
    """codes as a tuple of ints, refused with ValueError unless it holds
    `count` of them: a coset pair (2) or a direction (6)."""
    codes = tuple(int(c) for c in codes)
    if len(codes) != count:
        raise ValueError(_ARITY[count])
    return codes


def _coset_members(factor: QuadraticFactor, codes) -> list[np.ndarray]:
    """The member arrays of the cosets of the given codes of the factor's
    linear part, in order."""
    codes = [int(c) for c in codes]
    _check_codes(codes, factor.p ** factor.ell)
    return [factor.linear._members_by_code[c] for c in codes]


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
    y-vertex, one product over x for two, and for three one product of the
    outer rows of the first two tables with the third; the products run in
    `np.einsum`'s own loop, so no BLAS kernel orders their sums. Each
    distinct (x members, y members) pair of arrays, by identity, gets one
    sum table t[j, i] = y_j + x_i, shared by the batch. Raises CapExceeded
    when a sum table or an average would hold more than ENTRY_CAP entries.
    Counts the multiply-adds of the averages, |x_u| prod |y_v| for each u
    and row.
    """
    ysizes = [a.size for a in ys]
    if max([math.prod(ysizes)] + [a.size * b for a in xs for b in ysizes]) > ENTRY_CAP:
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
        else:
            rows = mats[0] if len(ys) == 2 else _outer_rows(*mats[:2])
            avg = np.einsum("...ix,...jx->...ij", rows, mats[-1], optimize=False).reshape(
                batch + tuple(ysizes)) / x.size
        prod = avg if prod is None else prod * avg
    return prod.reshape(batch + (-1,)).mean(axis=-1)


def local_u2_inner(factor: QuadraticFactor, codes, f00, f01, f10, f11) -> complex:
    """E over x0,x1 in L(a1), y0,y1 in L(a2) of the twisted four-product of
    the tables f_uv, for the coset codes (a1, a2) of the factor's linear
    part: the binary contraction with two vertices per part, slot (u, v)
    reading f_uv, conjugated when u + v is odd."""
    _check_tables((f00, f01, f10, f11), factor.p, factor.n)
    values = {(0, 0): f00, (0, 1): np.conj(f01), (1, 0): np.conj(f10), (1, 1): f11}
    xs, ys = _coset_members(factor, _code_tuple(codes, 2))
    return complex(_binary_contract(factor.space, [xs] * 2, [ys] * 2, values))


def _coset_stacks(factor: QuadraticFactor, codes, rows: list):
    """Each row's value arrays on the coset of its code, as tables on
    F_p^(n - l): for the coset of code codes[i] of the factor's linear
    part, with least member c, entry
    h of row i's k-th table is rows[i][k](c + h), h running over L(0) in
    the order of its kernel basis, so the map is a group isomorphism and
    every global average over F_p^(n - l) is the average over the coset.
    Yields one (B, width, p^(n - l)) stack per block of B consecutive rows,
    in order, each of at most H_BLOCK_ENTRIES gathered entries (one row
    when a row alone has more) and one `GroupSpace.sums` gather. Counts the
    gather's entries."""
    linear = factor.linear
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    _check_codes(codes, linear.p ** linear.ell)
    p, m = linear.p, linear.n - linear.ell
    kernel = space(p, m).form_values(r=linear.subgroup_basis()) @ linear.space.powers
    starts = linear.member_table[codes, 0]
    width = len(rows[0]) if rows else 1
    step = max(1, H_BLOCK_ENTRIES // (width * kernel.size))
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        sums = linear.space.sums(starts[lo:lo + step, None], kernel)
        yield np.stack([v[s] for row, s in zip(block, sums) for v in row]).reshape(
            len(block), width, -1)


def local_u2_norms(factor: QuadraticFactor, codes, fs: list,
                   tol: float = DEFAULT_TOL) -> list[float]:
    """The local U^2 norm of the table fs[i] on the coset of code codes[i]
    of the factor's linear part (a direction's target coset a1 + a2), for
    every i: the global U^2 norm
    `u2_norms` over F_p^(n - l) of fs[i] on that coset (`_coset_stacks`;
    Gowers, GAFA 2001), one call per gathered block. Counts the gather's
    entries and `u2_norms`' terms."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    if len(codes) != len(fs):
        raise ValueError("need one function per coset code")
    _check_tables(fs, factor.p, factor.n)
    m = factor.n - factor.ell
    return [norm for stack in _coset_stacks(factor, codes, [[g] for g in fs])
            for norm in u2_norms(stack[:, 0], factor.p, m, tol).tolist()]


class LocalContext3:
    """A quadratic factor with a direction, the checked row of codes (a1,
    a2, a3, b12, b13, b23) of three atoms and three bilinear levels.

    Degenerate when any referenced atom or level set is empty: the defining
    expectations divide by those sizes, so the context refuses, naming the
    empty atom's label or the empty level's. It holds no members, masks or
    measures: the kernels read them from the factor's caches by code.
    """

    def __init__(self, factor: QuadraticFactor, codes) -> None:
        self.codes = _code_tuple(codes, 6)
        _check_codes(self.codes[:3], factor.p ** factor.width)
        _check_codes(self.codes[3:], factor.p ** factor.q)
        self.factor = factor
        for name, code in zip(("a1", "a2", "a3"), self.codes):
            if factor.atom_sizes[code] == 0:
                label = space(factor.p, factor.width).coords_of(code)
                raise DegenerateContext(f"atom {name} = {label} is empty")
        for b in self.codes[3:]:
            mu_weight(factor, b)  # raises DegenerateContext on an empty level set

    def target_indices(self) -> np.ndarray:
        """The members of the target atom, of code `sigma3_codes`."""
        return self.factor._members_by_code[int(sigma3_codes(self.factor, self.codes)[0])]


def _target_stacks(factor: QuadraticFactor, codes: np.ndarray, rows: list):
    """`_coset_stacks` of each direction's value arrays on its target coset,
    for a factor with no forms, whose atoms are the cosets of L and whose
    every mu weight is 1. Substituting x_1 = x_0 + h_1, y_1 = y_0 + h_2 and
    z_1 = z_0 + h_3 turns a local average over the direction's three cosets
    into the global one over the h's and c = x_0 + y_0 + z_0, which covers
    the target coset of code `sigma3_codes` uniformly (Gowers, GAFA 2001).
    Raises ValueError on an atom code out of range or a level code other
    than 0."""
    _check_codes(codes[:, :3], factor.p ** factor.width)
    _check_codes(codes[:, 3:], 1)
    return _coset_stacks(factor, sigma3_codes(factor, codes), rows)


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

    def pair_columns(self) -> tuple:
        """For muv, muw and mvw in turn, each pair's ((a, b), (level, row
        atom, column atom)) code columns."""
        return tuple(tuple(((a, b), (col, rows[a], others[b])) for (a, b), col in pairs)
                     for pairs, rows, others in ((self.muv, self.xs, self.ys),
                                                 (self.muw, self.xs, self.zs),
                                                 (self.mvw, self.ys, self.zs)))


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
    of contexts at a time; a block holds at most H_BLOCK_ENTRIES padded
    y-tuples and value entries: masks and member stacks padded to its
    widest atoms, keys for its live y-tuples only (`_Stack.contract`).
    Raises ValueError when a row's atom or level code is out of range,
    CapExceeded when some |x_u| |y_v| |z_w| exceeds ENTRY_CAP, and
    DegenerateContext when a row names an empty atom or level set.
    """
    codes = np.asarray(codes, dtype=np.int64).reshape(len(codes), -1)
    _check_codes(codes[:, list(shape.xs + shape.ys + shape.zs)], factor.p ** factor.width)
    _check_codes(codes[:, [col for pairs in (shape.muv, shape.muw, shape.mvw)
                           for _, col in pairs]], factor.p ** factor.q)
    sizes = factor.atom_sizes
    parts = [sizes[codes[:, list(cols)]] for cols in (shape.xs, shape.ys, shape.zs)]
    if min(int(a.min()) for a in parts) == 0:
        raise DegenerateContext("a ternary problem names an empty atom")
    widest = int((parts[0].max(axis=1) * parts[1].max(axis=1) * parts[2].max(axis=1)).max())
    if widest > ENTRY_CAP:
        raise CapExceeded(f"|x| |y| |z| = {widest} exceeds ENTRY_CAP = {ENTRY_CAP}")
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
    member arrays (C, |part|), mask places and value places, each filled
    for its place with one gather over the rows' codes. A member place
    gathers rows of the factor's member table, zero-padded to the block's
    largest atom. A mask place is the bool stack (C, |a|, |b|) that one
    `level_masks` call returns for the block's (bilinear, row atom, column
    atom) code triples, padded with False alike. A value place is a table
    of the block's distinct value arrays and, unless every context reads
    the same array (then held once), each context's row in it. Two places
    share one stack when every context names the same codes in both, so
    the half-scan and slot sharing below can test places by identity. A
    padded member lies in no mask, so it is never kept.

    A measure mu is its mask times its level's weight p^(2n)/|beta|, so
    every term that the masks keep carries the same weights: `scale` holds
    each context's product of the weights of every mask place (with
    repeats) over the product of its vertices' atom sizes, and `contract`
    multiplies each context's sum by it once.

    Once the y's are fixed the z-averages are independent: each is one
    masked matrix product over (x_0, z) and (x_1, z), and the outer sum
    runs over the x's. The masks vanish off a bilinear level set, so each
    y-tuple (y_0, y_1) keeps exactly the x_u in every mask muv[u, v](x_u,
    y_v) and the z_w in every mask mvw[v, w](y_v, z_w); every dropped term
    is 0, and a y-tuple that keeps no x_u or no z_w of a computed slot adds
    nothing. Only muw[u, w] is read per (x_u, z) pair, as a bool gather.
    The kept counts are one float32 matmul of two masks (one cast when both
    are one stack), exact as each is at most |atom| <= 2^20 < 2^24. Only
    the live y-tuples, those that keep some x_u and some z_w, get keys;
    each padded count stack is cut to them before the next is formed. The live
    y-tuples are grouped by their kept counts into buckets. A bucket goes
    in blocks of at most BLOCK_ENTRIES // (widest kept slab) y-tuples, the
    last block holding what is left; each block gathers its members
    through `GroupSpace.sums`, takes one batched matmul of shape (P, |x_0|,
    |z|) @ (P, |z|, |x_1|) per computed slot, and adds its values to their
    contexts with `np.bincount`.

    W-vertices whose inputs repeat share one z-average. A W-vertex whose
    inputs are an earlier slot's with every conjugate flag flipped reads the
    conjugate of each of that slot's tensors; as its masks are real, its
    z-average is the conjugate of that slot's, so it takes that and skips
    its own matmul.

    Half the y-pairs: when y_0 and y_1 are one stack, each y's muv and mvw
    masks are the other y's, every slot (u, 1, w) reads slot (u, 0, w)'s
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

        @functools.cache  # by the columns a place reads
        def member(col: int) -> np.ndarray:
            key = ("member", codes[:, col].tobytes())
            if key not in places:
                places[key] = factor.member_table[codes[:, col], :sizes[codes[:, col]].max()]
            return places[key]

        @functools.cache
        def mask(col: int, row: int, other: int) -> np.ndarray:
            triples = np.ascontiguousarray(codes[:, [col, row, other]])
            key = ("mask", triples.tobytes())
            if key not in places:
                places[key] = level_masks(factor, triples)
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

        @functools.cache
        def level_weight(col: int) -> np.ndarray:  # each context's mu_weight
            levels, at = _distinct(codes[:, col])
            return np.array([mu_weight(factor, b) for b in levels.tolist()])[at]

        # weights first: an empty level raises before a mask is built
        vertices = sizes[codes[:, list(shape.xs + shape.ys + shape.zs)]]
        self.scale = math.prod(level_weight(col) for pairs in (shape.muv, shape.muw, shape.mvw)
                               for _, col in pairs) / vertices.prod(axis=1, dtype=np.float64)
        self.xs, self.ys, self.zs = ([member(c) for c in cols]
                                     for cols in (shape.xs, shape.ys, shape.zs))
        self.values = {k: (value(col), conj) for k, col, conj in shape.values}
        self.muv, self.muw, self.mvw = ({k: mask(*cols) for k, cols in pairs}
                                        for pairs in shape.pair_columns())

    def contract(self, sp: GroupSpace) -> np.ndarray:
        """The C values, in order."""
        xs, ys, zs, muv, muw, mvw = self.xs, self.ys, self.zs, self.muv, self.muw, self.mvw
        nu, nv, nw = len(xs), len(ys), len(zs)
        # slot key -> [w, mirrored slot key or None, count]
        self.slots: dict[tuple, list] = {}
        for w in range(nw):
            inputs = [self.values[(u, v, w)] for u in range(nu) for v in range(nv)]
            masks = [muw[(u, w)] for u in range(nu)] + [mvw[(v, w)] for v in range(nv)]
            rest = (id(zs[w]),) + tuple(id(m) for m in masks)
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
        # the kept members of x_u depend on its members and its y masks, of
        # z_w likewise; vertices that share them share a class, named by its
        # first vertex, and one gather
        xkey = [(id(xs[u]),) + tuple(id(muv[(u, v)]) for v in range(nv)) for u in range(nu)]
        self.xc = [xkey.index(k) for k in xkey]
        zfirst: dict[tuple, int] = {}
        self.zc = {w: zfirst.setdefault((id(zs[w]),) + tuple(id(mvw[(v, w)]) for v in range(nv)), w)
                   for w in computed}
        # level masks, (C, |x|, |y_v|) per x class and (C, |y_v|, |z|) per z class
        self.xmask = {u: [muv[(u, v)] for v in range(nv)] for u in dict.fromkeys(self.xc)}
        self.zmask = {w: [mvw[(v, w)] for v in range(nv)]
                      for w in dict.fromkeys(self.zc.values())}

        def kept_counts(axis: int, m0: np.ndarray, *m1: np.ndarray) -> np.ndarray:
            """Kept members per y-tuple, flat C |y_0| |y_1| or C |y_0|."""
            if not m1:
                return m0.sum(axis=axis).reshape(-1)
            a = m0.astype(np.float32)  # once when both factors are one stack
            b = a if m1[0] is m0 else m1[0].astype(np.float32)
            return (a.transpose(0, 2, 1) @ b if axis == 1 else a @ b.transpose(0, 2, 1)).reshape(-1)

        # each padded count is cut to the live y-tuples before the next is
        # formed, so at most one exists at a time
        sy1 = ys[-1].shape[1]
        live, kept = None, []
        for axis, ms in ([(1, ms) for ms in self.xmask.values()]
                         + [(2, ms) for ms in self.zmask.values()]):
            count = kept_counts(axis, *ms)
            if live is None:
                alive = count > 0
                if self.half:  # j_0 <= j_1
                    alive &= np.tile(np.triu(np.ones((sy1, sy1), dtype=bool)).reshape(-1),
                                     self.nctx)
                live = np.flatnonzero(alive)
                del alive
            count = count[live]
            keep = count > 0
            live, kept = live[keep], [k[keep] for k in kept] + [count[keep]]
            if not live.size:
                return np.zeros(self.nctx, dtype=np.complex128)
        keys = np.stack(kept, axis=1).astype(np.int64)
        order = np.lexsort(keys.T)
        keys, order = keys[order], live[order]  # y-tuples sorted by kept counts
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
        return total * self.scale

    def block(self, sp: GroupSpace, c: np.ndarray, j: list, kx: dict, kz: dict) -> np.ndarray:
        """The summed values, per context, of one block of a bucket: y-tuple
        i is (ys[v][c[i], j[v][i]]) and keeps kx[class] x's and kz[class]
        z's."""
        xs, ys, zs, muw = self.xs, self.ys, self.zs, self.muw
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

        masks: dict[tuple, np.ndarray] = {}

        def xz_mask(u: int, w: int) -> np.ndarray:  # muw[u, w]'s mask on the kept (x_u, z)
            m = muw[(u, w)]
            key = (id(m), xc[u], zc[w])
            if key not in masks:
                rows = (col * m.shape[1] + xk[xc[u]]) * m.shape[2]
                masks[key] = m.reshape(-1)[rows[:, :, None] + zk[zc[w]][:, None, :]]
            return masks[key]

        prod = None
        gs = {}
        for skey, (w, mirror, count) in self.slots.items():
            if mirror is not None:
                g = np.conj(gs[mirror])
            else:
                r = []
                for u in range(nu):
                    a = tensor(u, 0, w) * xz_mask(u, w)
                    for v in range(1, nv):
                        a *= tensor(u, v, w)
                    r.append(a)
                g = r[0].sum(axis=2) if nu == 1 else r[0] @ r[1].transpose(0, 2, 1)
            if skey in self.mirrored:  # kept only while a later slot needs it
                gs[skey] = g
            for _ in range(count):
                prod = g if prod is None else prod * g
        val = prod.reshape(size, -1).sum(axis=1)
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


def value_columns(fs: list, p: int, n: int) -> tuple[list[int], list[np.ndarray]]:
    """An index per table into the list of the distinct tables, distinct by
    identity, so that slots holding one array object share its column;
    raises ValueError for a table that is not (p^n,)."""
    index: dict[int, int] = {}
    columns = [index.setdefault(id(g), len(index)) for g in fs]
    arrays = list({id(g): g for g in fs}.values())
    _check_tables(arrays, p, n)
    return columns, arrays


def local_u3_inners(factor: QuadraticFactor, codes, octuples: list) -> np.ndarray:
    """The mu-weighted eight-vertex expectation over the three atoms of the
    direction codes[i] = (a1, a2, a3, b12, b13, b23) on octuples[i], for
    every i: one ternary contraction, slot (u, v, w) reading octuple[4u +
    2v + w]. With no forms, `u3_inners` over F_p^(n - l) of each octuple on
    its target coset (`_target_stacks`), one call per gathered block; the
    contraction is its twin there. Every direction must be
    nondegenerate."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, 6)
    if any(len(o) != 8 for o in octuples):
        raise ValueError("need eight functions in lexicographic eps order")
    if len(codes) != len(octuples):
        raise ValueError("need one octuple per direction")
    if not octuples:
        return np.zeros(0, dtype=np.complex128)
    columns, arrays = value_columns([g for o in octuples for g in o], factor.p, factor.n)
    if factor.q == 0:
        rows = [[arrays[c] for c in row] for row in np.reshape(columns, (-1, 8)).tolist()]
        stacks = _target_stacks(factor, codes, rows)
        return np.concatenate([u3_inners(s, factor.p, factor.n - factor.ell) for s in stacks])
    return _ternary_contract(factor, u3_shape(True),
                             np.column_stack([codes, np.reshape(columns, (-1, 8))]), arrays)


def local_u3_inner(factor: QuadraticFactor, codes, octuple: list) -> complex:
    """The batch of one of `local_u3_inners`, at the direction of codes."""
    return complex(local_u3_inners(factor, [_code_tuple(codes, 6)], [octuple])[0])


def local_u3_norms(factor: QuadraticFactor, codes, fs: list,
                   tol: float = DEFAULT_TOL) -> list[float]:
    """The local U^3 norm of the table fs[i] at the direction of codes[i] =
    (a1, a2, a3, b12, b13, b23), for every i: one ternary contraction over the
    diagonal octuples of the whole batch. With no forms, `u3_norms` over
    F_p^(n - l) of each function on its target coset (`_target_stacks`),
    one call per gathered block; the contraction is its twin there. Every
    direction must be nondegenerate (`degenerate_directions`)."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, 6)
    if len(codes) != len(fs):
        raise ValueError("need one function per direction")
    if not fs:
        return []
    columns, arrays = value_columns(fs, factor.p, factor.n)
    if factor.q == 0:
        m = factor.n - factor.ell
        return [norm for stack in _target_stacks(factor, codes, [[arrays[c]] for c in columns])
                for norm in u3_norms(stack[:, 0], factor.p, m, tol).tolist()]
    values = _ternary_contract(factor, u3_shape(False), np.column_stack([codes, columns]),
                               arrays)
    return _roots_of_diagonal(np.asarray(values), 8, tol).tolist()

