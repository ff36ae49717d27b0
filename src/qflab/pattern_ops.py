"""IP and IP2 pattern operators (global and local), multi-local operators
over bipartite graphs and 3-partite 3-uniform hypergraphs, witness counting,
and the weighted ternary density average.

Conventions:

* m-IP grids are keyed (i, s) with i in 1..m and s a bitmask over [m]
  (bit i-1 set iff i in S). The average runs over x_1..x_m and one y_S per
  subset, with the product of f_{i,S}(x_i + y_S) over all m * 2^m pairs.
* m-IP2 grids are keyed (i, j, s) with s a bitmask over [m]^2
  (bit (i'-1)*m + (j'-1) set iff (i', j') in S).
* Bipartite / ternary grids are keyed (u, v) / (u, v, w) with 0-based
  vertex indices; the product runs over ALL pairs / triples, with edges
  selecting the "on" function in the f|g shorthand.

Every operator with independent completion variables (y_S, z_S, z_w)
conditions on the remaining variables and multiplies the now-independent
inner averages, in one of the two contractions of `local_norms`: the binary
one for t_ips, t_ip_local and t_bipartite, the ternary one for t_ternaries
and weighted_ternary_densities (one call per batch of patterns or
directions); t_ip2_local is t_ternary on `ip2_hypergraph(m)`. The global
t_ip2s works on the frequency side instead. With no forms, t_ip2_local and
weighted_ternary_densities are t_ip2s and a mean on the direction's target
coset, which `local_norms._target_stacks` gathers. The global averages
take value stacks with leading batch axes, and t_ip and t_ip2 are their
batches of one on a FunctionGrid. The naive nested sums are
reference routes for small instances. Every local operator names its
cosets, atoms and bilinear levels by their integer codes (see `factor`): a
pair of coset codes for t_ip_local, one coset code per vertex for the
bipartite routines, and a direction's six codes for t_ip2_local. A labeled
ternary pattern is one `TernaryContext` of codes, built once and read by
every ternary routine. The witness counts and |I_F(e)| are one blocked
extension count, `_extension_count`, taken per pattern shape over a batch
of contexts (`witness_counts_ternary`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, DegenerateContext
from .factor import (
    LinearFactor,
    QuadraticFactor,
    bilinear_level_sizes,
    degenerate_directions,
    level_masks,
)
from .fpn_core import H_BLOCK_ENTRIES, GroupSpace, count_terms, space
from .local_norms import (
    GRID_CAP,
    TernaryShape,
    _binary_contract,
    _check_codes,
    _coset_members,
    _target_stacks,
    _ternary_contract,
    value_columns,
)
from .spectral import (
    GroupFunction,
    _chunks,
    _derivative_blocks,
    _group,
    fourier_transforms,
    inverse_transforms,
)

MAX_IP_M = 3
MAX_IP2_M = 2
MAX_BIPARTITE_PART = 3
MAX_TERNARY_UV = 2


# ---------------------------------------------------------------------------
# pattern shapes and grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatternHypergraph:
    """A bipartite graph on parts U, V or a 3-partite 3-uniform hypergraph
    on parts U, V, W: `parts` holds the size of each part, in that order,
    and an edge holds one 0-based vertex index per part."""

    parts: tuple
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        parts = tuple(int(k) for k in self.parts)
        if len(parts) not in (2, 3):
            raise ValueError(f"need 2 or 3 parts, got {len(parts)}")
        if min(parts) < 1:
            raise ValueError("every part needs a vertex")
        edges = frozenset(tuple(int(x) for x in e) for e in self.edges)
        for e in edges:
            if len(e) != len(parts):
                raise ValueError(f"edge {e} has wrong arity")
            for coord, part, size in zip(e, "UVW", parts):
                if not 0 <= coord < size:
                    raise ValueError(f"edge {e} leaves part {part}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "edges", edges)

    @property
    def nu(self) -> int:
        return self.parts[0]

    @property
    def nv(self) -> int:
        return self.parts[1]

    @property
    def nw(self) -> int:
        return self.parts[2]

    def all_tuples(self):
        return itertools.product(*map(range, self.parts))


def ip2_hypergraph(m: int) -> PatternHypergraph:
    """The ternary hypergraph whose multi-local operator reproduces local
    m-IP2: U = V = [m], W indexes subsets of [m]^2, edge (i, j, S) iff
    (i, j) in S (bit (i-1)*m + (j-1) of the subset code)."""
    if m > MAX_IP2_M:
        raise CapExceeded(f"m = {m} exceeds the IP2 cap {MAX_IP2_M}")
    edges = []
    for s_code in range(1 << (m * m)):
        for i in range(m):
            for j in range(m):
                if s_code >> (i * m + j) & 1:
                    edges.append((i, j, s_code))
    return PatternHypergraph((m, m, 1 << (m * m)), frozenset(edges))


class FunctionGrid:
    """An indexed family of functions sharing one group, with the f|g
    shorthand constructors (pattern membership selects the first)."""

    def __init__(self, mapping: dict) -> None:
        if not mapping:
            raise ValueError("empty grid")
        fns = list(mapping.values())
        p, n = fns[0].p, fns[0].n
        for g in fns:
            if (g.p, g.n) != (p, n):
                raise ValueError("grid functions on different groups")
        self.mapping = dict(mapping)
        self.p = p
        self.n = n

    def __getitem__(self, key) -> GroupFunction:
        return self.mapping[key]

    def functions(self):
        return self.mapping.values()

    @classmethod
    def ip_select(cls, m: int, f_in: GroupFunction, f_out: GroupFunction) -> FunctionGrid:
        return cls({(i, s): f_in if s >> (i - 1) & 1 else f_out
                    for i in range(1, m + 1) for s in range(1 << m)})

    @classmethod
    def ip2_diagonal(cls, m: int, f: GroupFunction) -> FunctionGrid:
        return cls({(i, j, s): f for i in range(1, m + 1) for j in range(1, m + 1)
                    for s in range(1 << (m * m))})

    @classmethod
    def ip2_select(cls, m: int, f_in: GroupFunction, f_out: GroupFunction) -> FunctionGrid:
        return cls({(i, j, s): f_in if s >> ((i - 1) * m + (j - 1)) & 1 else f_out
                    for i in range(1, m + 1) for j in range(1, m + 1)
                    for s in range(1 << (m * m))})

    @classmethod
    def edge_select(cls, graph: PatternHypergraph, f_edge: GroupFunction,
                    f_nonedge: GroupFunction) -> FunctionGrid:
        return cls({t: f_edge if t in graph.edges else f_nonedge
                    for t in graph.all_tuples()})


def _check_slots(grid: FunctionGrid, slots) -> None:
    for slot in slots:
        if slot not in grid.mapping:
            raise ValueError(f"grid missing slot {slot}")


# ---------------------------------------------------------------------------
# IP operators
# ---------------------------------------------------------------------------

def _ip_check(m: int, grid: FunctionGrid) -> None:
    if m > MAX_IP_M:
        raise CapExceeded(f"m = {m} exceeds the IP cap {MAX_IP_M}")
    _check_slots(grid, itertools.product(range(1, m + 1), range(1 << m)))


def _ip_slots(m: int, values) -> dict:
    """m-IP as a binary contraction: one averaged vertex per subset S (the
    y_S), the m conditioned x_i, slot (S, i) reading f_{i+1, S} from
    values[..., i, S, :]."""
    return {(s, i): values[..., i, s, :] for s in range(1 << m) for i in range(m)}


def _ip_stack(m: int, grid: FunctionGrid) -> np.ndarray:
    """The (m, 2^m, N) value stack of an m-IP grid, f_{i,S} at [i - 1, S]."""
    _ip_check(m, grid)
    return np.stack([[grid[(i, s)].values for s in range(1 << m)] for i in range(1, m + 1)])


def t_ips(m: int, values, p: int, n: int) -> np.ndarray:
    """E_{x_1..x_m} E_{y_S : S subset [m]} prod f_{i,S}(x_i + y_S) for each
    grid of the stack (..., m, 2^m, N), f_{i,S} at [..., i - 1, S, :]: the
    binary contraction over the whole group, on blocks of grids whose
    largest tables, N^max(2, m) entries per grid, fit
    DERIVATIVE_BLOCK_ENTRIES, one sum table per block. Counts the
    contraction's multiply-adds, 2^m N^(m+1) per grid, and N^2 per block."""
    if m > MAX_IP_M:
        raise CapExceeded(f"m = {m} exceeds the IP cap {MAX_IP_M}")
    values, sp = _group(values, p, n)
    N = sp.size
    if values.shape[-3:-1] != (m, 1 << m):
        raise ValueError(f"expected axes ({m}, {1 << m}, {N}), got shape {values.shape}")
    grids = values.reshape((-1, m, 1 << m, N))
    full = np.arange(N, dtype=np.int64)
    out = np.empty(len(grids), dtype=np.complex128)
    for block in _chunks(len(grids), N ** max(2, m)):
        out[block] = _binary_contract(sp, [full] * (1 << m), [full] * m,
                                      _ip_slots(m, grids[block]))
    return out.reshape(values.shape[:-3])


def t_ip(m: int, grid: FunctionGrid) -> complex:
    """`t_ips` of one grid."""
    return complex(t_ips(m, _ip_stack(m, grid), grid.p, grid.n))


def t_ip_local(m: int, linear: LinearFactor, codes, grid: FunctionGrid) -> complex:
    """Same average with every x_i confined to L(a1) and every y_S to L(a2),
    for the coset codes (a1, a2)."""
    values = _ip_stack(m, grid)
    if (linear.p, linear.n) != (grid.p, grid.n):
        raise ValueError("factor and grid on different groups")
    xs, ys = _coset_members(linear, codes)
    return complex(_binary_contract(linear.space, [ys] * (1 << m), [xs] * m,
                                    _ip_slots(m, values)))


def t_ip_naive(m: int, grid: FunctionGrid) -> complex:
    """Reference route: the literal nested sum over all m + 2^m variables,
    formed as one broadcast product of gathered tables."""
    _ip_check(m, grid)
    sp = space(grid.p, grid.n)
    N = sp.size
    nvars = m + (1 << m)
    if N ** nvars > GRID_CAP:
        raise CapExceeded("naive IP sum too large")
    idx = np.arange(N, dtype=np.int64)
    shape = (N,) * nvars
    prod = np.ones(shape, dtype=np.complex128)
    for i in range(m):
        for s in range(1 << m):
            xi = idx.reshape((1,) * i + (N,) + (1,) * (nvars - i - 1))
            ys = idx.reshape((1,) * (m + s) + (N,) + (1,) * (nvars - m - s - 1))
            prod = prod * grid[(i + 1, s)].values[sp.add(xi, ys)]
    return complex(prod.mean())


# ---------------------------------------------------------------------------
# IP2 operators
# ---------------------------------------------------------------------------

def _ip2_check(m: int, grid: FunctionGrid) -> None:
    if m > MAX_IP2_M:
        raise CapExceeded(f"m = {m} exceeds the IP2 cap {MAX_IP2_M}")
    _check_slots(grid, itertools.product(range(1, m + 1), range(1, m + 1), range(1 << (m * m))))


def t_ip2s(m: int, values, p: int, n: int) -> np.ndarray:
    """E_{x_i, y_j} E_{z_S : S subset [m]^2} prod f_{i,j,S}(x_i + y_j + z_S)
    for each grid of the stack (..., m, m, 2^(m^2), N), f_{i,j,S} at
    [..., i - 1, j - 1, S, :].

    On the whole group each z_S-average depends on the x's and y's only
    through their differences. For m = 1 it is the mean of f_{1,1,S}, so the
    average is the product of the two means. For m = 2, with h = x_2 - x_1
    and k = y_2 - y_1, it is

        g_S(h, k) = E_z f_11S(z) f_12S(z + k) f_21S(z + h) f_22S(z + h + k),

    and the average is E_{h,k} prod_S g_S(h, k). For fixed h, g_S is the
    correlation E_z P_S(z) Q_S(z + k) of P_S = f_11S f_21S(. + h) and
    Q_S = f_12S f_22S(. + h), that is the dual sum over t of
    conj DFT-(conj P_S)(t) DFT-(Q_S)(t) omega^(k.t). Each block of h from
    `spectral._derivative_blocks` holds the 32 tables conj P_S and Q_S of
    a block of grids, as many as fit all their h in one buffer, and takes
    one batched transform forward and one back to k. Cost O(p^(2n) p n)
    per grid; raises CapExceeded when p^(2n) > NAIVE_CAP. Counts, for
    m = 2, one term per shift-table entry and entries x p x n per
    transform, p^(2n) (48 p n + 1) for one grid, the shift table read once
    per block of grids; for m = 1, one term per entry averaged, 2 p^n per
    grid.
    """
    if m > MAX_IP2_M:
        raise CapExceeded(f"m = {m} exceeds the IP2 cap {MAX_IP2_M}")
    values, sp = _group(values, p, n)
    N, nsub = sp.size, 1 << (m * m)
    if values.shape[-4:-1] != (m, m, nsub):
        raise ValueError(f"expected axes ({m}, {m}, {nsub}, {N}), got shape {values.shape}")
    grids = values.reshape((-1, m, m, nsub, N))
    if m == 1:
        count_terms(2 * N * len(grids))
        means = grids[:, 0, 0].mean(axis=-1)
        return (means[:, 0] * means[:, 1]).reshape(values.shape[:-4])
    out = np.zeros(len(grids), dtype=np.complex128)
    for block in _chunks(len(grids), 2 * nsub * N * N):
        g = grids[block]
        a = np.concatenate([np.conj(g[:, 0, 0]), g[:, 0, 1]], axis=1).reshape(-1, N)
        b = np.concatenate([np.conj(g[:, 1, 0]), g[:, 1, 1]], axis=1).reshape(-1, N)
        for buf in _derivative_blocks(sp, a, b):
            t = fourier_transforms(buf.reshape((len(g), 2 * nsub) + buf.shape[1:]), p, n)
            corr = inverse_transforms(np.conj(t[:, :nsub]) * t[:, nsub:], p, n)
            out[block] += corr.prod(axis=1).reshape(len(g), -1).sum(axis=1)
    return (out / (N * N)).reshape(values.shape[:-4])


def _ip2_stack(m: int, grid: FunctionGrid) -> np.ndarray:
    """The (m, m, 2^(m^2), N) value stack of an m-IP2 grid, f_{i,j,S} at
    [i - 1, j - 1, S]."""
    _ip2_check(m, grid)
    return np.stack([[[grid[(i, j, s)].values for s in range(1 << (m * m))]
                      for j in range(1, m + 1)] for i in range(1, m + 1)])


def t_ip2(m: int, grid: FunctionGrid) -> complex:
    """`t_ip2s` of one grid."""
    return complex(t_ip2s(m, _ip2_stack(m, grid), grid.p, grid.n))


def t_ip2_local(m: int, factor: QuadraticFactor, codes, grid: FunctionGrid) -> complex:
    """The mu-weighted variant at the direction of codes (a1, a2, a3, b12,
    b13, b23): x_i in B(a1), y_j in B(a2), z_S in B(a3), with measure
    factors for every (x_i, y_j), (x_i, z_S), (y_j, z_S). The ternary
    operator of `ip2_hypergraph(m)` with every vertex and pair labeled by
    the direction (`constant_codes`), slot (i - 1, j - 1, S) reading
    f_{i, j, S}.

    With no forms, `t_ip2s` over F_p^(n - l) of the grid on the direction's
    target coset (`local_norms._target_stacks`): x_i + y_j + z_S is
    c_S + (i - 1) h + (j - 1) k for h = x_2 - x_1, k = y_2 - y_1 and
    c_S = x_1 + y_1 + z_S, and the c_S cover that coset uniformly and
    independently. The ternary operator is its twin there."""
    _ip2_check(m, grid)
    if (factor.p, factor.n) != (grid.p, grid.n):
        raise ValueError("factor and grid on different groups")
    if factor.q == 0:
        values = _ip2_stack(m, grid)
        rows = [values.reshape(-1, values.shape[-1])]
        (stack,) = _target_stacks(factor, np.asarray(codes, dtype=np.int64).reshape(1, 6), rows)
        return complex(t_ip2s(m, stack.reshape(values.shape[:-1] + (-1,)), factor.p,
                              factor.n - factor.ell))
    graph = ip2_hypergraph(m)
    slots = FunctionGrid({(i - 1, j - 1, s): g for (i, j, s), g in grid.mapping.items()})
    return t_ternary(TernaryContext(graph, factor, constant_codes(graph, codes)), slots)


def t_ip2_per_s_oracle(m: int, grid: FunctionGrid) -> complex:
    """Reference route for the global operator: explicit loops over the
    (x_i), (y_j) tuples, each z_S-average computed by its own direct loop
    in Python scalars, with sums read from the group's addition table."""
    _ip2_check(m, grid)
    sp = space(grid.p, grid.n)
    N = sp.size
    if N ** (2 * m + 1) * (1 << (m * m)) > GRID_CAP:
        raise CapExceeded("per-subset oracle too large")
    idx = np.arange(N, dtype=np.int64)
    add = sp.sum_grid(idx, idx).tolist()
    vals = {k: g.values.tolist() for k, g in grid.mapping.items()}
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


# ---------------------------------------------------------------------------
# extension counts
# ---------------------------------------------------------------------------

def _passing(tests: list, key: list) -> np.ndarray:
    """AND of the tests read at the rows key = [contexts, members of each
    head] (one array per entry)."""
    return functools.reduce(np.logical_and, (read((key[0], *[key[1 + h] for h in heads]))
                                             for heads, read in tests))


def _extension_count(nctx: int, head_sizes: list[int], free_sizes: list[int],
                     head_tests: list, free_tests: list) -> list[int]:
    """For each context c < nctx, the sum over the tuples of head members
    that pass every head test of the product over the free vertices of how
    many members pass every test of that vertex. A test is (heads, read):
    read((contexts, members of each of its heads)) gives, per row, a bool
    array over the members of the vertex it tests. head_tests[h] holds the
    tests of head h, whose heads come before h, and free_tests[f] (never
    empty) those of free vertex f; a padded member fails some test.

    The head tuples are joined one head at a time: each row (context,
    members so far) is extended by every member of the next head, in
    blocks of at most H_BLOCK_ENTRIES // (widest part) candidates, and
    only the rows that pass that head's tests are kept. A block's products
    are Python integers when a context's sum in it could overflow int64.
    Counts one term per candidate and test of its head, and one per (kept
    head tuple, free member) candidate."""
    step = max(1, H_BLOCK_ENTRIES // max(head_sizes + free_sizes))
    dtype = np.int64 if step * math.prod(free_sizes) < 1 << 63 else object
    totals = [0] * nctx

    def join(key: list, h: int):
        if h == len(head_sizes):
            yield key
            return
        chunk = max(1, step // head_sizes[h])
        for lo in range(0, key[0].size, chunk):
            part = [k[lo:lo + chunk] for k in key]
            count_terms(part[0].size * head_sizes[h] * len(head_tests[h]))
            ok = (_passing(head_tests[h], part) if head_tests[h]
                  else np.ones((part[0].size, head_sizes[h]), dtype=bool))
            rows, members = np.nonzero(ok)
            yield from join([k[rows] for k in part] + [members], h + 1)

    for key in join([np.arange(nctx)], 0):
        if not key[0].size:
            continue
        count_terms(key[0].size * sum(free_sizes))
        prod = np.ones(key[0].size, dtype=dtype)
        for tests in free_tests:
            prod *= _passing(tests, key).sum(axis=1)
        starts = np.flatnonzero(np.diff(key[0], prepend=-1))  # rows come by context
        for c, total in zip(key[0][starts].tolist(), np.add.reduceat(prod, starts).tolist()):
            totals[c] += total
    return totals


# ---------------------------------------------------------------------------
# bipartite multi-local operator
# ---------------------------------------------------------------------------

def t_bipartite(graph: PatternHypergraph, linear: LinearFactor, u_codes,
                v_codes, grid: FunctionGrid) -> complex:
    """E over x_u in L(d_u), y_v in L(d_v) of prod over ALL pairs (u, v) of
    f_{u,v}(x_u + y_v), for the coset codes d_u in u_codes and d_v in
    v_codes: the binary contraction, slot (u, v) reading f_{u,v}."""
    if len(graph.parts) != 2:
        raise ValueError("need a bipartite graph")
    if graph.nu > MAX_BIPARTITE_PART or graph.nv > MAX_BIPARTITE_PART:
        raise CapExceeded(f"bipartite parts capped at {MAX_BIPARTITE_PART}")
    if (linear.p, linear.n) != (grid.p, grid.n):
        raise ValueError("factor and grid on different groups")
    _check_slots(grid, graph.all_tuples())
    return complex(_binary_contract(linear.space, _coset_members(linear, u_codes),
                                    _coset_members(linear, v_codes),
                                    {t: grid[t].values for t in graph.all_tuples()}))


def witness_count_bipartite(graph: PatternHypergraph, linear: LinearFactor,
                            u_codes, v_codes, member: np.ndarray) -> int:
    """Number of tuples ((a_u), (b_v)) in the cosets of codes u_codes and
    v_codes with a_u + b_v in A exactly when (u, v) is an edge. The
    extension count with the b's as heads and the a's as free vertices:
    each (u, v) pair gets one table of the (b_v, a_u) that match, read
    through the sum table of the two cosets. Counts one term per (b's, a_u)
    candidate it forms and per sum-table entry."""
    if len(graph.parts) != 2:
        raise ValueError("need a bipartite graph")
    sp = linear.space
    member = np.asarray(member, dtype=bool)
    xs = _coset_members(linear, u_codes)
    ys = _coset_members(linear, v_codes)
    free_tests = []
    for u in range(graph.nu):
        tables = [member[sp.sum_grid(ys[v], xs[u])][None] == ((u, v) in graph.edges)
                  for v in range(graph.nv)]  # one context
        free_tests.append([((v,), t.__getitem__) for v, t in enumerate(tables)])
    return _extension_count(1, [y.size for y in ys], [x.size for x in xs], [[] for _ in ys],
                            free_tests)[0]


# ---------------------------------------------------------------------------
# ternary multi-local operator
# ---------------------------------------------------------------------------

class TernaryContext:
    """One labeled ternary pattern: the hypergraph, the factor and the codes
    of its labels, built once and read by every ternary routine.

    `codes` holds the atom code of every vertex (U, then V, then W) and the
    bilinear code of every pair ((u, v), then (u, w), then (v, w), each in
    lexicographic order); `constant_codes` labels every vertex and pair by
    one direction. Members, level masks and sizes are read from the
    factor's caches. Raises DegenerateContext when some triple names an
    empty atom or (with forms) an empty bilinear level set."""

    def __init__(self, graph: PatternHypergraph, factor: QuadraticFactor, codes) -> None:
        if len(graph.parts) != 3:
            raise ValueError("need a ternary hypergraph")
        if graph.nu > MAX_TERNARY_UV or graph.nv > MAX_TERNARY_UV:
            raise CapExceeded(f"ternary parts U, V capped at {MAX_TERNARY_UV}")
        if graph.nw > 16:
            raise CapExceeded("ternary part W capped at 16")
        nu, nv, nw = graph.parts
        vertices = nu + nv + nw
        self.codes = tuple(int(c) for c in codes)
        if len(self.codes) != vertices + nu * nv + nu * nw + nv * nw:
            raise ValueError("need one code per vertex and one per pair")
        _check_codes(self.codes[:vertices], factor.p ** factor.width)
        _check_codes(self.codes[vertices:], factor.p ** factor.q)
        self.graph = graph
        self.factor = factor
        empty = degenerate_directions(factor, self.triples())
        if empty.any():
            triple = list(graph.all_tuples())[int(empty.argmax())]
            raise DegenerateContext(f"triple {triple} names an empty atom or level set")

    def triples(self) -> np.ndarray:
        """The direction codes (a_u, b_v, c_w, d_uv, d_uw, d_vw) of every
        triple (u, v, w), in `graph.all_tuples()` order: one gather of
        `codes`."""
        return np.asarray(self.codes)[_triple_columns(*self.graph.parts)]


def constant_codes(graph: PatternHypergraph, codes) -> tuple:
    """The `TernaryContext.codes` that label every vertex and pair of a
    ternary hypergraph by one direction (a1, a2, a3, b12, b13, b23): a1 on
    U, a2 on V, a3 on W, and b12, b13, b23 on the pairs of U x V, U x W and
    V x W."""
    a1, a2, a3, b12, b13, b23 = (int(c) for c in codes)
    nu, nv, nw = graph.parts
    return ((a1,) * nu + (a2,) * nv + (a3,) * nw
            + (b12,) * (nu * nv) + (b13,) * (nu * nw) + (b23,) * (nv * nw))


@functools.lru_cache(maxsize=None)
def _triple_columns(nu: int, nv: int, nw: int) -> np.ndarray:
    """The columns of `TernaryContext.codes` that hold each triple's
    direction codes, one row per triple (u, v, w) in lexicographic order."""
    shape = _ternary_shape(nu, nv, nw)
    muv, muw, mvw = (dict(pairs) for pairs in (shape.muv, shape.muw, shape.mvw))
    return np.array([(shape.xs[u], shape.ys[v], shape.zs[w], muv[(u, v)], muw[(u, w)],
                      mvw[(v, w)]) for (u, v, w), _, _ in shape.values], dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _ternary_shape(nu: int, nv: int, nw: int) -> TernaryShape:
    """The shape of `TernaryContext.codes` followed by one value column per
    slot (u, v, w), in lexicographic order."""
    vertices = nu + nv + nw
    ends = np.cumsum([vertices, nu * nv, nu * nw, nv * nw]).tolist()
    slots = itertools.product(range(nu), range(nv), range(nw))
    return TernaryShape(
        tuple(range(nu)), tuple(range(nu, nu + nv)), tuple(range(nu + nv, vertices)),
        tuple((t, ends[3] + k, False) for k, t in enumerate(slots)),
        tuple(((u, v), ends[0] + u * nv + v) for u in range(nu) for v in range(nv)),
        tuple(((u, w), ends[1] + u * nw + w) for u in range(nu) for w in range(nw)),
        tuple(((v, w), ends[2] + v * nw + w) for v in range(nv) for w in range(nw)))


def _by_shape(ctxs: list[TernaryContext]) -> tuple[QuadraticFactor, dict]:
    """The factor that every context shares, and the positions of the
    contexts of each pattern shape (|U|, |V|, |W|), in order."""
    factor = ctxs[0].factor
    if any(c.factor is not factor for c in ctxs):
        raise ValueError("contexts on different factors")
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(ctxs):
        groups.setdefault(c.graph.parts, []).append(i)
    return factor, groups


def t_ternaries(ctxs: list[TernaryContext], grids: list[FunctionGrid]) -> list[complex]:
    """The ternary operator of every labeled hypergraph ctxs[i] on grids[i]:
    one ternary contraction per pattern shape (|U|, |V|, |W|)."""
    if len(ctxs) != len(grids):
        raise ValueError("need one grid per context")
    if not ctxs:
        return []
    factor, groups = _by_shape(ctxs)
    for c, g in zip(ctxs, grids):
        _check_slots(g, c.graph.all_tuples())
    fs = [g[t] for c, g in zip(ctxs, grids) for t in c.graph.all_tuples()]
    columns, arrays = value_columns(fs, factor.p, factor.n)
    slots = iter(columns)
    rows = [c.codes + tuple(itertools.islice(slots, math.prod(c.graph.parts))) for c in ctxs]
    out = np.zeros(len(ctxs), dtype=np.complex128)
    for shape, at in groups.items():
        out[at] = _ternary_contract(factor, _ternary_shape(*shape), [rows[i] for i in at], arrays)
    return [complex(v) for v in out]


def t_ternary(ctx: TernaryContext, grid: FunctionGrid) -> complex:
    """E over x_u, y_v, z_w in their atoms of all pair measures times the
    product of f_{u,v,w}(x_u + y_v + z_w) over ALL triples; the z_w-averages
    are independent once the x's and y's are fixed. The batch of one of
    `t_ternaries`."""
    return t_ternaries([ctx], [grid])[0]


def witness_counts_ternary(ctxs: list[TernaryContext], member: np.ndarray | None) -> list[int]:
    """For every labeled hypergraph ctxs[i], the number of configurations in
    I_F(e) whose membership pattern matches its edge set exactly: x_u + y_v
    + z_w in A iff (u, v, w) is an edge, for the set A of the bool array
    member; |I_F(e)| itself when member is None. Once the x's and y's are
    fixed the z_w are independent, so each is an extension count with the
    x's and y's as heads, tested by the level masks of (x_u, y_v), and the
    z's free, tested by the masks of (x_u, z_w) and (y_v, z_w) and, unless
    member is None, by member[x_u + y_v + z_w] == ((u, v, w) in edges).

    One extension count per pattern shape (|U|, |V|, |W|), as `t_ternaries`
    groups them, a block of contexts at a time: a block's member arrays and
    masks are stacked along a leading context axis, zero-padded to its
    largest atoms, in at most H_BLOCK_ENTRIES mask entries. Counts the
    extension count's terms and one per entry of the (kept tuple, z_w)
    index sums."""
    if not ctxs:
        return []
    factor, groups = _by_shape(ctxs)
    member = None if member is None else np.asarray(member, dtype=bool)
    out = [0] * len(ctxs)
    widest = int(factor.atom_sizes.max())
    for parts, rows in groups.items():
        nu, nv, nw = parts
        step = max(1, H_BLOCK_ENTRIES // ((nu * nv + nu * nw + nv * nw) * widest ** 2))
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            counts = _ternary_counts([ctxs[i] for i in block], member)
            for i, count in zip(block, counts):
                out[i] = count
    return out


def _ternary_counts(ctxs: list[TernaryContext], member: np.ndarray | None) -> list[int]:
    """`witness_counts_ternary` of one block of contexts of one shape."""
    factor, parts = ctxs[0].factor, ctxs[0].graph.parts
    nu, nv, nw = parts
    shape = _ternary_shape(nu, nv, nw)
    codes = np.array([c.codes for c in ctxs], dtype=np.int64)
    sizes = factor.atom_sizes
    xs, ys, zs = ([factor.member_table[codes[:, c], :sizes[codes[:, c]].max()] for c in cols]
                  for cols in (shape.xs, shape.ys, shape.zs))
    muv, muw, mvw = ({k: level_masks(factor, codes[:, list(cols)]).__getitem__ for k, cols in pairs}
                     for pairs in shape.pair_columns())
    # an x head keeps only its context's real members, not the padding
    head_tests = [[((), _unpadded(sizes[codes[:, c]]))] for c in shape.xs]
    head_tests += [[((u,), muv[(u, v)]) for u in range(nu)] for v in range(nv)]
    edges = {t: np.array([t in c.graph.edges for c in ctxs])
             for t in itertools.product(*map(range, parts))}
    free_tests = []
    for w in range(nw):
        tests = [((u,), muw[(u, w)]) for u in range(nu)]
        tests += [((nu + v,), mvw[(v, w)]) for v in range(nv)]
        if member is not None:
            tests += [((u, nu + v), _member_test(factor.space, member, xs[u], ys[v], zs[w],
                                                 edges[(u, v, w)]))
                      for u in range(nu) for v in range(nv)]
        free_tests.append(tests)
    return _extension_count(len(ctxs), [a.shape[1] for a in xs + ys],
                            [a.shape[1] for a in zs], head_tests, free_tests)


def _unpadded(lengths: np.ndarray):
    """The test that keeps the members of a zero-padded member stack below
    each context's length, read at rows (contexts,)."""
    positions = np.arange(lengths.max())
    return lambda key: positions < lengths[key[0], None]


def _member_test(sp: GroupSpace, member: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                 zs: np.ndarray, edge: np.ndarray):
    """The test member[x + y + z] == edge of a (u, v, w) slot, read at rows
    (contexts, x members, y members) over the z members; member arrays are
    (contexts, members) and edge has one flag per context."""
    def read(key: tuple) -> np.ndarray:
        c, i, j = key
        return member[sp.sums(sp.add(xs[c, i], ys[c, j])[:, None], zs[c])] == edge[c, None]
    return read


def witness_count_ternary(ctx: TernaryContext, member: np.ndarray) -> int:
    """Number of configurations in I_F(e) whose membership pattern matches
    the edge set exactly: the batch of one of `witness_counts_ternary`."""
    return witness_counts_ternary([ctx], member)[0]


def ternary_normalization(ctx: TernaryContext) -> Fraction:
    """The exact factor turning T_F(e)(1_A | 1_A^c) into the witness count:
    product of all atom sizes times product over pairs of |beta| / p^(2n),
    as one integer numerator and denominator."""
    factor = ctx.factor
    vertices = sum(ctx.graph.parts)
    num = math.prod(factor.atom_sizes[list(ctx.codes[:vertices])].tolist())
    if factor.q == 0:
        return Fraction(num)
    levels = list(ctx.codes[vertices:])
    num *= math.prod(bilinear_level_sizes(factor)[levels].tolist())
    return Fraction(num, factor.p ** (2 * factor.n * len(levels)))


def bipartite_normalization(graph: PatternHypergraph, linear: LinearFactor) -> int:
    """|L(0)|^(|U| + |V|): the factor turning T_F(d) into the witness count."""
    return (linear.p ** (linear.n - linear.ell)) ** (graph.nu + graph.nv)


# ---------------------------------------------------------------------------
# weighted ternary density
# ---------------------------------------------------------------------------

def weighted_ternary_densities(factor: QuadraticFactor, codes, members: list) -> list[float]:
    """For each row codes[i] = (a1, a2, a3, b12, b13, b23) of direction
    codes and membership array members[i] of a set A: E over the three
    atoms of 1_A(x + y + z) mu(x,y) mu(x,z) mu(y,z), in one ternary
    contraction with one vertex per part. Every sum x + y + z of nonzero
    weight lies in the direction's target atom (`sigma3_codes`), so the
    average is 0 when no triple has weight, as when that atom is empty.
    With no forms it is the mean of 1_A on the target coset
    (`local_norms._target_stacks`), counting one term per entry averaged;
    the contraction is its twin there. Raises DegenerateContext when one of
    the three atoms or levels is empty."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, 6)
    if len(codes) != len(members):
        raise ValueError("need one membership array per direction")
    if not members:
        return []
    if factor.q == 0:
        out = []
        for stack in _target_stacks(factor, codes, [[np.asarray(m, dtype=bool)] for m in members]):
            count_terms(stack.size)
            out += stack[:, 0].mean(axis=1).tolist()
        return out
    values = _ternary_contract(factor, _ternary_shape(1, 1, 1),
                               np.column_stack([codes, np.arange(len(members))]),
                               [np.asarray(m, dtype=bool).astype(np.float64) for m in members])
    return [float(v.real) for v in values]

