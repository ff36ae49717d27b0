"""Shattering-type searches (VC and VC2) and density / regularity
conclusions over quadratic factors.

Pattern conventions (all exhaustive searches, factorized over the completion
variable):

* k-IP: elements a_1..a_k and one b_S per S subset [k] with
  a_i + b_S in A iff i in S. Subset codes use bit i-1 for membership of i.
* m-IP2: a_i, b_j and one c_S per S subset [m]^2 with
  a_i + b_j + c_S in A iff (i, j) in S; bit (i-1)*m + (j-1) codes (i, j).

Both are covers: a pattern of w elements e_0..e_{w-1} (the a_i, or the
a_i + b_j) has a witness iff its membership codes sum_i 2^i [e_i + c in A]
take all 2^w values over the completions c. Searches fix a_1 = 0 (and
b_1 = 0 for IP2) by translation invariance and enumerate the remaining
elements in canonical order. One kernel, `_cover`, tests every candidate
for the last free element at once, so the first witness found is the
lexicographically least one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CapExceeded
from .factor import QuadraticFactor
from .fpn_core import H_BLOCK_ENTRIES, GroupVector, count_terms, space

MAX_IP_K = 4
MAX_IP2_M = 2
IP2_POINT_CAP = 3 ** 6
SHIFT_TABLE_CAP = 1 << 26
# codes one cover block forms at most (one candidate row when N is larger)
COVER_BLOCK = 1 << 16


class SubsetBitmask:
    """A subset of F_p^n as an immutable boolean table over canonical
    indices."""

    def __init__(self, p: int, n: int, bits) -> None:
        sp = space(p, n)
        arr = np.asarray(bits, dtype=bool)
        if arr.shape != (sp.size,):
            raise ValueError(f"expected {sp.size} bits, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.p = p
        self.n = n
        self.bits = arr

    @property
    def size(self) -> int:
        return int(self.bits.sum())

    def __contains__(self, x) -> bool:
        idx = x.index if isinstance(x, GroupVector) else int(x)
        return bool(self.bits[idx])

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubsetBitmask) and self.p == other.p
                and self.n == other.n and bool(np.array_equal(self.bits, other.bits)))

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.bits.tobytes()))

    @classmethod
    def from_indices(cls, p: int, n: int, indices) -> SubsetBitmask:
        bits = np.zeros(space(p, n).size, dtype=bool)
        bits[np.asarray(list(indices), dtype=np.int64)] = True
        return cls(p, n, bits)


def _shift_table(mask: SubsetBitmask) -> np.ndarray:
    """table[a, b] = membership of a + b as uint8; the per-element rows that
    every search reads. Filled H_BLOCK_ENTRIES index entries at a time,
    so the int64 sums never exist for the whole table at once."""
    sp = space(mask.p, mask.n)
    if sp.size * sp.size > SHIFT_TABLE_CAP:
        raise CapExceeded("shift table too large for exhaustive search")
    idx = np.arange(sp.size, dtype=np.int64)
    table = np.empty((sp.size, sp.size), dtype=np.uint8)
    rows = max(1, H_BLOCK_ENTRIES // sp.size)
    for start in range(0, sp.size, rows):
        table[start:start + rows] = mask.bits[sp.sum_grid(idx[start:start + rows], idx)]
    return table


@dataclass(frozen=True)
class WitnessCertificate:
    """A replayable pattern witness; `a`, `b`, `c` hold canonical indices.

    For IP, b[s] completes subset code s; for IP2, c[s] completes pattern
    code s.
    """

    kind: str
    p: int
    n: int
    a: tuple
    b: tuple
    c: tuple = field(default=())

    def elements(self) -> dict:
        gv = lambda i: GroupVector.from_index(self.p, self.n, int(i))
        out = {"a": [gv(i) for i in self.a], "b": [gv(i) for i in self.b]}
        if self.kind == "IP2":
            out["c"] = [gv(i) for i in self.c]
        return out

    def replay(self, mask: SubsetBitmask) -> bool:
        """Re-run every membership test in the defining pattern, adding by
        coordinates mod p, so it shares no code with the sum tables the
        search reads: pattern element i (a_i for IP, a_i + b_j in code order
        for IP2) plus the completion of code s lies in A iff bit i of s is
        set."""
        if (mask.p, mask.n) != (self.p, self.n):
            return False
        sp = space(self.p, self.n)

        def plus(x: int, y: int) -> int:
            return sp.index_of([u + v for u, v in zip(sp.coords_of(x), sp.coords_of(y))])

        if self.kind == "IP":
            elements, completions = self.a, self.b
        elif self.kind == "IP2":
            elements = [plus(a, b) for a in self.a for b in self.b]
            completions = self.c
        else:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if len(completions) != 1 << len(elements):
            return False
        return all(bool(mask.bits[plus(e, c)]) == bool(s >> i & 1)
                   for s, c in enumerate(completions) for i, e in enumerate(elements))


# the one candidate of a 1-IP or 1-IP2 search: the pattern element a_1 = 0
_ORIGIN = np.zeros((1, 1), dtype=np.int64)


def _cover(table: np.ndarray, candidates) -> tuple[tuple, tuple] | None:
    """The first covered candidate's pattern elements and its least
    completion per code, or None if no candidate is covered.

    `candidates` yields (R, w) arrays in search order, one row per
    candidate, listing its w <= 4 pattern elements in bit order. A row's
    codes over the completions c are sum_j 2^j table[row[j], c], and it is
    covered when they take all 2^w values. Rows are read in blocks of
    COVER_BLOCK // N rows (one row when N is larger), filled across
    successive arrays, the last block holding what is left. Counts one
    term per code formed.
    """
    step = max(1, COVER_BLOCK // table.shape[1])
    for block in _filled(candidates, step):
        full = (1 << (1 << block.shape[1])) - 1
        codes = table[block[:, 0]]
        for j in range(1, block.shape[1]):
            codes |= table[block[:, j]] << j
        count_terms(codes.size)
        seen = np.bitwise_or.reduce(np.left_shift(np.uint16(1), codes), axis=1)
        hit = np.flatnonzero(seen == full)
        if hit.size:
            _, firsts = np.unique(codes[hit[0]], return_index=True)
            return (tuple(int(e) for e in block[hit[0]]),
                    tuple(int(c) for c in firsts))
    return None


def _filled(arrays, step: int):
    """The rows of the arrays, in order, in blocks of step rows; the last
    block holds what is left."""
    pending, held = [], 0
    for rows in arrays:
        pending.append(rows)
        held += len(rows)
        if held < step:
            continue
        rows = np.concatenate(pending)
        stop = held - held % step
        for lo in range(0, stop, step):
            yield rows[lo:lo + step]
        pending, held = [rows[stop:]], held - stop
    if held:
        yield np.concatenate(pending)


def has_k_ip(mask: SubsetBitmask, k: int) -> WitnessCertificate | None:
    """Search for a k-IP configuration: a witness exists iff some tuple
    (0, a_2 < ... < a_k) makes all 2^k membership traces achievable over b.
    The elements after a_1 = 0 strictly increase, since the trace bits are
    permutable and repeated elements collapse traces; each head
    (0, a_2, ..., a_{k-1}) covers all of its a_k at once."""
    if k > MAX_IP_K:
        raise CapExceeded(f"k = {k} exceeds the IP search cap {MAX_IP_K}")
    if k < 1:
        raise ValueError("k must be positive")
    table = _shift_table(mask)
    N = table.shape[0]
    if k == 1:
        candidates = [_ORIGIN]
    else:
        heads = ((0,) + rest for rest in itertools.combinations(range(1, N), k - 2))
        candidates = (np.column_stack([np.tile(head, (N - 1 - head[-1], 1)),
                                       np.arange(head[-1] + 1, N)]) for head in heads)
    found = _cover(table, candidates)
    return None if found is None else WitnessCertificate("IP", mask.p, mask.n, *found)


def has_m_ip2(mask: SubsetBitmask, m: int) -> WitnessCertificate | None:
    """Search for an m-IP2 configuration; for fixed (a_i), (b_j) a witness
    exists iff every pattern code over [m]^2 is achieved by some c. Both
    a_1 = 0 and b_1 = 0 are fixed by translation; for m = 2 the candidate
    rows (0, b_2, a_2, a_2 + b_2) for every b_2 > a_2 are built for a run of
    consecutive a_2 at a time, about one cover block of rows. Swapping a_2
    and b_2 swaps code bits 1 and 2, so (a_2, b_2) is covered exactly when
    (b_2, a_2) is, and a_2 = b_2 repeats an element and covers nothing: the
    first covered pair in (a_2, b_2) order has a_2 < b_2, and the half scan
    finds it."""
    if m > MAX_IP2_M:
        raise CapExceeded(f"m = {m} exceeds the IP2 search cap {MAX_IP2_M}")
    if m < 1:
        raise ValueError("m must be positive")
    sp = space(mask.p, mask.n)
    N = sp.size
    if N > IP2_POINT_CAP:
        raise CapExceeded(f"group size {N} exceeds the IP2 point cap {IP2_POINT_CAP}")

    def rows():  # (0, b2, a2, a2 + b2), b2 > a2, for runs of a2 of about a block each
        step = max(1, COVER_BLOCK // N)
        lo = 1
        while lo < N - 1:
            hi, held = lo, 0
            while hi < N - 1 and held < step:
                held += N - 1 - hi
                hi += 1
            a2, b2 = np.nonzero(np.arange(N) > np.arange(lo, hi)[:, None])
            a2 += lo
            yield np.column_stack([np.zeros_like(b2), b2, a2, sp.add(a2, b2)])
            lo = hi

    candidates = [_ORIGIN] if m == 1 else rows()
    found = _cover(_shift_table(mask), candidates)
    if found is None:
        return None
    elements, firsts = found
    return WitnessCertificate("IP2", mask.p, mask.n, elements[::m], elements[:m], firsts)


def _dimension(search, mask: SubsetBitmask, cap: int) -> int:
    """Largest d <= cap for which search(mask, d) finds a witness; a return
    equal to cap means at-least-cap (the search stops there)."""
    dim = 0
    while dim < cap and search(mask, dim + 1) is not None:
        dim += 1
    return dim


def vc_dimension(mask: SubsetBitmask) -> int:
    """Largest k <= MAX_IP_K admitting a k-IP witness."""
    return _dimension(has_k_ip, mask, MAX_IP_K)


def vc2_dimension(mask: SubsetBitmask) -> int:
    """Largest m <= MAX_IP2_M admitting an m-IP2 witness."""
    return _dimension(has_m_ip2, mask, MAX_IP2_M)


def _atom_counts(mask: SubsetBitmask, factor: QuadraticFactor) -> tuple[np.ndarray, np.ndarray]:
    """(members of A, size) of every atom, indexed by label code, from one
    bincount over the points' label codes. Counts p^n terms."""
    if (mask.p, mask.n) != (factor.p, factor.n):
        raise ValueError("set and factor on different groups")
    count_terms(mask.bits.size)
    count = factor.p ** factor.width
    tally = np.bincount(factor._codes * 2 + mask.bits, minlength=2 * count).reshape(count, 2)
    return tally[:, 1], tally.sum(axis=1)


def density_profile(mask: SubsetBitmask, factor: QuadraticFactor) -> tuple[dict, int]:
    """Exact per-atom densities of A over the factor's nonempty atoms, and
    the number of empty atoms (excluded from the profile)."""
    inside, sizes = _atom_counts(mask, factor)
    densities = {label: Fraction(int(i), int(s))
                 for label, i, s in zip(factor.all_labels(), inside, sizes) if s}
    return densities, int((sizes == 0).sum())


def regularity_conclusion(mask: SubsetBitmask, factor: QuadraticFactor, mu) -> Fraction:
    """Fraction of nonempty atoms on which A is nearly empty or nearly
    full: density in [0, mu) or (1 - mu, 1]. A value near one says the
    factor explains A up to a mu-sized exceptional mass per atom."""
    mu = Fraction(mu).limit_denominator(10 ** 9) if not isinstance(mu, Fraction) else mu
    densities, _ = density_profile(mask, factor)
    if not densities:
        raise ValueError("factor has no nonempty atoms")
    good = sum(1 for d in densities.values() if d < mu or d > 1 - mu)
    return Fraction(good, len(densities))


def best_atom_union_approx(mask: SubsetBitmask, factor: QuadraticFactor) -> tuple[SubsetBitmask, int]:
    """Per-atom majority vote: keep atoms where A has density > 1/2 (ties
    dropped). Minimizes |A delta Y| over unions of atoms; the symmetric
    difference is sum of min(|A and B|, |B minus A|)."""
    inside, sizes = _atom_counts(mask, factor)
    keep = inside * 2 > sizes
    symdiff = int(np.where(keep, sizes - inside, inside).sum())
    return SubsetBitmask(mask.p, mask.n, keep[factor._codes]), symdiff
