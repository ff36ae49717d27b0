"""Shattering-type searches (VC and VC2) and density / regularity
conclusions over quadratic factors.

Pattern conventions (all exhaustive searches, factorized over the completion
variable):

* k-IP: elements a_1..a_k and one b_S per S subset [k] with
  a_i + b_S in A iff i in S. Subset codes use bit i-1 for membership of i.
* m-IP2: a_i, b_j and one c_S per S subset [m]^2 with
  a_i + b_j + c_S in A iff (i, j) in S; bit (i-1)*m + (j-1) codes (i, j).

Searches fix a_1 = 0 (and b_1 = 0 for IP2) by translation invariance and
enumerate the remaining elements in canonical order, so the first witness
found is the lexicographically least one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CapExceeded
from .factor import QuadraticFactor
from .fpn_core import GroupVector, count_terms, space

MAX_IP_K = 4
MAX_IP2_M = 2
IP2_POINT_CAP = 3 ** 5
SHIFT_TABLE_CAP = 1 << 26


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

    def complement(self) -> SubsetBitmask:
        return SubsetBitmask(self.p, self.n, ~self.bits)

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
    """table[a, b] = membership of a + b; the per-element rows that every
    search reads."""
    sp = space(mask.p, mask.n)
    if sp.size * sp.size > SHIFT_TABLE_CAP:
        raise CapExceeded("shift table too large for exhaustive search")
    idx = np.arange(sp.size, dtype=np.int64)
    return mask.bits[sp.sum_grid(idx, idx)]


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
        """Re-run every membership test in the defining pattern."""
        if (mask.p, mask.n) != (self.p, self.n):
            return False
        sp = space(self.p, self.n)
        inside = lambda i: bool(mask.bits[i])
        if self.kind == "IP":
            k = len(self.a)
            for s, bs in enumerate(self.b):
                for i in range(k):
                    want = bool(s >> i & 1)
                    if inside(sp.add(self.a[i], bs)) != want:
                        return False
            return True
        if self.kind == "IP2":
            m = len(self.a)
            for s, cs in enumerate(self.c):
                for i in range(m):
                    for j in range(m):
                        want = bool(s >> (i * m + j) & 1)
                        arg = sp.add(sp.add(self.a[i], self.b[j]), cs)
                        if inside(arg) != want:
                            return False
            return True
        raise ValueError(f"unknown certificate kind {self.kind!r}")


def _first_achievers(codes: np.ndarray, count: int) -> tuple | None:
    """Least witness index per code value, or None if some code is missed.
    Counts one term per code scanned."""
    count_terms(codes.size)
    hits = np.bincount(codes, minlength=count)
    if not hits.all():
        return None
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    starts = np.searchsorted(sorted_codes, np.arange(count))
    firsts = order[starts]
    return tuple(int(v) for v in firsts)


def has_k_ip(mask: SubsetBitmask, k: int) -> WitnessCertificate | None:
    """Search for a k-IP configuration: a witness exists iff some tuple
    (0, a_2 < ... < a_k) makes all 2^k membership traces achievable over b."""
    if k > MAX_IP_K:
        raise CapExceeded(f"k = {k} exceeds the IP search cap {MAX_IP_K}")
    if k < 1:
        raise ValueError("k must be positive")
    table = _shift_table(mask)
    N = table.shape[0]
    rows = table.astype(np.uint16)
    weights = [np.uint16(1 << i) for i in range(k)]
    zero_row = rows[0] * weights[0]
    # a_1 = 0 by translation; remaining elements strictly increasing since
    # the trace bits are permutable and repeated elements collapse traces
    for rest in itertools.combinations(range(1, N), k - 1):
        codes = zero_row.copy()
        for i, a in enumerate(rest):
            codes += rows[a] * weights[i + 1]
        firsts = _first_achievers(codes, 1 << k)
        if firsts is not None:
            return WitnessCertificate("IP", mask.p, mask.n, (0,) + rest, firsts)
    return None


def vc_dimension(mask: SubsetBitmask) -> int:
    """Largest k <= MAX_IP_K admitting a k-IP witness; a return equal to
    MAX_IP_K means at-least-MAX_IP_K (the search stops there)."""
    dim = 0
    for k in range(1, MAX_IP_K + 1):
        if has_k_ip(mask, k) is None:
            break
        dim = k
    return dim


def has_m_ip2(mask: SubsetBitmask, m: int) -> WitnessCertificate | None:
    """Search for an m-IP2 configuration; for fixed (a_i), (b_j) a witness
    exists iff every pattern code over [m]^2 is achieved by some c. Both
    a_1 = 0 and b_1 = 0 are fixed by translation."""
    if m > MAX_IP2_M:
        raise CapExceeded(f"m = {m} exceeds the IP2 search cap {MAX_IP2_M}")
    if m < 1:
        raise ValueError("m must be positive")
    sp = space(mask.p, mask.n)
    N = sp.size
    if N > IP2_POINT_CAP:
        raise CapExceeded(f"group size {N} exceeds the IP2 point cap {IP2_POINT_CAP}")
    table = _shift_table(mask)
    rows = table.astype(np.uint16)
    count = 1 << (m * m)
    if m == 1:
        firsts = _first_achievers(rows[0], 2)
        if firsts is None:
            return None
        return WitnessCertificate("IP2", mask.p, mask.n, (0,), (0,), firsts)
    for a2 in range(1, N):
        for b2 in range(1, N):
            codes = (rows[b2] * np.uint16(2)
                     + rows[sp.add(a2, 0)] * np.uint16(4)
                     + rows[sp.add(a2, b2)] * np.uint16(8))
            codes = codes + rows[0]
            firsts = _first_achievers(codes, count)
            if firsts is not None:
                return WitnessCertificate("IP2", mask.p, mask.n, (0, a2), (0, b2), firsts)
    return None


def vc2_dimension(mask: SubsetBitmask) -> int:
    """Largest m <= MAX_IP2_M admitting an m-IP2 witness (cap-limited like
    vc_dimension)."""
    dim = 0
    for m in range(1, MAX_IP2_M + 1):
        if has_m_ip2(mask, m) is None:
            break
        dim = m
    return dim


def density_profile(mask: SubsetBitmask, factor: QuadraticFactor) -> tuple[dict, int]:
    """Exact per-atom densities of A over the factor's nonempty atoms, and
    the number of empty atoms (excluded from the profile)."""
    if (mask.p, mask.n) != (factor.p, factor.n):
        raise ValueError("set and factor on different groups")
    densities: dict[tuple, Fraction] = {}
    empty = 0
    for label in factor.all_labels():
        members = factor.atom_indices(label.values)
        if members.size == 0:
            empty += 1
            continue
        densities[label.values] = Fraction(int(mask.bits[members].sum()), members.size)
    return densities, empty


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
    if (mask.p, mask.n) != (factor.p, factor.n):
        raise ValueError("set and factor on different groups")
    bits = np.zeros(mask.bits.size, dtype=bool)
    symdiff = 0
    for label in factor.all_labels():
        members = factor.atom_indices(label.values)
        if members.size == 0:
            continue
        inside = int(mask.bits[members].sum())
        outside = members.size - inside
        if inside * 2 > members.size:
            bits[members] = True
            symdiff += outside
        else:
            symdiff += inside
    return SubsetBitmask(mask.p, mask.n, bits), symdiff
