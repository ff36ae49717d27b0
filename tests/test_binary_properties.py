"""Property tests of the binary contraction against its reference twins at
every prime p in {3, 5, 7, 11, 13}: global m-IP against the literal nested
sum, the bipartite operator on random cosets against an explicit loop over
every vertex tuple, and the frequency-side local U^2 norm against the binary
contraction's four-vertex average.
Needs the `hypothesis` test extra.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qflab.errors import DependentVectors  # noqa: E402
from qflab.factor import new_linear_factor  # noqa: E402
from qflab.fpn_core import space  # noqa: E402
from qflab.local_norms import (  # noqa: E402
    GRID_CAP,
    LocalContext2,
    local_u2_inner,
    local_u2_norms,
)
from qflab.pattern_ops import (  # noqa: E402
    FunctionGrid,
    PatternHypergraph,
    t_bipartite,
    t_ip,
    t_ip_naive,
)
from qflab.spectral import GroupFunction  # noqa: E402

PRIMES = (3, 5, 7, 11, 13)
# (p, n, m) where the nested sum over N^(m + 2^m) terms fits GRID_CAP
IP_SIZES = [(p, n, m) for p in PRIMES for n in (1, 2) for m in (1, 2, 3)
            if (p ** n) ** (m + (1 << m)) <= GRID_CAP]
# (p, n, ell): cosets of p^(n - ell) points
LINEAR_SHAPES = [(3, 2, 0), (3, 3, 1), (3, 2, 1), (5, 1, 0), (5, 2, 1), (7, 2, 1), (11, 2, 1),
                 (13, 2, 1), (3, 3, 2), (5, 3, 2)]
LOOP_LIMIT = 20000  # most vertex tuples the explicit bipartite loop visits


def _bounded(rng, p, n):
    vals = rng.standard_normal(p ** n) + 1j * rng.standard_normal(p ** n)
    return GroupFunction(p, n, vals / np.maximum(np.abs(vals), 1.0))


def _random_linear(rng, p, n, ell):
    """A linear factor of ell random independent vectors."""
    while True:
        rows = rng.integers(0, p, (ell, n))
        try:
            return new_linear_factor(p, n, [tuple(int(v) for v in r) for r in rows])
        except DependentVectors:
            continue


def _label(rng, p, ell):
    return tuple(int(v) for v in rng.integers(0, p, ell))


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from(IP_SIZES), seed=st.integers(0, 2 ** 32 - 1),
       diagonal=st.booleans())
def test_ip_matches_the_nested_sum_across_primes(size, seed, diagonal):
    p, n, m = size
    rng = np.random.default_rng(seed)
    if diagonal:
        grid = FunctionGrid.ip_select(m, _bounded(rng, p, n), _bounded(rng, p, n))
    else:
        grid = FunctionGrid({(i, s): _bounded(rng, p, n) for i in range(1, m + 1)
                             for s in range(1 << m)})
    assert t_ip(m, grid) == pytest.approx(t_ip_naive(m, grid), rel=1e-10, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(LINEAR_SHAPES), nu=st.integers(1, 3), nv=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bipartite_matches_an_explicit_loop_on_random_cosets(shape, nu, nv, seed):
    p, n, ell = shape
    assume((p ** (n - ell)) ** (nu + nv) <= LOOP_LIMIT)
    rng = np.random.default_rng(seed)
    linear = _random_linear(rng, p, n, ell)
    u_labels = [_label(rng, p, ell) for _ in range(nu)]
    v_labels = [_label(rng, p, ell) for _ in range(nv)]
    graph = PatternHypergraph((nu, nv))
    grid = FunctionGrid({t: _bounded(rng, p, n) for t in graph.all_tuples()})
    xs = [linear.atom_indices(lab).tolist() for lab in u_labels]
    ys = [linear.atom_indices(lab).tolist() for lab in v_labels]
    cosets = space(p, ell)
    add = linear.space.sum_grid(np.arange(p ** n), np.arange(p ** n)).tolist()
    vals = {t: g.values.tolist() for t, g in grid.mapping.items()}
    total = 0.0 + 0.0j
    for xv in itertools.product(*xs):
        for yv in itertools.product(*ys):
            term = 1.0 + 0.0j
            for u in range(nu):
                for v in range(nv):
                    term *= vals[(u, v)][add[xv[u]][yv[v]]]
            total += term
    expected = total / math.prod(len(a) for a in xs + ys)
    val = t_bipartite(graph, linear, [cosets.index_of(lab) for lab in u_labels],
                      [cosets.index_of(lab) for lab in v_labels], grid)
    assert val == pytest.approx(expected, rel=1e-10, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(LINEAR_SHAPES), seed=st.integers(0, 2 ** 32 - 1))
def test_local_u2_norm_matches_the_binary_contraction(shape, seed):
    p, n, ell = shape
    rng = np.random.default_rng(seed)
    linear = _random_linear(rng, p, n, ell)
    ctx = LocalContext2(linear, [space(p, ell).index_of(_label(rng, p, ell)) for _ in range(2)])
    f = _bounded(rng, p, n)
    fourth = local_u2_norms(linear, [ctx.code], [f])[0] ** 4
    assert fourth == pytest.approx(local_u2_inner(ctx, f, f, f, f).real, rel=1e-9, abs=1e-13)
