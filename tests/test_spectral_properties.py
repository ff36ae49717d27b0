"""Property tests of the spectral U^3 route against its physical-space twin,
over random bounded tuples at every prime p in {3, 5, 7, 11, 13} and every n
with p^n within the reference cap. Needs the `hypothesis` test extra.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qflab.spectral import (  # noqa: E402
    U3_REFERENCE_CAP,
    GroupFunction,
    _box_sums,
    u2_inner,
    u3_inner,
    u3_inner_naive,
)

# every (p, n) with p^n within the reference cap of u3_inner_naive
REFERENCE_SIZES = [(p, n) for p in (3, 5, 7, 11, 13) for n in range(1, 4)
                   if p ** n <= U3_REFERENCE_CAP]


def _bounded_tuple(p, n, seed, count, diagonal):
    rng = np.random.default_rng(seed)
    fs = []
    for _ in range(1 if diagonal else count):
        vals = rng.standard_normal(p ** n) + 1j * rng.standard_normal(p ** n)
        fs.append(GroupFunction(p, n, vals / np.maximum(np.abs(vals), 1.0)))
    return fs * count if diagonal else fs


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from(REFERENCE_SIZES), seed=st.integers(0, 2 ** 32 - 1),
       diagonal=st.booleans())
def test_box_sum_matches_u2_shift_table_across_primes(size, seed, diagonal):
    # the Fourier-side contraction inside u3_inner, against u2_inner's shift table
    p, n = size
    f00, f01, f10, f11 = _bounded_tuple(p, n, seed, 4, diagonal)
    fast = complex(_box_sums(np.stack([f00.values, f01.values, f10.values, f11.values]),
                             p, n))
    assert abs(fast - u2_inner(f00, f01, f10, f11)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from(REFERENCE_SIZES), seed=st.integers(0, 2 ** 32 - 1),
       diagonal=st.booleans())
def test_spectral_u3_matches_reference_across_primes(size, seed, diagonal):
    octu = _bounded_tuple(*size, seed, 8, diagonal)
    assert abs(u3_inner(octu) - u3_inner_naive(octu)) <= 1e-12
