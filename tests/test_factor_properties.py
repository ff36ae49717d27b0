"""Property tests of the bilinear level-set sizes from form ranks against
their histogram twin, over random symmetric forms at every prime p in
{3, 5, 7, 11, 13}, q in {1, 2, 3} and every n with p^(2n) <= 2^20 (inside
the twin's cap). Needs the `hypothesis` test extra.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qflab.factor import (  # noqa: E402
    bilinear_level_sizes,
    new_linear_factor,
    new_quadratic_factor,
)
from qflab.fpn_core import ENTRY_CAP  # noqa: E402
from qflab.reference import bilinear_level_sizes_naive  # noqa: E402

PAIR_LIMIT = 1 << 20
LEVEL_SIZES = [(p, n) for p in (3, 5, 7, 11, 13) for n in range(1, 7)
               if p ** (2 * n) <= min(PAIR_LIMIT, ENTRY_CAP)]


@settings(max_examples=60, deadline=None)
@given(size=st.sampled_from(LEVEL_SIZES), q=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), zero_entries=st.booleans())
def test_level_sizes_from_ranks_match_the_histogram(size, q, seed, zero_entries):
    # sparse forms make low-rank combinations, including the zero form
    p, n = size
    rng = np.random.default_rng(seed)
    forms = []
    for _ in range(q):
        a = rng.integers(0, p, (n, n))
        if zero_entries:
            a *= rng.integers(0, 2, (n, n))
        forms.append((a + a.T) % p)
    factor = new_quadratic_factor(new_linear_factor(p, n, []), forms)
    sizes = bilinear_level_sizes(factor)
    assert np.array_equal(sizes, bilinear_level_sizes_naive(factor))
    assert sizes.sum() == p ** (2 * n)
