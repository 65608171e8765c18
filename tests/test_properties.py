"""Property tests of iso_test on random small graphs, against brute force."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from autorbits import (
    ISOMORPHIC,
    NON_ISOMORPHIC,
    Permutation,
    RefinementConfig,
    apply_permutation,
    brute_iso,
    iso_test,
)
from util import graph_from_bitmask


@st.composite
def graph_pairs(draw):
    n = draw(st.integers(1, 7))
    pairs = n * (n - 1) // 2
    g1 = graph_from_bitmask(n, draw(st.integers(0, (1 << pairs) - 1)))
    g2 = graph_from_bitmask(n, draw(st.integers(0, (1 << pairs) - 1)))
    perm = Permutation(np.array(draw(st.permutations(range(n))), dtype=np.int64))
    k = draw(st.sampled_from((1, 2)))
    return g1, g2, perm, RefinementConfig(k=k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graph_pairs())
def test_iso_test_is_sound_and_complete_on_small_graphs(case):
    g1, g2, perm, cfg = case
    h = apply_permutation(g1, perm)
    same = iso_test(g1, h, cfg)
    assert same.verdict == ISOMORPHIC
    assert apply_permutation(g1, same.witness) == h

    result = iso_test(g1, g2, cfg)
    if brute_iso(g1, g2) is None:
        assert result.verdict == NON_ISOMORPHIC and result.witness is None
    else:
        assert result.verdict == ISOMORPHIC
        assert apply_permutation(g1, result.witness) == g2
