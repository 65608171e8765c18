"""Brute-force ground truth for small graphs.

Everything here trades speed for obviousness: automorphisms come from
filtering all n! permutations, isomorphisms from the first lexicographic
match, orbits from closing generator images. The permutation scan is
vectorized in chunks so n = 8 stays in milliseconds and a raised
``max_n`` can still reach n = 10.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import SizeLimitError, SizeMismatchError
from .graphs import Permutation
from .partitions import join_pairs

_CHUNK = 40320


def _check_size(n, max_n):
    if n > max_n:
        raise SizeLimitError(
            f"brute force over {n}! permutations exceeds max_n={max_n}; "
            "raise max_n (CLI: --max-n) to allow it"
        )


@lru_cache(maxsize=6)
def _small_pool(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _perm_chunks(n):
    """All n! permutations in lexicographic order, as (m, n) arrays."""
    if n <= 8:
        yield _small_pool(n)
        return
    it = itertools.permutations(range(n))
    while True:
        block = list(itertools.islice(it, _CHUNK))
        if not block:
            return
        yield np.array(block, dtype=np.int64)


def brute_aut(g, max_n=8):
    """All automorphisms of g, lexicographic by image sequence; refuses
    n > max_n."""
    _check_size(g.n, max_n)
    colors = g.colors
    found = []
    for pool in _perm_chunks(g.n):
        mapped = colors[pool[:, :, None], pool[:, None, :]]
        ok = (mapped == colors).all(axis=(1, 2))
        found.extend(Permutation(img) for img in pool[ok])
    return found


def brute_orbits(g, max_n=8):
    """Orbit partition of Aut(g), via closure of the enumerated group."""
    return closure_orbits(g.n, brute_aut(g, max_n))


def brute_iso(g1, g2, max_n=8):
    """First lexicographic permutation mapping g1's matrix onto g2's, or None."""
    if g1.n != g2.n:
        raise SizeMismatchError("graphs have different orders")
    _check_size(g1.n, max_n)
    for pool in _perm_chunks(g1.n):
        mapped = g2.colors[pool[:, :, None], pool[:, None, :]]
        ok = (mapped == g1.colors).all(axis=(1, 2))
        hits = np.flatnonzero(ok)
        if hits.size:
            return Permutation(pool[hits[0]])
    return None


def closure_orbits(n, gens):
    """Orbit partition of the group generated by gens.

    Computed by transitively closing generator images on vertices; the group
    itself is never enumerated. Class ids follow smallest members.
    """
    gens = list(gens)
    if any(p.n != n for p in gens):
        raise SizeMismatchError("generator size does not match n")
    return join_pairs(n, ((v, w) for p in gens for v, w in enumerate(p.image.tolist())))
