"""
Isomorphism testing, including a classic hard pair
==================================================

Two graphs are tested by a lock-step descent: individualize a vertex of
the first graph and, in turn, each vertex of the matching class of the
second, refine both, and go on while the refinement traces agree. A
discrete pair with equal forms yields an explicit, entrywise-verified
isomorphism. A search that ends without hitting its node budget proves
non-isomorphism, since an isomorphism would have been followed down one of
the tried branches; when the budget cuts it, the verdict is "inconclusive".
False positives and false negatives are both impossible.

The 4x4 rook's graph and the Shrikhande graph are both strongly regular
with parameters (16, 6, 2, 2): plain refinement cannot tell them apart at
any of its dimensions below 3, but individualization changes that.
"""

import time

import numpy as np

from autorbits import (
    Permutation,
    RefinementConfig,
    apply_permutation,
    from_undirected_edges,
    iso_test,
)

k1 = RefinementConfig(k=1)
k2 = RefinementConfig(k=2)


def rook_4x4():
    edges = [(i, j) for i in range(16) for j in range(i + 1, 16)
             if i // 4 == j // 4 or i % 4 == j % 4]
    return from_undirected_edges(16, edges)


def shrikhande():
    offsets = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    edges = []
    for a in range(16):
        for b in range(a + 1, 16):
            d = ((a // 4 - b // 4) % 4, (a % 4 - b % 4) % 4)
            if d in offsets:
                edges.append((a, b))
    return from_undirected_edges(16, edges)


# A relabeled copy is always recognized, with a verified witness.
rng = np.random.default_rng(0)
g = rook_4x4()
perm = Permutation(rng.permutation(16))
h = apply_permutation(g, perm)
result = iso_test(g, h, k2)
print("rook vs relabeled rook:", result.verdict)
print("witness checks out:", apply_permutation(g, result.witness) == h)

# The hard pair: same degree sequence, same strongly-regular parameters,
# identical plain-refinement invariants at k=1 and k=2.
t0 = time.perf_counter()
strong = iso_test(rook_4x4(), shrikhande(), k2)
print(f"\nrook vs Shrikhande, k=2: {strong.verdict} ({time.perf_counter() - t0:.2f}s)")

# With k=1 no single individualization separates them, so the descent has
# to search: it exhausts every branch (113 stage pairs) and finds none that
# leads to an isomorphism.
t0 = time.perf_counter()
weak = iso_test(rook_4x4(), shrikhande(), k1)
print(f"rook vs Shrikhande, k=1: {weak.verdict} ({time.perf_counter() - t0:.2f}s, "
      f"{weak.stats.verify_tree_nodes // 2} stage pairs)")

# A node budget bounds the search; when it cuts the search short, the
# engine says so rather than guess.
cut = iso_test(rook_4x4(), shrikhande(), k1, budget=100)
print(f"rook vs Shrikhande, k=1, budget 100: {cut.verdict} (witness: {cut.witness})")
