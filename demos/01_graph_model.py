"""
Edge-colored digraphs and permutations
======================================

A graph here is a total color assignment on ordered vertex pairs, stored as
an n x n integer matrix. Diagonal entries act as vertex colors; undirected
simple graphs are the special case of a loop / edge / non-edge coloring.
"""

import numpy as np

from autorbits import (
    EdgeColoredGraph,
    Permutation,
    apply_permutation,
    cycle_graph,
    is_automorphism,
    path_graph,
)

# The 5-cycle as a 3-color matrix.
c5 = cycle_graph(5)
print("C5 color matrix:")
print(c5.colors)
print("color_count (largest id + 1):", c5.color_count)

# Arbitrary pair colorings are fine too: a directed 3-cycle with a marked arc.
directed = EdgeColoredGraph(
    np.array(
        [
            [0, 1, 2],
            [2, 0, 3],
            [1, 2, 0],
        ]
    )
)
print("\ndirected, arc-colored triangle:")
print(directed.colors)

# Permutations act on graphs by relabeling both axes of the matrix.
rotate = Permutation([1, 2, 3, 4, 0])
print("\nrotating C5 leaves it fixed:", apply_permutation(c5, rotate) == c5)

# A path is preserved by its reversal but not by swapping an end into the middle.
p3 = path_graph(3)
print("reversal is an automorphism of P3:", is_automorphism(p3, Permutation([2, 1, 0])))
print("swapping 0 and 1 is not:        ", is_automorphism(p3, Permutation([1, 0, 2])))

# The rotation above, composed with itself, walks the whole cyclic group.
power = rotate
for _ in range(4):
    power = power.compose(rotate)
print("rotation to the fifth power is the identity:", power.is_identity())
