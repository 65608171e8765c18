"""
Color refinement and individualization
======================================

Refinement repeatedly splits vertex (or pair) classes by the multiset of
colors each member sees, until nothing splits. The resulting stable coloring
is an upper bound on the orbit partition: every true orbit lies inside one
stable class. Individualizing a vertex (giving it a fresh color) before
refining models "what if this vertex were distinguishable".
"""

from autorbits import (
    RefinementConfig,
    complete_graph,
    cycle_graph,
    disjoint_union,
    individualize_sequence,
    path_graph,
    refine,
)

k1 = RefinementConfig(k=1)
k2 = RefinementConfig(k=2)

# Degree information alone separates the middle of a path from its ends.
print("P3, k=1 classes:", refine(path_graph(3), k1).vertex_partition.classes)

# A complete graph gives refinement nothing to work with...
print("K4, k=1 classes:", refine(complete_graph(4), k1).vertex_partition.classes)

# ...until somebody gets individualized. refine takes the fixes directly
# and gives what refining the individualized graph gives.
print("K4 with vertex 0 fixed:", refine(complete_graph(4), k1, [0]).vertex_partition.classes)
print("K4 with 0 and 1 fixed: ", refine(complete_graph(4), k1, [0, 1]).vertex_partition.classes)
same = refine(individualize_sequence(complete_graph(4), [0, 1]), k1)
print("  the same from the individualized graph:", same == refine(complete_graph(4), k1, [0, 1]))

# Fixing one vertex of C5 reveals the orbit structure of its stabilizer:
# the two neighbors are interchangeable, and so are the two far vertices.
print("C5 with v0 fixed:      ", refine(individualize_sequence(cycle_graph(5), [0]), k1).vertex_partition.classes)

# Walking V^2 instead of V sees strictly more. A triangle next to a square
# looks homogeneous to k=1 (everything has degree 2), but pair refinement
# notices that triangle edges close into triangles.
mixed = disjoint_union(cycle_graph(3), cycle_graph(4))
print("\nC3+C4, k=1 classes:", refine(mixed, k1).vertex_partition.classes)
print("C3+C4, k=2 classes:", refine(mixed, k2).vertex_partition.classes)

# On C5 the three atomic pair classes (loops, cycle edges, non-edges) are
# already stable: no round splits, and the vertices stay one class.
coloring = refine(cycle_graph(5), k2)
print("\nC5, k=2 classes:", coloring.vertex_partition.classes, "rounds:", coloring.rounds_used)
