"""
Orbit computation with certificates
===================================

The engine individualizes vertices until one more individualization would
make the coloring discrete (a "regular stage"), then groups the one-vertex
extensions by trace digest: each extension is matched to the first one
with its digest by a class-order bijection, kept only once it is verified
as an automorphism. Orbit partitions of the witnessed subgroups accumulate
by lattice join. When the accumulated partition reaches the stable coloring,
the sandwich (partition <= true orbits <= stable coloring) pins the answer
exactly and the run reports status "certified".
"""

from autorbits import (
    RefinementConfig,
    Run,
    brute_orbits,
    closure_orbits,
    compute_orbits,
    cycle_graph,
    disjoint_union,
    find_regular_stage,
    is_automorphism,
    petersen_graph,
)

k2 = RefinementConfig(k=2)

# A regular stage of C5: one fixed vertex is enough. The search phases take
# a Run, which holds one graph, its config, counters and stage store.
stage = find_regular_stage(Run(cycle_graph(5), RefinementConfig(k=1)))
print("C5 regular stage fixes:", stage.fixes)
print("stage classes:", stage.coloring.vertex_partition.classes)

# Full runs. Petersen is vertex-transitive; the union of two triangles has
# automorphisms exchanging the components; and the orbit partition always
# matches the closure of the emitted generators.
for name, graph in [
    ("Petersen", petersen_graph()),
    ("C3 + C3", disjoint_union(cycle_graph(3), cycle_graph(3))),
    ("C3 + C4", disjoint_union(cycle_graph(3), cycle_graph(4))),
]:
    system = compute_orbits(graph, k2)
    print(f"\n{name}: status={system.status}")
    print("  orbits:", system.partition.classes)
    print("  generators:", [w.as_list() for w in system.generators])
    assert all(is_automorphism(graph, w) for w in system.generators)
    assert closure_orbits(graph.n, list(system.generators)).same_blocks(system.partition)

# The brute-force oracle, its size cap raised from 8 to 10, confirms the
# certificate (10! maps, a few seconds).
pet = petersen_graph()
system = compute_orbits(pet, k2)
truth = brute_orbits(pet, max_n=10)
print("\noracle agrees on Petersen:", truth.same_blocks(system.partition))

# Run statistics expose how much work the engine did.
print("stats:", system.stats.as_dict())
