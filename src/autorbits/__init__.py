"""Automorphism orbits of edge-colored digraphs.

A graph here is any total color assignment on ordered vertex pairs. The
package computes the orbit partition of the automorphism group together
with a generating set of witnesses, via individualization and color
refinement, and certifies exactness whenever the accumulated partition
meets the stable coloring. A brute-force oracle provides ground truth for
small graphs.
"""

from .assembly import WindowSet, is_assembled, project_to_vertices, windows_of_matrix
from .engine import (
    CERTIFIED,
    INCONCLUSIVE,
    ISOMORPHIC,
    LOWER_BOUND,
    NON_ISOMORPHIC,
    IsoResult,
    OrbitSystem,
    Run,
    RunStats,
    StageGraph,
    canonical_form_discrete,
    compute_orbits,
    extract_isomorphism,
    find_regular_stage,
    iso_test,
    stage_orbits,
    verify_merge,
)
from .errors import (
    AutorbitsError,
    InternalInvariantError,
    InvalidPartitionError,
    NotDiscreteError,
    ParseError,
    ResourceLimitError,
    SizeLimitError,
    SizeMismatchError,
)
from .formats import (
    InputDocument,
    emit_cdg,
    load_document,
    parse_graph,
    parse_window_set,
    sniff_format,
)
from .graphs import (
    EdgeColoredGraph,
    Permutation,
    apply_permutation,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_undirected_edges,
    is_automorphism,
    path_graph,
    petersen_graph,
)
from .oracle import brute_aut, brute_iso, brute_orbits
from .partitions import OrderedPartition, closure_orbits, partition_join
from .refinement import RefinementConfig, StableColoring, individualize_sequence, refine

__version__ = "0.1.0"

__all__ = [
    "AutorbitsError",
    "CERTIFIED",
    "EdgeColoredGraph",
    "INCONCLUSIVE",
    "ISOMORPHIC",
    "InputDocument",
    "InternalInvariantError",
    "InvalidPartitionError",
    "IsoResult",
    "LOWER_BOUND",
    "NON_ISOMORPHIC",
    "NotDiscreteError",
    "OrbitSystem",
    "OrderedPartition",
    "ParseError",
    "Permutation",
    "RefinementConfig",
    "ResourceLimitError",
    "Run",
    "RunStats",
    "SizeLimitError",
    "SizeMismatchError",
    "StableColoring",
    "StageGraph",
    "WindowSet",
    "apply_permutation",
    "brute_aut",
    "brute_iso",
    "brute_orbits",
    "canonical_form_discrete",
    "closure_orbits",
    "complete_graph",
    "compute_orbits",
    "cycle_graph",
    "disjoint_union",
    "emit_cdg",
    "empty_graph",
    "extract_isomorphism",
    "find_regular_stage",
    "from_undirected_edges",
    "individualize_sequence",
    "is_assembled",
    "is_automorphism",
    "iso_test",
    "load_document",
    "parse_graph",
    "parse_window_set",
    "partition_join",
    "path_graph",
    "petersen_graph",
    "project_to_vertices",
    "refine",
    "sniff_format",
    "stage_orbits",
    "verify_merge",
    "windows_of_matrix",
]
