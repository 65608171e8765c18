"""Shared helpers for randomized tests. Everything is seeded and deterministic."""

from itertools import product

import numpy as np

from autorbits import (
    CERTIFIED,
    LOWER_BOUND,
    EdgeColoredGraph,
    OrbitSystem,
    OrderedPartition,
    ParseError,
    Permutation,
    WindowSet,
    canonical_form_discrete,
    closure_orbits,
    engine,
    extract_isomorphism,
    formats,
    from_undirected_edges,
    is_automorphism,
    partition_join,
    refinement,
)
from autorbits.graphs import COLOR_LIMIT, from_adjacency

# Verified asymmetric graph on 6 vertices (brute force finds only the identity).
RIGID6_EDGES = [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3)]


def rigid6():
    return from_undirected_edges(6, RIGID6_EDGES)


def random_simple_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_undirected_edges(n, edges)


def random_colored_digraph(rng, n, colors=4):
    return EdgeColoredGraph(rng.integers(0, colors, size=(n, n)))


def random_permutation(rng, n):
    return Permutation(rng.permutation(n))


def graph_from_bitmask(n, mask):
    """Undirected graph on n vertices from an edge bitmask over i<j pairs."""
    edges = []
    bit = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mask >> bit & 1:
                edges.append((i, j))
            bit += 1
    return from_undirected_edges(n, edges)


def rook_graph_4x4():
    edges = [
        (i, j)
        for i in range(16)
        for j in range(i + 1, 16)
        if i // 4 == j // 4 or i % 4 == j % 4
    ]
    return from_undirected_edges(16, edges)


def paley_graph(q):
    """Paley graph of a prime q = 1 (mod 4): i ~ j when i - j is a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    edges = [(i, j) for i in range(q) for j in range(i + 1, q) if (j - i) % q in squares]
    return from_undirected_edges(q, edges)


def shrikhande_graph():
    offsets = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    edges = []
    for a in range(16):
        for b in range(a + 1, 16):
            d = ((a // 4 - b // 4) % 4, (a % 4 - b % 4) % 4)
            if d in offsets:
                edges.append((a, b))
    return from_undirected_edges(16, edges)


def hypercube_graph(d):
    """Q_d: vertices are d-bit words, adjacent when they differ in one bit."""
    edges = [(v, v ^ 1 << b) for v in range(1 << d) for b in range(d) if v < v ^ 1 << b]
    return from_undirected_edges(1 << d, edges)


def dodecahedron():
    """The generalized Petersen graph GP(10, 2): an outer 10-cycle, a spoke
    from each outer vertex i to inner vertex 10 + i, and inner vertices two
    steps apart joined."""
    edges = [e for i in range(10) for e in ((i, (i + 1) % 10), (i, 10 + i), (10 + i, 10 + (i + 2) % 10))]
    return from_undirected_edges(20, edges)


def cycle_union(*lengths):
    """Simple graph whose components are cycles of the given lengths. At
    k=1 refinement cannot tell its vertices apart."""
    edges, start = [], 0
    for m in lengths:
        edges += [(start + i, start + (i + 1) % m) for i in range(m)]
        start += m
    return from_undirected_edges(start, edges)


def form_grouped_stage_orbits(run, stage):
    """Reference for engine.stage_orbits that groups the discrete one-vertex
    extensions by their full canonical form: the first extension with a
    form anchors it, and each later one with an equal form must give a
    verified automorphism by extract_isomorphism, unless the generators so
    far already join its vertex with the anchor's last fix."""
    n = run.g.n
    generators = []
    groups = {}
    orbits = reference_join_pairs(n, [])
    for members in reference_classes(stage.coloring.vertex_partition):
        if len(members) < 2:
            continue
        for y in members:
            extension = run.stage(stage.fixes + (y,))
            if not extension.coloring.is_discrete():
                continue
            anchor = groups.setdefault(canonical_form_discrete(extension), extension)
            if orbits.class_of[anchor.fixes[-1]] == orbits.class_of[y]:
                continue
            witness = extract_isomorphism(anchor, extension)
            assert witness is not None, "equal canonical forms failed isomorphism extraction"
            generators.append(witness)
            orbits = reference_join_pairs(n, [(v, w(v)) for w in generators for v in range(n)])
    return orbits, generators


# Loop references for the array scans of partitions and the engine: the
# class lists that OrderedPartition once built on every construction, and
# the engine's candidate order and merge candidates read from them.


def reference_classes(partition):
    """Members of each class of partition, by class id, from one pass over
    the vertices."""
    members = [[] for _ in range(partition.class_count)]
    for v, c in enumerate(partition.class_of.tolist()):
        members[c].append(v)
    return tuple(map(tuple, members))


def reference_candidate_order(coloring, exclude=()):
    """Reference for engine._candidate_order."""
    classes = sorted(reference_classes(coloring.vertex_partition), key=len)
    return [v for members in classes if len(members) > 1 for v in members if v not in exclude]


def reference_merge_candidates(q, stable):
    """Reference for engine._merge_candidates."""
    by_stable = {}
    for members in reference_classes(q):
        by_stable.setdefault(int(stable.class_of[members[0]]), []).append(members)
    pairs = []
    for _, group in sorted(by_stable.items()):
        group.sort(key=lambda m: m[0])
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                pairs.append((group[i][0], group[j][0]))
    return pairs


def reference_join_pairs(n, pairs):
    """Reference for partitions.join_pairs: a Python disjoint-set union with
    path halving over an iterable of vertex pairs; output class ids follow
    smallest members."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # A root is its component's smallest member, so a class id is the
    # number of roots below it.
    roots = np.array([find(v) for v in range(n)], dtype=np.int64)
    ids = np.cumsum(roots == np.arange(n)) - 1
    return OrderedPartition(ids[roots])


def seeded_regular_stage(run, seed):
    """A regular stage whose search tries seed before every other vertex at
    its first step: the seed the iterated reference rotates.

    When the base stage and the stage of (seed,) are both non-discrete, the
    search extends from the stage of (seed,); otherwise it extends from the
    base stage, as engine.find_regular_stage does.
    """
    stage = run.stage(())
    if stage.coloring.is_discrete():
        return stage

    def keep(trial):
        return not trial.coloring.is_discrete()

    seeded = run.stage((seed,))
    return engine._extend(run, seeded if keep(seeded) else stage, keep)


def reference_compute_orbits(g, cfg=None):
    """Reference for engine.compute_orbits: the iterated algorithm that
    its one pass replaced.

    Each of up to n - 1 iterations finds a regular stage, joins in its
    stage orbits and sweeps; the run stops early once class-count - 1
    iterations in a row change nothing. The first iteration searches
    unseeded and is the one pass; each later one seeds its search from the
    next class of the partition (seeded_regular_stage). The engine's
    answers must equal the reference's, its generators be a prefix of the
    reference's, and its refines be no more (see tests/test_properties.py).

    Each sweep enumerates the merge candidates of the current partition
    afresh, skips the pairs that the run tried before (one set of them per
    run) and starts over after each merge, until a pass merges nothing or
    the partition meets the stable coloring. The stages, stage orbits and
    merges come from the engine's own find_regular_stage, stage_orbits and
    _verify_merge.
    """
    run = engine.Run(g, cfg)
    stable = run._stage(()).coloring.vertex_partition
    q = OrderedPartition.singletons(g.n)
    generators = {}
    attempted = set()
    no_change = 0
    for i in range(max(1, g.n - 1)):
        if q.same_blocks(stable):
            break
        before = q
        if i == 0:
            stage = engine.find_regular_stage(run)
        else:
            stage = seeded_regular_stage(run, int(q.first_members()[i % q.class_count]))
        part, new_gens = engine.stage_orbits(run, stage)
        generators.update(dict.fromkeys(new_gens))
        q = partition_join(q, part)
        while not q.same_blocks(stable):
            untried = [key for key in reference_merge_candidates(q, stable) if key not in attempted]
            for key in untried:
                attempted.add(key)
                witness = engine._verify_merge(run, *key)
                if witness is not None:
                    generators[witness] = None
                    q = partition_join(q, closure_orbits(g.n, [witness]))
                    break
            else:
                break
        if q.same_blocks(before):
            no_change += 1
            if no_change >= max(1, q.class_count - 1):
                break
        else:
            no_change = 0
    status = CERTIFIED if q.same_blocks(stable) else LOWER_BOUND
    return OrbitSystem(q, tuple(generators), status, run.stats)


def reference_verify_merge(run, o1, o2):
    """Reference for engine._verify_merge with no distance profiles: the
    base-stage test, the twin step, then a fix sequence extended past o1
    and o2 alone, and the descent."""

    def together(stage):
        class_of = stage.coloring.vertex_partition.class_of
        return class_of[o1] == class_of[o2]

    stage = run._stage(())
    if not together(stage):
        return None
    # The twin step: the swap (o1 o2) is an automorphism exactly when row
    # and column o2 are row and column o1 read through it, since only rows
    # and columns o1 and o2 move.
    swap = np.arange(run.g.n)
    swap[[o1, o2]] = o2, o1
    colors = run.g.colors
    witness = None
    if np.array_equal(colors[o1, swap], colors[o2]) and np.array_equal(colors[swap, o1], colors[:, o2]):
        witness = Permutation(swap)
    if witness is None:
        stage = engine._extend(run, stage, together, exclude={o1, o2})
        n = run.g.n
        t1 = run._stage(stage.fixes + (o1,))
        t2 = run._stage(stage.fixes + (o2,))
        witness, _ = engine._descend(run, run, t1, t2, engine._default_depth_budget(n), max(64, 8 * n))
        if witness is None:
            return None
    assert witness(o1) == o2 and is_automorphism(run.g, witness), "merge witness failed verification"
    return witness


def all_set_partitions(items):
    """Every set partition of items, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in all_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1:]
        yield [[head]] + sub


def exact_wl(g, k):
    """Sort-based k-dimensional refinement, an exact oracle for ``refine``.

    Cells of V^k start from their atomic type (the equality pattern and
    the colors among their entries) and are recolored by their old color
    and the sorted multiset, over every vertex x, of the colors of the
    cells with x substituted into each position (at k=1, of the raw pair
    colors to and from x with x's color). Returns the vertex classes as a
    set of frozensets and the number of rounds after the atoms that split.
    """
    n, c = g.n, g.colors.tolist()
    cells = list(product(range(n), repeat=k))
    color = {
        cell: (
            tuple(cell[a] == cell[b] for a in range(k) for b in range(a + 1, k)),
            tuple(c[cell[a]][cell[b]] for a in range(k) for b in range(k)),
        )
        for cell in cells
    }

    def seen(cell, x):
        if k == 1:
            return c[cell[0]][x], c[x][cell[0]], color[(x,)]
        return tuple(color[cell[:i] + (x,) + cell[i + 1:]] for i in range(k))

    rounds, count = -1, 0
    while True:
        ranks = {sig: i for i, sig in enumerate(sorted(set(color.values())))}
        color = {cell: ranks[sig] for cell, sig in color.items()}
        if len(ranks) == count:
            break
        rounds, count = rounds + 1, len(ranks)
        color = {cell: (color[cell], tuple(sorted(seen(cell, x) for x in range(n)))) for cell in cells}
    classes = {}
    for v in range(n):
        classes.setdefault(color[(v,) * k], set()).add(v)
    return {frozenset(members) for members in classes.values()}, rounds


def per_entry_k1_sums(g, diagonal, k1_terms):
    """Reference for the k=1 sums of ``refine``: a_j hashed afresh for every
    pair (u, w), the diagonal included, and S_j(u) = sum_w a_j(c(u,w),
    c(w,u)) h_j(id w) summed in uint64. It takes the place of the k=1 entry
    of the refinement module's ``_DIMENSIONS``, and reads g's own matrix,
    not the diagonal or terms refine passes: refine an individualized graph
    with no fixes under it.
    """
    assert np.array_equal(diagonal, g.colors.diagonal()), "refine with no fixes"
    colors = g.colors.view(np.uint64)
    code = colors.copy()
    refinement._mix(code, np.empty_like(code))
    code ^= colors.T
    pair = refinement._fields(code, refinement._A).astype(np.uint64)

    def sums(ids, table):
        h = table[: refinement._FIELDS, ids].astype(np.uint64)
        return (pair * h[:, None, :]).sum(axis=2).T

    return sums


# Reference parsers of the line formats: one Python pass per line and per
# token, the way the formats module read them before it tokenized with
# numpy, with its two later rules: a number is all ASCII digits, and a CDG
# or WS line past the declared rows is refused.


def _reference_records(payload):
    """(line number, fields) for each non-blank line."""
    try:
        text = payload.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not ASCII text: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields:
            yield lineno, fields


def _reference_header(records, form):
    magic = form.split()[0]
    lineno, fields = next(records, (None, None))
    if lineno is None:
        raise ParseError(f"empty {magic} input")
    if len(fields) != 3 or fields[0] != magic:
        raise ParseError(f"expected header {form!r}", line=lineno)
    if not (fields[1].isdigit() and fields[2].isdigit()):
        raise ParseError(f"non-numeric {magic} header", line=lineno)
    return lineno, int(fields[1]), int(fields[2])


def _reference_rows(records, count, width, bound=None):
    rows = []
    for lineno, fields in records:
        if len(rows) == count:
            raise ParseError(f"expected {count} rows, found more", line=lineno)
        if len(fields) != width:
            raise ParseError(f"expected {width} entries, found {len(fields)}", line=lineno)
        row = []
        for col, tok in enumerate(fields, start=1):
            if not tok.isdigit():
                raise ParseError(f"non-numeric entry {tok!r}", line=lineno, col=col)
            value = int(tok)
            if bound is not None and not 0 <= value < bound:
                raise ParseError(f"entry {value} outside [0, {bound})", line=lineno, col=col)
            row.append(value)
        rows.append(row)
    if len(rows) != count:
        raise ParseError(f"expected {count} rows, found {len(rows)}")
    return rows


def reference_cdg(payload):
    records = _reference_records(payload)
    lineno, n, c = _reference_header(records, "cdg N C")
    if n < 1 or c < 1:
        raise ParseError("cdg header out of range", line=lineno)
    formats._check_order(n)
    return EdgeColoredGraph(_reference_rows(records, n, n, bound=min(c, COLOR_LIMIT)))


def reference_ws(payload):
    records = _reference_records(payload)
    lineno, k, m = _reference_header(records, "ws K M")
    if k < 1 or m < 0:
        raise ParseError("ws header out of range", line=lineno)
    rows = _reference_rows(records, m, 2 * k)
    try:
        return WindowSet.from_elements(k, [(row[:k], row[k:]) for row in rows])
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def reference_dimacs(payload):
    n = declared_m = None
    edges = []
    for lineno, fields in _reference_records(payload):
        if fields[0].startswith("c"):
            continue
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError("expected 'p edge N M'", line=lineno)
            if not (fields[2].isdigit() and fields[3].isdigit()):
                raise ParseError("non-numeric problem line", line=lineno)
            n, declared_m = int(fields[2]), int(fields[3])
            if n < 1 or declared_m < 0:
                raise ParseError("problem line out of range", line=lineno)
            formats._check_order(n)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", line=lineno)
            if len(fields) != 3:
                raise ParseError("expected 'e U V'", line=lineno)
            if not (fields[1].isdigit() and fields[2].isdigit()):
                raise ParseError("non-numeric edge endpoints", line=lineno)
            u, v = int(fields[1]), int(fields[2])
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range 1..{n}", line=lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", line=lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown record {fields[0]!r}", line=lineno)
    if n is None:
        raise ParseError("missing problem line")
    if len(edges) != declared_m:
        raise ParseError(f"declared {declared_m} edges but found {len(edges)}")
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = True
    return from_adjacency(adj)
