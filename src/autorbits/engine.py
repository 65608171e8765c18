"""Orbit engine: individualization to a regular stage, matching of the
resulting discrete colorings by trace digest and verified extraction,
join-based accumulation, a class-merge verification procedure, and an
isomorphism test that runs the same lock-step descent over two graphs.

The engine only ever *claims* what it can witness: every merge of two
vertices into one orbit class is backed by an explicitly verified
automorphism, so the reported partition is always finer-or-equal to the true
orbit partition. Exactness is certified by a sandwich argument: the
accumulated partition is a lower bound, the stable coloring an upper bound,
and when the two coincide the middle is pinned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InternalInvariantError, NotDiscreteError, SizeMismatchError
from .graphs import Permutation, apply_permutation, is_automorphism, is_integer
from .graphs import disjoint_union  # noqa: F401  (the benchmark tracer wraps engine.disjoint_union)
from .partitions import OrderedPartition, closure_orbits, partition_join
from .refinement import RefinementConfig, build_k1_terms, fix_sequence, refine
from .refinement import individualize_sequence  # noqa: F401  (the benchmark tracer wraps engine.individualize_sequence)

# Bound on one run's stage store, counted in stored vertex entries
# (stages times n). A stored stage is O(n), so this caps the store's memory
# while leaving room for every distinct fix sequence of a desk-scale run.
STAGE_STORE_VERTICES = 1 << 18

# Run.stage refines a stage at k=1 first once n^(k-1) reaches this.
ONE_WL_FIRST = 64
_ONE_WL = RefinementConfig(k=1)

CERTIFIED = "certified"
LOWER_BOUND = "lower_bound"

ISOMORPHIC = "isomorphic"
NON_ISOMORPHIC = "non_isomorphic"
INCONCLUSIVE = "inconclusive"


@dataclass
class RunStats:
    """Instrumentation counters for one engine run."""

    refine_calls: int = 0
    verify_tree_nodes: int = 0
    verify_tree_depth_max: int = 0
    depth_budget_hits: int = 0

    def as_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class StageGraph:
    """A base graph with an ordered fix sequence and its stable coloring."""

    base: object
    fixes: tuple
    coloring: object


@dataclass
class OrbitSystem:
    """Accumulated orbit partition, its witnesses, and the run outcome."""

    partition: OrderedPartition
    generators: tuple
    status: str
    stats: RunStats


@dataclass
class IsoResult:
    verdict: str
    witness: Permutation | None
    orbit_system: OrbitSystem | None  # always None; the benchmark tracer reads it
    stats: RunStats


class Run:
    """One search over one graph: its config, stats and stage store. Every
    search phase takes a run, and its result depends only on the run's
    graph, config and its own arguments, so a repeated call recalls its
    stages from the store. A stage is refined from the graph and its
    fixes, so at k=1 no individualized copy of the graph is made. At k=1
    the run builds the graph's k=1 pair terms once and passes them to every
    refine; at k >= 2 every k=1 pass builds and frees its own."""

    def __init__(self, g, cfg=None, stats=None):
        self.g = g
        self.cfg = cfg or RefinementConfig()
        self._k1_terms = build_k1_terms(g) if self.cfg.k == 1 else None
        self.stats = stats if stats is not None else RunStats()
        self._stages = {}

    def stage(self, fixes):
        """Stage of a fix sequence, refined once per run and then recalled.

        The store is least-recently-used: a hit moves its key to the back
        and an insert evicts from the front, so frequently asked stages
        (the base stage above all) stay resident.

        At k >= 2 with n^(k-1) >= ONE_WL_FIRST, the individualized graph is
        refined at k=1 first, and a discrete k=1 coloring is stored as the
        stage's coloring in place of the k-dimensional one. This changes no
        answer: k-WL refines 1-WL, so discreteness is the same either way;
        which kind a stage gets depends only on n, k and the k=1 result,
        all invariants of (g, fixes), so isomorphic stages get the same
        kind; the trace header packs k, so the two kinds never share a
        digest; and an isomorphism between discrete individualized graphs
        is unique, so witnesses and generators are the same permutations.
        Rigid inputs are almost always 1-WL-discrete, and then a stage costs
        n^2 per round instead of n^3. The gate keeps
        small stages off this path, where a k=1 pass that ends non-discrete
        costs about as much as the k=2 refine after it: 0.55-1.2 of it at
        n = 16, 0.1-0.2 at n = 64 (K_n, C_n and G(n, 1/2)).

        fixes come from outside the engine, so they are validated here
        (ValueError unless they are distinct vertices of the graph). The
        engine's own lookups go through _stage, which takes its fixes as
        given: they are tuples of distinct int vertices that the engine
        built itself. refine validates the fixes of every store miss.
        """
        return self._stage(fix_sequence(fixes, self.g.n))

    def _stage(self, fixes):
        """Run.stage of engine-built fixes, which it does not validate."""
        out = self._stages.pop(fixes, None)
        if out is None:
            self.stats.refine_calls += 1
            out = StageGraph(base=self.g, fixes=fixes, coloring=self._refine(fixes))
            capacity = max(1, STAGE_STORE_VERTICES // self.g.n)
            if len(self._stages) >= capacity:
                del self._stages[next(iter(self._stages))]
        self._stages[fixes] = out
        return out

    def _refine(self, fixes):
        k = self.cfg.k
        if k >= 2 and self.g.n ** (k - 1) >= ONE_WL_FIRST:
            coloring = refine(self.g, _ONE_WL, fixes)
            if coloring.is_discrete():
                return coloring
        return refine(self.g, self.cfg, fixes, self._k1_terms)


def _candidate_order(coloring, exclude=()):
    """Vertices of non-singleton classes, not in exclude: the smaller class
    first, then the earlier class (the sort is stable), then the smaller
    vertex."""
    class_of = coloring.vertex_partition.class_of
    size_of = np.bincount(class_of)[class_of]
    size_of[list(exclude)] = 1  # dropped below, as singletons are
    order = np.lexsort((class_of, size_of))
    return order[size_of[order] > 1].tolist()


def _extend(run, stage, keep, exclude=(), first=None):
    """Greedily lengthen stage's fix sequence while keep allows it.

    Each step fixes the first candidate (first, when given, is tried before
    all others at the first step) whose one-vertex extension satisfies keep.
    Returns the stage at which no candidate is kept.
    """
    while True:
        candidates = _candidate_order(stage.coloring, exclude)
        if first is not None:
            candidates = [first] + [c for c in candidates if c != first]
            first = None
        for y in candidates:
            trial = run._stage(stage.fixes + (y,))
            if keep(trial):
                stage = trial
                break
        else:
            return stage


def canonical_form_discrete(stage):
    """Deterministic byte form of a discrete stage.

    The base graph's matrix is rewritten in canonical class order and
    prefixed with the refinement trace digest (which also pins the
    individualized graph's order and color count). Two stages of one graph
    get equal forms exactly when the class-order bijection between them is
    a verified automorphism waiting to be extracted. The engine builds no
    forms: it matches discrete stages by trace digest and
    extract_isomorphism.
    """
    if not stage.coloring.is_discrete():
        raise NotDiscreteError("canonical form requires a discrete coloring")
    order = _class_order(stage)
    return stage.coloring.trace_digest + stage.base.colors[np.ix_(order, order)].tobytes()


def _class_order(stage):
    """Vertices of a discrete stage by class id: its class map's inverse."""
    return np.argsort(stage.coloring.vertex_partition.class_of)


def extract_isomorphism(s1, s2):
    """Class-order bijection between two discrete stages, fully verified.

    Returns None unless the bijection sends s1's fixes to s2's in order and
    maps s1's base graph onto s2's entrywise (an automorphism check when the
    two stages share their base). Together these say that it maps the
    individualized graphs onto each other. Never returns an unverified map.
    """
    if not s1.coloring.is_discrete() or not s2.coloring.is_discrete():
        raise NotDiscreteError("isomorphism extraction requires discrete stages")
    if (
        s1.base.n != s2.base.n
        or len(s1.fixes) != len(s2.fixes)
        or s1.coloring.trace_digest != s2.coloring.trace_digest
    ):
        return None
    # v, of class c in s1, goes to s2's vertex of class c.
    perm = Permutation(_class_order(s2)[s1.coloring.vertex_partition.class_of])
    if any(perm(a) != b for a, b in zip(s1.fixes, s2.fixes)):
        return None
    if s1.base is s2.base:
        return perm if is_automorphism(s1.base, perm) else None
    return perm if apply_permutation(s1.base, perm) == s2.base else None


def find_regular_stage(run, first_seed=None):
    """Extend a fix sequence until the coloring is non-discrete but any one
    further individualization makes it discrete.

    If the initial refinement is already discrete the empty-fix stage is
    returned immediately. first_seed, when given, is the first vertex tried;
    ValueError unless it is a vertex of run.g. Termination is guaranteed:
    fixing everything is discrete.
    """
    if first_seed is not None:
        (first_seed,) = fix_sequence((first_seed,), run.g.n)
    return _regular_stage(run, first_seed)


def _regular_stage(run, first_seed):
    """find_regular_stage from an engine-built first_seed, not validated."""
    stage = run._stage(())
    if stage.coloring.is_discrete():
        return stage
    return _extend(run, stage, lambda t: not t.coloring.is_discrete(), first=first_seed)


def stage_orbits(run, stage):
    """Orbits of the subgroup found by matching one-vertex extensions.

    Every vertex of every non-singleton stage class is individualized and
    refined. The first discrete extension with a given trace digest anchors
    it; each later one with that digest is matched to its anchor by
    extract_isomorphism, whose witnesses are verified automorphisms. An
    extension that does not match is left unmerged, which keeps the
    partition a lower bound. Returns the orbit partition of the witnessed
    subgroup together with the witnesses.
    """
    generators = []
    anchors = {}
    class_of = stage.coloring.vertex_partition.class_of
    by_class = np.argsort(class_of, kind="stable")
    for y in by_class[np.bincount(class_of)[class_of[by_class]] > 1].tolist():
        extension = run._stage(stage.fixes + (y,))
        if not extension.coloring.is_discrete():
            # Regular stages never produce this; tolerate it soundly by
            # leaving y unmerged.
            continue
        anchor = anchors.setdefault(extension.coloring.trace_digest, extension)
        if anchor is extension:
            continue
        witness = extract_isomorphism(anchor, extension)
        if witness is not None:
            generators.append(witness)
    return closure_orbits(run.g.n, generators), generators


def _default_depth_budget(n):
    return max(1, math.ceil(math.log2(max(2, n)))) + 1


def verify_merge(run, q_partition, class_a, class_b):
    """Search for an automorphism of run.g joining two classes of q_partition.

    The two classes are represented by their first members o1 and o2. If
    the base stage separates them there is none to find. Otherwise the
    twin step comes first: when the transposition (o1 o2) is itself an
    automorphism (o1 and o2 are twins: every other vertex sees them alike,
    and so do they each other), it is the witness, found by two O(n)
    comparisons and no refine. Else the search grows a fix sequence that
    keeps o1 and o2 in a common color class for as long as possible, then
    co-individualizes them and descends the resulting pair of colorings in
    lock step, one co-fixed vertex pair per level. The descent is cut at
    depth ceil(log2 n) + 1 and after max(64, 8 n) nodes. Either witness is
    verified entrywise before it is returned; None is *not* a proof that
    the classes are separate. q_partition must be a partition of run.g's
    vertices (SizeMismatchError otherwise), and the two classes distinct
    integer ids in [0, class_count) (ValueError otherwise; a bool counts
    as an integer).
    """
    if q_partition.n != run.g.n:
        raise SizeMismatchError("partition size does not match graph order")
    count = q_partition.class_count
    if class_a == class_b or not all(is_integer(c) and 0 <= c < count for c in (class_a, class_b)):
        raise ValueError(f"classes to merge must be distinct ids in [0, {count})")
    o1, o2 = q_partition.first_members()[[int(class_a), int(class_b)]].tolist()
    return _verify_merge(run, o1, o2)


def _verify_merge(run, o1, o2):
    """verify_merge of two distinct vertices of run.g, not validated."""

    def together(stage):
        class_of = stage.coloring.vertex_partition.class_of
        return class_of[o1] == class_of[o2]

    stage = run._stage(())
    if not together(stage):
        return None
    witness = _twin_swap(run.g, o1, o2)
    if witness is None:
        stage = _extend(run, stage, together, exclude={o1, o2})
        n = run.g.n
        t1 = run._stage(stage.fixes + (o1,))
        t2 = run._stage(stage.fixes + (o2,))
        # A successful search examines few graphs; a search past the node
        # budget is already failing, so give up on the witness rather than
        # enumerate.
        witness, _ = _descend(run, run, t1, t2, _default_depth_budget(n), max(64, 8 * n))
        if witness is None:
            return None
    if witness(o1) != o2 or not is_automorphism(run.g, witness):
        raise InternalInvariantError("merge witness failed verification")
    return witness


def _twin_swap(g, o1, o2):
    """The transposition (o1 o2) if it is an automorphism of g, else None.

    With swap its image array, the swap is an automorphism iff
    colors[swap][:, swap] equals colors. Only rows and columns o1 and o2
    can differ. Row o2 of the left side is colors[o1, swap] and column o2
    is colors[swap, o1], and row and column o1 agree exactly when these do
    (put swap(v) for v). So the two comparisons decide it, the diagonal
    and c(o1, o2) = c(o2, o1) included.
    """
    swap = np.arange(g.n)
    swap[[o1, o2]] = o2, o1
    colors = g.colors
    if np.array_equal(colors[o1, swap], colors[o2]) and np.array_equal(colors[swap, o1], colors[:, o2]):
        return Permutation(swap)
    return None


def _descend(run1, run2, s1, s2, depth_budget, node_budget):
    """Lock-step descent over co-individualized stage pairs.

    s1 and its extensions are stages of run1, s2 and its extensions stages
    of run2 (verify_merge passes one run twice). Each level fixes the first
    vertex a of s1's first non-singleton class and tries every b of the
    same class of s2, depth first, pruning on unequal traces; a discrete
    pair yields its class-order bijection once extract_isomorphism verifies
    it. Each visited pair spends two of node_budget.

    Returns (witness, cut): witness is None when no pair yielded one, and
    cut tells whether the node budget stopped the search before it was
    exhausted. The search is an explicit stack, so depth is not bounded by
    Python's recursion limit.
    """
    stats = run1.stats
    # One frame per open level: (level of its pairs, s1's extension, s2's
    # fixes, untried b of s2's target class).
    stack = []
    level = 1
    while True:
        if node_budget <= 0:
            return None, True
        node_budget -= 2
        stats.verify_tree_nodes += 2
        stats.verify_tree_depth_max = max(stats.verify_tree_depth_max, level)
        expanded = False
        if s1.coloring.trace_digest == s2.coloring.trace_digest:
            if s1.coloring.is_discrete():
                witness = extract_isomorphism(s1, s2)
                if witness is not None:
                    return witness, False
            elif level >= depth_budget:
                stats.depth_budget_hits += 1
            else:
                class_of1 = s1.coloring.vertex_partition.class_of
                target = np.argmax(np.bincount(class_of1) > 1)
                extended1 = run1._stage(s1.fixes + (int(np.argmax(class_of1 == target)),))
                (members2,) = np.nonzero(s2.coloring.vertex_partition.class_of == target)
                stack.append((level + 1, extended1, s2.fixes, iter(members2.tolist())))
                expanded = True
        # Next pair: the first child of an expanded pair, else the next
        # untried sibling at the deepest open level. A sibling is refined
        # only while budget remains; a first child meets the check on entry.
        while True:
            if not stack:
                return None, False
            level, s1, fixes2, untried = stack[-1]
            b = next(untried, None)
            if b is None:
                stack.pop()
                expanded = False
                continue
            if not expanded and node_budget <= 0:
                return None, True
            break
        s2 = run2._stage(fixes2 + (b,))


def _merge_candidates(q, stable):
    """Unordered pairs of q-classes sharing a stable class, as first-member
    pairs in (stable id, a, b) order, yielded lazily. A run calls this once:
    q only coarsens, so a later call would find no untried pair."""
    firsts = q.first_members()
    firsts = firsts[np.lexsort((firsts, stable.class_of[firsts]))]
    groups = np.split(firsts, np.flatnonzero(np.diff(stable.class_of[firsts])) + 1)
    return itertools.chain.from_iterable(itertools.combinations(group.tolist(), 2) for group in groups)


def _check_budget(budget):
    """ValueError unless budget is None or an integer >= 0 (a bool counts)."""
    if budget is not None and not (is_integer(budget) and budget >= 0):
        raise ValueError(f"budget must be an integer >= 0, got {budget!r}")


def compute_orbits(g, cfg=None, budget=None):
    """Accumulate an automorphic partition until it meets the stable coloring.

    Each iteration seeds a fresh fix sequence from the next class of the
    partition, finds a regular stage and joins in its orbit partition; the
    first alone then sweeps class pairs with verify_merge (see _verify_sweep).
    Status is certified when the partition reaches the stable coloring
    (sandwich certificate). Otherwise the run ends lower_bound, either when
    budget iterations are spent (default n - 1; budget 0 runs none) or when
    class-count - 1 iterations in a row leave the partition unchanged.
    budget must be None or an integer >= 0. Each verified generator is
    listed once, in the order it was first found.
    """
    _check_budget(budget)
    run = Run(g, cfg)
    stable = run._stage(()).coloring.vertex_partition
    q = OrderedPartition.singletons(g.n)
    generators = {}
    max_iters = budget if budget is not None else max(1, g.n - 1)
    no_change = 0

    for i in range(max_iters):
        if q.same_blocks(stable):
            break
        before = q
        seed = int(q.first_members()[i % q.class_count])
        stage = _regular_stage(run, seed)
        part, new_gens = stage_orbits(run, stage)
        generators.update(dict.fromkeys(new_gens))
        q = partition_join(q, part)
        if i == 0:
            # q only coarsens, so a later sweep would find only pairs tried here.
            q = _verify_sweep(run, q, stable, generators)
        if q.same_blocks(before):
            no_change += 1
            if no_change >= max(1, q.class_count - 1):
                break
        else:
            no_change = 0

    for w in generators:
        if not is_automorphism(g, w):
            raise InternalInvariantError("emitted generator is not an automorphism")
    status = CERTIFIED if q.same_blocks(stable) else LOWER_BOUND
    return OrbitSystem(q, tuple(generators), status, run.stats)


def _verify_sweep(run, q, stable, generators):
    """Try _verify_merge once on each candidate pair still of first members,
    adding witnesses to generators, until q meets stable. q only coarsens,
    so no candidate is left untried and the run needs no second sweep."""
    first_of = q.first_members()[q.class_of]
    for o1, o2 in _merge_candidates(q, stable):
        if first_of[o1] != o1 or first_of[o2] != o2:
            continue
        witness = _verify_merge(run, o1, o2)
        if witness is not None:
            generators[witness] = None
            q = partition_join(q, closure_orbits(run.g.n, [witness]))
            if q.same_blocks(stable):
                break
            first_of = q.first_members()[q.class_of]
    return q


def iso_test(g1, g2, cfg=None, budget=None):
    """Isomorphism test by lock-step descent over the two input graphs.

    The descent starts from the two base stages and, level by level, fixes
    the first vertex a of g1's first non-singleton class and tries every b
    of the same class of g2, pruning pairs with unequal refinement traces.
    A discrete pair yields its class-order bijection, verified entrywise,
    so false positives are impossible. A search exhausted without a
    node-budget cut proves non-isomorphism: an isomorphism phi maps a to
    the tried b = phi(a) and preserves traces at every level, and at a
    discrete leaf the class-order bijection is phi itself. A cut gives
    inconclusive. budget is the node budget in verify_tree_nodes units
    (two per stage pair), by default 128 n; it must be None or an integer
    >= 0.
    """
    _check_budget(budget)
    stats = RunStats()
    if g1.n != g2.n or g1.color_count != g2.color_count:
        return IsoResult(NON_ISOMORPHIC, None, None, stats)
    run1 = Run(g1, cfg, stats)
    run2 = Run(g2, cfg, stats)
    node_budget = budget if budget is not None else 128 * g1.n
    # A stage with n - 1 fixes is discrete, so level n is never cut.
    witness, cut = _descend(run1, run2, run1._stage(()), run2._stage(()), g1.n, node_budget)
    if witness is not None:
        return IsoResult(ISOMORPHIC, witness, None, stats)
    return IsoResult(INCONCLUSIVE if cut else NON_ISOMORPHIC, None, None, stats)
