"""Seeded benchmark corpus: graphs, pairs and input files for each workload.

Everything here is plain numpy and independent of ``autorbits``, so the
outside soundness checks in ``checks.py`` never lean on the code they judge.
A graph is a square int64 color matrix in the convention of the package's
undirected constructors: 0 on the diagonal, 1 for an edge, 2 for a
non-edge. Colored digraphs use any non-negative ids.

The same seed always gives the same matrices, relabelings and file bytes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

LOOP, EDGE, NON_EDGE = 0, 1, 2

ORBITS = "orbits"
ISO = "iso"
CLI = "cli"


@dataclass
class Op:
    """One benchmark operation and what its answer must be.

    ``expect`` holds construction facts checked outside the timed region:
    ``orbits`` (exact orbit count), ``by_component_size`` (the orbits are
    the vertex sets of equal-size components, as for unions of cycles),
    ``status`` (required status), ``verdict`` (required verdict),
    ``not_verdict`` (forbidden verdict) and ``rigid`` (discrete orbits, no
    generators). ``relabeling`` is the permutation that made the second graph
    of a relabel pair; ``path`` and ``fmt`` name the input file of a CLI op.
    """

    name: str
    kind: str
    k: int
    graphs: tuple
    expect: dict = field(default_factory=dict)
    relabeling: np.ndarray | None = None
    path: str | None = None
    fmt: str | None = None


# ---------------------------------------------------------------- families


def from_adjacency(adj):
    adj = np.asarray(adj, dtype=bool)
    mat = np.where(adj, EDGE, NON_EDGE).astype(np.int64)
    np.fill_diagonal(mat, LOOP)
    return mat


def circulant(n, jumps):
    d = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    allowed = np.zeros(n, dtype=bool)
    for j in jumps:
        allowed[j % n] = allowed[-j % n] = True
    return from_adjacency(allowed[d])


def cycle(n):
    return circulant(n, [1])


def path(n):
    i = np.arange(n)
    return from_adjacency(np.abs(i[:, None] - i[None, :]) == 1)


def complete(n):
    return from_adjacency(~np.eye(n, dtype=bool))


def empty(n):
    return from_adjacency(np.zeros((n, n), dtype=bool))


def hypercube(d):
    x = np.arange(1 << d)
    diff = x[:, None] ^ x[None, :]
    return from_adjacency((diff != 0) & ((diff & (diff - 1)) == 0))


def rook(m):
    r, c = np.divmod(np.arange(m * m), m)
    same = (r[:, None] == r[None, :]) ^ (c[:, None] == c[None, :])
    return from_adjacency(same)


def shrikhande():
    a, b = np.divmod(np.arange(16), 4)
    da = (a[None, :] - a[:, None]) % 4
    db = (b[None, :] - b[:, None]) % 4
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    adj = np.zeros((16, 16), dtype=bool)
    for x, y in steps:
        adj |= (da == x) & (db == y)
    return from_adjacency(adj)


def paley(q):
    residues = {(x * x) % q for x in range(1, q)}
    return circulant(q, sorted(residues))


def generalized_petersen(n, k):
    """GP(n, k): outer cycle, spokes, inner star polygon (k=2, n=10 is the
    dodecahedron; n=5 is the Petersen graph)."""
    adj = np.zeros((2 * n, 2 * n), dtype=bool)
    i = np.arange(n)
    adj[i, (i + 1) % n] = True
    adj[i, n + i] = True
    adj[n + i, n + (i + k) % n] = True
    return from_adjacency(adj | adj.T)


def disjoint(*mats):
    n = sum(m.shape[0] for m in mats)
    out = np.full((n, n), NON_EDGE, dtype=np.int64)
    at = 0
    for m in mats:
        s = m.shape[0]
        out[at:at + s, at:at + s] = m
        at += s
    return out


def colored_circulant(rng, n, colors):
    """Circulant digraph whose arc color depends on the (directed) jump."""
    by_jump = rng.integers(1, colors + 1, size=n)
    by_jump[0] = 0
    d = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return by_jump[d].astype(np.int64)


def relabel(mat, perm):
    """Image of mat under perm: out[perm[u], perm[v]] == mat[u, v]."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return mat[np.ix_(inv, inv)]


# ------------------------------------------------------- certified rigidity


def wl_colors(mat):
    """Stable 1-dimensional Weisfeiler-Leman vertex colors of a color matrix.

    An independent, hash-free refinement: each round a vertex's new color is
    the rank of (old color, sorted multiset of (out color, in color, color
    of the other end)). The rank is by raw row bytes, which is a function of
    the row's content alone, so automorphisms preserve the result and a
    discrete outcome proves the graph rigid.
    """
    n = mat.shape[0]
    width = int(mat.max()) + 1
    base = mat * width + mat.T
    _, ords = np.unique(np.diagonal(mat), return_inverse=True)
    ords = ords.reshape(n)
    count = int(ords.max()) + 1
    while True:
        enc = base * (n + 1) + ords[None, :]
        enc.sort(axis=1)
        rows = np.ascontiguousarray(np.concatenate((ords[:, None], enc), axis=1))
        keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
        _, new = np.unique(keys, return_inverse=True)
        new = new.reshape(n)
        new_count = int(new.max()) + 1
        if new_count == count:
            return ords
        ords, count = new, new_count


def is_certifiably_rigid(mat):
    return np.unique(wl_colors(mat)).size == mat.shape[0]


def rigid_gnp(rng, n):
    """G(n, 1/2) resampled until 1-WL is discrete (hence asymmetric)."""
    while True:
        upper = np.triu(rng.random((n, n)) < 0.5, 1)
        mat = from_adjacency(upper | upper.T)
        if is_certifiably_rigid(mat):
            return mat


def rigid_colored_digraph(rng, n, colors):
    """Uniform arc colors in [1, colors] with loops 0, resampled until rigid."""
    while True:
        mat = rng.integers(1, colors + 1, size=(n, n)).astype(np.int64)
        np.fill_diagonal(mat, 0)
        if is_certifiably_rigid(mat):
            return mat


# ----------------------------------------------------------------- writers


def _graph6_size(n):
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise ValueError("graph6 writer supports n <= 258047")


def write_graph6(mat):
    """graph6 bytes of a simple undirected graph (edge color EDGE)."""
    n = mat.shape[0]
    rows, cols = np.tril_indices(n, -1)
    # Column-major upper triangle: for j in 1..n-1, for i < j, bit (i, j).
    bits = (mat[cols, rows] == EDGE).astype(np.uint8)
    bits = np.concatenate((bits, np.zeros(-bits.size % 6, dtype=np.uint8)))
    groups = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    return _graph6_size(n) + (groups + 63).astype(np.uint8).tobytes() + b"\n"


def write_dimacs(mat):
    n = mat.shape[0]
    u, v = np.nonzero(np.triu(mat == EDGE, 1))
    buf = io.BytesIO()
    buf.write(f"p edge {n} {u.size}\n".encode())
    np.savetxt(buf, np.column_stack((u + 1, v + 1)), fmt="e %d %d")
    return buf.getvalue()


def write_cdg(mat):
    n = mat.shape[0]
    buf = io.BytesIO()
    buf.write(f"cdg {n} {int(mat.max()) + 1}\n".encode())
    np.savetxt(buf, mat, fmt="%d", delimiter=" ")
    return buf.getvalue()


WRITERS = {"graph6": write_graph6, "dimacs": write_dimacs, "cdg": write_cdg}


# --------------------------------------------------------------- workloads


def cycles(lengths):
    """Expectation for a union of cycles: one orbit per cycle length."""
    return {"orbits": len(set(lengths)), "by_component_size": True, "status": "lower_bound"}


def _rng(seed, workload):
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _perm(rng, n):
    return rng.permutation(n).astype(np.int64)


def orbits_symmetric(seed):
    """Structured families in their natural labeling; the seed draws the
    colored circulant's arc colors.

    The engine's search path, and so its cost, depends on the labeling: one
    relabeling can halve or double one op. Natural labelings keep that luck
    out of this workload's figures; ``iso-pairs`` runs relabeled inputs.
    """
    rng = _rng(seed, "orbits-symmetric")
    one = {"orbits": 1, "status": "certified"}
    plan = [
        ("petersen", 2, generalized_petersen(5, 2), one),
        ("q4", 2, hypercube(4), one),
        ("q5", 2, hypercube(5), one),
        ("rook4", 2, rook(4), one),
        ("shrikhande", 2, shrikhande(), one),
        ("paley13", 2, paley(13), one),
        ("paley29", 2, paley(29), one),
        ("c30", 2, cycle(30), one),
        ("circ24_1_5", 2, circulant(24, [1, 5]), one),
        ("dodecahedron", 2, generalized_petersen(10, 2), one),
        ("colored_circ40", 2, colored_circulant(rng, 40, 4), one),
        ("k20", 2, complete(20), one),
        ("empty20", 2, empty(20), one),
        ("p21", 2, path(21), {"orbits": 11, "status": "certified"}),
        ("q6", 1, hypercube(6), one),
        ("k40", 1, complete(40), one),
        ("paley29", 1, paley(29), one),
        # 1-WL cannot tell the cycle lengths apart, so these stay lower_bound.
        ("c20+c21", 1, disjoint(cycle(20), cycle(21)), cycles((20, 21))),
        ("3c3+3c4", 1, disjoint(*[cycle(3)] * 3, *[cycle(4)] * 3), cycles((3, 3, 3, 4, 4, 4))),
        ("petersen", 3, generalized_petersen(5, 2), one),
        ("q3", 3, hypercube(3), one),
    ]
    return [Op(f"{name}@k{k}", ORBITS, k, (mat,), dict(expect)) for name, k, mat, expect in plan]


def iso_pairs(seed):
    """Relabel pairs (isomorphic by construction) and known non-isomorphic
    pairs. A relabel pair's second graph is a relabeling of its first; both
    graphs of a non-isomorphic pair are relabeled.

    The seed draws the random graphs and their relabelings. The structured
    pairs take their relabelings from a fixed stream instead: on them the
    engine's search, and so its cost, depends on the labeling (one
    rook/Shrikhande relabeling took 1.6x another), which would otherwise
    swamp what a change to the engine moves.
    """
    rng = _rng(seed, "iso-pairs")
    fixed = _rng(0, "iso-pairs-structured")
    iso = {"verdict": "isomorphic"}
    non_iso = {"not_verdict": "isomorphic"}
    ops = []

    def twin(name, k, mat, stream):
        perm = _perm(stream, mat.shape[0])
        ops.append(Op(f"{name}@k{k}", ISO, k, (mat, relabel(mat, perm)), dict(iso), perm))

    def pair(name, k, a, b, stream):
        a = relabel(a, _perm(stream, a.shape[0]))
        b = relabel(b, _perm(stream, b.shape[0]))
        ops.append(Op(f"{name}@k{k}", ISO, k, (a, b), dict(non_iso)))

    for n, k in ((20, 2), (30, 2), (60, 1), (100, 1)):
        twin(f"rigid{n}", k, rigid_gnp(rng, n), rng)
    twin("petersen", 2, generalized_petersen(5, 2), fixed)
    twin("q4", 2, hypercube(4), fixed)
    twin("circ24_1_5", 2, circulant(24, [1, 5]), fixed)
    twin("c30", 1, cycle(30), fixed)
    twin("paley13", 1, paley(13), fixed)
    a = rigid_gnp(rng, 200)
    while True:
        b = rigid_gnp(rng, 200)
        if not np.array_equal(degree_sequence(a), degree_sequence(b)):
            break
    pair("rigid200-vs-rigid200", 1, a, b, rng)
    pair("rook4-vs-shrikhande", 2, rook(4), shrikhande(), fixed)
    pair("c20+c21-vs-c41", 1, disjoint(cycle(20), cycle(21)), cycle(41), fixed)
    pair("rook4-vs-shrikhande", 1, rook(4), shrikhande(), fixed)
    return ops


def rigid_cli(seed):
    """Rigid inputs written as files; ``path`` is relative to the work dir."""
    rng = _rng(seed, "rigid-cli")
    rigid = {"rigid": True, "status": "certified"}
    plan = [("graph6", 1, n) for n in (1000, 1500, 2000)]
    plan += [("dimacs", 2, n) for n in (100, 150, 200)]
    ops = []
    for fmt, k, n in plan:
        ops.append(Op(f"{fmt}{n}@k{k}", CLI, k, (rigid_gnp(rng, n),), dict(rigid),
                      path=f"{fmt}{n}.{fmt}", fmt=fmt))
    mat = rigid_colored_digraph(rng, 150, 4)
    ops.append(Op("cdg150@k2", CLI, 2, (mat,), dict(rigid), path="cdg150.cdg", fmt="cdg"))
    return ops


WORKLOADS = {
    "orbits-symmetric": orbits_symmetric,
    "iso-pairs": iso_pairs,
    "rigid-cli": rigid_cli,
}


def build(workload, seed):
    return WORKLOADS[workload](seed)


def file_bytes(op):
    return WRITERS[op.fmt](op.graphs[0])


def degree_sequence(mat):
    return np.sort((mat == EDGE).sum(axis=1))
