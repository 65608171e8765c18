"""Color refinement on V, V^2 and V^3, plus vertex individualization.

Each refinement round replaces a cell's color by its old color together with
a multiset of colors seen through every other vertex, then reassigns dense
ordinals by sorting the resulting signature rows lexicographically
(np.unique does both at once). Because signatures are built only from raw
pair colors and previous ordinals, the ordinal assignment commutes with
vertex relabeling: the class order is canonical.

One loop serves every dimension k; a dimension only supplies its atoms
(the round-0 rows), how a cell's row sees the other cells, and how the
stable cell ids become vertex and pair colorings. Each round's rows lead
with the old id, so the class count rises strictly until it stops
changing, and a refine ends within n^k rounds.

A run also hashes its *trace*, the sorted signature rows and their
multiplicities of every round, into ``trace_digest``. Two refinement runs
with equal digests have ordinal-for-ordinal comparable colorings, which is
what lets the engine compare colorings across different individualizations
of the same graph.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .graphs import EdgeColoredGraph
from .partitions import OrderedPartition

REFINEMENT_DIMENSIONS = (1, 2, 3)


@dataclass(frozen=True)
class RefinementConfig:
    """Stabilization dimension k.

    k=3 walks V^3 and costs n^4 work per round; it is off the default path
    and intended for desk-scale experiments only.
    """

    k: int = 2

    def __post_init__(self):
        if self.k not in REFINEMENT_DIMENSIONS:
            raise ValueError(f"k must be one of {REFINEMENT_DIMENSIONS}")


@dataclass(frozen=True)
class StableColoring:
    """A refinement fixed point: one further round produces no split."""

    vertex_partition: OrderedPartition
    pair_coloring: np.ndarray | None
    rounds_used: int
    trace_digest: bytes

    def is_discrete(self):
        return self.vertex_partition.is_discrete()


def _pack(*ints):
    return struct.pack(f">{len(ints)}q", *ints)


def _round_digest(tag, round_no, row_bytes, count, ids):
    h = hashlib.blake2b(digest_size=16)
    for chunk in (tag, _pack(round_no, count), row_bytes, np.bincount(ids).tobytes()):
        h.update(chunk)
    return h.digest()


def _unique_rows(rows):
    """Dense ids of distinct rows, in lexicographic row order.

    Rows must be non-negative int64; the big-endian byte view makes memcmp
    order coincide with numeric lexicographic order, which is much faster
    than a structured-dtype sort. Returns (unique row bytes, ids, count).
    """
    packed = np.ascontiguousarray(rows).astype(">i8").view(f"V{rows.shape[1] * 8}")
    uniq, inverse = np.unique(packed.ravel(), return_inverse=True)
    return uniq.tobytes(), inverse.reshape(-1).astype(np.int64), int(uniq.size)


def refine(g, cfg=None):
    """Stable coloring of g under the configured stabilization dimension."""
    cfg = cfg or RefinementConfig()
    atoms, neighbours, finish = _DIMENSIONS[cfg.k](g)
    tag = b"k%d" % cfg.k
    trace = hashlib.blake2b(b"T" + _pack(cfg.k, g.n, g.color_count), digest_size=16)
    row_bytes, ids, class_count = _unique_rows(atoms)
    trace.update(_round_digest(tag, 0, row_bytes, class_count, ids))
    rounds = 0
    while class_count < ids.size:
        enc = neighbours(ids, np.int64(class_count))
        enc.sort(axis=1)
        rows = np.concatenate((ids[:, None], enc), axis=1)
        row_bytes, new_ids, new_count = _unique_rows(rows)
        if new_count == class_count:
            break
        ids = new_ids
        class_count = new_count
        rounds += 1
        trace.update(_round_digest(tag, rounds, row_bytes, new_count, ids))
    vertex_ids, pair = finish(ids)
    return StableColoring(
        vertex_partition=OrderedPartition(vertex_ids),
        pair_coloring=pair,
        rounds_used=rounds,
        trace_digest=trace.digest(),
    )


def _dense(values):
    _, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64)


def _setup_k1(g):
    n = g.n
    colors = g.colors
    # One int encodes the triple (color to w, color from w, ordinal of w).
    base = (colors * g.color_count + colors.T) * np.int64(n + 1)

    def neighbours(ords, scale):
        return base + ords[None, :]

    def finish(ords):
        return ords, None

    return colors.diagonal()[:, None], neighbours, finish


def _setup_k2(g):
    n = g.n
    colors = g.colors
    diag = colors.diagonal()
    # Atomic pair type: equality pattern plus the induced 2x2 color data.
    atoms = np.stack(
        (
            np.eye(n, dtype=np.int64),
            colors,
            colors.T,
            np.broadcast_to(diag[:, None], (n, n)),
            np.broadcast_to(diag[None, :], (n, n)),
        ),
        axis=-1,
    ).reshape(n * n, 5)

    def neighbours(pair, scale):
        mat = pair.reshape(n, n)
        # enc[u, v, w] = (color of (u, w), color of (w, v)) packed into one int.
        return (mat[:, None, :] * scale + mat.T[None, :, :]).reshape(n * n, n)

    def finish(pair):
        mat = pair.reshape(n, n)
        return _dense(mat.diagonal()), mat

    return atoms, neighbours, finish


def _setup_k3(g):
    n = g.n
    colors = g.colors
    idx = np.arange(n)
    u = idx[:, None, None]
    v = idx[None, :, None]
    w = idx[None, None, :]
    parts = [
        np.broadcast_to(u == v, (n, n, n)).astype(np.int64),
        np.broadcast_to(u == w, (n, n, n)).astype(np.int64),
        np.broadcast_to(v == w, (n, n, n)).astype(np.int64),
    ]
    for a, b in ((u, v), (u, w), (v, u), (v, w), (w, u), (w, v)):
        parts.append(np.broadcast_to(colors[a, b], (n, n, n)).astype(np.int64))
    for d in (u, v, w):
        parts.append(np.broadcast_to(colors[d, d], (n, n, n)).astype(np.int64))
    atoms = np.stack(parts, axis=-1).reshape(n**3, len(parts))

    def neighbours(trip, scale):
        cube = trip.reshape(n, n, n)
        # Substitute x into each of the three positions of (u, v, w).
        c0 = np.moveaxis(cube, 0, 2)[None, :, :, :]
        c1 = np.moveaxis(cube, 1, 2)[:, None, :, :]
        c2 = cube[:, :, None, :]
        return ((c0 * scale + c1) * scale + c2).reshape(n**3, n)

    def finish(trip):
        cube = trip.reshape(n, n, n)
        pair = _dense(cube[idx[:, None], idx[None, :], idx[None, :]]).reshape(n, n)
        return _dense(cube[idx, idx, idx]), pair

    return atoms, neighbours, finish


# Each setup returns the round-0 atom rows (one per cell of V^k), a
# neighbours(ids, scale) giving each cell's n packed views of other cells
# (scale exceeds every id), and a finish(ids) giving the vertex ids and the
# pair coloring (None for k=1).
_DIMENSIONS = {1: _setup_k1, 2: _setup_k2, 3: _setup_k3}


def individualize_sequence(g, fixes):
    """Give each fix vertex, in order, its own fresh diagonal color.

    The i-th fix gets color_count + i; fresh ids always land above every
    existing id and construction compacts ids order-preservingly, so the
    result does not depend on folding one-vertex steps. Fixes must be
    distinct vertices of g.
    """
    seen = set()
    for v in fixes:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for order {g.n}")
        if v in seen:
            raise ValueError(f"duplicate fix vertex {v}")
        seen.add(v)
    if not fixes:
        return g
    mat = g.colors.copy()
    for i, v in enumerate(fixes):
        mat[v, v] = g.color_count + i
    return EdgeColoredGraph(mat)
