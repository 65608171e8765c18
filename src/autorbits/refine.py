"""Color refinement on V, V^2 and V^3, plus vertex individualization.

Each refinement round replaces a cell's color by its old color together with
a multiset of colors seen through every other vertex, then reassigns dense
ordinals by sorting the resulting signature rows lexicographically
(np.unique does both at once). Because signatures are built only from raw
pair colors and previous ordinals, the ordinal assignment commutes with
vertex relabeling: the class order is canonical.

A run also keeps a *trace*: one digest per round over the sorted signature
rows and their multiplicities. Two refinement runs with equal traces have
ordinal-for-ordinal comparable colorings, which is what lets the engine
compare colorings across different individualizations of the same graph.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import RefinementRoundError
from .graphs import EdgeColoredGraph
from .partitions import OrderedPartition

REFINEMENT_DIMENSIONS = (1, 2, 3)


@dataclass(frozen=True)
class RefinementConfig:
    """Stabilization dimension k and an optional round cap.

    k=3 walks V^3 and costs n^4 work per round; it is off the default path
    and intended for desk-scale experiments only.
    """

    k: int = 2
    max_rounds: int | None = None

    def __post_init__(self):
        if self.k not in REFINEMENT_DIMENSIONS:
            raise ValueError(f"k must be one of {REFINEMENT_DIMENSIONS}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")

    def round_cap(self, g):
        if self.max_rounds is not None:
            return self.max_rounds
        return g.n ** self.k * g.color_count + 1


@dataclass(frozen=True)
class StableColoring:
    """A refinement fixed point: one further round produces no split."""

    vertex_partition: OrderedPartition
    pair_coloring: np.ndarray | None
    rounds_used: int
    trace: tuple[bytes, ...]
    trace_digest: bytes

    def is_discrete(self):
        return self.vertex_partition.is_discrete()


def _digest(*chunks):
    h = hashlib.blake2b(digest_size=16)
    for c in chunks:
        h.update(c)
    return h.digest()


def _pack(*ints):
    return struct.pack(f">{len(ints)}q", *ints)


def _round_digest(tag, round_no, row_bytes, count, counts):
    return _digest(tag, _pack(round_no, count), row_bytes, counts.tobytes())


def _unique_rows(rows):
    """Dense ids of distinct rows, in lexicographic row order.

    Rows must be non-negative int64; the big-endian byte view makes memcmp
    order coincide with numeric lexicographic order, which is much faster
    than a structured-dtype sort. Returns (unique row bytes, ids, count).
    """
    packed = np.ascontiguousarray(rows).astype(">i8").view(f"V{rows.shape[1] * 8}")
    uniq, inverse = np.unique(packed.ravel(), return_inverse=True)
    return uniq.tobytes(), inverse.reshape(-1).astype(np.int64), int(uniq.size)


def _finish(k, g, ords, pair, rounds, trace):
    trace = tuple(trace)
    trace_digest = _digest(b"T", _pack(k, g.n, g.color_count), *trace)
    return StableColoring(
        vertex_partition=OrderedPartition(ords),
        pair_coloring=pair,
        rounds_used=rounds,
        trace=trace,
        trace_digest=trace_digest,
    )


def refine(g, cfg=None):
    """Stable coloring of g under the configured stabilization dimension."""
    cfg = cfg or RefinementConfig()
    if cfg.k == 1:
        return _refine_k1(g, cfg.round_cap(g))
    if cfg.k == 2:
        return _refine_k2(g, cfg.round_cap(g))
    return _refine_k3(g, cfg.round_cap(g))


def _refine_k1(g, cap):
    n = g.n
    colors = g.colors
    diag = np.ascontiguousarray(colors.diagonal())
    uniq, ords = np.unique(diag, return_inverse=True)
    ords = ords.reshape(n).astype(np.int64)
    counts = np.bincount(ords)
    trace = [_round_digest(b"k1", 0, uniq.astype(">i8").tobytes(), int(uniq.size), counts)]

    # One int encodes the triple (color to w, color from w, ordinal of w).
    base = (colors * g.color_count + colors.T) * np.int64(n + 1)
    class_count = int(uniq.size)
    rounds = 0
    while class_count < n:
        enc = base + ords[None, :]
        enc.sort(axis=1)
        rows = np.concatenate((ords[:, None], enc), axis=1)
        row_bytes, new_ords, new_count = _unique_rows(rows)
        if new_count == class_count:
            break
        ords = new_ords
        class_count = new_count
        rounds += 1
        trace.append(_round_digest(b"k1", rounds, row_bytes, new_count, np.bincount(ords)))
        if rounds > cap:
            raise RefinementRoundError(f"k=1 refinement did not stabilize in {cap} rounds")
    return _finish(1, g, ords, None, rounds, trace)


def _refine_k2(g, cap):
    n = g.n
    colors = g.colors
    diag = colors.diagonal()
    eye = np.eye(n, dtype=np.int64)
    # Atomic pair type: equality pattern plus the induced 2x2 color data.
    atoms = np.stack(
        (
            eye,
            colors,
            colors.T,
            np.broadcast_to(diag[:, None], (n, n)),
            np.broadcast_to(diag[None, :], (n, n)),
        ),
        axis=-1,
    ).reshape(n * n, 5)
    row_bytes, pair, class_count = _unique_rows(atoms)
    trace = [_round_digest(b"k2", 0, row_bytes, class_count, np.bincount(pair))]

    rounds = 0
    while class_count < n * n:
        mat = pair.reshape(n, n)
        k_scale = np.int64(class_count)
        # enc[u, v, w] = (color of (u, w), color of (w, v)) packed into one int.
        enc = mat[:, None, :] * k_scale + mat.T[None, :, :]
        enc = enc.reshape(n * n, n)
        enc.sort(axis=1)
        rows = np.concatenate((pair[:, None], enc), axis=1)
        row_bytes, new_pair, new_count = _unique_rows(rows)
        if new_count == class_count:
            break
        pair = new_pair
        class_count = new_count
        rounds += 1
        trace.append(_round_digest(b"k2", rounds, row_bytes, new_count, np.bincount(pair)))
        if rounds > cap:
            raise RefinementRoundError(f"k=2 refinement did not stabilize in {cap} rounds")

    mat = pair.reshape(n, n)
    _, vords = np.unique(mat.diagonal(), return_inverse=True)
    return _finish(2, g, vords.reshape(n).astype(np.int64), mat.copy(), rounds, trace)


def _refine_k3(g, cap):
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
    row_bytes, trip, class_count = _unique_rows(atoms)
    trace = [_round_digest(b"k3", 0, row_bytes, class_count, np.bincount(trip))]

    rounds = 0
    while class_count < n**3:
        cube = trip.reshape(n, n, n)
        k_scale = np.int64(class_count)
        # Substitute x into each of the three positions of (u, v, w).
        c0 = np.moveaxis(cube, 0, 2)[None, :, :, :]
        c1 = np.moveaxis(cube, 1, 2)[:, None, :, :]
        c2 = cube[:, :, None, :]
        enc = (c0 * k_scale + c1) * k_scale + c2
        enc = enc.reshape(n**3, n)
        enc.sort(axis=1)
        rows = np.concatenate((trip[:, None], enc), axis=1)
        row_bytes, new_trip, new_count = _unique_rows(rows)
        if new_count == class_count:
            break
        trip = new_trip
        class_count = new_count
        rounds += 1
        trace.append(_round_digest(b"k3", rounds, row_bytes, new_count, np.bincount(trip)))
        if rounds > cap:
            raise RefinementRoundError(f"k=3 refinement did not stabilize in {cap} rounds")

    cube = trip.reshape(n, n, n)
    pair_view = cube[idx[:, None], idx[None, :], idx[None, :]]
    _, pair = np.unique(pair_view, return_inverse=True)
    pair = pair.reshape(n, n).astype(np.int64)
    _, vords = np.unique(cube[idx, idx, idx], return_inverse=True)
    return _finish(3, g, vords.reshape(n).astype(np.int64), pair, rounds, trace)


def individualize(g, v):
    """Give vertex v a fresh diagonal color; all other entries unchanged.

    The fresh id is the current color_count; if v's old diagonal color had
    its last occurrence there, construction compacts ids order-preservingly.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range for order {g.n}")
    mat = g.colors.copy()
    mat[v, v] = g.color_count
    return EdgeColoredGraph(mat)


def individualize_sequence(g, fixes):
    """Fold individualize over fixes in order; fixes must be distinct.

    Computed in one pass: fresh ids always land above every existing id and
    compaction preserves order, so assigning color_count + i to the i-th fix
    and compacting once matches the fold exactly.
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


def refine_with_fixes(g, fixes, cfg=None):
    """Stable coloring after individualizing the fix sequence in order."""
    return refine(individualize_sequence(g, fixes), cfg)
