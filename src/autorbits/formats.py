"""Input ingestion: graph6, DIMACS edge lists, the native CDG matrix text,
and the window-set text format.

CDG is the only format expressing arbitrary pair colorings (directed edges,
loop colors); graph6 and DIMACS cover simple undirected graphs and map to
the loop/edge/non-edge coloring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import WindowSet
from .errors import ParseError, ResourceLimitError
from .graphs import EdgeColoredGraph

FORMATS = ("graph6", "dimacs", "cdg", "ws")

_G6_HEADER = ">>graph6<<"


@dataclass(frozen=True)
class InputDocument:
    format: str
    payload: bytes


def sniff_format(payload):
    """Guess the format from the leading content."""
    text = payload.decode("ascii", errors="replace")
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        token = line.split()[0]
        if token == "cdg":
            return "cdg"
        if token == "ws":
            return "ws"
        if token in ("p", "c", "e"):
            return "dimacs"
        if line.startswith(_G6_HEADER) or all(63 <= ord(ch) <= 126 for ch in line):
            return "graph6"
        break
    raise ParseError("cannot determine input format; use an explicit format override")


def load_document(path, forced_format=None):
    with open(path, "rb") as fh:
        payload = fh.read()
    if forced_format is not None:
        if forced_format not in FORMATS:
            raise ParseError(f"unknown format {forced_format!r}")
        return InputDocument(forced_format, payload)
    return InputDocument(sniff_format(payload), payload)


def parse_graph(doc):
    """Parse a graph document into an EdgeColoredGraph."""
    if doc.format == "graph6":
        return _parse_graph6(doc.payload)
    if doc.format == "dimacs":
        return _parse_dimacs(doc.payload)
    if doc.format == "cdg":
        return _parse_cdg(doc.payload)
    raise ParseError(f"format {doc.format!r} does not describe a graph")


def parse_window_set(doc):
    if doc.format != "ws":
        raise ParseError(f"format {doc.format!r} does not describe a window set")
    return _parse_ws(doc.payload)


def _decode_text(payload):
    try:
        return payload.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not ASCII text: {exc}") from None


def _adjacency_to_graph(n, adj):
    mat = np.full((n, n), 2, dtype=np.int64)
    np.fill_diagonal(mat, 0)
    mat[adj] = 1
    return EdgeColoredGraph(mat)


def _parse_graph6(payload):
    text = _decode_text(payload).strip()
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):].lstrip()
    line = text.splitlines()[0].strip() if text else ""
    if not line:
        raise ParseError("empty graph6 input")
    data = [ord(ch) - 63 for ch in line]
    if any(d < 0 or d > 63 for d in data):
        raise ParseError("graph6 character out of range", line=1)
    if data[0] != 63:
        n, pos = data[0], 1
    elif len(data) >= 4 and data[1] != 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    elif len(data) >= 8:
        n = 0
        for d in data[2:8]:
            n = (n << 6) | d
        pos = 8
    else:
        raise ParseError("truncated graph6 size field", line=1)
    if n < 1:
        raise ParseError("graph6 order must be positive", line=1)
    need = n * (n - 1) // 2
    bits_available = (len(data) - pos) * 6
    if bits_available < need:
        raise ParseError("graph6 payload shorter than the declared order", line=1)
    adj = np.zeros((n, n), dtype=bool)
    bit = 0
    for j in range(1, n):
        for i in range(j):
            byte = data[pos + bit // 6]
            if (byte >> (5 - bit % 6)) & 1:
                adj[i, j] = True
                adj[j, i] = True
            bit += 1
    return _adjacency_to_graph(n, adj)


def _parse_dimacs(payload):
    text = _decode_text(payload)
    n = None
    declared_m = None
    edge_lines = 0
    adj = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError("expected 'p edge N M'", line=lineno)
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError("non-numeric problem line", line=lineno) from None
            if n < 1 or declared_m < 0:
                raise ParseError("problem line out of range", line=lineno)
            if n * n * np.dtype(np.int64).itemsize > np.iinfo(np.intp).max:
                raise ResourceLimitError(f"order {n} is too large for an n x n matrix")
            adj = np.zeros((n, n), dtype=bool)
        elif fields[0] == "e":
            if adj is None:
                raise ParseError("edge before problem line", line=lineno)
            if len(fields) != 3:
                raise ParseError("expected 'e U V'", line=lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("non-numeric edge endpoints", line=lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint out of range 1..{n}", line=lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", line=lineno)
            edge_lines += 1
            adj[u - 1, v - 1] = True
            adj[v - 1, u - 1] = True
        else:
            raise ParseError(f"unknown record {fields[0]!r}", line=lineno)
    if adj is None:
        raise ParseError("missing problem line")
    if edge_lines != declared_m:
        raise ParseError(f"declared {declared_m} edges but found {edge_lines}")
    return _adjacency_to_graph(n, adj)


def _parse_cdg(payload):
    text = _decode_text(payload)
    lines = text.splitlines()
    header_at = None
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip():
            header_at = lineno
            break
    if header_at is None:
        raise ParseError("empty cdg input")
    fields = lines[header_at - 1].split()
    if len(fields) != 3 or fields[0] != "cdg":
        raise ParseError("expected header 'cdg N C'", line=header_at)
    try:
        n, c = int(fields[1]), int(fields[2])
    except ValueError:
        raise ParseError("non-numeric cdg header", line=header_at) from None
    if n < 1 or c < 1:
        raise ParseError("cdg header out of range", line=header_at)
    rows = []
    lineno = header_at
    for raw in lines[header_at:]:
        lineno += 1
        if not raw.strip():
            continue
        fields = raw.split()
        if len(fields) != n:
            raise ParseError(f"expected {n} entries, found {len(fields)}", line=lineno)
        row = []
        for col, tok in enumerate(fields, start=1):
            try:
                value = int(tok)
            except ValueError:
                raise ParseError(f"non-numeric entry {tok!r}", line=lineno, col=col) from None
            if not (0 <= value < c):
                raise ParseError(f"color {value} outside [0, {c})", line=lineno, col=col)
            row.append(value)
        rows.append(row)
        if len(rows) == n:
            break
    if len(rows) != n:
        raise ParseError(f"expected {n} matrix rows, found {len(rows)}")
    return EdgeColoredGraph(np.array(rows, dtype=np.int64))


def _parse_ws(payload):
    text = _decode_text(payload)
    lines = [raw for raw in text.splitlines()]
    header_at = None
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip():
            header_at = lineno
            break
    if header_at is None:
        raise ParseError("empty ws input")
    fields = lines[header_at - 1].split()
    if len(fields) != 3 or fields[0] != "ws":
        raise ParseError("expected header 'ws K M'", line=header_at)
    try:
        k, m = int(fields[1]), int(fields[2])
    except ValueError:
        raise ParseError("non-numeric ws header", line=header_at) from None
    if k < 1 or m < 0:
        raise ParseError("ws header out of range", line=header_at)
    elements = []
    lineno = header_at
    for raw in lines[header_at:]:
        lineno += 1
        if not raw.strip():
            continue
        fields = raw.split()
        if len(fields) != 2 * k:
            raise ParseError(f"expected {2 * k} entries, found {len(fields)}", line=lineno)
        try:
            values = [int(tok) for tok in fields]
        except ValueError:
            raise ParseError("non-numeric window entry", line=lineno) from None
        elements.append((tuple(values[:k]), tuple(values[k:])))
        if len(elements) == m:
            break
    if len(elements) != m:
        raise ParseError(f"declared {m} elements but found {len(elements)}")
    try:
        return WindowSet.from_elements(k, elements)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def emit_cdg(g):
    """Canonical CDG text: header line then the matrix, single-spaced."""
    lines = [f"cdg {g.n} {g.color_count}"]
    for row in g.colors:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"
