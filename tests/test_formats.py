import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autorbits import (
    InputDocument,
    ParseError,
    ResourceLimitError,
    complete_graph,
    cycle_graph,
    emit_cdg,
    formats,
    from_undirected_edges,
    parse_graph,
    parse_window_set,
    path_graph,
    sniff_format,
)
from util import random_simple_graph


def doc(fmt, text):
    return InputDocument(fmt, text.encode())


def test_cdg_k3():
    g = parse_graph(doc("cdg", "cdg 3 2\n0 1 1\n1 0 1\n1 1 0\n"))
    assert g == complete_graph(3)
    assert g.color_count == 2


def test_cdg_directed_colors():
    g = parse_graph(doc("cdg", "cdg 2 3\n0 1\n2 0\n"))
    assert g.colors[0, 1] != g.colors[1, 0]


def test_cdg_errors_carry_position():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph(doc("cdg", "cdg 2 2\n0 1 1\n1 0\n"))
    with pytest.raises(ParseError, match="col 2"):
        parse_graph(doc("cdg", "cdg 2 2\n0 7\n1 0\n"))
    with pytest.raises(ParseError):
        parse_graph(doc("cdg", "cdg 2 2\n0 1\n"))


def test_dimacs_path():
    g = parse_graph(doc("dimacs", "c a comment\np edge 3 2\ne 1 2\ne 2 3\n"))
    assert g == path_graph(3)


def test_dimacs_duplicate_edges_ignored():
    g = parse_graph(doc("dimacs", "p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n"))
    assert g == path_graph(3)


def test_dimacs_rejects_self_loop_and_mismatch():
    with pytest.raises(ParseError, match="self-loop"):
        parse_graph(doc("dimacs", "p edge 2 1\ne 1 1\n"))
    with pytest.raises(ParseError, match="declared"):
        parse_graph(doc("dimacs", "p edge 3 5\ne 1 2\n"))
    with pytest.raises(ParseError, match="range"):
        parse_graph(doc("dimacs", "p edge 2 1\ne 1 9\n"))


def test_graph6_c5():
    # canonical graph6 encoding of the 5-cycle
    g = parse_graph(doc("graph6", "Dhc\n"))
    assert g == cycle_graph(5)


def test_graph6_header_accepted():
    g = parse_graph(doc("graph6", ">>graph6<<Dhc\n"))
    assert g == cycle_graph(5)


def test_graph6_matches_reference_decoder():
    networkx = pytest.importorskip("networkx")
    rng = np.random.default_rng(60)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        ref = networkx.gnp_random_graph(n, 0.5, seed=int(rng.integers(0, 10**6)))
        line = networkx.to_graph6_bytes(ref, header=False).decode().strip()
        ours = parse_graph(doc("graph6", line))
        edge_color = None
        for u in range(n):
            for v in range(n):
                if u != v and ref.has_edge(u, v):
                    edge_color = int(ours.colors[u, v])
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                has = ref.has_edge(u, v)
                assert (int(ours.colors[u, v]) == edge_color) == has


def test_graph6_dimacs_agree():
    rng = np.random.default_rng(61)
    networkx = pytest.importorskip("networkx")
    for _ in range(10):
        n = int(rng.integers(3, 10))
        g = random_simple_graph(rng, n, 0.5)
        edge = 1  # loop/edge/non-edge coloring
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if g.colors[u, v] == edge]
        if not edges or len(edges) == n * (n - 1) // 2:
            continue
        ref = networkx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges)
        g6_line = networkx.to_graph6_bytes(ref, header=False).decode().strip()
        dim = "p edge %d %d\n" % (n, len(edges))
        dim += "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)
        assert parse_graph(doc("graph6", g6_line)) == parse_graph(doc("dimacs", dim))


def test_cdg_round_trip():
    rng = np.random.default_rng(62)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        g = random_simple_graph(rng, n, 0.5)
        text = emit_cdg(g)
        again = parse_graph(doc("cdg", text))
        assert again == g
        assert emit_cdg(again) == text


def test_sniffing():
    assert sniff_format(b"cdg 2 2\n0 1\n1 0\n") == "cdg"
    assert sniff_format(b"ws 2 3\n1 2 4 5\n") == "ws"
    assert sniff_format(b"c hi\np edge 2 1\ne 1 2\n") == "dimacs"
    assert sniff_format(b"Dhc\n") == "graph6"
    assert sniff_format(b">>graph6<<Dhc\n") == "graph6"
    assert sniff_format(b"\n  \n\nDhc\n") == "graph6"
    assert sniff_format(b"Dhc\r\n") == "graph6"
    assert sniff_format(b"cdg 2 2\r\n0 1\r\n1 0\r\n") == "cdg"
    long_line = b"~?A}" + b"?" * 5000
    assert sniff_format(long_line + b"\n") == "graph6"
    for bad in (
        b"\x00\x01binary",
        long_line + b"\x7f\n",  # one byte past '~' at the end of the line
        long_line + b"\xc3\xa9\n",  # non-ASCII
        b"Dh c\n",
    ):
        with pytest.raises(ParseError):
            sniff_format(bad)


def test_ws_parsing():
    ws = parse_window_set(doc("ws", "ws 2 3\n1 2 4 5\n2 3 5 6\n3 1 6 4\n"))
    assert ws.k == 2
    assert len(ws.elements) == 3
    with pytest.raises(ParseError):
        parse_window_set(doc("ws", "ws 2 3\n1 2 4\n"))
    with pytest.raises(ParseError, match="repeated"):
        parse_window_set(doc("ws", "ws 2 1\n1 1 4 5\n"))


def test_format_confusion_errors():
    with pytest.raises(ParseError):
        parse_graph(doc("ws", "ws 1 1\n1 2\n"))
    with pytest.raises(ParseError):
        parse_window_set(doc("cdg", "cdg 1 1\n0\n"))


def test_graph6_long_size_form():
    networkx = pytest.importorskip("networkx")
    ref = networkx.gnp_random_graph(70, 0.1, seed=3)
    line = networkx.to_graph6_bytes(ref, header=False).decode().strip()
    ours = parse_graph(doc("graph6", line))
    assert ours.n == 70
    edge_color = int(ours.colors[next(iter(ref.edges()))])
    for u, v in ref.edges():
        assert int(ours.colors[u, v]) == edge_color
        assert int(ours.colors[v, u]) == edge_color


@pytest.mark.parametrize("density", [0, 0.3, 1])
@pytest.mark.parametrize("n", [1, 2, 62, 63, 64, 200, 1000])
def test_graph6_decodes_like_networkx(n, density):
    # n = 63 is the first order with the 4-byte size field; the orders and
    # densities vary the padding bits of the last byte.
    networkx = pytest.importorskip("networkx")
    ref = networkx.gnp_random_graph(n, density, seed=n)
    line = networkx.to_graph6_bytes(ref, header=False)
    assert parse_graph(InputDocument("graph6", line)) == from_undirected_edges(n, ref.edges())


def test_cdg_color_beyond_int64_is_a_parse_error():
    with pytest.raises(ParseError, match="line 2, col 1"):
        parse_graph(doc("cdg", "cdg 1 99999999999999999999\n18446744073709551616\n"))


SOUP = ["p", "edge", "e", "c", "cdg", "ws", "Dhc", "~", "?", "}", "0", "1", "2", "3", "400",
        "-1", "+2", "1_0", "x", "18446744073709551616", "99999999999999999999", "\n", "\n",
        "\t", "\x7f", "\xff"]
LEADS = {"graph6": ">>graph6<<", "dimacs": "p edge", "cdg": "cdg", "ws": "ws"}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(LEADS)), st.booleans(), st.lists(st.sampled_from(SOUP), max_size=16))
def test_token_soup_parses_or_raises_a_typed_error(fmt, lead, tokens):
    payload = " ".join([LEADS[fmt]] * lead + tokens).encode("latin-1")
    parse = parse_window_set if fmt == "ws" else parse_graph
    with pytest.MonkeyPatch.context() as mp:
        # No order above 353 reaches an allocation.
        mp.setattr(formats, "_physical_memory", lambda: 10**6)
        try:
            parse(InputDocument(fmt, payload))
        except (ParseError, ResourceLimitError):
            pass
