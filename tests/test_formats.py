import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autorbits import (
    AutorbitsError,
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
from autorbits.graphs import COLOR_LIMIT
from util import random_simple_graph, reference_cdg, reference_dimacs, reference_ws


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


def test_rows_after_the_declared_count_are_refused():
    with pytest.raises(ParseError, match="line 3: expected 1 rows, found more"):
        parse_window_set(doc("ws", "ws 1 1\n0 1\n2 3\n"))
    with pytest.raises(ParseError, match="line 2: expected 0 rows, found more"):
        parse_window_set(doc("ws", "ws 1 0\n0 1\n"))
    with pytest.raises(ParseError, match="line 4: expected 2 rows, found more"):
        parse_graph(doc("cdg", "cdg 2 2\n0 1\n1 0\nhello\n"))
    # Blank lines after the rows are not rows.
    assert parse_graph(doc("cdg", "cdg 2 2\n0 1\n1 0\n\n \t\n")).n == 2


def test_graph6_holds_one_graph():
    with pytest.raises(ParseError, match="line 1: graph6 payload longer than the declared order"):
        parse_graph(doc("graph6", "Dhcxxxx\n"))
    with pytest.raises(ParseError, match="line 2: expected one graph6 line, found more"):
        parse_graph(doc("graph6", "Dhc\nDhc\n"))
    with pytest.raises(ParseError, match="line 4: expected one graph6 line"):
        parse_graph(doc("graph6", ">>graph6<<\nDhc\n\n>>graph6<<Dhc\n"))
    assert parse_graph(doc("graph6", "\n>>graph6<<\n\nDhc\n\n")) == cycle_graph(5)


@pytest.mark.parametrize(("text", "error"), [
    ("\n>>graph6<<\nDh\n", "line 3: graph6 payload shorter than the declared order"),
    ("\n>>graph6<<Dhcxx\n", "line 2: graph6 payload longer than the declared order"),
    ("\n\nDh\x7f\n", "line 3: graph6 character out of range"),
    ("\n\n~?\n", "line 3: truncated graph6 size field"),
    (" \n\t\n\n?\n", "line 4: graph6 order must be positive"),
], ids=["short", "longer-after-header", "out-of-range", "truncated-size", "order-zero"])
def test_graph6_errors_name_the_graph_line(text, error):
    with pytest.raises(ParseError, match=re.escape(error)):
        parse_graph(doc("graph6", text))


@pytest.mark.parametrize(("fmt", "text", "error"), [
    ("cdg", "cdg 2 11\n+0 1_0\n1 0\n", "line 2, col 1: non-numeric entry '+0'"),
    ("cdg", "cdg 2 11\n0 1_0\n1 0\n", "line 2, col 2: non-numeric entry '1_0'"),
    ("cdg", "cdg 2 2\n0 1\n-1 0\n", "line 3, col 1: non-numeric entry '-1'"),
    ("cdg", "cdg +2 2\n0 1\n1 0\n", "line 1: non-numeric cdg header"),
    ("ws", "ws 1 1\n-1 2\n", "line 2, col 1: non-numeric entry '-1'"),
    ("ws", "ws 1 -1\n", "line 1: non-numeric ws header"),
    ("dimacs", "p edge 2 1\ne +1 2\n", "line 2: non-numeric edge endpoints"),
    ("dimacs", "p edge 2 1\ne 1 -2\n", "line 2: non-numeric edge endpoints"),
    ("dimacs", "p edge 1_0 0\n", "line 1: non-numeric problem line"),
])
def test_numbers_are_ascii_digits(fmt, text, error):
    parse = parse_window_set if fmt == "ws" else parse_graph
    with pytest.raises(ParseError, match=re.escape(error)):
        parse(doc(fmt, text))


def test_lines_break_and_tokens_split_as_python_strings_do():
    # "\r\n" is one break; "\r", "\v", "\f" and "\x1c".."\x1e" are one each;
    # "\x1f" separates tokens without breaking the line.
    with pytest.raises(ParseError, match="line 3: expected 2 entries, found 3"):
        parse_graph(doc("cdg", "cdg 2 2\r\n0 1\r\n1 0\x1f7\r\n"))
    with pytest.raises(ParseError, match=re.escape("line 5, col 2: entry 9 outside [0, 2)")):
        parse_graph(doc("cdg", "cdg 2 2\v0 1\f\x1c\r1 9\x1d"))
    with pytest.raises(ParseError, match="line 4: self-loop at vertex 2"):
        parse_graph(doc("dimacs", "c x\x1ep edge 2 1\n\re\t2\x1f2\x1e"))


def test_numbers_keep_their_value():
    values = [0, 7, 255, 256, 1000, 65536, 2**31, 10**17 + 3, 10**18 - 1, 10**18, COLOR_LIMIT - 1]
    text = f"cdg {len(values)} {COLOR_LIMIT}\n" + "".join(
        " ".join(str(x) for x in values[i:] + values[:i]) + "\n" for i in range(len(values)))
    g = parse_graph(doc("cdg", text))
    assert g.colors[0].tolist() == g.colors[:, 0].tolist() == values
    assert parse_graph(doc("dimacs", "p edge 300 1\ne 299 300\n")).colors[298, 299] == 1
    # Beyond 18 digits a number is read whole, and its message quotes it whole.
    g = parse_graph(doc("cdg", "cdg 1 99999999999999999999\n04611686018427387903\n"))
    assert int(g.colors[0, 0]) == COLOR_LIMIT - 1
    with pytest.raises(ParseError, match=re.escape("entry 4611686018427387904 outside")):
        parse_graph(doc("cdg", "cdg 1 99999999999999999999\n4611686018427387904\n"))
    ws = parse_window_set(doc("ws", "ws 1 1\n4611686018427387904 9223372036854775807\n"))
    assert ws.elements == {((1 << 62,), ((1 << 63) - 1,))}
    with pytest.raises(ParseError, match="expected 99999999999999999999 rows, found 1"):
        parse_window_set(doc("ws", "ws 1 99999999999999999999\n1 2\n"))


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


REFERENCE = {"cdg": reference_cdg, "dimacs": reference_dimacs, "ws": reference_ws}
SEPARATORS = [" ", "\t", "\x1f", " \t "]
BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\n \x1f\n", "\r\r\n"]
LONG = ["9" * 18, "1" + "0" * 18, "4611686018427387903", "4611686018427387904",
        "9223372036854775808", "18446744073709551616", "9" * 21, "0" * 20 + "1",
        "1" * 19 + "x", "+" + "1" * 20]
TOKENS = [tok for tok in SOUP if tok.strip()] + LONG + ["edge", "+0", "12", "13"]


@st.composite
def valid_lines(draw):
    """A valid CDG, DIMACS or WS file with n <= 12, as lists of tokens."""
    fmt = draw(st.sampled_from(sorted(REFERENCE)))
    n = draw(st.integers(1, 12))
    if fmt == "cdg":
        c = draw(st.integers(1, 5))
        rows = draw(st.lists(st.lists(st.integers(0, c - 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
        return fmt, [["cdg", n, c], *rows]
    if fmt == "ws":
        k = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(st.integers(0, 2 * k), min_size=2 * k, max_size=2 * k),
                             max_size=4))
        return fmt, [["ws", k, len(rows)], *rows]
    # A self-loop is drawn now and then.
    edges = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=12))
    comments = [["c", "x"]] * draw(st.integers(0, 2))
    return fmt, [*comments, ["p", "edge", n, len(edges)], *(["e", u, v] for u, v in edges)]


@st.composite
def line_files(draw):
    """A valid file, perhaps mutated, written with varied whitespace and
    line breaks, or a token soup; as (format, payload)."""
    if draw(st.integers(0, 2)) == 0:
        fmt = draw(st.sampled_from(sorted(REFERENCE)))
        lead = [LEADS[fmt]] * draw(st.booleans())
        return fmt, " ".join(lead + draw(st.lists(st.sampled_from(SOUP), max_size=16))).encode("latin-1")
    fmt, lines = draw(valid_lines())
    lines = [[str(tok) for tok in line] for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["token", "token", "drop", "line", "copy", "blank"]))
        if edit == "line" or at == len(lines):
            lines.insert(at, draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4)))
        elif edit == "copy":
            lines.insert(at, list(lines[at]))
        elif edit == "blank":
            lines.insert(at, [])
        elif edit == "drop" or not lines[at]:
            del lines[at]
        else:
            lines[at][draw(st.integers(0, len(lines[at]) - 1))] = draw(st.sampled_from(TOKENS))
    text = ""
    for line in lines:
        lead, sep = draw(st.sampled_from(["", " ", "\t\x1f"])), draw(st.sampled_from(SEPARATORS))
        text += lead + sep.join(line) + draw(st.sampled_from(BREAKS))
    return fmt, text.encode("latin-1")


def outcome(parse, payload):
    """The parsed object, or the type and message of the typed error."""
    try:
        return parse(payload)
    except AutorbitsError as exc:
        assert isinstance(exc, (ParseError, ResourceLimitError)), exc
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(line_files())
def test_line_formats_parse_like_the_reference(case):
    fmt, payload = case
    parse = formats._parse_ws if fmt == "ws" else formats._GRAPH_PARSERS[fmt]
    with pytest.MonkeyPatch.context() as mp:
        # No order above 353 reaches an allocation.
        mp.setattr(formats, "_physical_memory", lambda: 10**6)
        assert outcome(parse, payload) == outcome(REFERENCE[fmt], payload)
