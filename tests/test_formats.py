"""Round trips and golden files for the three text formats."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdg import families
from zdg.boolean_algebra import BooleanRing, format_ring, parse_ring, ring_from_graph
from zdg.errors import FormatError
from zdg.graph import Graph, format_graph, from_edge_list, parse_graph
from zdg.semigroup import format_table, parse_table, render_table, table_from_rows

GOLDEN_GRAPH = """zdg-graph 1
n 5
v 0 a1
v 1 a2
v 2 a3
v 3 x1
v 4 x2
e 0 1
e 0 2
e 0 3
e 1 2
e 1 4
e 3 4
"""

GOLDEN_TABLE = """zdg-table 1
n 4
0 0 0 0
1 0 1
3 3
3
"""


def test_graph_golden_bit_exact():
    g = parse_graph(GOLDEN_GRAPH)
    assert format_graph(g) == GOLDEN_GRAPH
    assert g.names == ("a1", "a2", "a3", "x1", "x2")


def test_graph_comments_and_blanks_ignored():
    text = "# comment\nzdg-graph 1\n\nn 2\ne 0 1  # trailing\n"
    g = parse_graph(text)
    assert g.edges() == [(0, 1)]


@pytest.mark.parametrize(
    "text,match",
    [
        ("zdg-graph 2\nn 1\n", "header"),
        ("zdg-graph 1\ne 0 1\n", "bad edge line"),
        ("zdg-graph 1\nn 2\ne 0 2\n", "out of range"),
        ("zdg-graph 1\nn 2\ne 1 1\n", "self-loop"),
        ("zdg-graph 1\nn 2\nq 1\n", "unknown directive"),
        ("zdg-graph 1\n", "missing vertex count"),
    ],
)
def test_graph_parse_errors(text, match):
    with pytest.raises(FormatError, match=match):
        parse_graph(text)


def test_graph_parse_error_carries_line_number():
    with pytest.raises(FormatError) as err:
        parse_graph("zdg-graph 1\nn 2\ne 0 5\n")
    assert err.value.line == 3


def test_table_golden_bit_exact(fixture_tables):
    t = parse_table(GOLDEN_TABLE)
    assert format_table(t) == GOLDEN_TABLE
    assert t.prod == fixture_tables[5].prod


@pytest.mark.parametrize(
    "text,match",
    [
        ("zdg-table 9\n", "header"),
        ("zdg-table 1\nn 2\n0\n", "expected 2 entries"),
        ("zdg-table 1\nn 1\n7\n", "out of range"),
        ("zdg-table 1\nn 2\n0 0\n0\n0\n", "extra rows"),
        ("zdg-table 1\nn 2\n0 0\n", "expected 2 rows"),
    ],
)
def test_table_parse_errors(text, match):
    with pytest.raises(FormatError, match=match):
        parse_table(text)


@st.composite
def random_tables(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            v = draw(st.integers(min_value=0, max_value=n))
            rows[i][j] = v
            rows[j][i] = v
    return table_from_rows(rows)


@given(random_tables())
def test_table_round_trip(t):
    assert parse_table(format_table(t)).prod == t.prod


@st.composite
def random_graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    named = draw(st.booleans())
    names = [f"n{i}" for i in range(n)] if named else None
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    return from_edge_list(n, edges, names)


@given(random_graphs())
def test_graph_round_trip(g):
    h = parse_graph(format_graph(g))
    assert h.adj == g.adj and h.names == g.names
    # writer output is a fixpoint
    assert format_graph(h) == format_graph(g)


def test_render_table_matches_reference_layout(fixture_tables):
    text = render_table(fixture_tables[1], names=("a1", "a2", "a3", "x1", "x2"))
    lines = text.splitlines()
    assert lines[0].split() == ["a1", "a2", "a3", "x1", "x2"]
    assert lines[1].startswith("a1 | 0")
    assert lines[5].endswith("x2")


def test_ring_round_trip():
    ring = ring_from_graph(families.complete(2))
    text = format_ring(ring)
    back = parse_ring(text)
    assert back.add == ring.add and back.mul == ring.mul
    assert format_ring(back) == text


RING2 = """zdg-ring 1
n 2
name 0 0
name 1 1
add
0 1
0
mul
0 0
1
"""


@pytest.mark.parametrize(
    "parse,text",
    [
        (parse_graph, "zdg-graph 1\nn \u00b2\n"),
        (parse_table, "zdg-table 1\nn \u00b2\n"),
        (parse_ring, "zdg-ring 1\nn \u00b2\n"),
        (parse_graph, "zdg-graph 1\nn 99999999999999\n"),
        (parse_graph, "zdg-graph 1\nn 2\ne 0 " + "1" * 5000 + "\n"),
        (parse_ring, "zdg-ring 1\nn x\n"),
        (parse_ring, "zdg-ring 1\nn 1\nadd\n0\nmul\n0\n"),
        (parse_ring, RING2.replace("add\n0 1", "add\n0 x")),
        (parse_ring, RING2.replace("name 1 1", "name 5 q")),
        (parse_ring, RING2.replace("name 1 1", "name 1")),
        (parse_ring, RING2.replace("mul\n0 0", "mul\n0 9")),
        (parse_ring, RING2 + "0\n"),
    ],
)
def test_malformed_input_raises_format_error(parse, text):
    with pytest.raises(FormatError):
        parse(text)


@pytest.mark.parametrize("parse,text", [
    (parse_graph, "zdg-graph 1\nn 65537\n"),
    (parse_table, "zdg-table 1\nn 65537\n"),
    (parse_ring, "zdg-ring 1\nn 65537\n"),
])
def test_count_over_the_limit_names_the_limit(parse, text):
    with pytest.raises(FormatError, match="65536"):
        parse(text)


def test_graph_writer_refuses_what_the_reader_refuses():
    assert parse_graph(format_graph(Graph(65536, (0,) * 65536))).n == 65536
    with pytest.raises(ValueError, match="65536"):
        format_graph(Graph(65537, (0,) * 65537))


@pytest.mark.parametrize("name", ["x#y", "a b", "", "a\tb", "a\nb", "\u00a0"])
def test_graph_writer_refuses_a_name_the_reader_would_misread(name):
    g = from_edge_list(2, [(0, 1)], names=[name, "w"])
    with pytest.raises(ValueError, match="name"):
        format_graph(g)


def test_ring_writer_refuses_a_name_the_reader_would_misread():
    ring = ring_from_graph(from_edge_list(2, [(0, 1)], names=["p#q", "r"]))
    with pytest.raises(ValueError, match="name"):
        format_ring(ring)


@given(st.lists(st.text(max_size=4), min_size=1, max_size=3))
def test_graph_writer_output_reads_back_its_names(names):
    g = from_edge_list(len(names), [], names)
    try:
        text = format_graph(g)
    except ValueError:
        return
    assert parse_graph(text).names == g.names


def test_ring_truncated_file_reports_a_real_line():
    assert format_ring(parse_ring(RING2)) == RING2
    lines = RING2.splitlines(keepends=True)
    for cut in range(len(lines)):
        with pytest.raises(FormatError) as err:
            parse_ring("".join(lines[:cut]))
        assert err.value.line is None or err.value.line >= 1


# --- every parser is total: a valid object or FormatError, whatever the text

TOKENS = st.one_of(
    st.text(max_size=4),
    st.integers(min_value=-2, max_value=1 << 70).map(str),
    st.sampled_from(["\u00b2", "\u0663", "+1", "1_0", "9" * 5000, "#", "n", "e", "v",
                     "name", "add", "mul"]),
)


@st.composite
def mutated(draw, texts):
    """Writer output cut short, or with one token replaced."""
    text = draw(texts)
    if draw(st.booleans()):
        return text[: draw(st.integers(min_value=0, max_value=len(text)))]
    parts = re.split(r"(\s+)", text)
    i = draw(st.sampled_from([i for i, p in enumerate(parts) if p and not p.isspace()]))
    parts[i] = draw(TOKENS)
    return "".join(parts)


def inputs(header, written):
    return st.one_of(st.text(), st.text().map(lambda s: header + "\n" + s), mutated(written))


@st.composite
def random_rings(draw, max_size=5):
    size = draw(st.integers(min_value=2, max_value=max_size))

    def symmetric():
        rows = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                rows[i][j] = rows[j][i] = draw(st.integers(min_value=0, max_value=size - 1))
        return tuple(map(tuple, rows))

    return BooleanRing(n=size - 2, add=symmetric(), mul=symmetric())


@given(inputs("zdg-graph 1", random_graphs().map(format_graph)))
def test_parse_graph_is_total(text):
    try:
        g = parse_graph(text)
    except FormatError:
        return
    assert parse_graph(format_graph(g)) == g


@given(inputs("zdg-table 1", random_tables().map(format_table)))
def test_parse_table_is_total(text):
    try:
        t = parse_table(text)
    except FormatError:
        return
    assert parse_table(format_table(t)) == t


@given(inputs("zdg-ring 1", random_rings().map(format_ring)))
def test_parse_ring_is_total(text):
    try:
        r = parse_ring(text)
    except FormatError:
        return
    size = r.size
    assert size >= 2 and len(r.names) == size
    for tab in (r.add, r.mul):
        assert len(tab) == size and all(len(row) == size for row in tab)
        assert all(tab[i][j] == tab[j][i] and 0 <= tab[i][j] < size
                   for i in range(size) for j in range(size))
    assert parse_ring(format_ring(r)) == r
