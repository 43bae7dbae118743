"""Generators for the graph families and reference tables the test corpus is
built from, so every instance is a parameterized construction.

The base 5-vertex graph of the fig1/fig2/fig3 family is the union of a
square a1-x1-x2-a2-a1 and a triangle a1-a2-a3.  fig1 attaches pendants to a1
and a2 (the realizable sides); fig2 and fig3 attach them to a3 and x1, which
kills realizability.  fig4 is a triangle with pendant sets on all three
corners.  The attachment points are pinned by the requirement that the
generated graph equal the zero-divisor graph of the matching reference
table.
"""

from __future__ import annotations

from importlib import resources

from .boolean_algebra import BooleanRing
from .graph import Graph, from_edge_list
from .semigroup import MulTable, parse_table

_BASE_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)]
_BASE_NAMES = ["a1", "a2", "a3", "x1", "x2"]


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edge_list(n, edges, [f"a{i + 1}" for i in range(n)])


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("complete bipartite graph needs parts >= 1")
    edges = [(u, m + v) for u in range(m) for v in range(n)]
    names = [f"a{i + 1}" for i in range(m)] + [f"b{j + 1}" for j in range(n)]
    return from_edge_list(m + n, edges, names)


def complete_multipartite(sizes) -> Graph:
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be a nonempty list of positives")
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    n = bounds[-1]
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for u in range(bounds[i], bounds[i + 1]):
                for v in range(bounds[j], bounds[j + 1]):
                    edges.append((u, v))
    names = [
        f"a{i + 1}{k + 1}" for i, s in enumerate(sizes) for k in range(s)
    ]
    return from_edge_list(n, edges, names)


def m_nk(n: int, k: int) -> Graph:
    """Complete graph on a1..an plus pendants x1..xk with xi attached to ai."""
    if n < 4:
        raise ValueError("m_nk needs n >= 4")
    if not 1 <= k <= n:
        raise ValueError("m_nk needs 1 <= k <= n")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges += [(i, n + i) for i in range(k)]
    names = [f"a{i + 1}" for i in range(n)] + [f"x{i + 1}" for i in range(k)]
    return from_edge_list(n + k, edges, names)


def _with_pendants(edges, names, groups) -> Graph:
    """The graph on the named vertices with edges, plus pendant groups
    (anchor, prefix, count): count new vertices prefix1, prefix2, ... joined
    to anchor, appended in order."""
    edges = list(edges)
    names = list(names)
    for anchor, prefix, count in groups:
        if count < 0:
            raise ValueError("pendant counts must be >= 0")
        for i in range(count):
            edges.append((anchor, len(names)))
            names.append(f"{prefix}{i + 1}")
    return from_edge_list(len(names), edges, names)


def fig1(u: int, v: int) -> Graph:
    """Base graph with u pendants on a1 and v pendants on a2."""
    return _with_pendants(_BASE_EDGES, _BASE_NAMES, [(0, "u", u), (1, "v", v)])


def fig2(u: int) -> Graph:
    """Base graph with u pendants on a3 (the triangle-only vertex)."""
    return _with_pendants(_BASE_EDGES, _BASE_NAMES, [(2, "u", u)])


def fig3(u: int) -> Graph:
    """Base graph with u pendants on x1 (a square-only vertex)."""
    return _with_pendants(_BASE_EDGES, _BASE_NAMES, [(3, "u", u)])


def fig4(u: int, v: int, w: int) -> Graph:
    """Triangle a1-a2-a3 with u, v, w pendants on the three corners."""
    return _with_pendants([(0, 1), (0, 2), (1, 2)], ["a1", "a2", "a3"],
                          [(0, "x", u), (1, "y", v), (2, "z", w)])


def two_star(m: int, n: int) -> Graph:
    """Two stars with m and n leaves and one edge joining the centers."""
    return _with_pendants([(0, 1)], ["a", "b"], [(0, "x", m), (1, "y", n)])


def fixture_table(k: int) -> MulTable:
    """The k-th built-in reference table (1..5), loaded from package data."""
    if not 1 <= k <= 5:
        raise ValueError("fixture tables are numbered 1..5")
    text = (
        resources.files(__package__)
        .joinpath(f"fixtures/table{k}.zdg-table")
        .read_text()
    )
    return parse_table(text)


def f2k_ring(k: int) -> BooleanRing:
    """The bit-vector boolean ring with 2^k elements: XOR addition, AND
    multiplication.  Element ids are the masks themselves, so 0 is the zero,
    the full mask is the one, and masks 1..2^k-2 are the graph vertices."""
    if not 2 <= k <= 7:
        raise ValueError("f2k_ring supports k = 2..7")
    size = 1 << k
    add = tuple(tuple(a ^ b for b in range(size)) for a in range(size))
    mul = tuple(tuple(a & b for b in range(size)) for a in range(size))
    names = tuple(format(m, f"0{k}b") for m in range(size))
    return BooleanRing(n=size - 2, add=add, mul=mul, names=names)
