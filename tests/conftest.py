"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's own algorithms: distances via
Floyd-Warshall, the core by deleting one edge at a time, automorphisms via
full permutation filtering, neighborhood predicates via frozenset scans.
"""

from __future__ import annotations

from itertools import combinations, permutations

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from zdg import families, theorems
from zdg.graph import Graph, bits, connected_graphs, from_edge_list, is_isomorphic
from zdg.semigroup import MulTable, table_from_rows, zero_divisor_graph

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


def oracle_distances(g: Graph) -> list[list[float]]:
    """Floyd-Warshall all-pairs distances; inf when unreachable."""
    inf = float("inf")
    d = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges():
        d[u][v] = d[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def oracle_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    d = oracle_distances(g)
    return all(d[0][j] != float("inf") for j in range(g.n))


def oracle_has_cycle(g: Graph) -> bool:
    """A graph is a forest iff it has n - c edges, c its number of
    components, counted as the distinct reachable sets."""
    d = oracle_distances(g)
    inf = float("inf")
    components = {frozenset(u for u in range(g.n) if d[v][u] != inf) for v in range(g.n)}
    return len(g.edges()) > g.n - len(components)


def oracle_diameter(g: Graph):
    if not oracle_connected(g):
        return None
    d = oracle_distances(g)
    return int(max(max(row) for row in d))


def oracle_core(g: Graph) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """The edges whose ends stay connected without them (the bridges are
    the rest), and the vertices those edges touch."""
    edges = g.edges()
    kept = set()
    for e in edges:
        d = oracle_distances(from_edge_list(g.n, [f for f in edges if f != e]))
        if d[e[0]][e[1]] != float("inf"):
            kept.add(e)
    return frozenset(v for e in kept for v in e), frozenset(kept)


def oracle_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    """All adjacency-preserving permutations, by full enumeration."""
    out = set()
    edges = g.edges()
    for p in permutations(range(g.n)):
        if all(g.has_edge(p[u], p[v]) for u, v in edges) and all(
            g.has_edge(u, v) == g.has_edge(p[u], p[v])
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            out.add(p)
    return out


def oracle_hoods(g: Graph) -> list[frozenset[int]]:
    """Each vertex's neighbours, read off one edge test per pair."""
    return [frozenset(u for u in range(g.n) if g.has_edge(v, u)) for v in range(g.n)]


def oracle_meet_closed(g: Graph) -> bool:
    hoods = oracle_hoods(g)
    pool = set(hoods)
    for x in range(g.n):
        for y in range(x, g.n):
            m = hoods[x] & hoods[y]
            if m and m not in pool:
                return False
    return True


def oracle_m_uniquely_determined(g: Graph, m: int) -> bool:
    """No two distinct vertices with m neighbours have the same ones."""
    hoods = oracle_hoods(g)
    return not any(
        len(hoods[x]) == m and hoods[x] == hoods[y]
        for x in range(g.n)
        for y in range(x + 1, g.n)
    )


def oracle_uniquely_determined(g: Graph) -> bool:
    hoods = oracle_hoods(g)
    return all(hoods[x] != hoods[y] for x in range(g.n) for y in range(x + 1, g.n))


def oracle_complemented(g: Graph) -> bool:
    """Every x has a neighbour y with no common neighbour (x ⊥ y)."""
    hoods = oracle_hoods(g)
    return all(any(not hoods[x] & hoods[y] for y in hoods[x]) for x in range(g.n))


def oracle_uniquely_complemented(g: Graph) -> bool:
    """Every x has a neighbour y with no common neighbour (x ⊥ y), and all
    such y have one neighbourhood."""
    hoods = oracle_hoods(g)
    for x in range(g.n):
        partners = {hoods[y] for y in hoods[x] if not hoods[x] & hoods[y]}
        if len(partners) != 1:
            return False
    return True


def table_facts(t: MulTable) -> theorems.TableFacts:
    """t with the facts of its zero-divisor graph, for calling a verifier
    on one table; raises ValueError when some nonzero element is not a zero
    divisor."""
    return theorems.bind(theorems.graph_facts(zero_divisor_graph(t)), t)


def boolean_rpartite_table(sizes) -> MulTable:
    """The idempotent table whose graph is the complete multipartite graph:
    squares fix each element, distinct same-part elements multiply to the
    part's first element, cross-part products are zero.

    Needs at least two parts: with a single part no element multiplies to
    zero, so the table would have no zero-divisor graph at all."""
    sizes = list(sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be two or more positives")
    n = sum(sizes)
    first = []
    part = []
    start = 1
    for s in sizes:
        for k in range(s):
            part.append(len(first))
        first.append(start)
        start += s
    # part[e-1] is the part index of element e; first[i] its first element
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for x in range(1, n + 1):
        for y in range(x, n + 1):
            if x == y:
                v = x
            elif part[x - 1] == part[y - 1]:
                v = first[part[x - 1]]
            else:
                v = 0
            rows[x][y] = v
            rows[y][x] = v
    return table_from_rows(rows)


def attach_ends(g: Graph, assignments) -> Graph:
    """Add pendant vertices: assignments is an iterable of (vertex, count);
    new vertices are appended in order."""
    edges = g.edges()
    names = list(g.names) if g.names is not None else [f"v{i}" for i in range(g.n)]
    nxt = g.n
    for v, count in assignments:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        if count < 0:
            raise ValueError("pendant counts must be >= 0")
        for _ in range(count):
            edges.append((v, nxt))
            names.append(f"p{nxt - g.n + 1}")
            nxt += 1
    return from_edge_list(nxt, edges, names)


def is_internal_vertex(g: Graph, v: int) -> bool:
    """True iff v is not an end vertex and no end vertex is adjacent to v."""
    if g.degree(v) == 1:
        return False
    return all(g.degree(u) != 1 for u in bits(g.adj[v]))


def attach_graph(g: Graph, v: int, h: Graph) -> Graph:
    """Join every vertex of h to the internal vertex v of g, keeping h's own
    edges; rejects non-internal v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if not is_internal_vertex(g, v):
        raise ValueError(f"vertex {v} is not internal")
    edges = g.edges()
    edges += [(g.n + a, g.n + b) for a, b in h.edges()]
    edges += [(v, g.n + w) for w in range(h.n)]
    names = list(g.names) if g.names is not None else [f"v{i}" for i in range(g.n)]
    names += [f"h{w}" for w in range(h.n)]
    return from_edge_list(g.n + h.n, edges, names)


def labeled_graphs(max_n: int) -> list[Graph]:
    """Every labeled graph on 1..max_n vertices, connected or not."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
            out.append(from_edge_list(n, edges))
    return out


@st.composite
def symmetric_tables(draw, max_n=4):
    """Arbitrary symmetric tables with absorbing zero; not necessarily
    associative."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            v = draw(st.integers(min_value=0, max_value=n))
            rows[i][j] = v
            rows[j][i] = v
    return table_from_rows(rows)


@pytest.fixture(scope="session")
def fixture_tables():
    return {k: families.fixture_table(k) for k in range(1, 6)}


@pytest.fixture(scope="session")
def connected_upto_4():
    return [g for n in range(1, 5) for g in connected_graphs(n)]


@pytest.fixture(scope="session")
def connected_classes_upto_5():
    """One connected graph per isomorphism class on 1..5 vertices."""
    reps = []
    for n in range(1, 6):
        for g in connected_graphs(n):
            if not any(h.n == n and is_isomorphic(g, h) for h in reps):
                reps.append(g)
    return reps
