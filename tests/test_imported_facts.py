"""Structural facts about zero-divisor graphs, asserted over every table
the engine realizes on the small-graph corpus plus the bundled fixtures:

  * the graph is connected with diameter at most 3;
  * with a cycle present, every vertex is an end vertex or lies in the
    core, and every core edge lies in a triangle or a square;
  * non-adjacent vertices have their neighborhood union inside some closed
    neighborhood;
  * a reduced table with a uniquely determined graph is idempotent.
"""

from __future__ import annotations

import pytest

from conftest import all_connected_graphs
from zdg import families
from zdg.boolean_algebra import (
    check_boolean_graph_conditions,
    ring_from_graph,
    ring_zero_divisor_graph,
)
from zdg.graph import (
    Graph,
    bits,
    core,
    diameter,
    end_vertices,
    has_cycle,
    is_connected,
    is_uniquely_determined,
)
from zdg.realize import BOOLEAN, PLAIN, realize_all
from zdg.semigroup import is_boolean, is_reduced, zero_divisor_graph


@pytest.fixture(scope="module")
def corpus_tables(fixture_tables):
    tables = list(fixture_tables.values())
    for n in range(1, 5):
        for g in all_connected_graphs(n):
            for mode in (PLAIN, BOOLEAN):
                tables.extend(realize_all(g, mode).tables)
    tables.extend(realize_all(families.fig4(1, 1, 1)).tables)
    tables.extend(realize_all(families.complete_bipartite(2, 3)).tables)
    return tables


def _edge_in_triangle_or_square(g: Graph, u: int, v: int) -> bool:
    if g.adj[u] & g.adj[v]:
        return True
    for d in bits(g.adj[u] & ~(1 << v)):
        for h in bits(g.adj[v] & ~(1 << u)):
            if d != h and g.has_edge(d, h):
                return True
    return False


def test_connected_and_diameter_at_most_3(corpus_tables):
    for t in corpus_tables:
        g = zero_divisor_graph(t)
        assert is_connected(g)
        assert diameter(g) <= 3


def test_core_is_triangles_and_squares(corpus_tables):
    for t in corpus_tables:
        g = zero_divisor_graph(t)
        verts, edges = core(g)
        for u, v in edges:
            assert _edge_in_triangle_or_square(g, u, v), (g.edges(), (u, v))
        if has_cycle(g):
            ends = end_vertices(g)
            assert all(v in ends or v in verts for v in range(g.n))


def test_closed_neighborhood_covering(corpus_tables):
    for t in corpus_tables:
        g = zero_divisor_graph(t)
        for x in range(g.n):
            for y in range(x + 1, g.n):
                if g.has_edge(x, y):
                    continue
                union = g.adj[x] | g.adj[y]
                assert any(
                    union & ~(g.adj[z] | 1 << z) == 0 for z in range(g.n)
                ), (g.edges(), x, y)


def test_reduced_uniquely_determined_implies_idempotent(corpus_tables):
    applicable = 0
    for t in corpus_tables:
        if is_reduced(t) and is_uniquely_determined(zero_divisor_graph(t)):
            applicable += 1
            assert is_boolean(t)
    assert applicable > 0


def test_ring_round_trip_for_every_qualifying_small_graph():
    hits = 0
    for g in all_connected_graphs(4) + all_connected_graphs(3) + all_connected_graphs(2):
        if not check_boolean_graph_conditions(g).all_hold:
            continue
        hits += 1
        ring = ring_from_graph(g)
        assert ring_zero_divisor_graph(ring).adj == g.adj
    assert hits > 0  # the 2-vertex graph qualifies
