"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's own algorithms: distances via
Floyd-Warshall, automorphisms via full permutation filtering, neighborhood
predicates via frozenset scans.
"""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import settings

from zdg import families
from zdg.graph import Graph, bits, connected_graphs

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


def oracle_diameter(g: Graph):
    if not oracle_connected(g):
        return None
    d = oracle_distances(g)
    return int(max(max(row) for row in d))


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


def oracle_meet_closed(g: Graph) -> bool:
    hoods = [frozenset(bits(g.adj[v])) for v in range(g.n)]
    pool = set(hoods)
    for x in range(g.n):
        for y in range(x, g.n):
            m = hoods[x] & hoods[y]
            if m and m not in pool:
                return False
    return True


@pytest.fixture(scope="session")
def fixture_tables():
    return {k: families.fixture_table(k) for k in range(1, 6)}


@pytest.fixture(scope="session")
def connected_upto_4():
    return [g for n in range(1, 5) for g in connected_graphs(n)]
