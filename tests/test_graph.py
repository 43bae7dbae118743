from __future__ import annotations

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    is_internal_vertex,
    labeled_graphs,
    oracle_automorphisms,
    oracle_complemented,
    oracle_connected,
    oracle_core,
    oracle_diameter,
    oracle_distances,
    oracle_has_cycle,
    oracle_hoods,
    oracle_m_uniquely_determined,
    oracle_meet_closed,
    oracle_uniquely_complemented,
    oracle_uniquely_determined,
)
import zdg.graph
from zdg import cli, families
from zdg.errors import TooLargeError
from zdg.graph import (
    Graph,
    automorphisms,
    connected_graphs,
    core,
    diameter,
    end_vertices,
    format_graph,
    from_edge_list,
    has_cycle,
    is_complemented,
    is_connected,
    is_isomorphic,
    is_m_uniquely_determined,
    is_uniquely_complemented,
    is_uniquely_determined,
    neighborhood_meet_closed,
    pendant_set,
    reachable,
)
from zdg.realize import BOOLEAN, PLAIN, realize_all


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    return from_edge_list(n, edges)


def on_every_graph_upto_5(test):
    """Also run a hypothesis test on each of the 1,099 labeled graphs on up
    to 5 vertices, as explicit examples: random draws rarely hold the
    twin-heavy graphs that neighbourhood classes collapse."""
    for g in labeled_graphs(5):
        test = example(g)(test)
    return test


BASE = families.fig1(0, 0)  # square a1-x1-x2-a2 plus triangle a1-a2-a3


def test_from_edge_list_smallest():
    g = from_edge_list(2, [(0, 1)])
    assert g.edges() == [(0, 1)]


def test_from_edge_list_duplicates_collapse():
    g = from_edge_list(3, [(0, 1), (0, 1)])
    assert g.edges() == [(0, 1)]
    assert g.degree(2) == 0


@pytest.mark.parametrize("adj, names, match", [
    ((2,), None, "adjacency length"),
    ((4, 0), None, "vertex 0: neighbor out of range"),
    ((1, 0), None, "vertex 0: self-loop"),
    ((2, 1), ("a",), "names length"),
])
def test_graph_refuses_a_malformed_adjacency(adj, names, match):
    with pytest.raises(ValueError, match=match):
        Graph(2, adj, names)


def test_from_edge_list_rejects_bad_edges():
    with pytest.raises(ValueError, match="out of range"):
        from_edge_list(2, [(0, 2)])
    with pytest.raises(ValueError, match="self-loop"):
        from_edge_list(2, [(1, 1)])


def test_base_graph_shape():
    assert BASE.n == 5
    assert BASE.edge_count() == 6
    assert is_connected(BASE)
    assert diameter(BASE) == 2


def test_diameter_trivia():
    assert diameter(from_edge_list(2, [(0, 1)])) == 1
    assert diameter(from_edge_list(1, [])) == 0
    assert diameter(from_edge_list(4, [(0, 1), (2, 3)])) is None
    assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))


def test_core_of_forest_is_empty():
    path4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    verts, edges = core(path4)
    assert not verts and not edges
    assert not has_cycle(path4)


def test_core_of_base_graph_is_everything():
    verts, edges = core(BASE)
    assert verts == frozenset(range(5))
    assert len(edges) == 6


def test_core_of_pendant_triangle():
    g = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    verts, edges = core(g)
    assert verts == frozenset({0, 1, 2})
    assert edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_pendant_sets():
    m43 = families.m_nk(4, 3)
    assert pendant_set(m43, 0) == frozenset({4})
    k3 = families.complete(3)
    assert all(not pendant_set(k3, v) for v in range(3))
    star = from_edge_list(5, [(0, i) for i in range(1, 5)])
    assert pendant_set(star, 0) == frozenset({1, 2, 3, 4})
    with pytest.raises(ValueError, match="vertex 5 out of range"):
        pendant_set(star, 5)


def test_internal_vertices():
    g = from_edge_list(4, [(0, 1), (0, 2), (1, 2), (0, 3)])  # pendant on 0
    assert is_internal_vertex(g, 1)
    assert not is_internal_vertex(g, 0)
    assert not is_internal_vertex(g, 3)
    k2 = from_edge_list(2, [(0, 1)])
    assert not any(is_internal_vertex(k2, v) for v in range(2))
    # no end vertices at all: every vertex is internal
    assert all(is_internal_vertex(BASE, v) for v in range(5))


def test_uniquely_determined():
    assert not is_uniquely_determined(families.complete_bipartite(2, 2))
    assert is_uniquely_determined(families.complete(3))
    f23 = _gamma_f2_3()
    assert is_uniquely_determined(f23)
    for m in (0, 4):
        with pytest.raises(ValueError, match=f"m={m} out of range 1..3"):
            is_m_uniquely_determined(families.complete(3), m)


def _gamma_f2_3() -> Graph:
    masks = list(range(1, 7))
    edges = [
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if masks[i] & masks[j] == 0
    ]
    return from_edge_list(6, edges)


def test_complementation():
    assert is_uniquely_complemented(from_edge_list(2, [(0, 1)]))
    assert not is_complemented(families.complete(3))
    assert is_uniquely_complemented(_gamma_f2_3())


def test_meet_closure():
    assert neighborhood_meet_closed(from_edge_list(2, [(0, 1)]))
    assert neighborhood_meet_closed(_gamma_f2_3())
    base = families.complete_bipartite(2, 3)
    g = from_edge_list(6, base.edges() + [(0, 5), (1, 5)])
    assert neighborhood_meet_closed(g) == oracle_meet_closed(g)
    assert neighborhood_meet_closed(g) is True


def test_automorphism_counts():
    assert len(automorphisms(families.complete(3))) == 6
    assert len(automorphisms(from_edge_list(3, [(0, 1), (1, 2)]))) == 2
    # the base graph has exactly the identity and the square-triangle swap
    assert sorted(automorphisms(BASE)) == [(0, 1, 2, 3, 4), (1, 0, 2, 4, 3)]
    assert oracle_automorphisms(BASE) == set(automorphisms(BASE))


def test_twins_refuse_a_large_group_before_listing_it(monkeypatch):
    # K1,5 has 5 leaves with one open neighbourhood, K5 5 vertices with one
    # closed neighbourhood: 5! = 120 automorphisms either way, refused
    # before a permutation is listed
    monkeypatch.setattr(zdg.graph, "MAX_AUTOMORPHISMS", 100)
    with monkeypatch.context() as m:
        m.setattr(zdg.graph, "isomorphisms", lambda g, h: pytest.fail("listed"))
        for g in (families.complete_bipartite(1, 5), families.complete(5)):
            with pytest.raises(TooLargeError, match="more than 100"):
                automorphisms(g)
    # P4 has no twins, and its 2 automorphisms are listed
    assert automorphisms(from_edge_list(4, [(0, 1), (1, 2), (2, 3)])) == [
        (0, 1, 2, 3), (3, 2, 1, 0)]


def test_isomorphism_witness():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    h = from_edge_list(4, [(3, 2), (2, 1), (1, 0)])
    assert is_isomorphic(g, h) is not None
    k13 = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert is_isomorphic(g, k13) is None
    m = is_isomorphic(BASE, BASE)
    assert m is not None and all(
        BASE.has_edge(m[u], m[v]) for u, v in BASE.edges()
    )


def test_isomorphism_needs_the_adjacency_test():
    # C6 and two disjoint triangles: both 2-regular, so the degree
    # signatures agree and only adjacency tells them apart
    c6 = from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert is_isomorphic(c6, triangles) is None
    assert is_isomorphic(triangles, c6) is None


@given(st.data())
def test_isomorphism_found_for_any_relabeling(data):
    g = data.draw(graphs())
    p = data.draw(st.permutations(range(g.n)))
    h = from_edge_list(g.n, [(p[u], p[v]) for u, v in g.edges()])
    m = is_isomorphic(g, h)
    assert m is not None and sorted(m) == list(range(g.n))
    assert all(g.has_edge(u, v) == h.has_edge(m[u], m[v])
               for u in range(g.n) for v in range(g.n))


def test_connected_graph_census():
    # labeled connected graphs and their isomorphism classes for n = 1..6;
    # at 5 and 6 vertices, the classes that are the zero-divisor graph of
    # some semigroup (plain) and of some idempotent semigroup (boolean)
    labeled, classes, realizable = [], [], {PLAIN: [], BOOLEAN: []}
    for n in range(1, 7):
        graphs = connected_graphs(n)
        buckets = {}  # degree sequence -> class representatives
        for g in graphs:
            key = tuple(sorted(g.degree(v) for v in range(n)))
            bucket = buckets.setdefault(key, [])
            if not any(is_isomorphic(g, h) for h in bucket):
                bucket.append(g)
        reps = [g for bucket in buckets.values() for g in bucket]
        labeled.append(len(graphs))
        classes.append(len(reps))
        if n >= 5:
            for mode, counts in realizable.items():
                counts.append(sum(realize_all(g, mode, limit=1).labeled_count for g in reps))
    assert labeled == [1, 1, 4, 38, 728, 26704]
    assert classes == [1, 1, 2, 6, 21, 112]
    assert realizable == {PLAIN: [18, 68], BOOLEAN: [12, 34]}


def test_props_of_the_base_graph():
    assert is_connected(BASE) and has_cycle(BASE) and diameter(BASE) == 2
    assert end_vertices(BASE) == frozenset()
    assert core(BASE)[0] == frozenset(range(5))


@given(graphs())
@on_every_graph_upto_5
def test_connectivity_and_diameter_match_oracle(g):
    assert is_connected(g) == oracle_connected(g)
    assert diameter(g) == oracle_diameter(g)


@given(graphs())
def test_reachable_matches_oracle_distances(g):
    d = oracle_distances(g)
    for v in range(g.n):
        want = sum(1 << u for u in range(g.n) if d[v][u] != float("inf"))
        assert reachable(g.adj, v) == want


@given(graphs())
def test_core_properties(g):
    verts, edges = core(g)
    all_edges = set(g.edges())
    assert edges <= all_edges
    assert verts == frozenset(v for e in edges for v in e)
    # removing all core edges leaves a forest
    rest = from_edge_list(g.n, sorted(all_edges - edges))
    assert not has_cycle(rest)
    # with a cycle present, a vertex is an end vertex or lies in the core
    # only for realizable graphs; here check the weaker structural fact
    # that every cycle edge is a core edge via has_cycle consistency
    assert has_cycle(g) == bool(edges)


def test_has_cycle_iff_core_has_an_edge():
    # the sweep and zdg props read the cycle flag off the core's edges;
    # the forest count (m > n - components) is the independent reference
    for g in labeled_graphs(5):
        assert has_cycle(g) == bool(core(g)[1]) == oracle_has_cycle(g), g.edges()


@given(graphs(max_n=8))
def test_core_edges_match_bridge_oracle(g):
    # an edge is in the core iff its ends stay connected without it
    assert core(g) == oracle_core(g)


def test_core_of_a_large_two_star_and_a_long_cycle():
    # 4,002 vertices, where work quadratic in the edges takes seconds; and
    # a cycle deeper than the recursion limit
    assert core(families.two_star(2000, 2000)) == (frozenset(), frozenset())
    n = 5000
    ring = from_edge_list(n, [(v, (v + 1) % n) for v in range(n)])
    verts, edges = core(ring)
    assert verts == frozenset(range(n)) and len(edges) == n


def test_props_of_a_large_two_star(tmp_path, capsys):
    # 4,000 leaves in two neighbourhood classes: work per vertex rather than
    # per class takes seconds here
    path = tmp_path / "two-star.zdg-graph"
    path.write_text(format_graph(families.two_star(2000, 2000)))
    assert cli.main(["props", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "n": 4002,
        "connected": True,
        "diameter": 3,
        "has_cycle": False,
        "core_vertices": [],
        "core_edges": [],
        "end_vertices": list(range(2, 4002)),
        "uniquely_determined": False,
        "complemented": True,
        "uniquely_complemented": False,
        "meet_closed": True,
    }


def test_props_payload_matches_oracles(tmp_path, capsys):
    # every labeled graph on up to 5 vertices, connected or not
    path = tmp_path / "g.zdg-graph"
    for g in labeled_graphs(5):
        path.write_text(format_graph(g))
        assert cli.main(["props", str(path), "--json"]) == 0
        cv, ce = oracle_core(g)
        assert json.loads(capsys.readouterr().out) == {
            "n": g.n,
            "connected": oracle_connected(g),
            "diameter": oracle_diameter(g),
            "has_cycle": bool(ce),
            "core_vertices": sorted(cv),
            "core_edges": [list(e) for e in sorted(ce)],
            "end_vertices": [v for v, hood in enumerate(oracle_hoods(g)) if len(hood) == 1],
            "uniquely_determined": oracle_uniquely_determined(g),
            "complemented": oracle_complemented(g),
            "uniquely_complemented": oracle_uniquely_complemented(g),
            "meet_closed": oracle_meet_closed(g),
        }, g.edges()


@given(graphs())
def test_unique_determination_m_equivalence(g):
    # the m-variants never see degree-0 vertices, so the equivalence is
    # about graphs without isolated vertices (all connected graphs qualify)
    if any(g.degree(v) == 0 for v in range(g.n)) and g.n > 1:
        return
    expected = is_uniquely_determined(g)
    assert expected == all(
        is_m_uniquely_determined(g, m) for m in range(1, g.n + 1)
    )


@given(graphs())
@on_every_graph_upto_5
def test_neighbourhood_predicates_match_oracles(g):
    assert is_uniquely_determined(g) == oracle_uniquely_determined(g)
    for m in range(1, g.n + 1):
        assert is_m_uniquely_determined(g, m) == oracle_m_uniquely_determined(g, m)
    assert is_uniquely_complemented(g) == oracle_uniquely_complemented(g)


@given(graphs(max_n=5))
def test_automorphisms_form_a_group(g):
    auts = automorphisms(g)
    assert auts == sorted(oracle_automorphisms(g))
    perms = set(auts)
    assert tuple(range(g.n)) in perms
    for p in perms:
        inv = tuple(sorted(range(g.n), key=lambda i: p[i]))
        assert inv in perms
        for q in perms:
            assert tuple(q[p[i]] for i in range(g.n)) in perms


@given(graphs(max_n=5))
@on_every_graph_upto_5
def test_meet_closure_matches_oracle(g):
    assert neighborhood_meet_closed(g) == oracle_meet_closed(g)


def test_end_vertices_simple():
    path = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert end_vertices(path) == frozenset({0, 3})
