from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

import zdg.realize
from zdg import families
from zdg.errors import TooLargeError
from zdg.graph import connected_graphs, from_edge_list, is_isomorphic
from zdg.realize import (
    BOOLEAN,
    PLAIN,
    Conflict,
    _per_table_class_count,
    _verify_solution,
    brute_force_realize,
    canonical_key,
    classify_uniqueness,
    init_state,
    iso_class_count,
    propagate,
    realize_all,
)
from zdg.semigroup import check_axioms, table_from_rows, zero_divisor_graph


def test_base_graph_unique_and_equals_fixture(fixture_tables):
    rep = realize_all(families.fig1(0, 0))
    assert rep.labeled_count == 1
    assert rep.status == "unique"
    assert rep.tables[0].prod == fixture_tables[1].prod


def test_k2_counts_match_hand_enumeration():
    # direct case analysis: six labeled tables, four orbits under the swap
    rep = realize_all(from_edge_list(2, [(0, 1)]))
    assert rep.labeled_count == 6
    assert rep.iso_class_count == 4
    squares = sorted((t.prod[1][1], t.prod[2][2]) for t in rep.tables)
    assert squares == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0)]


def test_single_vertex():
    g = from_edge_list(1, [])
    rep = realize_all(g)
    assert rep.labeled_count == 1
    assert rep.tables[0].prod == ((0, 0), (0, 0))
    assert realize_all(g, BOOLEAN).labeled_count == 0


def test_m_nk_not_realizable():
    assert realize_all(families.m_nk(4, 3)).labeled_count == 0
    assert realize_all(families.m_nk(4, 4)).labeled_count == 0


def test_two_star_boolean_none_plain_some():
    p4 = families.two_star(1, 1)
    assert realize_all(p4, BOOLEAN).labeled_count == 0
    assert realize_all(p4, PLAIN).labeled_count > 0


def test_k22_boolean_contains_rpartite_construction():
    rep = realize_all(families.complete_bipartite(2, 2), BOOLEAN)
    want = families.boolean_rpartite_table([2, 2]).prod
    assert any(t.prod == want for t in rep.tables)


def test_propagation_forces_pendant_product():
    # one pendant u on a2: the annihilator argument pins x1*u to a2
    state = init_state(families.fig1(0, 1), PLAIN)
    assert propagate(state) is None
    assert state.table[4][6] == 2


def test_propagation_conflict_witnessed_by_oracle():
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    state = init_state(p3, PLAIN)
    assert state.assign(2, 2, 2) is None
    assert state.assign(1, 3, 2) is None
    conflict = propagate(state)
    assert isinstance(conflict, Conflict)
    # the oracle confirms no completion exists with those two values
    tables = brute_force_realize(p3).tables
    assert not any(t.prod[2][2] == 2 and t.prod[1][3] == 2 for t in tables)


def test_fixpoint_on_complete_assignment(fixture_tables):
    t = fixture_tables[1]
    g = zero_divisor_graph(t)
    state = init_state(g, PLAIN)
    for i in t.nonzero():
        for j in range(i, t.n + 1):
            if state.table[i][j] == -1:
                assert state.assign(i, j, t.prod[i][j]) is None
    before = [row[:] for row in state.table]
    assert propagate(state) is None
    assert state.table == before


_SEARCHES = {
    "K5": (families.complete(5), PLAIN),
    "K2,3": (families.complete_bipartite(2, 3), PLAIN),
    "K1,4": (families.complete_bipartite(1, 4), PLAIN),
    "K2,2,1": (families.complete_multipartite([2, 2, 1]), PLAIN),
    "K2,2,2": (families.complete_multipartite([2, 2, 2]), PLAIN),
    "m-nk 5 1": (families.m_nk(5, 1), PLAIN),
    "fig4 2 2 2": (families.fig4(2, 2, 2), PLAIN),
    "m-nk 6 2": (families.m_nk(6, 2), PLAIN),
    "m-nk 7 2": (families.m_nk(7, 2), PLAIN),
    "boolean K3,3": (families.complete_bipartite(3, 3), BOOLEAN),
}


@pytest.mark.parametrize(
    "name", ["K5", "K2,3", "K1,4", "m-nk 5 1", "fig4 2 2 2", "m-nk 6 2", "boolean K3,3"]
)
def test_incremental_propagation_reaches_the_full_fixpoint(monkeypatch, name):
    # after each successful propagate, checking every triple again (every
    # element dirty) must change no cell and no candidate set
    real = zdg.realize.propagate
    calls = [0]

    def checked(state):
        conflict = real(state)
        if conflict is None:
            calls[0] += 1
            table = [row[:] for row in state.table]
            domains = dict(state.domains)
            state.dirty.update(range(1, state.n + 1))
            assert real(state) is None
            assert state.table == table and state.domains == domains
        return conflict

    monkeypatch.setattr(zdg.realize, "propagate", checked)
    graph, mode = _SEARCHES[name]
    realize_all(graph, mode)
    assert calls[0] > 1


# labeled count, orbit count and sha256 of the sorted canonical keys, computed
# with a propagation that checked every triple on every round; beyond the
# oracle's n <= 4, these catch a search that loses or gains tables, a whole
# orbit included
_PINNED = {
    "K5": (537, 19, "10490fbc5b0fcf7172fddfe2ce8c75a7e979780f1955f10931f7a18d095ed138"),
    "K2,3": (648, 60, "9aea0ebca1720ad85c056f18c5bcf832aabc36d5510c68294a3554946772bbdd"),
    "K2,2,1": (260, 46, "fb6802a0e7fb29f4ce89686ca8b385db1682758368ca2b16d7d7b4624b90da5a"),
    "K2,2,2": (512, 20, "d4405254eaf273f40f2c3ba3151c526aa2cfd4dd32064e0069d6991bc77b6dd4"),
    "m-nk 5 1": (1024, 87, "44415532fd52c338a2899e2e01ee90adbde2bd8ad803937f498dbf52e14ec9ba"),
    "fig4 2 2 2": (216, 10, "832a34ab8f0d0173e947ad59a97d2a3ba39920f77d41d8f082eba52796498093"),
    "m-nk 7 2": (5, 1, "8d78b8b6bc4e62f27ffc208b6d8afe3dbf6b3d4825894d567aae2a1977aac3d1"),
    "boolean K3,3": (81, 3, "feb70872eef2593c8ddeeb1782ab338edb349792ef43904cd34947c9406a3cbc"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_search_output_pinned(name):
    graph, mode = _SEARCHES[name]
    rep = realize_all(graph, mode)
    keys = sorted(canonical_key(t) for t in rep.tables)
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert (rep.labeled_count, rep.iso_class_count, digest) == _PINNED[name]


def _f2k_graph(k):
    """Zero-divisor graph of the bit-vector ring F_2^k: the proper nonzero
    masks, joined when disjoint."""
    masks = range(1, (1 << k) - 1)
    pairs = [(a - 1, b - 1) for a, b in combinations(masks, 2) if not a & b]
    return from_edge_list(len(masks), pairs)


_RELABELED = {
    **{f"m-nk {k} 2": (families.m_nk(k, 2), PLAIN, 12) for k in range(5, 9)},
    "boolean F2^5": (_f2k_graph(5), BOOLEAN, 30),
}


@pytest.mark.parametrize("name", sorted(_RELABELED))
def test_branching_does_not_depend_on_labels(monkeypatch, name):
    # the search tree is a fact about the graph: over random relabelings the
    # number of propagate calls may vary by at most a factor of two
    real = zdg.realize.propagate
    calls = [0]

    def counted(state):
        calls[0] += 1
        return real(state)

    monkeypatch.setattr(zdg.realize, "propagate", counted)
    graph, mode, max_n = _RELABELED[name]
    rng = random.Random(0)
    counts = []
    for _ in range(10):
        perm = list(range(graph.n))
        rng.shuffle(perm)
        relabeled = from_edge_list(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])
        calls[0] = 0
        realize_all(relabeled, mode, max_n=max_n)
        counts.append(calls[0])
    assert max(counts) <= 2 * min(counts), counts


def _complete_state(g, mode, rows):
    """A search state for g whose table is rows, with no cell left open."""
    state = init_state(g, mode)
    state.table = [list(row) for row in rows]
    state.domains.clear()
    return state


_P3 = from_edge_list(3, [(0, 1), (1, 2)])
_K2 = from_edge_list(2, [(0, 1)])


@pytest.mark.parametrize(
    "g, mode, rows, match",
    [
        # the null semigroup on three elements has graph K3: 1*3 = 0 off an edge
        (_P3, PLAIN, [[0] * 4] * 4, "wrong graph"),
        # a realization of P3 (1*3 = 2) checked against K3: nonzero on an edge
        (
            families.complete(3),
            PLAIN,
            [[0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0], [0, 2, 0, 0]],
            "wrong graph",
        ),
        # a lone element with 1*1 = 1 has no zero partner
        (from_edge_list(1, []), PLAIN, [[0, 0], [0, 1]], "not a zero divisor"),
        # (1*1)*2 = 2*2 = 1 but 1*(1*2) = 1*0 = 0
        (_K2, PLAIN, [[0, 0, 0], [0, 2, 0], [0, 0, 1]], "non-associative"),
        # the null semigroup on K2 is associative but 1*1 = 0 != 1
        (_K2, BOOLEAN, [[0] * 3] * 3, "non-boolean"),
    ],
    ids=["zero off an edge", "no zero on an edge", "lone idempotent", "non-associative",
         "non-boolean"],
)
def test_leaf_check_rejects_bad_tables(g, mode, rows, match):
    with pytest.raises(AssertionError, match=match):
        _verify_solution(_complete_state(g, mode, rows), g)


def test_soundness_and_fixture_completeness(fixture_tables):
    for k, t in fixture_tables.items():
        g = zero_divisor_graph(t)
        rep = realize_all(g)
        assert any(s.prod == t.prod for s in rep.tables), f"fixture {k} missing"
        for s in rep.tables:
            assert not check_axioms(s)
            assert zero_divisor_graph(s).adj == g.adj


def test_tables_listed_in_canonical_order():
    rep = realize_all(families.fig4(1, 1, 1))
    keys = [canonical_key(t) for t in rep.tables]
    assert keys == sorted(keys)
    assert rep.labeled_count == len(set(keys))


def test_emitted_set_closed_under_automorphisms():
    from zdg.graph import automorphisms
    from zdg.realize import apply_automorphism

    g = families.fig4(1, 1, 1)
    rep = realize_all(g)
    pool = {t.prod for t in rep.tables}
    for t in rep.tables:
        for a in automorphisms(g):
            assert apply_automorphism(t, a).prod in pool


def test_limit_and_truncation():
    g = families.fig4(2, 2, 2)
    full = realize_all(g)
    assert not full.truncated
    part = realize_all(g, limit=5)
    assert part.truncated and part.labeled_count == 5
    with pytest.raises(ValueError, match="truncated"):
        classify_uniqueness(part)
    assert classify_uniqueness(full) == full.status


def test_truncated_is_exact():
    # truncated only when a labeled table exists beyond those returned
    base = families.fig1(0, 0)
    one = realize_all(base, limit=1)
    assert one.labeled_count == 1 and not one.truncated
    assert classify_uniqueness(one) == "unique"
    g = families.fig4(2, 2, 2)
    full = realize_all(g)
    assert full.labeled_count == 216
    every = realize_all(g, limit=216)
    assert not every.truncated and every.to_dict() == full.to_dict()
    short = realize_all(g, limit=215)
    assert short.truncated and short.labeled_count == 215
    assert set(short.tables) < set(full.tables)


def test_iso_class_count_skips_automorphisms_below_two_tables(monkeypatch):
    import zdg.realize

    def refuse(*args, **kwargs):
        raise AssertionError("Aut(G) computed")

    monkeypatch.setattr(zdg.realize, "automorphisms", refuse)
    assert realize_all(families.fig1(0, 0)).iso_class_count == 1
    assert realize_all(families.m_nk(4, 3)).iso_class_count == 0


@pytest.fixture(scope="module")
def connected_classes_upto_5():
    """One connected graph per isomorphism class on 1..5 vertices."""
    reps = []
    for n in range(1, 6):
        for g in connected_graphs(n):
            if not any(h.n == n and is_isomorphic(g, h) for h in reps):
                reps.append(g)
    return reps


@pytest.mark.parametrize("mode", [PLAIN, BOOLEAN])
def test_orbit_count_matches_per_table_formula(connected_classes_upto_5, mode):
    for g in connected_classes_upto_5:
        rep = realize_all(g, mode)
        assert rep.iso_class_count == _per_table_class_count(rep.tables, g), g.edges()


@pytest.mark.parametrize("limit", [5, 50, 215])
def test_orbit_count_exact_on_truncated_sets(limit):
    g = families.fig4(2, 2, 2)
    rep = realize_all(g, limit=limit)
    assert rep.truncated
    assert rep.iso_class_count == _per_table_class_count(rep.tables, g)
    # the subset is not closed under Aut(G), so it fails the complete check
    with pytest.raises(AssertionError):
        iso_class_count([canonical_key(t) for t in rep.tables], g, complete=True)


def _edit_search_output(monkeypatch, edit):
    """Make the search apply edit to its list of tables before returning it."""
    real = zdg.realize._dfs
    depth = [0]

    def search(*args):
        depth[0] += 1
        try:
            more = real(*args)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            edit(args[2])
        return more

    monkeypatch.setattr(zdg.realize, "_dfs", search)


def test_orbit_stabilizer_check_catches_a_dropped_table(monkeypatch):
    # on K2 the table with squares (0, 1) shares its orbit with (2, 0)
    def drop(out):
        out[:] = [t for t in out if (t.prod[1][1], t.prod[2][2]) != (0, 1)]

    _edit_search_output(monkeypatch, drop)
    with pytest.raises(AssertionError, match="missed an Aut"):
        realize_all(from_edge_list(2, [(0, 1)]))


def test_orbit_stabilizer_check_catches_a_repeated_table(monkeypatch):
    _edit_search_output(monkeypatch, lambda out: out.append(out[0]))
    with pytest.raises(AssertionError, match="orbit sizes sum to 6, but 7"):
        realize_all(from_edge_list(2, [(0, 1)]))


def test_size_guard_and_preconditions():
    big = from_edge_list(13, [(i, i + 1) for i in range(12)])
    with pytest.raises(TooLargeError):
        realize_all(big)
    with pytest.raises(ValueError, match="connected"):
        realize_all(from_edge_list(3, [(0, 1)]))
    with pytest.raises(TooLargeError):
        brute_force_realize(from_edge_list(5, [(i, i + 1) for i in range(4)]))


def test_oracle_equivalence_n3():
    for g in connected_graphs(3):
        for mode in (PLAIN, BOOLEAN):
            assert realize_all(g, mode).to_dict() == brute_force_realize(g, mode).to_dict()


def test_oracle_k3_boolean_contains_orthogonal_idempotents():
    rep = brute_force_realize(families.complete(3), BOOLEAN)
    want = table_from_rows(
        [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]
    )
    assert any(t.prod == want.prod for t in rep.tables)


def test_oracle_pendant_triangle_contains_fixture(fixture_tables):
    t5 = fixture_tables[5]
    rep = brute_force_realize(zero_divisor_graph(t5))
    assert any(t.prod == t5.prod for t in rep.tables)


def test_fig1_labeled_unique_for_all_small_pendant_counts():
    # finite slice of the arbitrary-pendant uniqueness claim; larger
    # counts stay out of reach of an exhaustive check
    for u in range(4):
        for v in range(4):
            rep = realize_all(families.fig1(u, v))
            assert rep.labeled_count == 1, (u, v)
            assert rep.iso_class_count == 1
