from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from conftest import boolean_rpartite_table

import zdg.graph
import zdg.realize
from zdg import cli, families
from zdg.boolean_algebra import check_boolean_graph_conditions
from zdg.errors import TooLargeError
from zdg.graph import connected_graphs, format_graph, from_edge_list
from zdg.realize import (
    BOOLEAN,
    PLAIN,
    Conflict,
    _per_table_class_count,
    _verify_solution,
    brute_force_realize,
    canonical_key,
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
    want = boolean_rpartite_table([2, 2]).prod
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
    "K1,5": (families.complete_bipartite(1, 5), PLAIN),
    "K2,4": (families.complete_bipartite(2, 4), PLAIN),
    "K3,3": (families.complete_bipartite(3, 3), PLAIN),
    "K2,2,1": (families.complete_multipartite([2, 2, 1]), PLAIN),
    "K2,2,2": (families.complete_multipartite([2, 2, 2]), PLAIN),
    "m-nk 5 1": (families.m_nk(5, 1), PLAIN),
    "fig4 2 2 2": (families.fig4(2, 2, 2), PLAIN),
    "m-nk 5 2": (families.m_nk(5, 2), PLAIN),
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


@pytest.mark.parametrize(
    "name", ["K5", "K2,3", "K1,4", "m-nk 5 1", "fig4 2 2 2", "m-nk 6 2", "boolean K3,3"]
)
def test_settled_equations_miss_nothing(monkeypatch, name):
    # below the root propagate checks only the equations the root left
    # open; after each successful propagate, checking every equation of
    # init_state again (every element dirty) must change no cell and no
    # candidate set
    real = zdg.realize.propagate
    graph, mode = _SEARCHES[name]
    every = init_state(graph, mode).live
    calls = [0]

    def checked(state):
        conflict = real(state)
        if conflict is None:
            calls[0] += 1
            full = state.copy()
            full.live = every
            full.dirty.update(range(1, state.n + 1))
            assert real(full) is None
            assert full.table == state.table and full.domains == state.domains
        return conflict

    monkeypatch.setattr(zdg.realize, "propagate", checked)
    realize_all(graph, mode)
    assert calls[0] > 1


@pytest.mark.parametrize("mode", [PLAIN, BOOLEAN])
def test_every_conflict_names_where_it_came_from(monkeypatch, connected_classes_upto_5, mode):
    # a conflict without a triple is a cell init_state left without
    # candidates, found by the root call; every other conflict names the
    # triple (a, b, c) whose rule failed and a cell that rule reads
    real = zdg.realize.propagate
    calls = [0]
    seen = {"root": 0, "triple": 0}

    def checked(state):
        calls[0] += 1
        conflict = real(state)
        if conflict is None:
            return None
        if conflict.triple is None:
            assert conflict.reason == "empty candidate set"
            assert calls[0] == 1
            seen["root"] += 1
        else:
            a, b, c = conflict.triple
            T = state.table
            read = {(a, b), (b, c), (T[a][b], c), (a, T[b][c])}
            assert conflict.cell in read | {(j, i) for i, j in read}, conflict
            seen["triple"] += 1
        return conflict

    monkeypatch.setattr(zdg.realize, "propagate", checked)
    for g in connected_classes_upto_5:
        calls[0] = 0
        realize_all(g, mode)
    assert seen["root"] and seen["triple"]


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
    # computed with the orbit search comparing and branching in key order
    "K1,5": (72897, 773, "4f86f2a1e32660c0c89d68b0d973aa17aa0e8080d7805c1547f6ac29a1869592"),
    "K2,4": (11136, 280, "36671113a48e5fc3ce4bf825f8773c8a69ae2c77e8f29e6a45e1d0ebf994052f"),
    "K3,3": (6561, 120, "b996a16d533d30d9931759c34824c2d210112cce596d386c9d2f969f07f1d43b"),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_search_output_pinned(name):
    graph, mode = _SEARCHES[name]
    rep = realize_all(graph, mode)
    keys = sorted(canonical_key(t) for t in rep.tables)
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert (rep.labeled_count, rep.iso_class_count, digest) == _PINNED[name]


# _dfs calls of the orbit search that branches in its static order while an
# image is tied: an image found smaller near the root prunes a whole subtree
_NODE_CEILINGS = {
    "K1,5": 1888,
    "K2,4": 579,
    "K3,3": 319,
    "K2,3": 119,
    "K5": 115,
    "m-nk 5 1": 288,
    "fig4 2 2 2": 39,
    "m-nk 5 2": 4,
    "m-nk 6 2": 5,
    "m-nk 7 2": 6,
}


@pytest.mark.parametrize("name", sorted(_NODE_CEILINGS))
def test_orbit_search_prunes_near_the_root(monkeypatch, name):
    real = zdg.realize._dfs
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(zdg.realize, "_dfs", counted)
    graph, mode = _SEARCHES[name]
    realize_all(graph, mode)
    assert calls[0] <= _NODE_CEILINGS[name]


def _f2k_graph(k):
    """Zero-divisor graph of the bit-vector ring F_2^k: the proper nonzero
    masks, joined when disjoint."""
    masks = range(1, (1 << k) - 1)
    pairs = [(a - 1, b - 1) for a, b in combinations(masks, 2) if not a & b]
    return from_edge_list(len(masks), pairs)


_RELABELED = {
    **{f"m-nk {k} 2": (families.m_nk(k, 2), PLAIN, 12) for k in range(5, 9)},
    "m-nk 5 1": (families.m_nk(5, 1), PLAIN, 12),
    "fig4 2 2 2": (families.fig4(2, 2, 2), PLAIN, 12),
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


def test_tables_are_built_once_and_only_when_read(tmp_path, monkeypatch, capsys):
    from zdg import cli
    from zdg.graph import format_graph
    from zdg.semigroup import MulTable

    built = []
    build = zdg.realize._tables_from_keys
    monkeypatch.setattr(zdg.realize, "_tables_from_keys",
                        lambda *a: built.append(a) or build(*a))
    path = tmp_path / "k5.zdg-graph"
    path.write_text(format_graph(families.complete(5)))
    assert cli.main(["realize", str(path), "--json"]) == 0
    assert '"labeled_count": 537' in capsys.readouterr().out
    assert built == []

    for rep in (realize_all(families.complete(5)),
                realize_all(families.complete(5), limit=3),
                brute_force_realize(families.two_star(1, 1))):
        tables = rep.tables
        assert all(type(t) is MulTable for t in tables)
        assert [canonical_key(t) for t in tables] == list(rep.keys)
        assert rep.tables is tables
    assert len(built) == 3


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
    # five of the 216 tables already span three orbits
    assert (part.iso_class_count, part.status) == (3, "multiple")
    assert full.status == "multiple"
    # one table of K3's seven orbits says nothing about uniqueness
    k3 = realize_all(families.complete(3), limit=1)
    assert k3.truncated and (k3.iso_class_count, k3.status) == (1, "unknown")


def test_truncated_is_exact():
    # truncated only when a labeled table exists beyond those returned
    base = families.fig1(0, 0)
    one = realize_all(base, limit=1)
    assert one.labeled_count == 1 and not one.truncated
    assert one.status == "unique"
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
    # the root propagation closes F2^4's boolean search, so there is no
    # search to prune; a limited search and the boolean conditions (limit 1)
    # enumerate labeled tables and count one orbit without Aut(G)
    f24 = _f2k_graph(4)
    assert realize_all(f24, BOOLEAN, max_n=f24.n).labeled_count == 1
    one = realize_all(families.fig4(2, 2, 2), limit=1)
    assert (one.truncated, one.iso_class_count, one.status) == (True, 1, "unknown")
    assert check_boolean_graph_conditions(f24, max_n=f24.n).boolean_realizable


def _labeled_enumeration(monkeypatch, g, mode):
    """realize_all(g, mode) searching every labeled table: with only the
    identity for Aut(G) nothing is pruned, and each table is its own orbit."""
    with monkeypatch.context() as m:
        m.setattr(zdg.realize, "automorphisms", lambda h: [tuple(range(h.n))])
        return realize_all(g, mode)


@pytest.mark.parametrize("mode", [PLAIN, BOOLEAN])
def test_orbit_count_matches_per_table_formula(monkeypatch, connected_classes_upto_5, mode):
    # the orbit search, expanded, reports exactly the labeled enumeration's
    # tables, and as many orbits as the per-table formula finds among them;
    # so does a limited search that keeps every table, whose orbits are
    # counted and checked closed under Aut(G) by iso_class_count
    for g in connected_classes_upto_5:
        labeled = _labeled_enumeration(monkeypatch, g, mode)
        count = _per_table_class_count(labeled.tables, g)
        status = "multiple" if count > 1 else "unique" if count else "none"
        want = dict(labeled.to_dict(), iso_class_count=count, status=status)
        assert realize_all(g, mode).to_dict() == want, g.edges()
        limit = max(1, labeled.labeled_count)
        assert realize_all(g, mode, limit=limit).to_dict() == want, g.edges()


@pytest.mark.parametrize("limit", [5, 50, 215])
def test_orbit_count_exact_on_truncated_sets(limit):
    g = families.fig4(2, 2, 2)
    rep = realize_all(g, limit=limit)
    assert rep.truncated
    assert rep.iso_class_count == _per_table_class_count(rep.tables, g)
    # the subset is not closed under Aut(G), so it fails the complete check
    with pytest.raises(AssertionError):
        iso_class_count([canonical_key(t) for t in rep.tables], g, complete=True)


def test_orbit_count_follows_the_search_cap():
    # 13 vertices: over the default cap of 12, inside the caller's max_n,
    # which also bounds the automorphism search behind the orbit count
    g = families.fig4(3, 3, 4)
    assert g.n == 13
    rep = realize_all(g, limit=5, max_n=13)
    assert (rep.labeled_count, rep.iso_class_count, rep.truncated) == (5, 4, True)


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


# on K2 the tables with squares (1*1, 2*2) = (0, 1) and (2, 0) form one orbit
# under the swap, with least key (0, 0, 1); a dropped representative drops its
# whole orbit, which only the labeled enumeration above can tell


def test_orbit_expansion_catches_a_repeated_representative(monkeypatch):
    _edit_search_output(monkeypatch, lambda out: out.append(out[0]))
    with pytest.raises(AssertionError, match=r"orbit sizes sum to \d+, but the orbits hold 6"):
        realize_all(_K2)


def test_orbit_expansion_catches_a_representative_not_least(monkeypatch):
    image = table_from_rows([[0, 0, 0], [0, 2, 0], [0, 0, 0]])

    def trade(out):
        out[:] = [image if (t.prod[1][1], t.prod[2][2]) == (0, 1) else t for t in out]

    _edit_search_output(monkeypatch, trade)
    with pytest.raises(AssertionError, match="not the least key of its orbit"):
        realize_all(_K2)


def test_orbit_expansion_compares_in_the_search_order(monkeypatch):
    # on P3 the search reads 1*3 first, then 1*1, 3*3 and the center's
    # square 2*2; the orbit of keys (1, 0, 3, 0, 0, 1) and (3, 0, 1, 0, 0, 3)
    # under the swap of 1 and 3 has the first least in key order, the second
    # in the search's order, which reads (3, 1, 1, 0) against (1, 3, 3, 0)
    root = init_state(_P3)
    assert propagate(root) is None
    order = zdg.realize._static_order(root)
    assert order != sorted(order)
    key_least = table_from_rows([[0, 0, 0, 0], [0, 1, 0, 3], [0, 0, 0, 0], [0, 3, 0, 1]])

    def trade(out):
        found = [t for t in out if canonical_key(t) == (3, 0, 1, 0, 0, 3)]
        assert len(found) == 1
        out[out.index(found[0])] = key_least

    _edit_search_output(monkeypatch, trade)
    with pytest.raises(AssertionError, match="not the least key of its orbit"):
        realize_all(_P3)


@pytest.mark.parametrize(
    "perm, match",
    [((1, 0, 2), "does not map the graph onto itself"), ((0, 0, 2), "not a permutation")],
)
def test_orbit_search_refuses_a_non_automorphism(monkeypatch, perm, match):
    monkeypatch.setattr(zdg.realize, "automorphisms", lambda g: [(0, 1, 2), perm])
    with pytest.raises(AssertionError, match=match):
        realize_all(_P3)


def test_size_guard_and_preconditions():
    big = from_edge_list(13, [(i, i + 1) for i in range(12)])
    with pytest.raises(TooLargeError):
        realize_all(big)
    with pytest.raises(ValueError, match="connected"):
        realize_all(from_edge_list(3, [(0, 1)]))
    with pytest.raises(TooLargeError):
        brute_force_realize(from_edge_list(5, [(i, i + 1) for i in range(4)]))
    empty = from_edge_list(0, [])
    with pytest.raises(ValueError, match="mode must be"):
        realize_all(_P3, "ring")
    with pytest.raises(ValueError, match="at least one vertex"):
        realize_all(empty)
    with pytest.raises(ValueError, match="limit must be positive"):
        realize_all(_P3, limit=0)
    with pytest.raises(ValueError, match="at least one vertex"):
        brute_force_realize(empty)
    with pytest.raises(ValueError, match="connected"):
        brute_force_realize(from_edge_list(3, [(0, 1)]))


def test_automorphism_list_is_bounded(monkeypatch, tmp_path, capsys):
    # K1,5 has 5! = 120 automorphisms; the orbit search lists them, a
    # search keeping one table does not
    monkeypatch.setattr(zdg.graph, "MAX_AUTOMORPHISMS", 100)
    star = families.complete_bipartite(1, 5)
    with pytest.raises(TooLargeError, match="more than 100"):
        realize_all(star)
    path = tmp_path / "star.zdg-graph"
    path.write_text(format_graph(star))
    assert cli.main(["realize", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert realize_all(star, limit=1).labeled_count == 1


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
