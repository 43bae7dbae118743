from __future__ import annotations

import pytest

from conftest import all_connected_graphs
from zdg import families
from zdg.errors import TooLargeError
from zdg.graph import from_edge_list
from zdg.realize import (
    BOOLEAN,
    PLAIN,
    Conflict,
    brute_force_realize,
    canonical_key,
    classify_uniqueness,
    init_state,
    propagate,
    realization_exists,
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
        classify_uniqueness(part, g)
    assert classify_uniqueness(full, g) == full.status


def test_truncated_is_exact():
    # truncated only when a labeled table exists beyond those returned
    base = families.fig1(0, 0)
    one = realize_all(base, limit=1)
    assert one.labeled_count == 1 and not one.truncated
    assert classify_uniqueness(one, base) == "unique"
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


def test_size_guard_and_preconditions():
    big = from_edge_list(13, [(i, i + 1) for i in range(12)])
    with pytest.raises(TooLargeError):
        realize_all(big)
    with pytest.raises(ValueError, match="connected"):
        realize_all(from_edge_list(3, [(0, 1)]))
    with pytest.raises(TooLargeError):
        brute_force_realize(from_edge_list(5, [(i, i + 1) for i in range(4)]))


def test_oracle_equivalence_n3():
    for g in all_connected_graphs(3):
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


def test_realization_exists_shortcut():
    assert realization_exists(families.complete(3), BOOLEAN) is not None
    assert realization_exists(families.two_star(1, 1), BOOLEAN) is None


def test_fig1_labeled_unique_for_all_small_pendant_counts():
    # finite slice of the arbitrary-pendant uniqueness claim; larger
    # counts stay out of reach of an exhaustive check
    for u in range(4):
        for v in range(4):
            rep = realize_all(families.fig1(u, v))
            assert rep.labeled_count == 1, (u, v)
            assert rep.iso_class_count == 1
