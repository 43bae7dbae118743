from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdg import families
from zdg.graph import diameter, is_connected
from zdg.semigroup import (
    annihilator,
    assoc_violation_symmetric,
    check_axioms,
    closure_witness,
    equivalence_class,
    is_boolean,
    is_ideal,
    is_reduced,
    is_subsemigroup,
    lower_set,
    neighborhood,
    table_from_rows,
    zero_divisor_graph,
)

# element ids in the reference tables: a1..a3 = 1..3, x1 = 4, x2 = 5
A1, A2, A3, X1, X2 = 1, 2, 3, 4, 5


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


def test_fixture_tables_pass_axioms(fixture_tables):
    for k, t in fixture_tables.items():
        assert check_axioms(t) == [], f"fixture {k}"


def test_mutated_table_has_associativity_witness(fixture_tables):
    rows = [list(r) for r in fixture_tables[3].prod]
    rows[6][8] = 1  # change u1*v1 from a3 to a1
    rows[8][6] = 1
    bad = check_axioms(table_from_rows(rows))
    assert any(v.kind == "associativity" for v in bad)


def test_axiom_report_kinds():
    rows = [[0, 1, 0], [1, 1, 2], [0, 1, 2]]  # broken zero row, asymmetric
    bad = check_axioms(table_from_rows(rows))
    kinds = {v.kind for v in bad}
    assert "zero" in kinds and "commutativity" in kinds
    assert all(v.describe() for v in bad)


def test_zero_divisor_graphs_of_fixtures(fixture_tables):
    assert zero_divisor_graph(fixture_tables[1]).adj == families.fig1(0, 0).adj
    assert zero_divisor_graph(fixture_tables[4]).adj == families.fig4(2, 2, 2).adj
    g5 = zero_divisor_graph(fixture_tables[5])
    assert g5.edges() == [(0, 1), (0, 2), (0, 3), (1, 2)]


def test_zero_divisor_graph_rejects_non_divisor():
    rows = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]  # element 2 never hits zero
    with pytest.raises(ValueError, match="element 1 is not a zero divisor"):
        zero_divisor_graph(table_from_rows(rows))


def test_square_creates_no_edge():
    # x*x = 0 makes x a zero divisor but never an edge
    rows = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
    g = zero_divisor_graph(table_from_rows(rows))
    assert g.edges() == []  # 1*2 = 1, no zero product of distinct elements


def test_subsemigroup_checks(fixture_tables):
    t5 = fixture_tables[5]
    assert not is_subsemigroup(t5, {0, X1})
    assert closure_witness(t5, {0, X1}) == (4, 4, 3)
    assert is_subsemigroup(t5, {0})
    t1 = fixture_tables[1]
    assert is_subsemigroup(t1, {0, A1, A2, A3, X1})


def test_ideal_checks(fixture_tables):
    t1 = fixture_tables[1]
    assert is_ideal(t1, {0}, {0, A1})
    with pytest.raises(ValueError, match="contained"):
        is_ideal(t1, {X1}, {0, A1})


def test_boolean_and_reduced(fixture_tables):
    assert is_boolean(families.boolean_rpartite_table([2, 2, 1]))
    assert not is_boolean(fixture_tables[1])  # a1*a1 = 0
    assert not is_reduced(fixture_tables[5])  # a1 is nilpotent
    assert is_reduced(families.boolean_rpartite_table([3, 1]))


def test_equivalence_classes_of_rpartite():
    t = families.boolean_rpartite_table([2, 1])  # a11, a12 | a21
    assert equivalence_class(t, 1) == frozenset({1, 2})
    assert lower_set(t, 3) == frozenset({3})
    with pytest.raises(ValueError):
        equivalence_class(t, 0)


def test_equivalence_class_trivial_when_uniquely_determined(fixture_tables):
    t = fixture_tables[1]
    for x in t.nonzero():
        assert equivalence_class(t, x) == frozenset({x})


def test_annihilators(fixture_tables):
    t1 = fixture_tables[1]
    assert annihilator(t1, {X1}) == frozenset({0, A1, X2})
    assert annihilator(t1, {}) == frozenset(range(6))
    assert annihilator(t1, {X1, A2}) == frozenset({0, A1, X2})


def test_neighborhood(fixture_tables):
    t1 = fixture_tables[1]
    assert neighborhood(t1, A3) == frozenset({A1, A2})
    assert neighborhood(t1, X1) == frozenset({A1, X2})


def test_realized_graphs_connected_small_diameter(fixture_tables):
    # imported structural facts, asserted over the whole fixture corpus
    for t in fixture_tables.values():
        g = zero_divisor_graph(t)
        assert is_connected(g)
        assert diameter(g) <= 3


@given(symmetric_tables())
def test_fast_associativity_matches_report(t):
    fast = assoc_violation_symmetric(t.prod) is None
    slow = not any(v.kind == "associativity" for v in check_axioms(t))
    assert fast == slow


@given(symmetric_tables(max_n=3))
def test_annihilator_is_intersection(t):
    full = frozenset(t.elements())
    xs = [x for x in t.nonzero()][:2]
    expected = full
    for x in xs:
        expected &= annihilator(t, {x})
    assert annihilator(t, xs) == expected
