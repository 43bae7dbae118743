from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import boolean_rpartite_table, symmetric_tables, table_facts

from zdg import families
from zdg.graph import diameter, is_connected, is_uniquely_determined
from zdg.semigroup import (
    MulTable,
    assoc_violation_symmetric,
    check_axioms,
    closure_witness,
    first_assoc_violation,
    ideal_witness,
    is_boolean,
    is_commutative_semigroup,
    is_nilpotent,
    is_reduced,
    nilpotent_witness,
    table_from_rows,
    zero_divisor_adj,
    zero_divisor_graph,
)
from zdg.realize import BOOLEAN, PLAIN, realize_all

# element ids in the reference tables: a1..a3 = 1..3, x1 = 4, x2 = 5
A1, A2, A3, X1, X2 = 1, 2, 3, 4, 5


@st.composite
def any_tables(draw, max_n=3):
    """Arbitrary tables on 0..n: not necessarily symmetric, with a zero row
    or associative."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.integers(min_value=0, max_value=n)
    return table_from_rows([[draw(entry) for _ in range(n + 1)] for _ in range(n + 1)])


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


@given(symmetric_tables())
def test_zero_divisor_adj_is_the_zero_product_relation(t):
    # Gamma(S) from its definition: x-y for distinct nonzero x, y with xy = 0
    nonzero = range(1, t.n + 1)
    if any(all(t.prod[x][y] != 0 for y in nonzero) for x in nonzero):
        with pytest.raises(ValueError, match="is not a zero divisor"):
            zero_divisor_adj(t)
        return
    want = {(x, y) for x in nonzero for y in nonzero if x != y and t.prod[x][y] == 0}
    adj = zero_divisor_adj(t)
    got = {(x, y) for x in nonzero for y in nonzero if adj[x - 1] >> (y - 1) & 1}
    assert got == want


@pytest.mark.parametrize("prod, match", [
    (((0, 0),), r"n\+1 rows"),
    (((0, 0), (0,)), r"n\+1 entries"),
    (((0, 0), (0, 2)), r"entry 2 out of range 0\.\.1"),
])
def test_table_refuses_a_malformed_shape(prod, match):
    with pytest.raises(ValueError, match=match):
        MulTable(1, prod)


def test_zero_divisor_graph_rejects_non_commutative_table():
    # 1*3 = 0 but 3*1 = 1: the zero products of 1 and 3 disagree
    rows = [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1], [0, 1, 1, 0]]
    with pytest.raises(ValueError, match="not symmetric"):
        zero_divisor_graph(table_from_rows(rows))


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
    assert closure_witness(t5, {0, X1}) == (4, 4, 3)
    assert closure_witness(t5, {0}) is None
    t1 = fixture_tables[1]
    assert closure_witness(t1, {0, A1, A2, A3, X1}) is None


def test_ideal_checks(fixture_tables):
    t1 = fixture_tables[1]
    assert ideal_witness(t1, {0}, {0, A1}) is None
    assert ideal_witness(t1, {0, A3}, {0, A3, X1}) == (X1, A3, A2)
    with pytest.raises(ValueError, match="contained"):
        ideal_witness(t1, {X1}, {0, A1})


def test_boolean_and_reduced(fixture_tables):
    assert is_boolean(boolean_rpartite_table([2, 2, 1]))
    assert not is_boolean(fixture_tables[1])  # a1*a1 = 0
    assert not is_reduced(fixture_tables[5])  # a1 is nilpotent
    assert is_reduced(boolean_rpartite_table([3, 1]))


def _powers_reach_zero(t, x):
    """x, x^2, x^3, ... by repeated multiplication; x^(k+1) depends on x^k
    alone, so if no zero shows among the first n + 1 powers, none ever
    does."""
    y = x
    for _ in range(t.n + 1):
        if y == 0:
            return True
        y = t.prod[y][x]
    return False


def test_is_nilpotent_matches_powers(fixture_tables, connected_classes_upto_5):
    tables = list(fixture_tables.values())
    for g in connected_classes_upto_5:
        if g.n <= 4:
            for mode in (PLAIN, BOOLEAN):
                tables += realize_all(g, mode).tables
    nilpotent = 0
    for t in tables:
        want = [x for x in t.nonzero() if _powers_reach_zero(t, x)]
        assert [x for x in t.nonzero() if is_nilpotent(t, x)] == want
        assert nilpotent_witness(t) == (want[0] if want else None)
        nilpotent += len(want)
    assert nilpotent and nilpotent < sum(t.n for t in tables)


def _classes(t):
    """S_x (equal neighbourhoods) and S_<=x (contained ones) of every
    nonzero x, from the facts the verifiers read."""
    hoods = table_facts(t).hoods
    return (
        {x: {y for y in hoods if hoods[y] == hoods[x]} for x in hoods},
        {x: {y for y in hoods if hoods[y] <= hoods[x]} for x in hoods},
    )


def test_equivalence_classes_of_rpartite():
    t = boolean_rpartite_table([2, 1])  # a11, a12 | a21
    classes, lower = _classes(t)
    assert classes[1] == {1, 2}
    assert lower[3] == {3}


def test_equivalence_class_trivial_when_uniquely_determined(fixture_tables):
    ud = [t for t in fixture_tables.values()
          if is_uniquely_determined(table_facts(t).graph)]
    assert len(ud) == 2  # fixtures 1 and 5
    for t in ud:
        classes, _ = _classes(t)
        assert all(classes[x] == {x} for x in t.nonzero())


def _mask(*elements):
    """The vertex mask of a set of elements (vertex e - 1 for element e)."""
    return sum(1 << (e - 1) for e in elements)


def test_neighborhood(fixture_tables):
    adj = zero_divisor_graph(fixture_tables[1]).adj
    assert adj[A3 - 1] == _mask(A1, A2)
    assert adj[X1 - 1] == _mask(A1, X2)


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
    # the kernel refuses exactly the tables the scan finds a triple in
    assert assoc_violation_symmetric(t.prod) == first_assoc_violation(t.prod)


def _rows(t):
    return [bytes(row) for row in t.prod]


@given(st.one_of(symmetric_tables(), any_tables()))
def test_semigroup_kernel_decides_check_axioms(t):
    assert is_commutative_semigroup(_rows(t)) == (not check_axioms(t))


def test_semigroup_kernel_on_fixtures_and_their_perturbations(fixture_tables):
    # each fixture passes; changing one product, on one side or on both,
    # passes exactly when check_axioms finds nothing
    passed = 0
    for t in fixture_tables.values():
        assert is_commutative_semigroup(_rows(t))
        for i in t.nonzero():
            for j in range(i, t.n + 1):
                for sides in ([(i, j)], [(i, j), (j, i)]):
                    rows = [list(row) for row in t.prod]
                    for a, b in sides:
                        rows[a][b] = (rows[a][b] + 1) % (t.n + 1)
                    bad = table_from_rows(rows)
                    assert is_commutative_semigroup(_rows(bad)) == (not check_axioms(bad))
                    passed += not check_axioms(bad)
    assert passed


@pytest.mark.parametrize("rows, ok", [
    ([b"\0"], True),  # the zero semigroup {0}
    ([b"\0\0", b"\0\0"], True),
    ([b"\0\0", b"\0\1"], True),
    ([b"\0\0", b"\0\2"], False),  # 1*1 = 2 names no element
    ([b"\0\0", b"\0\xff"], False),
    ([b"\0\1", b"\1\1"], False),  # 0*1 = 1: zero not absorbing
    ([b"\0\0\0", b"\0\1\0", b"\0\2\2"], False),  # 1*2 = 0 but 2*1 = 2
    ([b"\0\0\0", b"\0\1\1", b"\0\2\2"], False),  # a*b = a: associative, not commutative
])
def test_semigroup_kernel_reads_range_zero_and_symmetry(rows, ok):
    assert is_commutative_semigroup(rows) is ok
