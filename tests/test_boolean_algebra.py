from __future__ import annotations

import random

import pytest

from zdg import families
from zdg.boolean_algebra import (
    BooleanGraphError,
    BooleanRing,
    LatticeError,
    build_algebra,
    check_boolean_graph_conditions,
    ring_from_graph,
    ring_isomorphic,
    ring_zero_divisor_graph,
    verify_ring_axioms,
)
from zdg.graph import from_edge_list
from zdg.realize import BOOLEAN, realize_all
from zdg.semigroup import table_from_rows, zero_divisor_graph


def gamma_f2(k):
    return ring_zero_divisor_graph(families.f2k_ring(k))


def test_conditions_on_f2k_graphs():
    for k in (2, 3):
        report = check_boolean_graph_conditions(gamma_f2(k))
        assert report.all_hold, report.witnesses


def test_conditions_k3_fails_complementation():
    report = check_boolean_graph_conditions(families.complete(3))
    assert report.uniquely_determined
    assert not report.uniquely_complemented
    assert report.boolean_realizable


def test_conditions_two_star_fails_realizability():
    report = check_boolean_graph_conditions(families.two_star(1, 1))
    assert not report.boolean_realizable
    assert not report.all_hold


def test_condition_witnesses_present():
    report = check_boolean_graph_conditions(families.complete_bipartite(2, 2))
    assert not report.uniquely_determined
    assert any("N(" in w for w in report.witnesses)


def f2k_table(k):
    # the product of F_2^k on its zero divisors: element id = mask, with the
    # all-ones identity dropped
    r = families.f2k_ring(k)
    return table_from_rows(row[:-1] for row in r.mul[:-1])


def test_build_algebra_k2():
    g = families.complete(2)
    s = realize_all(g, BOOLEAN).tables[0]
    alg = build_algebra(g, s)
    assert len(alg.hood) == 4
    assert set(alg.hood) == {0b00, 0b01, 0b10, 0b11}
    for a in range(4):
        c = alg.complement[a]
        assert alg.mul[a][c] == 0 and alg.meet[a][c] == 3


def test_build_algebra_f2_3_is_powerset():
    g = gamma_f2(3)
    s = realize_all(g, BOOLEAN).tables[0]
    alg = build_algebra(g, s)
    assert len(alg.hood) == 8
    # neighborhood sizes: one-bit masks see three vertices, two-bit masks
    # see one, plus bottom and top
    sizes = sorted(bin(m).count("1") for m in alg.hood)
    assert sizes == [0, 1, 1, 1, 3, 3, 3, 6]


def test_build_algebra_join_law():
    g = gamma_f2(3)
    s = realize_all(g, BOOLEAN).tables[0]
    alg = build_algebra(g, s)
    # the product is the order-theoretic lub of neighborhoods
    for a, ha in enumerate(alg.hood):
        for b, hb in enumerate(alg.hood):
            uppers = [m for m in alg.hood if (ha | hb) & ~m == 0]
            lub = min(uppers, key=lambda m: bin(m).count("1"))
            assert alg.hood[alg.mul[a][b]] == lub


@pytest.mark.parametrize("k", [2, 3, 4])
def test_build_algebra_bit_vector_reference(k):
    # with element id = mask, the join is AND, the meet is OR and the
    # complement flips every bit
    alg = build_algebra(gamma_f2(k), f2k_table(k))
    full = (1 << k) - 1
    for a in range(full + 1):
        assert alg.complement[a] == a ^ full
        for b in range(full + 1):
            assert alg.mul[a][b] == a & b
            assert alg.meet[a][b] == a | b


@pytest.mark.parametrize(
    "k, a, b, product, message",
    [
        (3, 1, 3, 3, r"join not an upper bound at \(1,3\)"),
        (4, 7, 11, 1, r"join not least at \(7,11,2\)"),
    ],
    ids=["upper-bound", "least"],
)
def test_build_algebra_rejects_product_that_is_no_join(k, a, b, product, message):
    # the edited product is nonzero and idempotency is untouched, so the
    # table still realizes the graph and only the lattice checks can refuse it
    rows = [list(row) for row in f2k_table(k).prod]
    rows[a][b] = rows[b][a] = product
    with pytest.raises(LatticeError, match=message):
        build_algebra(gamma_f2(k), table_from_rows(rows))


def test_build_algebra_rejects_wrong_table():
    g = families.complete(2)
    wrong = table_from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])  # not boolean
    with pytest.raises(ValueError, match="idempotent"):
        build_algebra(g, wrong)


def test_build_algebra_lattice_error_on_bad_instance():
    # K_3 realized by orthogonal idempotents: meets of neighborhoods are
    # not neighborhoods, so the lattice construction must fail loudly
    g = families.complete(3)
    s = realize_all(g, BOOLEAN).tables[0]
    with pytest.raises(LatticeError):
        build_algebra(g, s)


def test_ring_from_graph_k2():
    ring = ring_from_graph(families.complete(2))
    assert ring.size == 4
    assert not verify_ring_axioms(ring)
    assert ring.add[1][2] == ring.one  # x+y = 1
    assert all(ring.add[x][x] == 0 for x in range(ring.size))
    iso = ring_isomorphic(ring, families.f2k_ring(2))
    assert iso is not None


def test_ring_round_trip_f2_3():
    g = gamma_f2(3)
    ring = ring_from_graph(g)
    assert not verify_ring_axioms(ring)
    assert ring_zero_divisor_graph(ring).adj == g.adj
    assert ring_isomorphic(ring, families.f2k_ring(3)) is not None


@pytest.mark.parametrize("k", [2, 3, 4])
def test_ring_from_graph_rebuilds_bit_vector_ring(k):
    # vertex v of gamma_f2(k) is the mask v+1, so the rebuilt ring is the
    # bit-vector ring label for label
    ring = ring_from_graph(gamma_f2(k), max_n=14)
    target = families.f2k_ring(k)
    assert ring.add == target.add and ring.mul == target.mul


def test_ring_from_graph_refuses_non_boolean_graph():
    with pytest.raises(BooleanGraphError):
        ring_from_graph(families.complete(3))
    with pytest.raises(BooleanGraphError):
        ring_from_graph(families.two_star(1, 1))


def test_ring_isomorphic_basics():
    r = families.f2k_ring(3)
    assert ring_isomorphic(r, r) is not None
    assert ring_isomorphic(r, families.f2k_ring(2)) is None


def test_ring_isomorphism_is_a_homomorphism():
    ring = ring_from_graph(gamma_f2(3))
    target = families.f2k_ring(3)
    iso = ring_isomorphic(ring, target)
    for a in range(ring.size):
        for b in range(ring.size):
            assert iso[ring.add[a][b]] == target.add[iso[a]] [iso[b]]
            assert iso[ring.mul[a][b]] == target.mul[iso[a]] [iso[b]]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_ring_isomorphic_finds_a_relabeled_ring(k):
    g = gamma_f2(k)
    p = list(range(g.n))
    random.Random(k).shuffle(p)
    ring = ring_from_graph(from_edge_list(g.n, [(p[u], p[v]) for u, v in g.edges()]),
                           max_n=14)
    target = families.f2k_ring(k)
    iso = ring_isomorphic(ring, target)
    assert sorted(iso) == list(range(ring.size))
    for a in range(ring.size):
        for b in range(ring.size):
            assert iso[ring.add[a][b]] == target.add[iso[a]][iso[b]]
            assert iso[ring.mul[a][b]] == target.mul[iso[a]][iso[b]]


def test_ring_isomorphic_refuses_an_edited_addition():
    # the zero-divisor graphs are equal, so only the + check can refuse
    r = families.f2k_ring(3)
    row = list(r.add[1])
    row[2], row[3] = row[3], row[2]
    edited = BooleanRing(r.n, r.add[:1] + (tuple(row),) + r.add[2:], r.mul)
    assert ring_isomorphic(r, edited) is None


def test_uniquely_determined_iff_absorption_for_boolean_corpus():
    # containment of neighborhoods forces absorption exactly when the
    # graph is uniquely determined, across all boolean tables of a family
    from zdg.graph import is_uniquely_determined
    from zdg.semigroup import neighborhood

    for g in (
        families.complete_bipartite(2, 1),
        families.complete_bipartite(2, 2),
        families.complete(4),
        gamma_f2(3),
    ):
        for t in realize_all(g, BOOLEAN).tables:
            ud = is_uniquely_determined(zero_divisor_graph(t))
            absorb = all(
                t.prod[y][x] == x
                for x in t.nonzero()
                for y in t.nonzero()
                if neighborhood(t, y) <= neighborhood(t, x)
            )
            assert ud == absorb


def test_gamma_of_ring_vertex_conventions():
    r = families.f2k_ring(2)
    g = ring_zero_divisor_graph(r)
    assert g.n == 2 and g.edges() == [(0, 1)]
    assert g.names == ("01", "10")
