from __future__ import annotations

import random

import pytest

from zdg import families
from zdg.boolean_algebra import (
    RING_ISO_MAX_SIZE,
    BooleanGraphError,
    BooleanRing,
    LatticeError,
    build_algebra,
    check_boolean_graph_conditions,
    ring_from_graph,
    ring_from_realization,
    ring_isomorphic,
    ring_zero_divisor_graph,
    verify_ring_axioms,
)
from zdg.errors import TooLargeError
from zdg.graph import from_edge_list
from zdg.realize import BOOLEAN, realize_all
from zdg.semigroup import table_from_rows, zero_divisor_graph


def gamma_f2(k):
    return ring_zero_divisor_graph(families.f2k_ring(k))


def test_conditions_on_f2k_graphs():
    for k in (2, 3):
        report = check_boolean_graph_conditions(gamma_f2(k))
        assert report.all_hold, report.witnesses


def test_conditions_refuse_a_disconnected_graph():
    with pytest.raises(ValueError, match="connected"):
        check_boolean_graph_conditions(from_edge_list(3, [(0, 1)]))


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
    assert report.witnesses[0] == "N(0) = N(1)"
    # the twin witness is the first vertex whose neighbourhood an earlier
    # vertex has (2, after 1), not the first pair of the first class (0, 3)
    square = from_edge_list(4, [(0, 1), (1, 3), (3, 2), (2, 0)])
    assert check_boolean_graph_conditions(square).witnesses[0] == "N(1) = N(2)"


def f2k_table(k):
    # the product of F_2^k on its zero divisors: element id = mask, with the
    # all-ones identity dropped
    r = families.f2k_ring(k)
    return table_from_rows(row[:-1] for row in r.mul[:-1])


def test_build_algebra_k2():
    g = families.complete(2)
    s = realize_all(g, BOOLEAN).tables[0]
    alg = build_algebra(g, s)
    # the atoms are the two vertices; the identity absorbs both
    assert alg.code == (0b00, 0b01, 0b10, 0b11)
    assert alg.elem == (0, 1, 2, 3)


def test_build_algebra_f2_3_is_powerset():
    g = gamma_f2(3)
    s = realize_all(g, BOOLEAN).tables[0]
    alg = build_algebra(g, s)
    assert sorted(alg.code) == list(range(8))
    # a vertex absorbing j of the 3 atoms is joined to the 2^(3-j) - 1
    # nonzero elements disjoint from it
    for v, mask in enumerate(g.adj):
        assert mask.bit_count() == 2 ** (3 - alg.code[v + 1].bit_count()) - 1


def test_build_algebra_join_law():
    g = gamma_f2(3)
    s = realize_all(g, BOOLEAN).tables[0]
    alg = build_algebra(g, s)
    # the product is the order-theoretic lub of neighborhoods, N(0) = V(G)
    # and the identity's neighborhood empty
    hood = ((1 << g.n) - 1, *g.adj, 0)
    for a, ha in enumerate(hood):
        for b, hb in enumerate(hood):
            uppers = [m for m in hood if (ha | hb) & ~m == 0]
            lub = min(uppers, key=lambda m: bin(m).count("1"))
            assert hood[alg.mul[a][b]] == lub


@pytest.mark.parametrize("k", [2, 3, 4])
def test_build_algebra_bit_vector_reference(k):
    # with element id = mask, atom i is the mask 1 << i, so the code is the
    # identity and the product is AND
    alg = build_algebra(gamma_f2(k), f2k_table(k))
    masks = tuple(range(1 << k))
    assert alg.code == masks and alg.elem == masks
    for a in masks:
        for b in masks:
            assert alg.mul[a][b] == a & b


@pytest.mark.parametrize(
    "k, a, b, product, message",
    [
        (3, 1, 3, 3, r"^atoms \[2, 4\]: 2\^2 != 8 elements$"),
        (4, 7, 11, 1, r"^7\*11 = 1 has code 1, not code\(7\) & code\(11\) = 3$"),
    ],
    ids=["upper-bound", "least"],
)
def test_build_algebra_rejects_product_that_is_no_join(k, a, b, product, message):
    # the edited product is nonzero and idempotency is untouched, so the
    # table still realizes the graph and only the certificate can refuse it.
    # N(3) is no upper bound of N(1) and N(3), and 1*3 = 3 takes 1 out of
    # the atoms.  N(1) is an upper bound of N(7) and N(11) but not the least,
    # N(3); 7*11 = 1 leaves the atoms and codes alone, so only the product
    # check sees it.
    rows = [list(row) for row in f2k_table(k).prod]
    rows[a][b] = rows[b][a] = product
    with pytest.raises(LatticeError, match=message):
        build_algebra(gamma_f2(k), table_from_rows(rows))


def test_build_algebra_refuses_a_repeated_code():
    # K_1,5 plus an edge between two leaves.  Elements 1, 2 and 3 are the
    # atoms, so the count passes (2^3 = 8 elements), but 4, 5 and 6 form a
    # chain above 2 and 3 and all three absorb exactly atoms 2 and 3
    g = from_edge_list(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)])
    s = table_from_rows([
        [0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 2, 0, 2, 2, 2],
        [0, 0, 0, 3, 3, 3, 3],
        [0, 0, 2, 3, 4, 4, 4],
        [0, 0, 2, 3, 4, 5, 5],
        [0, 0, 2, 3, 4, 5, 6],
    ])
    with pytest.raises(LatticeError, match=r"^elements 4 and 5 both have code 6$"):
        build_algebra(g, s)


def test_build_algebra_rejects_wrong_table():
    g = families.complete(2)
    wrong = table_from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])  # not boolean
    with pytest.raises(ValueError, match="idempotent"):
        build_algebra(g, wrong)
    with pytest.raises(ValueError, match="size must match"):
        build_algebra(g, table_from_rows([[0, 0], [0, 1]]))
    # orthogonal idempotents realize K3, not the path
    k3 = table_from_rows([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]])
    with pytest.raises(ValueError, match="does not realize"):
        build_algebra(from_edge_list(3, [(0, 1), (1, 2)]), k3)


def test_build_algebra_lattice_error_on_bad_instance():
    # K_3 realized by orthogonal idempotents: three atoms, but five elements
    # are no power of two
    g = families.complete(3)
    s = realize_all(g, BOOLEAN).tables[0]
    with pytest.raises(LatticeError, match=r"^atoms \[1, 2, 3\]: 2\^3 != 5 elements$"):
        build_algebra(g, s)


def test_build_algebra_accepts_only_rings(connected_classes_upto_5):
    # every boolean realization of the small classes, plus the one of
    # Gamma(F_2^3): a table the certificate accepts gives a ring that the
    # exhaustive oracle passes and whose zero-divisor graph is g
    accepted = refused = 0
    for g in (*connected_classes_upto_5, gamma_f2(3)):
        for s in realize_all(g, BOOLEAN).tables:
            try:
                build_algebra(g, s)
            except LatticeError:
                refused += 1
                continue
            accepted += 1
            ring = ring_from_realization(g, s)
            assert verify_ring_axioms(ring) == []
            assert ring_zero_divisor_graph(ring).adj == g.adj
    assert (accepted, refused) == (2, 141)


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
    assert verify_ring_axioms(ring) == []
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


def test_ring_isomorphic_refuses_rings_over_the_cap():
    size = 2 * RING_ISO_MAX_SIZE  # the bit-vector ring F_2^5
    add = tuple(tuple(a ^ b for b in range(size)) for a in range(size))
    mul = tuple(tuple(a & b for b in range(size)) for a in range(size))
    r = BooleanRing(size - 2, add, mul)
    with pytest.raises(TooLargeError, match=f"capped at {RING_ISO_MAX_SIZE} elements"):
        ring_isomorphic(r, r)


def test_uniquely_determined_iff_absorption_for_boolean_corpus():
    # containment of neighborhoods forces absorption exactly when the
    # graph is uniquely determined, across all boolean tables of a family
    from zdg.graph import is_uniquely_determined

    for g in (
        families.complete_bipartite(2, 1),
        families.complete_bipartite(2, 2),
        families.complete(4),
        gamma_f2(3),
    ):
        for t in realize_all(g, BOOLEAN).tables:
            zg = zero_divisor_graph(t)
            ud = is_uniquely_determined(zg)
            # N(y) <= N(x) as masks: no neighbour of y outside N(x)
            absorb = all(
                t.prod[y][x] == x
                for x in t.nonzero()
                for y in t.nonzero()
                if not zg.adj[y - 1] & ~zg.adj[x - 1]
            )
            assert ud == absorb


def test_gamma_of_ring_vertex_conventions():
    r = families.f2k_ring(2)
    g = ring_zero_divisor_graph(r)
    assert g.n == 2 and g.edges() == [(0, 1)]
    assert g.names == ("01", "10")
