"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime bound is pinned here.
"""

from __future__ import annotations

import time
from collections import Counter

from conftest import attach_ends, boolean_rpartite_table, table_facts

from zdg import families, theorems
from zdg.boolean_algebra import (
    check_boolean_graph_conditions,
    ring_from_graph,
    ring_isomorphic,
    ring_zero_divisor_graph,
    verify_ring_axioms,
)
from zdg.graph import connected_graphs, from_edge_list
from zdg.realize import BOOLEAN, PLAIN, brute_force_realize, realize_all
from zdg.semigroup import check_axioms, closure_witness, zero_divisor_graph


def _report(criterion: int, text: str):
    print(f"criterion {criterion:2d} PASS: {text}")


def test_criterion_01_base_graph_unique_table(fixture_tables):
    start = time.monotonic()
    rep = realize_all(families.fig1(0, 0))
    elapsed = time.monotonic() - start
    assert rep.iso_class_count == 1
    assert rep.status == "unique"
    assert rep.tables[0].prod == fixture_tables[1].prod
    assert elapsed < 1.0
    _report(1, f"base graph unique, canonical table is fixture 1 ({elapsed:.2f}s)")


def test_criterion_02_pendant_variants_unique(fixture_tables):
    start = time.monotonic()
    rep = realize_all(families.fig1(0, 2))
    assert rep.status == "unique"
    assert rep.tables[0].prod == fixture_tables[2].prod
    assert time.monotonic() - start < 10.0
    start = time.monotonic()
    rep = realize_all(families.fig1(2, 2))
    assert rep.status == "unique"
    assert rep.tables[0].prod == fixture_tables[3].prod
    assert time.monotonic() - start < 10.0
    _report(2, "fig1(0,2) and fig1(2,2) unique, equal to fixtures 2 and 3")


def test_criterion_03_wrong_anchors_not_realizable():
    assert realize_all(families.fig2(1)).labeled_count == 0
    assert realize_all(families.fig3(1)).labeled_count == 0
    _report(3, "fig2(1) and fig3(1) admit no realization")


def test_criterion_04_triple_pendant_triangle_membership(fixture_tables):
    start = time.monotonic()
    rep = realize_all(families.fig4(2, 2, 2))
    elapsed = time.monotonic() - start
    assert any(t.prod == fixture_tables[4].prod for t in rep.tables)
    assert elapsed < 60.0
    _report(4, f"fig4(2,2,2) realizations contain fixture 4 "
               f"({rep.labeled_count} tables, {elapsed:.2f}s)")


def test_criterion_05_pendant_cliques_not_realizable():
    assert realize_all(families.m_nk(4, 3)).labeled_count == 0
    assert realize_all(families.m_nk(4, 4)).labeled_count == 0
    _report(5, "m_nk(4,3) and m_nk(4,4) admit no realization")


def test_criterion_06_pendant_triangle_fixture(fixture_tables):
    t5 = fixture_tables[5]
    assert check_axioms(t5) == []
    assert closure_witness(t5, {0, 4}) is not None
    verdict = theorems.verify_prop_2_7(table_facts(t5), 1)
    assert not verdict.hypotheses_met
    assert verdict.conclusion_holds is None
    _report(6, "fixture 5 valid, {0,x1} not closed, idempotency claim not applicable")


def test_criterion_07_oracle_equivalence(connected_upto_4):
    start = time.monotonic()
    counts = {}
    for g in connected_upto_4:
        counts[g.n] = counts.get(g.n, 0) + 1
        for mode in (PLAIN, BOOLEAN):
            engine = realize_all(g, mode)
            oracle = brute_force_realize(g, mode)
            assert engine.to_dict() == oracle.to_dict(), (g.edges(), mode)
    elapsed = time.monotonic() - start
    assert counts == {1: 1, 2: 1, 3: 4, 4: 38}
    assert elapsed < 300.0
    _report(7, f"engine equals oracle on all {sum(counts.values())} labeled "
               f"connected graphs up to 4 vertices, both modes ({elapsed:.1f}s)")


def _sweep_corpus():
    """The falsification corpus: every connected graph on up to 4 vertices
    plus the named family instances with up to 6 vertices."""
    graphs = [g for n in range(1, 5) for g in connected_graphs(n)]
    graphs += [
        families.fig1(0, 0),
        families.fig1(0, 1),
        families.fig1(1, 0),
        families.fig2(1),
        families.fig3(1),
        families.two_star(1, 1),
        families.two_star(2, 1),
        families.two_star(2, 2),
        families.two_star(1, 3),
        families.complete(5),
        families.complete_bipartite(2, 3),
        families.complete_multipartite([2, 2, 1]),
        families.m_nk(4, 1),
        families.m_nk(4, 2),
        zero_divisor_graph(families.fixture_table(5)),
    ]
    return graphs


def test_criterion_08_theorem_falsification_sweep(fixture_tables):
    start = time.monotonic()
    tables = list(fixture_tables.values())
    tables += [
        boolean_rpartite_table(sizes)
        for sizes in ([1, 1], [2, 1], [2, 2], [3, 2], [2, 2, 1], [3, 3], [2, 2, 2])
    ]
    for g in _sweep_corpus():
        for mode in (PLAIN, BOOLEAN):
            tables.extend(realize_all(g, mode).tables)
    bad = []
    applicable = Counter()
    for t in tables:
        verdicts = theorems.all_verdicts(t)
        bad.extend(v for v in verdicts if v.is_counterexample)
        applicable.update(v.theorem for v in verdicts if v.hypotheses_met)
    assert bad == [], bad[:3]
    assert len(tables) == 3960
    assert applicable == {
        "thm_2_1": 17387,
        "prop_2_7": 8528,
        "prop_2_10": 1383,
        "cor_2_2": 880,
        "thm_3_2": 219,
        "cor_3_3": 219,
        "prop_3_6": 37,
        "thm_2_9": 3,
    }
    elapsed = time.monotonic() - start
    counts = ", ".join(f"{name} {k}" for name, k in applicable.most_common())
    _report(8, f"zero counterexamples over {len(tables)} tables, applicable "
               f"instances: {counts} ({elapsed:.1f}s)")


def test_criterion_09_clique_plus_vertex_boolean_census():
    # pendant vertex of degree n-1 duplicates a clique vertex's
    # neighborhood; exactly then the idempotent table is not unique.  The
    # two tables are related by the relabeling that swaps the twins, so
    # multiplicity is about labeled tables.
    for n in (3, 4):
        base = families.complete(n)
        for d in range(1, n + 1):
            g = from_edge_list(n + 1, base.edges() + [(i, n) for i in range(d)])
            rep = realize_all(g, BOOLEAN)
            if d == n - 1:
                assert rep.labeled_count >= 2, (n, d)
            else:
                assert rep.labeled_count == 1, (n, d)
            assert rep.iso_class_count == 1, (n, d)
        assert realize_all(base, BOOLEAN).labeled_count == 1
    _report(9, "clique plus a vertex: unique idempotent table exactly away "
               "from the twin degree, multiple labeled tables at it")


def test_criterion_10_boolean_non_realizable_families():
    assert realize_all(families.m_nk(4, 2), BOOLEAN).labeled_count == 0
    k22_pendant = attach_ends(families.complete_bipartite(2, 2), [(0, 1)])
    assert realize_all(k22_pendant, BOOLEAN).labeled_count == 0
    for m in range(1, 4):
        for n in range(1, 4):
            assert realize_all(families.two_star(m, n), BOOLEAN).labeled_count == 0
    _report(10, "no idempotent realizations for pendant cliques, pendant "
                "bipartite, or two-star graphs")


def test_criterion_11_boolean_ring_round_trip():
    start = time.monotonic()
    for k in (2, 3, 4):
        reference = families.f2k_ring(k)
        g = ring_zero_divisor_graph(reference)
        conditions = check_boolean_graph_conditions(g, max_n=14)
        assert conditions.all_hold, (k, conditions.witnesses)
        ring = ring_from_graph(g, max_n=14)
        assert verify_ring_axioms(ring) == []
        assert ring_zero_divisor_graph(ring).adj == g.adj
        assert ring_isomorphic(ring, reference) is not None, k
    k3 = check_boolean_graph_conditions(families.complete(3))
    assert not k3.uniquely_complemented
    p4 = check_boolean_graph_conditions(families.two_star(1, 1))
    assert not p4.boolean_realizable
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(11, f"bit-vector rings recovered for k=2,3,4; triangle fails "
                f"complementation, 4-path fails realizability ({elapsed:.1f}s)")


def test_criterion_12_rpartite_construction_sweep():
    def partitions(total, most=None):
        most = most or total
        if total == 0:
            yield ()
            return
        for first in range(min(total, most), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    checked = 0
    for total in range(2, 9):
        for sizes in partitions(total):
            if len(sizes) < 2:
                continue
            t = boolean_rpartite_table(sizes)
            assert check_axioms(t) == [], sizes
            assert all(t.prod[x][x] == x for x in t.nonzero()), sizes
            assert (
                zero_divisor_graph(t).adj
                == families.complete_multipartite(sizes).adj
            ), sizes
            checked += 1
    _report(12, f"idempotent multipartite construction valid for all "
                f"{checked} part lists with total at most 8")
