from __future__ import annotations

import json
import random
from collections import Counter
from itertools import combinations

import pytest

from zdg import cli, families, theorems
from zdg.graph import format_graph, from_edge_list
from zdg.realize import BOOLEAN, PLAIN, realize_all
from zdg.semigroup import table_from_rows, zero_divisor_graph

A1, A2, A3, X1, X2 = 1, 2, 3, 4, 5


def test_thm_2_1_pendant_triangle(fixture_tables):
    t5 = fixture_tables[5]
    v = theorems.verify_thm_2_1(theorems.table_facts(t5), A1, {X1})
    assert v.hypotheses_met and v.conclusion_holds


def test_thm_2_1_empty_tx_on_base_table(fixture_tables):
    # tx empty: hypothesis (3) then needs other vertices, which exist
    t1 = fixture_tables[1]
    v = theorems.verify_thm_2_1(theorems.table_facts(t1), A1, set())
    assert v.hypotheses_met and v.conclusion_holds


def test_thm_2_1_inapplicable_when_all_vertices_absorbed():
    # tx = everything else, acyclic graph: hypothesis (3) fails
    rep = realize_all(families.two_star(1, 1), PLAIN)
    t = rep.tables[0]
    g = zero_divisor_graph(t)
    # pick an end vertex's neighbor x; tx = all others
    v = theorems.verify_thm_2_1(theorems.table_facts(t), 1, {2, 3, 4})
    assert not v.hypotheses_met


def test_thm_2_1_rejects_bad_input(fixture_tables):
    with pytest.raises(ValueError):
        theorems.verify_thm_2_1(theorems.table_facts(fixture_tables[5]), 0, set())
    v = theorems.verify_thm_2_1(theorems.table_facts(fixture_tables[5]), A1, {A1})
    assert not v.hypotheses_met


def test_cor_2_2_on_fixture_tables(fixture_tables):
    v = theorems.verify_cor_2_2(theorems.table_facts(fixture_tables[5]), A1)
    assert v.hypotheses_met and v.conclusion_holds
    # a2 in the two-pendant table: pendants exist, cycle exists
    v = theorems.verify_cor_2_2(theorems.table_facts(fixture_tables[2]), A2)
    assert v.hypotheses_met and v.conclusion_holds
    # no pendants adjacent to x2 there
    v = theorems.verify_cor_2_2(theorems.table_facts(fixture_tables[2]), X2)
    assert not v.hypotheses_met


def test_cor_2_2_no_claim_for_two_vertex_graph():
    # x*x = other endpoint is a legal two-vertex table and breaks the
    # closure claim, so the verifier must exclude that graph
    t = table_from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    v = theorems.verify_cor_2_2(theorems.table_facts(t), 2)
    assert not v.hypotheses_met


def test_prop_2_7_hypothesis_is_necessary(fixture_tables):
    t5 = fixture_tables[5]
    v = theorems.verify_prop_2_7(theorems.table_facts(t5), A1)
    assert not v.hypotheses_met  # a1*a1 = 0
    assert v.conclusion_holds is None
    # and indeed the conclusion would be false there
    from zdg.semigroup import is_subsemigroup

    assert not is_subsemigroup(t5, {0, X1})


def test_prop_2_7_applicable_case(fixture_tables):
    # x2 in the two-pendant table: cycle, not an end vertex, x2*x2 != 0
    v = theorems.verify_prop_2_7(theorems.table_facts(fixture_tables[2]), X2)
    assert v.hypotheses_met and v.conclusion_holds


def test_thm_2_9_qualifying_pairs():
    # two-star realizations never have both centers square to zero (one
    # center absorbs the other), so the qualifying pairs come from the
    # pendant variants of the base graph, like fixture 3: both hubs carry
    # pendants and square to zero
    for g in (families.two_star(2, 2), families.fig1(1, 1), families.fig1(2, 2)):
        for t in realize_all(g, PLAIN).tables:
            for s in t.nonzero():
                for u in t.nonzero():
                    if s < u:
                        v = theorems.verify_thm_2_9(theorems.table_facts(t), s, u)
                        if v.hypotheses_met:
                            assert v.conclusion_holds, v


def test_thm_2_9_fixture_3_hubs(fixture_tables):
    v = theorems.verify_thm_2_9(theorems.table_facts(fixture_tables[3]), A1, A2)
    assert v.hypotheses_met and v.conclusion_holds


def test_thm_2_9_degenerate_two_vertex_graph_excluded():
    allzero = table_from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    v = theorems.verify_thm_2_9(theorems.table_facts(allzero), 1, 2)
    assert not v.hypotheses_met


def test_thm_2_9_not_applicable_without_pendants(fixture_tables):
    v = theorems.verify_thm_2_9(theorems.table_facts(fixture_tables[1]), A1, A2)
    assert not v.hypotheses_met


def test_thm_2_9_refuses_pendant_products_that_leave_t_s():
    # edges 1-2, 1-3, 1-4, 2-3, 2-5: T_1 = {4}, T_2 = {5}, both hubs square
    # to zero and 1S = {0, 1}, 2S = {0, 2}, but 4*4 = 1 leaves T_1 | {0}
    # (not associative: the claim is about semigroups, the verifier needs
    # only the graph).  Without the closure check the nilpotency loop would
    # still refuse, with another witness.
    rows = [[0] * 6 for _ in range(6)]
    for (a, b), p in {(1, 5): 1, (2, 4): 2, (3, 4): 3, (3, 5): 3,
                      (4, 4): 1, (4, 5): 3, (5, 5): 5}.items():
        rows[a][b] = rows[b][a] = p
    f = theorems.table_facts(table_from_rows(rows))
    assert f.graph.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)]
    v = theorems.verify_thm_2_9(f, 1, 2)
    assert v.is_counterexample and v.witness == "4*4=1 leaves T_s | {0}"


def test_prop_2_10_on_boolean_star():
    # star: center is the unique maximal-degree vertex and is idempotent
    t = families.boolean_rpartite_table([1, 3])
    v = theorems.verify_prop_2_10(theorems.table_facts(t))
    assert v.hypotheses_met and v.conclusion_holds


def _facts(n, edges, products):
    """Facts of the table on n elements with the given products, every
    product not listed 0, checked to have the given graph edges (vertex
    ids).  Not associative: the claims are about semigroups, the verifiers
    need only the graph."""
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for (a, b), p in products.items():
        rows[a][b] = rows[b][a] = p
    f = theorems.table_facts(table_from_rows(rows))
    assert f.graph.edges() == edges
    return f


def _path_p4_table(products):
    """A table on the path 1-2-3-4 with the given products."""
    return _facts(4, [(0, 1), (1, 2), (2, 3)], products)


def _pendant_triangle_table(products):
    """A table on the triangle 1-2-3 with end vertices 4 and 5 at 1: every
    element idempotent, every other non-edge product 2, then products."""
    base = {(x, x): x for x in range(1, 6)}
    base.update({pair: 2 for pair in [(2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]})
    base.update(products)
    return _facts(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)], base)


def test_prop_2_10_refuses_an_idempotent_hub_with_a_third_product():
    # m = 2; the degree-2 vertices 2 and 3 have distinct neighborhoods, and
    # 2 is the idempotent one (3*3 = 1), but 2*4 = 3
    f = _path_p4_table({(1, 1): 1, (2, 2): 2, (3, 3): 1, (4, 4): 4,
                        (1, 3): 1, (1, 4): 1, (2, 4): 3})
    v = theorems.verify_prop_2_10(f)
    assert v.is_counterexample and v.witness == "2*4 = 3 outside {0, s}"


def test_cor_3_3_refuses_a_contained_neighborhood_without_absorption():
    # idempotent and uniquely determined, but N(1) = {2} <= N(3) = {2, 4}
    # while 1*3 = 1, not 3
    f = _path_p4_table({(1, 1): 1, (2, 2): 2, (3, 3): 3, (4, 4): 4,
                        (1, 3): 1, (1, 4): 1, (2, 4): 2})
    v = theorems.verify_cor_3_3(f)
    assert v.is_counterexample and v.witness == "N(1) <= N(3) but 1*3 = 1"


def test_prop_2_7_refuses_end_vertices_whose_product_leaves_them():
    # 1 is on the triangle and 1*1 = 1, but T_1 = {4, 5} and 4*5 = 1
    f = _pendant_triangle_table({(4, 5): 1})
    v = theorems.verify_prop_2_7(f, 1)
    assert v.is_counterexample and v.witness == "4*5=1 leaves tx | {0}"


@pytest.mark.parametrize("verify", [
    lambda f: theorems.verify_thm_2_1(f, 1, {4, 5}),
    lambda f: theorems.verify_cor_2_2(f, 1),
], ids=["thm_2_1", "cor_2_2"])
def test_thm_2_1_and_cor_2_2_refuse_a_product_into_tx(verify):
    # tx = T_1 = {4, 5} meets the hypotheses, but 2*2 = 4 lands in tx
    f = _pendant_triangle_table({(2, 2): 4})
    v = verify(f)
    assert v.is_counterexample and v.witness == "2*2=4 leaves S - tx"


def test_thm_3_2_refuses_a_lower_set_that_is_not_closed():
    # idempotent; S_<=2 = {2, 4} since N(4) = {3} <= N(2) = {1, 3}, but
    # 2*4 = 1
    f = _path_p4_table({(1, 1): 1, (2, 2): 2, (3, 3): 3, (4, 4): 4,
                        (1, 3): 3, (1, 4): 4, (2, 4): 1})
    v = theorems.verify_thm_3_2(f)
    assert v.is_counterexample and v.witness == "x=2: 2*4=1 leaves S_<=x"


def test_thm_3_2_and_cor_3_3_on_rpartite():
    for sizes in ([2, 2], [2, 1], [3, 2, 1]):
        t = families.boolean_rpartite_table(sizes)
        v = theorems.verify_thm_3_2(theorems.table_facts(t))
        assert v.hypotheses_met and v.conclusion_holds, v
        v = theorems.verify_cor_3_3(theorems.table_facts(t))
        assert v.hypotheses_met and v.conclusion_holds, v


def test_thm_3_2_not_applicable_on_non_boolean(fixture_tables):
    v = theorems.verify_thm_3_2(theorems.table_facts(fixture_tables[1]))
    assert not v.hypotheses_met


def test_prop_3_6_consistency(fixture_tables):
    # reduced with uniquely determined graph forces idempotency;
    # fixture 5 is not reduced, so not applicable
    v = theorems.verify_prop_3_6(theorems.table_facts(fixture_tables[5]))
    assert not v.hypotheses_met
    t = families.boolean_rpartite_table([1, 1, 1])
    v = theorems.verify_prop_3_6(theorems.table_facts(t))
    assert v.hypotheses_met and v.conclusion_holds


def test_prop_3_6_refuses_a_reduced_table_that_is_not_idempotent():
    # K2 with 1*1 = 2, 2*2 = 1: reduced (no nilpotents) and uniquely
    # determined, but not idempotent
    t = table_from_rows([[0, 0, 0], [0, 2, 0], [0, 0, 1]])
    v = theorems.verify_prop_3_6(theorems.table_facts(t))
    assert v.is_counterexample and v.witness == "1*1 = 2 != 1"


def test_all_verdicts_cover_every_verifier(fixture_tables):
    vs = theorems.all_verdicts(fixture_tables[5])
    names = {v.theorem for v in vs}
    assert names == {
        "thm_2_1",
        "cor_2_2",
        "prop_2_7",
        "thm_2_9",
        "prop_2_10",
        "thm_3_2",
        "cor_3_3",
        "prop_3_6",
    }
    assert not theorems.counterexamples(vs)


def _applicable(verdicts):
    return Counter(v for v in verdicts if v.hypotheses_met)


def _separated(t, x, tx):
    """tx holds every end vertex at x and has no edge to S - tx - {0, x},
    read off the product table."""
    def hood(y):
        return {z for z in t.nonzero() if z != y and t.prod[y][z] == 0}

    rest = set(t.nonzero()) - set(tx) - {x}
    ends = {y for y in hood(x) if hood(y) == {x}}
    return ends <= set(tx) and not any(hood(a) & rest for a in tx)


def test_thm_2_1_subsets_match_power_set(connected_upto_4, fixture_tables):
    # reference: every subset of S - {0, x}, each through the verifier; the
    # sweep keeps exactly the separated ones, in the same order
    tables = [fixture_tables[k] for k in (1, 2, 5)]
    for g in connected_upto_4:
        for mode in (PLAIN, BOOLEAN):
            tables.extend(realize_all(g, mode).tables)
    # K4 and a triangle sharing vertex 3: removing it leaves the larger
    # component first, so the candidates must be sorted to keep the order
    k4_triangle = from_edge_list(
        6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]
    )
    for g in (families.fig1(1, 1), families.two_star(2, 2), k4_triangle):
        tables.extend(realize_all(g, PLAIN).tables)
    for t in tables:
        f = theorems.table_facts(t)
        reference = [
            (x, tx, theorems.verify_thm_2_1(f, x, tx))
            for x in t.nonzero()
            for r in range(t.n)
            for tx in combinations([e for e in t.nonzero() if e != x], r)
        ]
        swept = [v for v in theorems.all_verdicts(t) if v.theorem == "thm_2_1"]
        assert _applicable(swept) == _applicable(v for _, _, v in reference), t.prod
        assert swept == [v for x, tx, v in reference if _separated(t, x, tx)], t.prod


def test_nine_element_fixtures_check_only_pendant_sets(fixture_tables):
    for k in (3, 4):
        t = fixture_tables[k]
        f = theorems.table_facts(t)
        thm21 = [v for v in theorems.all_verdicts(t) if v.theorem == "thm_2_1"]
        assert t.n == 9
        assert [v.instance for v in thm21] == [
            f"thm_2_1(x={x}, tx={sorted(f.pendants[x])})" for x in t.nonzero()
        ]


def test_verdict_serialization(fixture_tables):
    v = theorems.verify_cor_2_2(theorems.table_facts(fixture_tables[5]), A1)
    d = v.to_dict()
    assert d["theorem"] == "cor_2_2" and d["hypotheses_met"] is True


def _verifier_by_verifier(t):
    """Every verdict of one table, each from a call of its verifier: the
    reference for the verdicts the plan settles on the graph alone."""
    f = theorems.table_facts(t)
    elems = list(t.nonzero())
    out = []
    for x in elems:
        for tx in theorems._thm_2_1_subsets(f, x):
            out.append(theorems.verify_thm_2_1(f, x, tx))
        out.append(theorems.verify_cor_2_2(f, x))
        out.append(theorems.verify_prop_2_7(f, x))
    out += [theorems.verify_thm_2_9(f, s, u) for s in elems for u in elems if s < u]
    return out + [verify(f) for verify in (theorems.verify_prop_2_10, theorems.verify_thm_3_2,
                                           theorems.verify_cor_3_3, theorems.verify_prop_3_6)]


def test_plan_verdicts_match_table_by_table_sweep(connected_classes_upto_5, fixture_tables):
    # the plan is built once per graph and settles what the graph alone
    # decides; every table must get exactly what all_verdicts gives it alone
    swept = 0
    for g in connected_classes_upto_5:
        for mode in (PLAIN, BOOLEAN):
            tables = realize_all(g, mode).tables
            verdicts_of = theorems.plan(g)
            for t in tables:
                assert verdicts_of(t) == theorems.all_verdicts(t), t.prod
                if g.n <= 4:
                    assert verdicts_of(t) == _verifier_by_verifier(t), t.prod
            swept += len(tables)
    assert swept == 7081
    for t in fixture_tables.values():
        assert theorems.all_verdicts(t) == _verifier_by_verifier(t), t.prod


def test_sweep_matches_verifier_by_verifier_on_relabelings(tmp_path, capsys):
    # two relabelings of K4 plus an end vertex, through the command line
    base = families.m_nk(4, 1)
    for seed in (1, 2):
        perm = list(range(base.n))
        random.Random(seed).shuffle(perm)
        g = from_edge_list(base.n, [(perm[u], perm[v]) for u, v in base.edges()])
        path = tmp_path / f"mnk41-{seed}.zdg-graph"
        path.write_text(format_graph(g))
        for mode in (PLAIN, BOOLEAN):
            argv = ["theorems", "--sweep", str(path), "--json"]
            assert cli.main(argv + (["--boolean"] if mode == BOOLEAN else [])) == 0
            got = json.loads(capsys.readouterr().out)["verdicts"]
            tables = realize_all(g, mode).tables
            assert tables
            want = [v.to_dict() for t in tables for v in _verifier_by_verifier(t)]
            assert got == want


def test_plan_refuses_a_table_of_another_graph():
    k3 = from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    k3_table, p3_table = (realize_all(g, PLAIN).tables[0] for g in (k3, p3))
    theorems.plan(k3)(k3_table)
    with pytest.raises(ValueError, match="not its neighbours"):
        theorems.plan(k3)(p3_table)  # a zero missing at an edge
    with pytest.raises(ValueError, match="not its neighbours"):
        theorems.plan(p3)(k3_table)  # a zero off the edges
    # element 3 has no zero product and vertex 2 no neighbour
    lone = table_from_rows([[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]])
    with pytest.raises(ValueError, match="element 3 is not a zero divisor"):
        theorems.plan(from_edge_list(3, [(0, 1)]))(lone)
    with pytest.raises(ValueError, match="2 nonzero elements, graph has 3"):
        theorems.plan(k3)(realize_all(families.complete(2), PLAIN).tables[0])
