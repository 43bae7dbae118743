from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from itertools import combinations, permutations

import pytest

import reference_theorems as reference
from conftest import table_facts

from zdg import cli, families, theorems
from zdg.graph import connected_graphs, format_graph, from_edge_list
from zdg.realize import BOOLEAN, PLAIN, realize_all
from zdg.semigroup import MulTable, table_from_rows, zero_divisor_graph

A1, A2, A3, X1, X2 = 1, 2, 3, 4, 5


def test_thm_2_1_pendant_triangle(fixture_tables):
    t5 = fixture_tables[5]
    v = theorems.verify_thm_2_1(table_facts(t5), A1, {X1})
    assert v.hypotheses_met and v.conclusion_holds


def test_thm_2_1_empty_tx_on_base_table(fixture_tables):
    # tx empty: hypothesis (3) then needs other vertices, which exist
    t1 = fixture_tables[1]
    v = theorems.verify_thm_2_1(table_facts(t1), A1, set())
    assert v.hypotheses_met and v.conclusion_holds


def test_thm_2_1_inapplicable_when_all_vertices_absorbed():
    # tx = everything else, acyclic graph: hypothesis (3) fails
    rep = realize_all(families.two_star(1, 1), PLAIN)
    t = rep.tables[0]
    g = zero_divisor_graph(t)
    # pick an end vertex's neighbor x; tx = all others
    v = theorems.verify_thm_2_1(table_facts(t), 1, {2, 3, 4})
    assert not v.hypotheses_met


def test_thm_2_1_rejects_bad_input(fixture_tables):
    with pytest.raises(ValueError):
        theorems.verify_thm_2_1(table_facts(fixture_tables[5]), 0, set())
    v = theorems.verify_thm_2_1(table_facts(fixture_tables[5]), A1, {A1})
    assert not v.hypotheses_met


def test_cor_2_2_on_fixture_tables(fixture_tables):
    v = theorems.verify_cor_2_2(table_facts(fixture_tables[5]), A1)
    assert v.hypotheses_met and v.conclusion_holds
    # a2 in the two-pendant table: pendants exist, cycle exists
    v = theorems.verify_cor_2_2(table_facts(fixture_tables[2]), A2)
    assert v.hypotheses_met and v.conclusion_holds
    # no pendants adjacent to x2 there
    v = theorems.verify_cor_2_2(table_facts(fixture_tables[2]), X2)
    assert not v.hypotheses_met


def test_cor_2_2_no_claim_for_two_vertex_graph():
    # x*x = other endpoint is a legal two-vertex table and breaks the
    # closure claim, so the verifier must exclude that graph
    t = table_from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    v = theorems.verify_cor_2_2(table_facts(t), 2)
    assert not v.hypotheses_met


def test_prop_2_7_hypothesis_is_necessary(fixture_tables):
    t5 = fixture_tables[5]
    v = theorems.verify_prop_2_7(table_facts(t5), A1)
    assert not v.hypotheses_met  # a1*a1 = 0
    assert v.conclusion_holds is None
    # and indeed the conclusion would be false there
    from zdg.semigroup import closure_witness

    assert closure_witness(t5, {0, X1}) is not None


def test_prop_2_7_applicable_case(fixture_tables):
    # x2 in the two-pendant table: cycle, not an end vertex, x2*x2 != 0
    v = theorems.verify_prop_2_7(table_facts(fixture_tables[2]), X2)
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
                        v = theorems.verify_thm_2_9(table_facts(t), s, u)
                        if v.hypotheses_met:
                            assert v.conclusion_holds, v


def test_thm_2_9_fixture_3_hubs(fixture_tables):
    v = theorems.verify_thm_2_9(table_facts(fixture_tables[3]), A1, A2)
    assert v.hypotheses_met and v.conclusion_holds


def test_thm_2_9_degenerate_two_vertex_graph_excluded():
    allzero = table_from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    v = theorems.verify_thm_2_9(table_facts(allzero), 1, 2)
    assert not v.hypotheses_met


def test_thm_2_9_not_applicable_without_pendants(fixture_tables):
    v = theorems.verify_thm_2_9(table_facts(fixture_tables[1]), A1, A2)
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
    f = table_facts(table_from_rows(rows))
    assert f.graph.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)]
    v = theorems.verify_thm_2_9(f, 1, 2)
    assert v.is_counterexample and v.witness == "4*4=1 leaves T_s | {0}"


def test_thm_2_9_refuses_a_nilpotent_end_vertex():
    # the graph above with 4*4 = 0: the edge 1-2 lies on no 4-cycle and
    # T_1 | {0} = {0, 4} is closed, but the end vertex 4 is nilpotent
    f = _facts(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)],
               {(1, 5): 1, (2, 4): 2, (3, 3): 3, (3, 4): 3, (3, 5): 3, (4, 5): 3, (5, 5): 5})
    v = theorems.verify_thm_2_9(f, 1, 2)
    assert v.is_counterexample and v.witness == "4 is nilpotent in T_s"
    assert reference.verify_thm_2_9(f, 1, 2) == v


def test_edge_in_quadrilateral_matches_brute_force():
    # s-t lies on a 4-cycle s-t-h-d-s iff four distinct vertices close it;
    # every ordered edge of every labeled connected graph on up to 5 vertices
    for n in range(2, 6):
        for g in connected_graphs(n):
            for s, t in g.edges() + [(v, u) for u, v in g.edges()]:
                want = any(
                    g.has_edge(t, h) and g.has_edge(h, d) and g.has_edge(d, s)
                    for h, d in permutations(set(range(n)) - {s, t}, 2)
                )
                assert theorems._edge_in_quadrilateral(g, s, t) == want, (g.edges(), s, t)


def test_prop_2_10_on_boolean_star():
    # star: center is the unique maximal-degree vertex and is idempotent
    t = families.boolean_rpartite_table([1, 3])
    v = theorems.verify_prop_2_10(table_facts(t))
    assert v.hypotheses_met and v.conclusion_holds


def _facts(n, edges, products):
    """Facts of the table on n elements with the given products, every
    product not listed 0, checked to have the given graph edges (vertex
    ids).  Not associative: the claims are about semigroups, the verifiers
    need only the graph."""
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for (a, b), p in products.items():
        rows[a][b] = rows[b][a] = p
    f = table_facts(table_from_rows(rows))
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
        v = theorems.verify_thm_3_2(table_facts(t))
        assert v.hypotheses_met and v.conclusion_holds, v
        v = theorems.verify_cor_3_3(table_facts(t))
        assert v.hypotheses_met and v.conclusion_holds, v


def test_thm_3_2_not_applicable_on_non_boolean(fixture_tables):
    v = theorems.verify_thm_3_2(table_facts(fixture_tables[1]))
    assert not v.hypotheses_met


def test_prop_3_6_consistency(fixture_tables):
    # reduced with uniquely determined graph forces idempotency;
    # fixture 5 is not reduced, so not applicable
    v = theorems.verify_prop_3_6(table_facts(fixture_tables[5]))
    assert not v.hypotheses_met
    t = families.boolean_rpartite_table([1, 1, 1])
    v = theorems.verify_prop_3_6(table_facts(t))
    assert v.hypotheses_met and v.conclusion_holds


def test_prop_3_6_refuses_a_reduced_table_that_is_not_idempotent():
    # K2 with 1*1 = 2, 2*2 = 1: reduced (no nilpotents) and uniquely
    # determined, but not idempotent
    t = table_from_rows([[0, 0, 0], [0, 2, 0], [0, 0, 1]])
    v = theorems.verify_prop_3_6(table_facts(t))
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
        f = table_facts(t)
        every = [
            (x, tx, reference.verify_thm_2_1(f, x, tx))
            for x in t.nonzero()
            for r in range(t.n)
            for tx in combinations([e for e in t.nonzero() if e != x], r)
        ]
        swept = [v for v in theorems.all_verdicts(t) if v.theorem == "thm_2_1"]
        assert _applicable(swept) == _applicable(v for _, _, v in every), t.prod
        assert swept == [v for x, tx, v in every if _separated(t, x, tx)], t.prod


def test_nine_element_fixtures_check_only_pendant_sets(fixture_tables):
    for k in (3, 4):
        t = fixture_tables[k]
        f = table_facts(t)
        thm21 = [v for v in theorems.all_verdicts(t) if v.theorem == "thm_2_1"]
        assert t.n == 9
        assert [v.instance for v in thm21] == [
            f"thm_2_1(x={x}, tx={sorted(f.pendants[x])})" for x in t.nonzero()
        ]


def test_verdict_serialization(fixture_tables):
    v = theorems.verify_cor_2_2(table_facts(fixture_tables[5]), A1)
    d = v.to_dict()
    assert d["theorem"] == "cor_2_2" and d["hypotheses_met"] is True


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
                    assert verdicts_of(t) == reference.verifier_by_verifier(t), t.prod
            swept += len(tables)
    assert swept == 7081
    for t in fixture_tables.values():
        assert theorems.all_verdicts(t) == reference.verifier_by_verifier(t), t.prod


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
            want = [v.to_dict() for t in tables for v in reference.verifier_by_verifier(t)]
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


def _perturbed(t):
    """Copies of t with one nonzero product a*b, a <= b, moved to the next
    nonzero element: in both of its cells, and for a < b in cell (a, b)
    alone.  Every zero product stays, so every copy has t's graph."""
    out = []
    for a in t.nonzero():
        for b in range(a, t.n + 1):
            if t.prod[a][b] and t.n > 1:
                v = t.prod[a][b] % t.n + 1
                for cells in ({(a, b), (b, a)}, {(a, b)}) if a < b else ({(a, b)},):
                    rows = [[v if (i, j) in cells else p for j, p in enumerate(row)]
                            for i, row in enumerate(t.prod)]
                    out.append(MulTable(t.n, tuple(map(tuple, rows))))
    return out


def _template(witness):
    return re.sub(r"\d+", "#", re.sub(r"\[[^\]]*\]", "[]", witness))


def test_one_plan_gives_each_table_its_own_verdicts(connected_classes_upto_5):
    # one plan serves every table of its graph, realized or perturbed, in
    # either order: a table fact kept in a graph stage would hand the next
    # table the verdict of the one before.  fig4(1, 1, 0) adds applicable
    # thm_2_9 and prop_2_10 instances.
    witnesses = set()
    for g in [g for g in connected_classes_upto_5 if g.n <= 4] + [families.fig4(1, 1, 0)]:
        tables = [t for mode in (PLAIN, BOOLEAN) for t in realize_all(g, mode).tables]
        tables += [p for t in tables for p in _perturbed(t)]
        want = [reference.verifier_by_verifier(t) for t in tables]
        verdicts_of = theorems.plan(g)
        assert [verdicts_of(t) for t in tables] == want, g.edges()
        assert [verdicts_of(t) for t in reversed(tables)] == want[::-1], g.edges()
        witnesses |= {(v.theorem, _template(v.witness)) for vs in want for v in vs if v.witness}
    # every witness a table check gives, but "# is nilpotent in T_s": a copy
    # keeps each product zero or nonzero, so a nilpotent end vertex of s
    # inside a closed T_s | {0} would square to 0 in a realized table too,
    # which the claim rules out (test_thm_2_9_refuses_a_nilpotent_end_vertex
    # covers it)
    closure = {"#*#=# leaves S - tx", "x*x = # is neither # nor x"}
    assert witnesses == {
        *(("thm_2_1", w) for w in closure),
        *(("cor_2_2", w) for w in closure),
        ("prop_2_7", "#*#=# leaves tx | {#}"),
        ("thm_2_9", "#*# = # outside N(s) & N(t)"),
        ("thm_2_9", "#S = [] != {#, #}"),
        ("thm_2_9", "#*#=# leaves T_s | {#}"),
        ("prop_2_10", "#*# = # outside {#, s}"),
        ("thm_3_2", "x=#: #*#=# leaves S_x"),
        ("thm_3_2", "x=#: #*#=# leaves S_<=x"),
        ("cor_3_3", "N(#) <= N(#) but #*# = #"),
        ("cor_3_3", "absorption holds but not uniquely determined"),
        ("prop_3_6", "#*# = # != #"),
    }


# sha256 of the stdout of `zdg theorems --sweep G`, as the code before the
# graph stages wrote it
_SWEEP_PINNED = {
    ("m-nk 4 1", ()): "1b17fcac4f4fff266bfaf37e9ef20623b500dec1e92073784549909901734402",
    ("m-nk 4 1", ("--json",)): "f2e2606ca33280916f96b608fe2bc6a291188b09ec4916d2db8cb7291e03037a",
    ("m-nk 4 1", ("--boolean",)): "65e849e726ad3f56f957e12e2d4cfd3fd98f93c9bede1976504b1ea854b96e5b",
    ("m-nk 4 1", ("--boolean", "--json")):
        "afdcbf84c4d4b4f8ec46c9cccab2c8d39ffc674092f6cf8fd4c1ecfd70c8720a",
    ("two-star 1 3", ()): "8dc203d62ee19361987bd63daaf9d6c98646d0b064d79ad396d84c61dc6bf015",
    ("two-star 1 3", ("--json",)):
        "0857114403d66bb3853c93e23e9ea92e6f0d4e071b76e8067643d3d001f71509",
    ("two-star 1 3", ("--boolean",)):
        "c8323db292c3320a698ccbd83ac067a486862df4e0fccdba950e5c6322d56322",
    ("two-star 1 3", ("--boolean", "--json")):
        "c1805916ebc976b6930f132fe3c9eab643c4621f4fdf1d9dd9d4d0854bacc923",
    ("fig1 0 0", ()): "bf5be96459b360ba6a261f0125396b8772ac26d12121a9114ac51e213f1f458c",
    ("fig1 0 0", ("--json",)): "690f23857595d1a72e902f06fc90083774670215f3f0096c2a0086ba1cc1fe28",
    ("fig1 0 0", ("--boolean",)): "c8323db292c3320a698ccbd83ac067a486862df4e0fccdba950e5c6322d56322",
    ("fig1 0 0", ("--boolean", "--json")):
        "c1805916ebc976b6930f132fe3c9eab643c4621f4fdf1d9dd9d4d0854bacc923",
    ("complete 4", ()): "e1ebcb182b7a169f6b97c76002178451739028203ea6b57f6925fcee4898fbf8",
    ("complete 4", ("--json",)): "19b0f3052224ebedbf275d340870d8fba8def0ebb445396b38d00a725bf5d821",
    ("complete 4", ("--boolean",)): "4a1f171ef2b9739c588bc7408b9f2a68f8ad2874eaef6000fc9f282af5e00155",
    ("complete 4", ("--boolean", "--json")):
        "fe690aab83810d53325b5b0deab8e89d2f2ec6ab34364d186605cef0603edb82",
}
_SWEEP_GRAPHS = {"m-nk 4 1": families.m_nk(4, 1), "two-star 1 3": families.two_star(1, 3),
                 "fig1 0 0": families.fig1(0, 0), "complete 4": families.complete(4)}


@pytest.mark.parametrize("name, flags", sorted(_SWEEP_PINNED),
                         ids=[" ".join((name, *flags)) for name, flags in sorted(_SWEEP_PINNED)])
def test_sweep_output_pinned(tmp_path, capsys, name, flags):
    path = tmp_path / "g.zdg-graph"
    path.write_text(format_graph(_SWEEP_GRAPHS[name]))
    assert cli.main(["theorems", "--sweep", str(path), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _SWEEP_PINNED[name, flags]
