from __future__ import annotations

import pytest

from conftest import attach_ends, attach_graph, boolean_rpartite_table

from zdg import families
from zdg.realize import realize_all
from zdg.semigroup import check_axioms, is_boolean, zero_divisor_graph


def _partitions(total, most=None):
    most = most or total
    if total == 0:
        yield ()
        return
    for first in range(min(total, most), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_complete_families():
    assert families.complete(3).edge_count() == 3
    assert families.complete_bipartite(2, 2).edge_count() == 4
    g = families.complete_multipartite([2, 2, 1])
    assert g.n == 5 and g.edge_count() == 8


def test_family_param_validation():
    with pytest.raises(ValueError):
        families.complete(0)
    with pytest.raises(ValueError):
        families.complete_multipartite([])
    with pytest.raises(ValueError, match="parts >= 1"):
        families.complete_bipartite(0, 3)
    with pytest.raises(ValueError):
        families.m_nk(3, 1)
    with pytest.raises(ValueError):
        families.m_nk(4, 5)
    with pytest.raises(ValueError):
        families.two_star(-1, 0)


def test_m_nk_shapes():
    g = families.m_nk(4, 3)
    assert g.n == 7 and g.edge_count() == 9
    assert families.m_nk(4, 1).edge_count() == 7
    assert families.m_nk(5, 5).n == 10


def test_fig_shapes_pinned_by_fixture_tables(fixture_tables):
    assert families.fig1(0, 0).adj == zero_divisor_graph(fixture_tables[1]).adj
    assert families.fig1(0, 2).adj == zero_divisor_graph(fixture_tables[2]).adj
    assert families.fig1(2, 2).adj == zero_divisor_graph(fixture_tables[3]).adj
    assert families.fig4(2, 2, 2).adj == zero_divisor_graph(fixture_tables[4]).adj


def test_fig_pendant_anchors():
    g = families.fig2(2)
    assert all(g.has_edge(2, v) for v in (5, 6))
    g = families.fig3(1)
    assert g.has_edge(3, 5)
    g = families.fig1(1, 1)
    assert g.has_edge(0, 5) and g.has_edge(1, 6)


def test_two_star():
    p4 = families.two_star(1, 1)
    assert p4.n == 4 and p4.edge_count() == 3
    assert sorted(p4.degree(v) for v in range(4)) == [1, 1, 2, 2]
    assert families.two_star(0, 0).edges() == [(0, 1)]


def test_attach_ends_rebuilds_m_nk():
    g = attach_ends(families.m_nk(4, 3), [(3, 1)])
    assert g.adj == families.m_nk(4, 4).adj


def test_attach_graph_requires_internal_vertex():
    t5_graph = zero_divisor_graph(families.fixture_table(5))  # pendant on 0
    with pytest.raises(ValueError, match="internal"):
        attach_graph(t5_graph, 0, families.complete(1))
    g = attach_graph(t5_graph, 1, families.complete(1))
    assert g.n == 5 and g.has_edge(1, 4)


def test_attach_to_unrealizable_stays_unrealizable():
    # attaching anything to an internal vertex preserves non-realizability
    base = families.fig2(1)
    assert realize_all(base).labeled_count == 0
    bigger = attach_graph(base, 4, families.complete(1))
    assert realize_all(bigger).labeled_count == 0


def test_rpartite_tables_sweep():
    # single-part size lists are degenerate (no zero divisors), so the
    # sweep covers every partition with at least two parts
    for total in range(2, 9):
        for sizes in _partitions(total):
            if len(sizes) < 2:
                continue
            t = boolean_rpartite_table(sizes)
            assert not check_axioms(t), sizes
            assert is_boolean(t), sizes
            assert (
                zero_divisor_graph(t).adj
                == families.complete_multipartite(sizes).adj
            ), sizes
    with pytest.raises(ValueError):
        boolean_rpartite_table([3])


def test_rpartite_products():
    t = boolean_rpartite_table([2, 1])
    assert t.prod[1][2] == 1  # same part collapses to the first element
    assert t.prod[1][3] == 0
    t = boolean_rpartite_table([1, 1])
    assert zero_divisor_graph(t).edges() == [(0, 1)]


def test_fixture_tables_golden(fixture_tables):
    for k, t in fixture_tables.items():
        assert not check_axioms(t), f"fixture {k}"
    assert fixture_tables[5].prod[3][4] == 3  # a3*x1 = a3
    assert fixture_tables[1].prod[4][4] == 4  # x1 idempotent
    with pytest.raises(ValueError):
        families.fixture_table(0)


def test_f2k_rings():
    from zdg.boolean_algebra import ring_zero_divisor_graph, verify_ring_axioms

    r2 = families.f2k_ring(2)
    assert not verify_ring_axioms(r2)
    assert ring_zero_divisor_graph(r2).edges() == [(0, 1)]
    r3 = families.f2k_ring(3)
    g3 = ring_zero_divisor_graph(r3)
    assert g3.n == 6 and g3.edge_count() == 6
    for k in (1, 8):
        with pytest.raises(ValueError):
            families.f2k_ring(k)
