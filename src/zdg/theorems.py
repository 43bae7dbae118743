"""Executable verifiers for the structural claims about zero-divisor
semigroups: each one evaluates its hypotheses on a concrete table and, only
when they hold, checks the conclusion, reporting a witness on failure.

This is a falsification harness, not a proof system: sweeping all verifiers
over every realized table in a corpus must produce zero counterexamples.
Verdicts never guess: failed hypotheses mark the conclusion not-applicable
rather than true or false.

A verifier reads a table through TableFacts: the facts of its zero-divisor
graph G (cycle flag, every T_x and N(x), the core), which graph_facts works
out from G alone, bound to the table by bind, which checks G against the
table's zero-divisor graph.  That graph, idempotence and nilpotence are
defined once, in zdg.semigroup, and read from there.

Each claim is checked in two stages.  Its graph stage reads the graph facts
and the instance (x, tx, ...) alone: it either settles the verdict for every
table of the graph, when G already fails the hypotheses, or returns the
table check, a function of the table that tests what is left and returns
the verdict.  A verifier builds the stage of its instance on first use and
keeps it on the facts (GraphFacts.stages, which bind passes on), so every
table of one graph shares it.  plan(g) builds every stage of g once and
lays out the verdicts of every table realizing g: a settled instance is one
verdict shared by every table, and only the others call a verifier per
table.  all_verdicts(t) is the plan of t's own graph, applied to t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

from . import graph as G
from . import semigroup as SG
from .semigroup import MulTable


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: str
    instance: str
    hypotheses_met: bool
    conclusion_holds: bool | None  # None means not applicable
    witness: str | None = None

    @property
    def is_counterexample(self) -> bool:
        return self.hypotheses_met and self.conclusion_holds is False

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "instance": self.instance,
            "hypotheses_met": self.hypotheses_met,
            "conclusion_holds": self.conclusion_holds,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class GraphFacts:
    """The facts of a graph G that the verifiers read, worked out once per
    graph; element e is vertex e - 1, and every element set holds element
    ids and is keyed by element id.  stages keeps the graph stage of each
    instance a verifier has met (see _stage); it depends on G alone, so
    it is no part of the facts' value."""

    graph: G.Graph
    has_cycle: bool
    pendants: dict[int, frozenset[int]]  # x -> T_x
    hoods: dict[int, frozenset[int]]  # x -> N(x)
    core: frozenset[int]  # the core's vertices
    stages: dict = field(compare=False, repr=False)


@dataclass(frozen=True)
class TableFacts(GraphFacts):
    """A table with the facts of its zero-divisor graph."""

    table: MulTable


def graph_facts(g: G.Graph) -> GraphFacts:
    elems = range(1, g.n + 1)
    core_vertices, core_edges = G.core(g)
    return GraphFacts(
        graph=g,
        has_cycle=bool(core_edges),  # a cycle iff some edge is not a bridge
        pendants={x: frozenset(v + 1 for v in G.pendant_set(g, x - 1)) for x in elems},
        hoods={x: frozenset(v + 1 for v in G.bits(g.adj[x - 1])) for x in elems},
        core=frozenset(v + 1 for v in core_vertices),
        stages={},
    )


def bind(f: GraphFacts, t: MulTable) -> TableFacts:
    """t with the facts f, sharing f's stages.  Raises ValueError unless
    f's graph is t's zero-divisor graph as zero_divisor_adj defines it: a
    nonzero element that is not a zero divisor is reported before any
    element whose zero products are not its neighbours."""
    g = f.graph
    if t.n != g.n:
        raise ValueError(f"table has {t.n} nonzero elements, graph has {g.n} vertices")
    adj = SG.zero_divisor_adj(t)
    if adj != g.adj:
        x = next(v for v in range(g.n) if adj[v] != g.adj[v]) + 1
        raise ValueError(f"element {x}: its zero products are not its neighbours in the graph")
    return TableFacts(f.graph, f.has_cycle, f.pendants, f.hoods, f.core, f.stages, table=t)


def _stage(f: GraphFacts, build, *args):
    """The graph stage build(f, *args) of one instance, built on first use
    and kept in f.stages: the TheoremVerdict of every table of the graph,
    or the table check, which takes the table and returns its verdict."""
    key = (build, *args)
    stage = f.stages.get(key)
    if stage is None:
        stage = f.stages[key] = build(f, *args)
    return stage


def _run(f: TableFacts, build, *args) -> TheoremVerdict:
    """The verdict of f's table at one instance, through its graph stage."""
    stage = _stage(f, build, *args)
    return stage(f.table) if callable(stage) else stage


def _check_element(f: GraphFacts, x: int):
    if not 1 <= x <= f.graph.n:
        raise ValueError(f"element {x} out of range 1..{f.graph.n}")


def _thm_2_1_applies(f: GraphFacts, x: int, tx: frozenset[int]) -> bool:
    """For tx inside S - {0, x}: tx holds T_x, has no edge to the rest
    cx = S - tx - {0, x}, and cx is nonempty or G has a cycle and T_x is
    nonempty."""
    pend = f.pendants[x]
    cx = f.hoods.keys() - tx - {x}
    return (pend <= tx and not any(f.hoods[a] & cx for a in tx)
            and (bool(cx) or (f.has_cycle and bool(pend))))


def _closure_check(f: GraphFacts, x: int, tx: frozenset[int], theorem: str, name: str):
    """The table check of the first closure theorem at x and tx, whose
    graph hypotheses hold; cor_2_2 runs it under its own name."""
    rest = frozenset({0}) | (f.hoods.keys() - tx)
    square = bool(f.pendants[x]) and f.has_cycle
    holds = TheoremVerdict(theorem, name, True, True)

    def check(t: MulTable) -> TheoremVerdict:
        bad = SG.closure_witness(t, rest)
        if bad is not None:
            return TheoremVerdict(
                theorem, name, True, False, f"{bad[0]}*{bad[1]}={bad[2]} leaves S - tx"
            )
        xx = t.prod[x][x]
        if square and xx not in (0, x):
            return TheoremVerdict(theorem, name, True, False, f"x*x = {xx} is neither 0 nor x")
        return holds

    return check


def _thm_2_1_stage(f: GraphFacts, x: int, tx: frozenset[int]):
    _check_element(f, x)
    name = f"thm_2_1(x={x}, tx={sorted(tx)})"
    if not tx <= f.hoods.keys() - {x}:
        return TheoremVerdict("thm_2_1", name, False, None, "tx not inside S - {0, x}")
    if not _thm_2_1_applies(f, x, tx):
        return TheoremVerdict("thm_2_1", name, False, None)
    return _closure_check(f, x, tx, "thm_2_1", name)


def verify_thm_2_1(f: TableFacts, x: int, tx: Iterable[int]) -> TheoremVerdict:
    """For a subset tx of S - {0, x} that contains all pendant neighbors of
    x, touches no vertex outside tx | {0, x}, and satisfies the nonemptiness
    or cycle side condition, S - tx is closed under products; when x has a
    pendant neighbor and the graph has a cycle, x*x is 0 or x."""
    return _run(f, _thm_2_1_stage, x, frozenset(tx))


def _cor_2_2_stage(f: GraphFacts, x: int):
    _check_element(f, x)
    name = f"cor_2_2(x={x})"
    pend = f.pendants[x]
    if not pend or not _thm_2_1_applies(f, x, pend):
        return TheoremVerdict("cor_2_2", name, False, None)
    return _closure_check(f, x, pend, "cor_2_2", name)


def verify_cor_2_2(f: TableFacts, x: int) -> TheoremVerdict:
    """With tx = all pendant neighbors of x, nonempty: S - tx is a proper
    sub-semigroup; if the graph also has a cycle, {x, 0} is closed.

    The claim reduces to the main closure theorem, whose side condition
    needs a vertex outside tx | {0, x} or a cycle; that holds for every
    graph except the 2-vertex one (where the claim is in fact false, e.g.
    for the table with x*x = the other vertex), so it is part of the
    hypotheses here.
    """
    return _run(f, _cor_2_2_stage, x)


def _prop_2_7_stage(f: GraphFacts, x: int):
    _check_element(f, x)
    name = f"prop_2_7(x={x})"
    na = TheoremVerdict("prop_2_7", name, False, None)
    if not f.has_cycle or len(f.hoods[x]) == 1:
        return na
    ends = f.pendants[x] | {0}
    holds = TheoremVerdict("prop_2_7", name, True, True)

    def check(t: MulTable) -> TheoremVerdict:
        if t.prod[x][x] == 0:
            return na
        bad = SG.closure_witness(t, ends)
        if bad is not None:
            return TheoremVerdict(
                "prop_2_7", name, True, False,
                f"{bad[0]}*{bad[1]}={bad[2]} leaves tx | {{0}}",
            )
        return holds

    return check


def verify_prop_2_7(f: TableFacts, x: int) -> TheoremVerdict:
    """If the graph has a cycle, x is not an end vertex, and x*x != 0, then
    the pendant neighbors of x together with 0 are closed under products."""
    return _run(f, _prop_2_7_stage, x)


def _edge_in_quadrilateral(g: G.Graph, s: int, t2: int) -> bool:
    """True iff the edge s-t2 (vertex ids) lies on some 4-cycle: a neighbor
    d of s (d != t2) adjacent to a neighbor h of t2 (h != s; h != d, as no
    vertex is its own neighbor)."""
    return any(g.adj[d] & g.adj[t2] & ~(1 << s) for d in G.bits(g.adj[s] & ~(1 << t2)))


def _thm_2_9_stage(f: GraphFacts, s: int, u: int):
    _check_element(f, s)
    _check_element(f, u)
    name = f"thm_2_9(s={s}, t={u})"
    na = TheoremVerdict("thm_2_9", name, False, None)
    ts, tu = f.pendants[s], f.pendants[u]
    if s == u or not ts or not tu or s in tu or u in ts:
        return na
    g = f.graph
    meet = f.hoods[s] & f.hoods[u]
    pairs = [(y, x) for y in sorted(ts) for x in sorted(tu)]
    elems = range(g.n + 1)
    core_hood = f.hoods[s] & f.core
    quad_free = g.has_edge(s - 1, u - 1) and not _edge_in_quadrilateral(g, s - 1, u - 1)
    ends = ts | {0}
    holds = TheoremVerdict("thm_2_9", name, True, True)

    def fail(witness: str) -> TheoremVerdict:
        return TheoremVerdict("thm_2_9", name, True, False, witness)

    def check(t: MulTable) -> TheoremVerdict:
        p = t.prod
        if p[s][s] != 0 or p[u][u] != 0:
            return na
        for y, x in pairs:
            if p[y][x] not in meet:
                return fail(f"{y}*{x} = {p[y][x]} outside N(s) & N(t)")
        for v in (s, u):
            products = {p[v][a] for a in elems}
            if products != {0, v}:
                return fail(f"{v}S = {sorted(products)} != {{0, {v}}}")
        if quad_free or all(p[w][w] == 0 for w in core_hood):
            bad = SG.closure_witness(t, ends)
            if bad is not None:
                return fail(f"{bad[0]}*{bad[1]}={bad[2]} leaves T_s | {{0}}")
            for y in sorted(ts):
                if SG.is_nilpotent(t, y):
                    return fail(f"{y} is nilpotent in T_s")
        return holds

    return check


def verify_thm_2_9(f: TableFacts, s: int, u: int) -> TheoremVerdict:
    """For distinct non-pendant vertices s, u that both have pendant
    neighbors and square to zero: pendant products land in N(s) & N(u) and
    sS = {0, s}, uS = {0, u}; if additionally every core vertex adjacent to
    s squares to zero, or the edge s-u lies on no 4-cycle, then the pendant
    neighbors of s together with 0 form a closed set with no nilpotents.

    The requirement that s and u not be pendant neighbors of each other is
    implicit in the claim (it fails only for the 2-vertex graph, where the
    all-zero table is a counterexample to the literal statement).
    """
    return _run(f, _thm_2_9_stage, s, u)


def _prop_2_10_stage(f: GraphFacts):
    g = f.graph
    m = max((g.degree(v) for v in range(g.n)), default=0)
    top = [v + 1 for v in range(g.n) if g.degree(v) == m]
    # a vertex of degree 0 is a zero divisor only by x*x = 0, so at m = 0
    # there is no candidate
    m_ud = m > 0 and G.is_m_uniquely_determined(g, m)
    elems = range(g.n + 1)

    def check(t: MulTable) -> TheoremVerdict:
        p = t.prod
        cand = [s for s in top if p[s][s] == s]
        name = f"prop_2_10(m={m}, candidates={cand})"
        if not cand or not m_ud:
            return TheoremVerdict("prop_2_10", name, False, None)
        for s in cand:
            for a in elems:
                if p[s][a] not in (0, s):
                    return TheoremVerdict(
                        "prop_2_10", name, True, False, f"{s}*{a} = {p[s][a]} outside {{0, s}}"
                    )
        return TheoremVerdict("prop_2_10", name, True, True)

    return check


def verify_prop_2_10(f: TableFacts) -> TheoremVerdict:
    """If the graph is m-uniquely determined for the maximal degree m, then
    each maximal-degree idempotent s has Ss = {0, s}.  A graph with no
    vertex has no such s, so the claim is not applicable there."""
    return _run(f, _prop_2_10_stage)


def _thm_3_2_stage(f: GraphFacts):
    na = TheoremVerdict("thm_3_2", "thm_3_2", False, None)
    holds = TheoremVerdict("thm_3_2", "thm_3_2", True, True)
    classes = [
        (x, frozenset(y for y, ny in f.hoods.items() if ny == nx),
         frozenset(y for y, ny in f.hoods.items() if ny <= nx))
        for x, nx in f.hoods.items()
    ]

    def check(t: MulTable) -> TheoremVerdict:
        if not SG.is_boolean(t):
            return na
        for x, sx, lx in classes:
            for sub, label in ((sx, "S_x"), (lx, "S_<=x")):
                bad = SG.closure_witness(t, sub)
                if bad is not None:
                    return TheoremVerdict(
                        "thm_3_2", "thm_3_2", True, False,
                        f"x={x}: {bad[0]}*{bad[1]}={bad[2]} leaves {label}",
                    )
            bad = SG.ideal_witness(t, sx, lx)
            if bad is not None:
                return TheoremVerdict(
                    "thm_3_2", "thm_3_2", True, False,
                    f"x={x}: {bad[0]}*{bad[1]}={bad[2]} leaves S_x",
                )
        return holds

    return check


def verify_thm_3_2(f: TableFacts) -> TheoremVerdict:
    """In an idempotent table, for every nonzero x the class S_x (equal
    neighborhoods) and the lower set S_<=x (contained neighborhoods) are
    closed and zero-free, and S_x is an ideal of S_<=x."""
    return _run(f, _thm_3_2_stage)


def _cor_3_3_stage(f: GraphFacts):
    na = TheoremVerdict("cor_3_3", "cor_3_3", False, None)
    holds = TheoremVerdict("cor_3_3", "cor_3_3", True, True)
    ud = G.is_uniquely_determined(f.graph)
    unforced = TheoremVerdict("cor_3_3", "cor_3_3", True, False,
                              "absorption holds but not uniquely determined")
    hoods = f.hoods
    below = [(y, x) for x in hoods for y in hoods if hoods[y] <= hoods[x]]

    def check(t: MulTable) -> TheoremVerdict:
        if not SG.is_boolean(t):
            return na
        p = t.prod
        for y, x in below:
            if p[y][x] != x:
                if not ud:
                    return holds
                return TheoremVerdict("cor_3_3", "cor_3_3", True, False,
                                      f"N({y}) <= N({x}) but {y}*{x} = {p[y][x]}")
        return holds if ud else unforced

    return check


def verify_cor_3_3(f: TableFacts) -> TheoremVerdict:
    """In an idempotent table, the graph is uniquely determined iff
    N(y) <= N(x) always forces yx = x."""
    return _run(f, _cor_3_3_stage)


def _prop_3_6_stage(f: GraphFacts):
    na = TheoremVerdict("prop_3_6", "prop_3_6", False, None)
    if not G.is_uniquely_determined(f.graph):
        return na
    holds = TheoremVerdict("prop_3_6", "prop_3_6", True, True)
    elems = range(1, f.graph.n + 1)

    def check(t: MulTable) -> TheoremVerdict:
        if not SG.is_reduced(t):
            return na
        p = t.prod
        for x in elems:
            if p[x][x] != x:
                return TheoremVerdict("prop_3_6", "prop_3_6", True, False,
                                      f"{x}*{x} = {p[x][x]} != {x}")
        return holds

    return check


def verify_prop_3_6(f: TableFacts) -> TheoremVerdict:
    """A reduced table whose graph is uniquely determined is idempotent."""
    return _run(f, _prop_3_6_stage)


# Above this many elements the first claim is checked only at tx = T_x;
# perfbench/expected.json pins the counts this gives on fixtures 3 and 4.
_MAX_FREE_TX_N = 8


def _thm_2_1_subsets(f: GraphFacts, x: int) -> list[frozenset[int]]:
    """T_x plus every union of the other connected components of G - x:
    exactly the tx that contain T_x and have no edge to the rest (each end
    vertex at x is a component of its own), by size, then elementwise."""
    subsets = [f.pendants[x]]
    left = set(f.hoods) - f.pendants[x] - {x}
    adj = [mask & ~(1 << (x - 1)) for mask in f.graph.adj]  # G - x
    while left and f.graph.n <= _MAX_FREE_TX_N:
        part = frozenset(v + 1 for v in G.bits(G.reachable(adj, min(left) - 1)))
        subsets += [tx | part for tx in subsets]
        left -= part
    return sorted(subsets, key=lambda tx: (len(tx), sorted(tx)))


def plan(g: G.Graph) -> Callable[[MulTable], list[TheoremVerdict]]:
    """The sweep of every verifier over every eligible instance, as a
    function of a table that realizes g; it raises ValueError unless g is
    the table's zero-divisor graph.

    The plan builds the graph stage of every instance once, then lays out
    a list of slots in sweep order: the TheoremVerdict of an instance whose
    stage settled it, shared by every table, else its verifier waiting for
    the table, which runs the stage's table check.  The free subset tx of
    the first claim ranges over the subsets that can meet its hypotheses
    (see _thm_2_1_subsets), or only over T_x when g has more than
    _MAX_FREE_TX_N vertices.  The verifiers are looked up here, so a
    wrapper set on this module before the call is the one called, once per
    table and unsettled instance.
    """
    f = graph_facts(g)
    slots: list[TheoremVerdict | Callable[[TableFacts], TheoremVerdict]] = []

    def add(verify, build, **args):
        # args in the order verify passes them to build, so that each
        # table's call finds this stage under the same key
        stage = _stage(f, build, *args.values())
        slots.append(partial(verify, **args) if callable(stage) else stage)

    elems = range(1, g.n + 1)
    for x in elems:
        for tx in _thm_2_1_subsets(f, x):
            add(verify_thm_2_1, _thm_2_1_stage, x=x, tx=tx)
        add(verify_cor_2_2, _cor_2_2_stage, x=x)
        add(verify_prop_2_7, _prop_2_7_stage, x=x)
    for s in elems:
        for u in elems:
            if s < u:
                add(verify_thm_2_9, _thm_2_9_stage, s=s, u=u)
    add(verify_prop_2_10, _prop_2_10_stage)
    add(verify_thm_3_2, _thm_3_2_stage)
    add(verify_cor_3_3, _cor_3_3_stage)
    add(verify_prop_3_6, _prop_3_6_stage)

    def verdicts(t: MulTable) -> list[TheoremVerdict]:
        tf = bind(f, t)
        return [s(tf) if callable(s) else s for s in slots]

    return verdicts


def all_verdicts(t: MulTable) -> list[TheoremVerdict]:
    """Sweep every verifier over every eligible instance of one table: the
    plan of its zero-divisor graph, applied to it."""
    return plan(SG.zero_divisor_graph(t))(t)


def counterexamples(verdicts: Iterable[TheoremVerdict]) -> list[TheoremVerdict]:
    return [v for v in verdicts if v.is_counterexample]
