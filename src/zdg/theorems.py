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
defined once, in zdg.semigroup, and read from there.  Many hypotheses
depend on G alone, so plan(g) lays out, once per graph, the verdicts of
every table realizing g: an instance whose hypotheses already fail on g is
settled for all of them, and only the others call a verifier per table.
all_verdicts(t) is the plan of t's own graph, applied to t.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    ids and is keyed by element id."""

    graph: G.Graph
    has_cycle: bool
    pendants: dict[int, frozenset[int]]  # x -> T_x
    hoods: dict[int, frozenset[int]]  # x -> N(x)
    core: frozenset[int]  # the core's vertices


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
    )


def bind(f: GraphFacts, t: MulTable) -> TableFacts:
    """t with the facts f.  Raises ValueError unless f's graph is t's
    zero-divisor graph as zero_divisor_adj defines it: a nonzero element
    that is not a zero divisor is reported before any element whose zero
    products are not its neighbours."""
    g = f.graph
    if t.n != g.n:
        raise ValueError(f"table has {t.n} nonzero elements, graph has {g.n} vertices")
    adj = SG.zero_divisor_adj(t)
    if adj != g.adj:
        x = next(v for v in range(g.n) if adj[v] != g.adj[v]) + 1
        raise ValueError(f"element {x}: its zero products are not its neighbours in the graph")
    return TableFacts(f.graph, f.has_cycle, f.pendants, f.hoods, f.core, table=t)


# The hypotheses that depend on the graph alone.  A verifier tests them
# before the table's own; plan() settles an instance that fails them once
# for every table of the graph.


def _thm_2_1_applies(f: GraphFacts, x: int, tx: frozenset[int]) -> bool:
    """For tx inside S - {0, x}: tx holds T_x, has no edge to the rest
    cx = S - tx - {0, x}, and cx is nonempty or G has a cycle and T_x is
    nonempty."""
    pend = f.pendants[x]
    cx = f.hoods.keys() - tx - {x}
    return (pend <= tx and not any(f.hoods[a] & cx for a in tx)
            and (bool(cx) or (f.has_cycle and bool(pend))))


def _cor_2_2_applies(f: GraphFacts, x: int) -> bool:
    return bool(f.pendants[x]) and _thm_2_1_applies(f, x, f.pendants[x])


def _prop_2_7_applies(f: GraphFacts, x: int) -> bool:
    return f.has_cycle and len(f.hoods[x]) != 1


def _thm_2_9_applies(f: GraphFacts, s: int, u: int) -> bool:
    ts, tu = f.pendants[s], f.pendants[u]
    return s != u and bool(ts) and bool(tu) and s not in tu and u not in ts


def _prop_3_6_applies(f: GraphFacts) -> bool:
    return G.is_uniquely_determined(f.graph)


def _thm_2_1_name(x: int, tx: Iterable[int]) -> str:
    return f"thm_2_1(x={x}, tx={sorted(tx)})"


def _thm_2_9_name(s: int, u: int) -> str:
    return f"thm_2_9(s={s}, t={u})"


def _check_element(t: MulTable, x: int):
    if not 1 <= x <= t.n:
        raise ValueError(f"element {x} out of range 1..{t.n}")


def verify_thm_2_1(f: TableFacts, x: int, tx: Iterable[int]) -> TheoremVerdict:
    """For a subset tx of S - {0, x} that contains all pendant neighbors of
    x, touches no vertex outside tx | {0, x}, and satisfies the nonemptiness
    or cycle side condition, S - tx is closed under products; when x has a
    pendant neighbor and the graph has a cycle, x*x is 0 or x."""
    t = f.table
    _check_element(t, x)
    tx = frozenset(tx)
    name = _thm_2_1_name(x, tx)
    all_elems = frozenset(t.nonzero())
    if not tx <= all_elems - {x}:
        return TheoremVerdict("thm_2_1", name, False, None, "tx not inside S - {0, x}")
    if not _thm_2_1_applies(f, x, tx):
        return TheoremVerdict("thm_2_1", name, False, None)

    rest = frozenset({0}) | (all_elems - tx)
    bad = SG.closure_witness(t, rest)
    if bad is not None:
        return TheoremVerdict(
            "thm_2_1", name, True, False, f"{bad[0]}*{bad[1]}={bad[2]} leaves S - tx"
        )
    if f.pendants[x] and f.has_cycle and t.prod[x][x] not in (0, x):
        return TheoremVerdict(
            "thm_2_1", name, True, False, f"x*x = {t.prod[x][x]} is neither 0 nor x"
        )
    return TheoremVerdict("thm_2_1", name, True, True)


def verify_cor_2_2(f: TableFacts, x: int) -> TheoremVerdict:
    """With tx = all pendant neighbors of x, nonempty: S - tx is a proper
    sub-semigroup; if the graph also has a cycle, {x, 0} is closed.

    The claim reduces to the main closure theorem, whose side condition
    needs a vertex outside tx | {0, x} or a cycle; that holds for every
    graph except the 2-vertex one (where the claim is in fact false, e.g.
    for the table with x*x = the other vertex), so it is part of the
    hypotheses here.
    """
    _check_element(f.table, x)
    name = f"cor_2_2(x={x})"
    if not _cor_2_2_applies(f, x):
        return TheoremVerdict("cor_2_2", name, False, None)
    return replace(verify_thm_2_1(f, x, f.pendants[x]), theorem="cor_2_2", instance=name)


def verify_prop_2_7(f: TableFacts, x: int) -> TheoremVerdict:
    """If the graph has a cycle, x is not an end vertex, and x*x != 0, then
    the pendant neighbors of x together with 0 are closed under products."""
    t = f.table
    _check_element(t, x)
    name = f"prop_2_7(x={x})"
    if not _prop_2_7_applies(f, x) or t.prod[x][x] == 0:
        return TheoremVerdict("prop_2_7", name, False, None)
    bad = SG.closure_witness(t, f.pendants[x] | {0})
    if bad is not None:
        return TheoremVerdict(
            "prop_2_7", name, True, False, f"{bad[0]}*{bad[1]}={bad[2]} leaves tx | {{0}}"
        )
    return TheoremVerdict("prop_2_7", name, True, True)


def _edge_in_quadrilateral(g: G.Graph, s: int, t2: int) -> bool:
    """True iff the edge s-t2 (vertex ids) lies on some 4-cycle: a neighbor
    d of s (d != t2) adjacent to a neighbor h of t2 (h != s; h != d, as no
    vertex is its own neighbor)."""
    return any(g.adj[d] & g.adj[t2] & ~(1 << s) for d in G.bits(g.adj[s] & ~(1 << t2)))


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
    t, g = f.table, f.graph
    _check_element(t, s)
    _check_element(t, u)
    name = _thm_2_9_name(s, u)
    if not _thm_2_9_applies(f, s, u) or t.prod[s][s] != 0 or t.prod[u][u] != 0:
        return TheoremVerdict("thm_2_9", name, False, None)

    ts, tu = f.pendants[s], f.pendants[u]
    ns, nu = f.hoods[s], f.hoods[u]
    for y in sorted(ts):
        for x in sorted(tu):
            p = t.prod[y][x]
            if p not in (ns & nu):
                return TheoremVerdict(
                    "thm_2_9", name, True, False,
                    f"{y}*{x} = {p} outside N(s) & N(t)",
                )
    for v, tv in ((s, ts), (u, tu)):
        products = {t.prod[v][a] for a in t.elements()}
        if products != {0, v}:
            return TheoremVerdict(
                "thm_2_9", name, True, False, f"{v}S = {sorted(products)} != {{0, {v}}}"
            )

    cond1 = all(t.prod[w][w] == 0 for w in (ns & f.core))
    cond2 = g.has_edge(s - 1, u - 1) and not _edge_in_quadrilateral(g, s - 1, u - 1)
    if cond1 or cond2:
        bad = SG.closure_witness(t, ts | {0})
        if bad is not None:
            return TheoremVerdict(
                "thm_2_9", name, True, False,
                f"{bad[0]}*{bad[1]}={bad[2]} leaves T_s | {{0}}",
            )
        for y in sorted(ts):
            if SG.is_nilpotent(t, y):
                return TheoremVerdict("thm_2_9", name, True, False, f"{y} is nilpotent in T_s")
    return TheoremVerdict("thm_2_9", name, True, True)


def verify_prop_2_10(f: TableFacts) -> TheoremVerdict:
    """If the graph is m-uniquely determined for the maximal degree m, then
    each maximal-degree idempotent s has Ss = {0, s}.  A graph with no
    vertex has no such s, so the claim is not applicable there."""
    t, g = f.table, f.graph
    m = max((g.degree(v) for v in range(g.n)), default=0)
    cand = [
        v + 1 for v in range(g.n) if g.degree(v) == m and t.prod[v + 1][v + 1] == v + 1
    ]
    name = f"prop_2_10(m={m}, candidates={cand})"
    if not cand or not G.is_m_uniquely_determined(g, m):
        return TheoremVerdict("prop_2_10", name, False, None)
    for s in cand:
        for a in t.elements():
            if t.prod[s][a] not in (0, s):
                return TheoremVerdict(
                    "prop_2_10", name, True, False,
                    f"{s}*{a} = {t.prod[s][a]} outside {{0, s}}",
                )
    return TheoremVerdict("prop_2_10", name, True, True)


def verify_thm_3_2(f: TableFacts) -> TheoremVerdict:
    """In an idempotent table, for every nonzero x the class S_x (equal
    neighborhoods) and the lower set S_<=x (contained neighborhoods) are
    closed and zero-free, and S_x is an ideal of S_<=x."""
    t = f.table
    name = "thm_3_2"
    if not SG.is_boolean(t):
        return TheoremVerdict("thm_3_2", name, False, None)
    for x, nx in f.hoods.items():
        sx = frozenset(y for y, ny in f.hoods.items() if ny == nx)
        lx = frozenset(y for y, ny in f.hoods.items() if ny <= nx)
        for sub, label in ((sx, "S_x"), (lx, "S_<=x")):
            bad = SG.closure_witness(t, sub)
            if bad is not None:
                return TheoremVerdict(
                    "thm_3_2", name, True, False,
                    f"x={x}: {bad[0]}*{bad[1]}={bad[2]} leaves {label}",
                )
        bad = SG.ideal_witness(t, sx, lx)
        if bad is not None:
            return TheoremVerdict(
                "thm_3_2", name, True, False,
                f"x={x}: {bad[0]}*{bad[1]}={bad[2]} leaves S_x",
            )
    return TheoremVerdict("thm_3_2", name, True, True)


def verify_cor_3_3(f: TableFacts) -> TheoremVerdict:
    """In an idempotent table, the graph is uniquely determined iff
    N(y) <= N(x) always forces yx = x."""
    t = f.table
    name = "cor_3_3"
    if not SG.is_boolean(t):
        return TheoremVerdict("cor_3_3", name, False, None)
    ud = G.is_uniquely_determined(f.graph)
    absorbing = True
    witness = None
    for x in t.nonzero():
        for y in t.nonzero():
            if f.hoods[y] <= f.hoods[x] and t.prod[y][x] != x:
                absorbing = False
                witness = f"N({y}) <= N({x}) but {y}*{x} = {t.prod[y][x]}"
                break
        if not absorbing:
            break
    if ud == absorbing:
        return TheoremVerdict("cor_3_3", name, True, True)
    return TheoremVerdict(
        "cor_3_3", name, True, False,
        witness or ("uniquely determined but absorption fails"
                    if ud else "absorption holds but not uniquely determined"),
    )


def verify_prop_3_6(f: TableFacts) -> TheoremVerdict:
    """A reduced table whose graph is uniquely determined is idempotent."""
    t = f.table
    name = "prop_3_6"
    if not _prop_3_6_applies(f) or not SG.is_reduced(t):
        return TheoremVerdict("prop_3_6", name, False, None)
    for x in t.nonzero():
        if t.prod[x][x] != x:
            return TheoremVerdict(
                "prop_3_6", name, True, False, f"{x}*{x} = {t.prod[x][x]} != {x}"
            )
    return TheoremVerdict("prop_3_6", name, True, True)


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

    The plan is a list of slots in sweep order: a TheoremVerdict where g
    alone fails the hypotheses, shared by every table, else a verifier
    waiting for the table.  The free subset tx of the first claim ranges
    over the subsets that can meet its hypotheses (see _thm_2_1_subsets),
    or only over T_x when g has more than _MAX_FREE_TX_N vertices.  The
    verifiers are looked up here, so a wrapper set on this module before
    the call is the one called.
    """
    f = graph_facts(g)
    slots: list[TheoremVerdict | Callable[[TableFacts], TheoremVerdict]] = []

    def add(applies: bool, verify, theorem: str, instance: str, **args):
        slots.append(partial(verify, **args) if applies
                     else TheoremVerdict(theorem, instance, False, None))

    elems = range(1, g.n + 1)
    for x in elems:
        for tx in _thm_2_1_subsets(f, x):
            add(_thm_2_1_applies(f, x, tx), verify_thm_2_1, "thm_2_1",
                _thm_2_1_name(x, tx), x=x, tx=tx)
        add(_cor_2_2_applies(f, x), verify_cor_2_2, "cor_2_2", f"cor_2_2(x={x})", x=x)
        add(_prop_2_7_applies(f, x), verify_prop_2_7, "prop_2_7", f"prop_2_7(x={x})", x=x)
    for s in elems:
        for u in elems:
            if s < u:
                add(_thm_2_9_applies(f, s, u), verify_thm_2_9, "thm_2_9",
                    _thm_2_9_name(s, u), s=s, u=u)
    slots += [verify_prop_2_10, verify_thm_3_2, verify_cor_3_3]
    add(_prop_3_6_applies(f), verify_prop_3_6, "prop_3_6", "prop_3_6")

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
