"""Executable verifiers for the structural claims about zero-divisor
semigroups: each one evaluates its hypotheses on a concrete table and, only
when they hold, checks the conclusion, reporting a witness on failure.

This is a falsification harness, not a proof system: sweeping all verifiers
over every realized table in a corpus must produce zero counterexamples.
Verdicts never guess: failed hypotheses mark the conclusion not-applicable
rather than true or false.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

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
class TableFacts:
    """The graph facts the verifiers read, computed once per table; every
    element set holds element ids and is keyed by element id."""

    table: MulTable
    graph: G.Graph
    has_cycle: bool
    pendants: dict[int, frozenset[int]]  # x -> T_x
    hoods: dict[int, frozenset[int]]  # x -> N(x)
    core: frozenset[int]  # the core's vertices


def table_facts(t: MulTable) -> TableFacts:
    """Raises ValueError when some nonzero element is not a zero divisor."""
    g = SG.zero_divisor_graph(t)
    return TableFacts(
        table=t,
        graph=g,
        has_cycle=G.has_cycle(g),
        pendants={x: frozenset(v + 1 for v in G.pendant_set(g, x - 1)) for x in t.nonzero()},
        hoods={x: frozenset(v + 1 for v in G.bits(g.adj[x - 1])) for x in t.nonzero()},
        core=frozenset(v + 1 for v in G.core(g)[0]),
    )


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
    name = f"thm_2_1(x={x}, tx={sorted(tx)})"
    all_elems = frozenset(t.nonzero())
    if not tx <= all_elems - {x}:
        return TheoremVerdict("thm_2_1", name, False, None, "tx not inside S - {0, x}")

    pend = f.pendants[x]
    h1 = pend <= tx
    cx = all_elems - tx - {x}
    h2 = not any(f.hoods[a] & cx for a in tx)  # no edge between tx and cx
    cyc = f.has_cycle
    h3 = bool(cx) or (cyc and bool(pend))
    if not (h1 and h2 and h3):
        return TheoremVerdict("thm_2_1", name, False, None)

    rest = frozenset({0}) | (all_elems - tx)
    bad = SG.closure_witness(t, rest)
    if bad is not None:
        return TheoremVerdict(
            "thm_2_1", name, True, False, f"{bad[0]}*{bad[1]}={bad[2]} leaves S - tx"
        )
    if pend and cyc and t.prod[x][x] not in (0, x):
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
    if not f.pendants[x]:
        return TheoremVerdict("cor_2_2", name, False, None)
    return replace(verify_thm_2_1(f, x, f.pendants[x]), theorem="cor_2_2", instance=name)


def verify_prop_2_7(f: TableFacts, x: int) -> TheoremVerdict:
    """If the graph has a cycle, x is not an end vertex, and x*x != 0, then
    the pendant neighbors of x together with 0 are closed under products."""
    t = f.table
    _check_element(t, x)
    name = f"prop_2_7(x={x})"
    if not f.has_cycle or len(f.hoods[x]) == 1 or t.prod[x][x] == 0:
        return TheoremVerdict("prop_2_7", name, False, None)
    bad = SG.closure_witness(t, f.pendants[x] | {0})
    if bad is not None:
        return TheoremVerdict(
            "prop_2_7", name, True, False, f"{bad[0]}*{bad[1]}={bad[2]} leaves tx | {{0}}"
        )
    return TheoremVerdict("prop_2_7", name, True, True)


def _edge_in_quadrilateral(g: G.Graph, s: int, t2: int) -> bool:
    """True iff the edge s-t2 (vertex ids) lies on some 4-cycle: a neighbor
    d of s (d != t2) adjacent to a neighbor h of t2 (h != s, h != d)."""
    for d in G.bits(g.adj[s] & ~(1 << t2)):
        for h in G.bits(g.adj[t2] & ~(1 << s)):
            if d != h and g.has_edge(d, h):
                return True
    return False


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
    name = f"thm_2_9(s={s}, t={u})"
    if s == u:
        return TheoremVerdict("thm_2_9", name, False, None)
    ts, tu = f.pendants[s], f.pendants[u]
    hyp = bool(ts) and bool(tu) and t.prod[s][s] == 0 and t.prod[u][u] == 0
    hyp = hyp and s not in tu and u not in ts
    if not hyp:
        return TheoremVerdict("thm_2_9", name, False, None)

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
            z = y
            seen = set()
            while z not in seen:
                seen.add(z)
                z = t.prod[z][z]
                if z == 0:
                    return TheoremVerdict(
                        "thm_2_9", name, True, False, f"{y} is nilpotent in T_s"
                    )
    return TheoremVerdict("thm_2_9", name, True, True)


def verify_prop_2_10(f: TableFacts) -> TheoremVerdict:
    """If the graph is m-uniquely determined for the maximal degree m, then
    each maximal-degree idempotent s has Ss = {0, s}."""
    t, g = f.table, f.graph
    m = max(g.degree(v) for v in range(g.n))
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
    for x in t.nonzero():
        sx = SG.equivalence_class(t, x)
        lx = SG.lower_set(t, x)
        if 0 in sx or 0 in lx:
            return TheoremVerdict("thm_3_2", name, True, False, f"0 in class of {x}")
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
    if not SG.is_reduced(t) or not G.is_uniquely_determined(f.graph):
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


def _thm_2_1_subsets(f: TableFacts, x: int) -> list[frozenset[int]]:
    """T_x plus every union of the other connected components of G - x:
    exactly the tx that contain T_x and have no edge to the rest (each end
    vertex at x is a component of its own), by size, then elementwise."""
    subsets = [f.pendants[x]]
    left = set(f.table.nonzero()) - f.pendants[x] - {x}
    while left and f.table.n <= _MAX_FREE_TX_N:
        part, grow = frozenset(), {min(left)}
        while grow:
            part |= grow
            grow = {v for y in grow for v in f.hoods[y]} - part - {x}
        subsets += [tx | part for tx in subsets]
        left -= part
    return sorted(subsets, key=lambda tx: (len(tx), sorted(tx)))


def all_verdicts(t: MulTable) -> list[TheoremVerdict]:
    """Sweep every verifier over every eligible instance of one table.

    The free subset tx of the first claim ranges over the subsets that can
    meet its hypotheses (see _thm_2_1_subsets), or only over T_x when the
    table has more than _MAX_FREE_TX_N nonzero elements.
    """
    f = table_facts(t)
    out: list[TheoremVerdict] = []
    elems = list(t.nonzero())
    for x in elems:
        for tx in _thm_2_1_subsets(f, x):
            out.append(verify_thm_2_1(f, x, tx))
        out.append(verify_cor_2_2(f, x))
        out.append(verify_prop_2_7(f, x))
    for s in elems:
        for u in elems:
            if s < u:
                out.append(verify_thm_2_9(f, s, u))
    out.append(verify_prop_2_10(f))
    out.append(verify_thm_3_2(f))
    out.append(verify_cor_3_3(f))
    out.append(verify_prop_3_6(f))
    return out


def counterexamples(verdicts: Iterable[TheoremVerdict]) -> list[TheoremVerdict]:
    return [v for v in verdicts if v.is_counterexample]
