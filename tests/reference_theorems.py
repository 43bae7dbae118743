"""The theorem verifiers as single-pass functions of one table: each works
out every hypothesis, the graph's included, on each call.  They are the
reference the staged verifiers of zdg.theorems are compared against, so the
tests do not check that code against itself.  Each takes what
conftest.table_facts returns and reads the table, its graph and the graph
facts (cycle flag, T_x, N(x), core) only.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from zdg import graph as G
from zdg import semigroup as SG
from zdg import theorems
from zdg.semigroup import MulTable
from zdg.theorems import TableFacts, TheoremVerdict

from conftest import table_facts


def _thm_2_1_applies(f: TableFacts, x: int, tx: frozenset[int]) -> bool:
    """For tx inside S - {0, x}: tx holds T_x, has no edge to the rest
    cx = S - tx - {0, x}, and cx is nonempty or G has a cycle and T_x is
    nonempty."""
    pend = f.pendants[x]
    cx = f.hoods.keys() - tx - {x}
    return (pend <= tx and not any(f.hoods[a] & cx for a in tx)
            and (bool(cx) or (f.has_cycle and bool(pend))))


def _cor_2_2_applies(f: TableFacts, x: int) -> bool:
    return bool(f.pendants[x]) and _thm_2_1_applies(f, x, f.pendants[x])


def _prop_2_7_applies(f: TableFacts, x: int) -> bool:
    return f.has_cycle and len(f.hoods[x]) != 1


def _thm_2_9_applies(f: TableFacts, s: int, u: int) -> bool:
    ts, tu = f.pendants[s], f.pendants[u]
    return s != u and bool(ts) and bool(tu) and s not in tu and u not in ts


def _prop_3_6_applies(f: TableFacts) -> bool:
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


def verifier_by_verifier(t: MulTable) -> list[TheoremVerdict]:
    """Every verdict of one table in sweep order, each from a call of its
    reference verifier; the instances are those zdg.theorems.plan lays out."""
    f = table_facts(t)
    elems = list(t.nonzero())
    out = []
    for x in elems:
        for tx in theorems._thm_2_1_subsets(f, x):
            out.append(verify_thm_2_1(f, x, tx))
        out.append(verify_cor_2_2(f, x))
        out.append(verify_prop_2_7(f, x))
    out += [verify_thm_2_9(f, s, u) for s in elems for u in elems if s < u]
    return out + [verify(f) for verify in (verify_prop_2_10, verify_thm_3_2,
                                           verify_cor_3_3, verify_prop_3_6)]
