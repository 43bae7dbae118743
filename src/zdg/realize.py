"""Search engine: enumerate every commutative zero-divisor semigroup on
V(G) | {0} whose zero-divisor graph is exactly the input graph.

The constraint system on the (n+1) x (n+1) symmetric table:

  * row and column 0 are zero;
  * for distinct x, y the product is zero iff x-y is an edge, so edge cells
    are pinned to 0 and non-edge cells exclude 0;
  * diagonal entries are free (boolean mode pins x*x = x);
  * the whole table is associative.

Backtracking with constraint propagation does the real work; a naive
brute-force enumerator over all symmetric tables (n <= 4) serves as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .errors import TooLargeError
from .graph import Graph, automorphisms, bits, is_connected, popcount
from .semigroup import (
    MulTable,
    assoc_violation_symmetric,
    table_from_rows,
    zero_divisor_graph,
)

DEFAULT_MAX_N = 12
UNKNOWN = -1

PLAIN = "plain"
BOOLEAN = "boolean"


def _check_mode(mode: str) -> str:
    if mode not in (PLAIN, BOOLEAN):
        raise ValueError(f"mode must be {PLAIN!r} or {BOOLEAN!r}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class Conflict:
    """Why propagation failed: the cell whose value set emptied or whose
    forced values disagree, plus the associativity triple that caused it."""

    cell: tuple[int, int]
    triple: tuple[int, int, int] | None
    reason: str


@dataclass
class SearchState:
    """A partially filled table plus per-cell candidate bitmasks.

    table[i][j] is an element id or UNKNOWN; unknown cells (i <= j) have an
    entry in domains; trail records assignments in order.
    """

    n: int
    mode: str
    adj: tuple[int, ...]  # element-indexed neighbor masks, adj[0] = 0
    table: list[list[int]]
    domains: dict[tuple[int, int], int]
    trail: list[tuple[int, int, int]] = field(default_factory=list)

    def copy(self) -> "SearchState":
        return SearchState(
            self.n,
            self.mode,
            self.adj,
            [row[:] for row in self.table],
            dict(self.domains),
            list(self.trail),
        )

    def assign(self, i: int, j: int, v: int) -> Conflict | None:
        a, b = (i, j) if i <= j else (j, i)
        cur = self.table[a][b]
        if cur != UNKNOWN:
            if cur != v:
                return Conflict((a, b), None, f"cell already {cur}, forced {v}")
            return None
        if not (self.domains[(a, b)] >> v) & 1:
            return Conflict((a, b), None, f"value {v} not in candidate set")
        del self.domains[(a, b)]
        self.table[a][b] = v
        self.table[b][a] = v
        self.trail.append((a, b, v))
        return None

    def snapshot(self) -> MulTable:
        return table_from_rows(self.table)


def init_state(g: Graph, mode: str = PLAIN) -> SearchState:
    """Set up the constraint system for g: fixed zeros, initial candidate
    sets filtered by the annihilator rule.

    A candidate v for cell (x, y) must satisfy v*z = 0 for every z adjacent
    to x or y, because (xy)z = (xz)y = 0.  For z != v that needs the edge
    v-z; for z = v it needs v*v = 0, impossible in boolean mode and deferred
    to propagation otherwise.
    """
    mode = _check_mode(mode)
    n = g.n
    adj = (0,) + tuple(g.adj[v - 1] << 1 for v in range(1, n + 1))
    table = [[UNKNOWN] * (n + 1) for _ in range(n + 1)]
    for a in range(n + 1):
        table[0][a] = 0
        table[a][0] = 0
    domains: dict[tuple[int, int], int] = {}
    for x in range(1, n + 1):
        for y in range(x, n + 1):
            if x != y and (adj[x] >> y) & 1:
                table[x][y] = 0
                table[y][x] = 0
                continue
            union = adj[x] | adj[y]
            mask = 0
            for v in range(1, n + 1):
                need = union & ~adj[v] & ~(1 << v)
                if need:
                    continue
                if (union >> v) & 1:
                    # v*v = 0 would be required
                    if mode == BOOLEAN:
                        continue
                mask |= 1 << v
            if x == y:
                if n == 1:
                    # a lone vertex is a zero divisor only via x*x = 0,
                    # which boolean mode forbids
                    mask = 0 if mode == BOOLEAN else 1
                elif mode == BOOLEAN:
                    mask = 1 << x
                else:
                    mask |= 1
            if mask == 0:
                # dead cell; keep it so propagate reports the conflict
                domains[(x, y)] = 0
            else:
                domains[(x, y)] = mask
    return SearchState(n, mode, adj, table, domains)


def propagate(state: SearchState) -> Conflict | None:
    """Drive the state to a fixpoint of the propagation rules:

      * associativity closure on every triple with at least two resolved
        products: forced values are assigned, twin unknown cells have their
        candidate sets intersected, and a known product prunes candidates of
        the remaining unknown factor cell;
      * singleton candidate sets assign immediately.

    Returns a Conflict if a candidate set empties or forced values clash;
    the state is then dead.
    """
    n = state.n
    T = state.table
    dom = state.domains

    def prune(cell: tuple[int, int], other: int, want: int) -> Conflict | None:
        # keep candidates w of cell for which w*other can still equal want
        m = dom.get(cell)
        if m is None:
            return None
        keep = 0
        mm = m
        while mm:
            low = mm & -mm
            mm ^= low
            w = low.bit_length() - 1
            tv = T[w][other]
            if tv == UNKNOWN:
                key = (w, other) if w <= other else (other, w)
                if (dom[key] >> want) & 1:
                    keep |= low
            elif tv == want:
                keep |= low
        if keep == m:
            return None
        if keep == 0:
            return Conflict(cell, None, f"no candidate multiplies with {other} to {want}")
        dom[cell] = keep
        nonlocal changed
        changed = True
        return None

    changed = True
    while changed:
        changed = False
        # singleton sweep
        for cell in list(dom):
            m = dom[cell]
            if m == 0:
                return Conflict(cell, None, "empty candidate set")
            if m & (m - 1) == 0:
                conflict = state.assign(cell[0], cell[1], m.bit_length() - 1)
                if conflict:
                    return conflict
                changed = True
        # associativity sweep; triples (a, b, c) with a <= c cover all of
        # them up to commutativity
        for b in range(1, n + 1):
            Tb = T[b]
            for a in range(1, n + 1):
                Ta = T[a]
                ab = Ta[b]
                for c in range(a, n + 1):
                    bc = Tb[c]
                    if ab != UNKNOWN:
                        if bc != UNKNOWN:
                            left = T[ab][c]
                            right = Ta[bc]
                            if left != UNKNOWN:
                                if right != UNKNOWN:
                                    if left != right:
                                        return Conflict(
                                            (min(a, bc), max(a, bc)),
                                            (a, b, c),
                                            f"({a}*{b})*{c}={left} but {a}*({b}*{c})={right}",
                                        )
                                else:
                                    conflict = state.assign(a, bc, left)
                                    if conflict:
                                        return Conflict(conflict.cell, (a, b, c), conflict.reason)
                                    changed = True
                            elif right != UNKNOWN:
                                conflict = state.assign(ab, c, right)
                                if conflict:
                                    return Conflict(conflict.cell, (a, b, c), conflict.reason)
                                changed = True
                            else:
                                kl = (ab, c) if ab <= c else (c, ab)
                                kr = (a, bc) if a <= bc else (bc, a)
                                if kl != kr:
                                    m = dom[kl] & dom[kr]
                                    if m == 0:
                                        return Conflict(kl, (a, b, c), "twin cells disagree")
                                    if m != dom[kl]:
                                        dom[kl] = m
                                        changed = True
                                    if m != dom[kr]:
                                        dom[kr] = m
                                        changed = True
                        else:
                            left = T[ab][c]
                            if left != UNKNOWN:
                                key = (b, c) if b <= c else (c, b)
                                conflict = prune(key, a, left)
                                if conflict:
                                    return Conflict(conflict.cell, (a, b, c), conflict.reason)
                    elif bc != UNKNOWN:
                        right = Ta[bc]
                        if right != UNKNOWN:
                            key = (a, b) if a <= b else (b, a)
                            conflict = prune(key, c, right)
                            if conflict:
                                return Conflict(conflict.cell, (a, b, c), conflict.reason)
    return None


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of an enumeration: canonically ordered tables plus counts.

    iso_class_count counts orbits of the emitted tables under the action of
    Aut(G); status is none/unique/multiple by that count. truncated reports
    that the enumeration stopped at the requested limit.
    """

    mode: str
    n: int
    tables: tuple[MulTable, ...]
    labeled_count: int
    iso_class_count: int
    status: str
    truncated: bool

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "labeled_count": self.labeled_count,
            "iso_class_count": self.iso_class_count,
            "status": self.status,
            "truncated": self.truncated,
            "tables": [
                [list(t.prod[i][i:]) for i in t.nonzero()] for t in self.tables
            ],
        }


def canonical_key(t: MulTable) -> tuple[int, ...]:
    """Lexicographic key: the upper triangle read row by row."""
    return tuple(t.prod[i][j] for i in t.nonzero() for j in range(i, t.n + 1))


def apply_automorphism(t: MulTable, perm: tuple[int, ...]) -> MulTable:
    """Relabel a table by a vertex permutation (element e maps to
    perm[e-1]+1, zero stays fixed)."""
    p = (0,) + tuple(v + 1 for v in perm)
    n = t.n
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rows[p[i]][p[j]] = p[t.prod[i][j]]
    return table_from_rows(rows)


def _image_maps(g: Graph, max_n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Per automorphism p of g, the element map and, for each position of a
    canonical key, the position of the original key it is read from: the
    image of table t under p has key[k] = p[t[q[i]][q[j]]] at the k-th
    upper-triangle cell (i, j), with q the inverse of p."""
    n = g.n
    cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    pos = [[0] * (n + 1) for _ in range(n + 1)]
    for k, (i, j) in enumerate(cells):
        pos[i][j] = pos[j][i] = k
    maps = []
    for a in automorphisms(g, max_n=max_n):
        p = (0,) + tuple(v + 1 for v in a)
        q = [0] * (n + 1)
        for e in range(n + 1):
            q[p[e]] = e
        maps.append((p, [pos[q[i]][q[j]] for i, j in cells]))
    return maps


def iso_class_count(
    keys, g: Graph, max_n: int = DEFAULT_MAX_N, complete: bool = False
) -> int:
    """Orbits under Aut(G) of the tables with the given canonical keys.

    Walks the keys in the order given; a key already seen is skipped,
    otherwise it opens a new orbit and the keys of all its Aut(G) images
    are marked seen.  So Aut(G) is applied once per orbit, not once per
    table, and the count is exact for any subset of tables, closed under
    Aut(G) or not.  Aut(G) is not computed for fewer than two keys.

    complete says the keys are every realization of g, so the set must be
    closed under Aut(G): each image of each orbit must be among the keys,
    and the orbit sizes |Aut(G)| / |Stab(T)| must sum to len(keys).
    AssertionError otherwise.
    """
    if len(keys) < 2:
        return len(keys)
    maps = _image_maps(g, max_n)
    emitted = set(keys) if complete else None
    seen: set[tuple[int, ...]] = set()
    sizes = []
    for key in keys:
        if key in seen:
            continue
        images = {tuple([p[key[k]] for k in idx]) for p, idx in maps}
        if complete and not images <= emitted:
            raise AssertionError(f"search missed an Aut(G) image of table {key}")
        seen |= images
        sizes.append(len(images))
    if complete and sum(sizes) != len(keys):
        raise AssertionError(
            f"orbit sizes sum to {sum(sizes)}, but {len(keys)} tables were emitted"
        )
    return len(sizes)


def _status(count: int) -> str:
    if count == 0:
        return "none"
    return "unique" if count == 1 else "multiple"


def _pick_cell(state: SearchState) -> tuple[int, int] | None:
    best = None
    best_rank = None
    for cell, m in state.domains.items():
        rank = (popcount(m), cell)
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best = cell
    return best


def _verify_solution(state: SearchState, g: Graph) -> MulTable:
    t = state.snapshot()
    bad = assoc_violation_symmetric(t.prod)
    if bad is not None:
        raise AssertionError(f"search produced a non-associative table at {bad}")
    if zero_divisor_graph(t).adj != g.adj:
        raise AssertionError("search produced a table with the wrong graph")
    if state.mode == BOOLEAN and any(t.prod[x][x] != x for x in t.nonzero()):
        raise AssertionError("search produced a non-boolean table in boolean mode")
    return t


def _dfs(state: SearchState, g: Graph, out: list[MulTable], cap: int | None) -> bool:
    """Collect solutions depth first; returns False once cap is reached."""
    cell = _pick_cell(state)
    if cell is None:
        out.append(_verify_solution(state, g))
        return cap is None or len(out) < cap
    for v in bits(state.domains[cell]):
        child = state.copy()
        if child.assign(cell[0], cell[1], v):
            continue
        if propagate(child) is None:
            if not _dfs(child, g, out, cap):
                return False
    return True


def realize_all(
    g: Graph,
    mode: str = PLAIN,
    limit: int | None = None,
    max_n: int = DEFAULT_MAX_N,
) -> RealizationReport:
    """Enumerate all multiplication tables realizing g, canonically ordered.

    limit caps the number of labeled tables returned: the first limit found
    in enumeration order, which is deterministic.  The report is flagged
    truncated exactly when some realizing table is left out, so the search
    looks for one table more than limit.
    """
    mode = _check_mode(mode)
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.n > max_n:
        raise TooLargeError(f"realization search capped at {max_n} vertices")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")

    root = init_state(g, mode)
    sols: list[MulTable] = []
    if propagate(root) is None:
        _dfs(root, g, sols, None if limit is None else limit + 1)
    truncated = limit is not None and len(sols) > limit
    keyed = sorted(((canonical_key(t), t) for t in sols[:limit]), key=itemgetter(0))
    keys = [k for k, _ in keyed]
    iso = iso_class_count(keys, g, max_n=max_n, complete=not truncated)
    return RealizationReport(
        mode=mode,
        n=g.n,
        tables=tuple(t for _, t in keyed),
        labeled_count=len(keyed),
        iso_class_count=iso,
        status=_status(iso),
        truncated=truncated,
    )


def classify_uniqueness(report: RealizationReport) -> str:
    """none / unique / multiple, counting tables up to Aut(G) relabeling.

    Refuses truncated reports: uniqueness needs the full enumeration.
    """
    if report.truncated:
        raise ValueError("cannot classify a truncated report")
    return report.status


def _per_table_class_count(tables, g: Graph) -> int:
    """The oracle's orbit count, independent of iso_class_count: each
    table's least image key under Aut(G) names its orbit."""
    auts = automorphisms(g)
    return len({min(canonical_key(apply_automorphism(t, a)) for a in auts) for t in tables})


def brute_force_realize(g: Graph, mode: str = PLAIN) -> RealizationReport:
    """Oracle: enumerate every symmetric table on the free cells and filter
    by associativity and exact graph match.  Refuses n > 4."""
    mode = _check_mode(mode)
    if g.n > 4:
        raise TooLargeError("brute force oracle capped at 4 vertices")
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    n = g.n
    cells = []
    base = [[0] * (n + 1) for _ in range(n + 1)]
    for x in range(1, n + 1):
        for y in range(x, n + 1):
            if x != y and g.has_edge(x - 1, y - 1):
                continue  # edge cells pinned to 0 by the graph-match filter
            if x == y and mode == BOOLEAN:
                base[x][x] = x
                continue
            cells.append((x, y))

    sols = []
    values = list(range(n + 1))
    stack = [0] * len(cells)

    def rec(idx: int):
        if idx == len(cells):
            rows = [row[:] for row in base]
            for (x, y), v in zip(cells, stack):
                rows[x][y] = v
                rows[y][x] = v
            if assoc_violation_symmetric(rows) is not None:
                return
            t = table_from_rows(rows)
            # exact graph match, including the zero-divisor requirement
            try:
                zg = zero_divisor_graph(t)
            except ValueError:
                return
            if zg.adj == g.adj:
                sols.append(t)
            return
        x, y = cells[idx]
        for v in values:
            if v == 0 and x != y:
                continue  # non-edge products cannot be zero
            stack[idx] = v
            rec(idx + 1)

    rec(0)
    sols.sort(key=canonical_key)
    iso = _per_table_class_count(sols, g)
    return RealizationReport(
        mode=mode,
        n=n,
        tables=tuple(sols),
        labeled_count=len(sols),
        iso_class_count=iso,
        status=_status(iso),
        truncated=False,
    )


def realization_exists(g: Graph, mode: str = PLAIN, max_n: int = DEFAULT_MAX_N):
    """First realization found, or None; short-circuits the search."""
    report = realize_all(g, mode, limit=1, max_n=max_n)
    return report.tables[0] if report.tables else None
