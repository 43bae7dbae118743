"""Search engine: enumerate every commutative zero-divisor semigroup on
V(G) | {0} whose zero-divisor graph is exactly the input graph.

The constraint system on the (n+1) x (n+1) symmetric table:

  * row and column 0 are zero;
  * for distinct x, y the product is zero iff x-y is an edge, so edge cells
    are pinned to 0 and non-edge cells exclude 0;
  * diagonal entries are free (boolean mode pins x*x = x);
  * the whole table is associative.

Backtracking with constraint propagation does the real work.  Below the
root, propagation checks only the equations the root left open: the cells
the root decided never change, so an equation they settle cannot fire again.
Each complete table is checked again at the leaf against the definitions in
zdg.semigroup (associativity, the zero-divisor graph, idempotence), not
against the search's own constraints.  A naive brute-force enumerator over
all symmetric tables (n <= 4) serves as an independent oracle.

Aut(G) maps realizations of G onto realizations of G, so a complete
enumeration searches one table per orbit: the least among its images when
cells are read in a static order, the root's open cells with the
off-diagonal ones first (lex-leader pruning, valid for any fixed order), and
then expands each orbit into its labeled tables.  While an image is tied,
the search branches in that order too, so comparisons settle near the root.
A search with a limit enumerates labeled tables directly, so its first
tables do not depend on Aut(G), and counts the orbits they meet.  The
expansion and that count walk the orbits the same way, through _orbits.  A
report stores its keys, orbit count and truncation flag; its labeled count
and status are read off those.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

from .errors import TooLargeError
from .graph import Graph, automorphisms, bits, is_connected
from .semigroup import (
    MulTable,
    assoc_violation_symmetric,
    is_boolean,
    table_from_rows,
    zero_divisor_adj,
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
    """Why propagation failed, built once where propagate finds it: the cell
    whose value set emptied or whose forced values disagree, and the triple
    that caused it (None for a cell init_state left without candidates)."""

    cell: tuple[int, int]
    triple: tuple[int, int, int] | None
    reason: str


@dataclass
class SearchState:
    """A partially filled table plus per-cell candidate bitmasks.

    table[i][j] is an element id or UNKNOWN; unknown cells (i <= j) have an
    entry in domains.  deg, the branching tie-break, is computed once from G
    and shared by every copy, and so is live: live[x] lists pairs (y, bs),
    the b of the equations (a, b, c), {a, c} = {x, y}, that propagate
    checks.  init_state lists every equation, sharing one range of b across
    the pairs; realize_all replaces live, never mutating it, by the
    equations its root propagation left open.  dirty holds the elements
    whose cells were filled or narrowed since the last propagation fixpoint:
    both coordinates of each such cell.  A fresh state marks every element,
    so its first propagate checks every triple; a branch assigns one cell
    and marks its two coordinates.
    """

    n: int
    mode: str
    deg: tuple[int, ...]  # element-indexed degrees in G, deg[0] = 0
    live: tuple  # live[x]: pairs (y, bs), the equations propagate checks
    table: list[list[int]]
    domains: dict[tuple[int, int], int]
    dirty: set[int]

    def copy(self) -> "SearchState":
        return SearchState(
            self.n,
            self.mode,
            self.deg,
            self.live,
            [row[:] for row in self.table],
            dict(self.domains),
            set(self.dirty),
        )

    def assign(self, i: int, j: int, v: int) -> None:
        """Fill the open cell (i, j), i <= j, with v, one of its candidates."""
        del self.domains[(i, j)]
        self.table[i][j] = v
        self.table[j][i] = v
        self.dirty.add(i)
        self.dirty.add(j)


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
            domains[(x, y)] = mask  # a dead cell (0) is left for propagate to report
    deg = (0,) + tuple(g.degree(v) for v in range(n))
    every = range(1, n + 1)
    live = ((),) + (tuple((y, every) for y in every),) * n
    return SearchState(n, mode, deg, live, table, domains, set(every))


def propagate(state: SearchState) -> Conflict | None:
    """Drive the state to a fixpoint of the propagation rules:

      * associativity on every triple (a, b, c) with ab and bc known: a
        known (ab)c or a(bc) is assigned to the other side, and two known
        sides must agree;
      * a triple with only ab known and (ab)c known keeps the candidates w
        of cell (b, c) for which a*w can still equal (ab)c; likewise with
        only bc known, for cell (a, b);
      * singleton candidate sets assign immediately.

    The work is incremental.  Every assignment and every narrowing marks
    both coordinates of its cell in state.dirty.  Each round runs the
    singleton sweep, takes the dirty elements and checks only the triples
    (a, b, c), a <= c, with a or c among them: for each dirty x, the
    equations of state.live[x], each pair once.  No triple is missed: each
    cell a triple's rule reads has a or c as a coordinate -- (a, b), (b, c),
    (ab, c), (a, bc) and the pruning lookups (w, a) and (w, c) -- so a triple
    none of whose cells changed since its last check cannot fire.  The rules
    only shrink candidate sets, so they have one greatest fixpoint, reached
    whatever the order of checks: the state is the same as if every triple
    were checked every round.  A fresh state has every element dirty and
    every equation live, so the root call checks every triple; below the
    root, the equations the root settled are no longer live (see
    _drop_settled).

    Returns a Conflict if a candidate set empties or forced values clash;
    the state is then dead.  Only the forcing rule can meet a value outside
    the cell's candidates, so it checks its own; assign only records.
    """
    T = state.table
    dom = state.domains
    dirty = state.dirty
    live = state.live

    def prune(cell: tuple[int, int], other: int, want: int) -> str | None:
        # keep candidates w of the open cell for which w*other can still
        # equal want; the reason if none is left
        m = dom[cell]
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
            return f"no candidate multiplies with {other} to {want}"
        dom[cell] = keep
        dirty.update(cell)
        return None

    while dirty:
        # singleton sweep
        for cell in list(dom):
            m = dom[cell]
            if m == 0:
                return Conflict(cell, None, "empty candidate set")
            if m & (m - 1) == 0:
                state.assign(cell[0], cell[1], m.bit_length() - 1)
        # associativity sweep over the live triples (a, b, c), a <= c (the
        # rest follow by commutativity), with a or c dirty
        marked = set(dirty)
        dirty.clear()
        for x in marked:
            for y, bs in live[x]:
                if y < x and y in marked:
                    continue  # checked under y
                a, c = (x, y) if x <= y else (y, x)
                Ta = T[a]
                Tc = T[c]
                for b in bs:
                    ab = Ta[b]
                    bc = Tc[b]
                    if ab == UNKNOWN:
                        if bc == UNKNOWN or Ta[bc] == UNKNOWN:
                            continue
                        cell = (a, b) if a <= b else (b, a)
                        reason = prune(cell, c, Ta[bc])
                    elif bc == UNKNOWN:
                        left = T[ab][c]
                        if left == UNKNOWN:
                            continue
                        cell = (b, c) if b <= c else (c, b)
                        reason = prune(cell, a, left)
                    else:
                        left = T[ab][c]
                        right = Ta[bc]
                        if left == right:
                            continue
                        # force the unknown side to v, or report a clash at (a, bc)
                        i, j, v = (ab, c, right) if left == UNKNOWN else (a, bc, left)
                        cell = (i, j) if i <= j else (j, i)
                        if left != UNKNOWN and right != UNKNOWN:
                            reason = f"({a}*{b})*{c}={left} but {a}*({b}*{c})={right}"
                        elif (dom[cell] >> v) & 1:
                            state.assign(cell[0], cell[1], v)
                            continue
                        else:
                            reason = f"value {v} not in candidate set"
                    if reason:
                        return Conflict(cell, (a, b, c), reason)
    return None


def _drop_settled(root: SearchState) -> None:
    """Replace root.live by the equations (a, b, c) with one of (a, b),
    (b, c), (ab, c) and (a, bc) still unknown at root, a propagation
    fixpoint without conflict.  Cells known there stay known in every state
    below it, and an equation whose four cells are known has equal sides, so
    no rule of it can fire again."""
    T = root.table
    every = range(1, root.n + 1)
    live = [[] for _ in range(root.n + 1)]
    for a in every:
        Ta = T[a]
        for c in range(a, root.n + 1):
            Tc = T[c]
            bs = tuple(
                b for b in every
                if Ta[b] == UNKNOWN or Tc[b] == UNKNOWN
                or T[Ta[b]][c] == UNKNOWN or Ta[Tc[b]] == UNKNOWN
            )
            if bs:
                live[a].append((c, bs))
                if c != a:
                    live[c].append((a, bs))
    root.live = tuple(map(tuple, live))


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of an enumeration: the canonical keys of the realizing
    tables, in order, plus the orbit count and the truncation flag; the
    labeled count and the status follow from those.

    keys is what the report stores; tables, the validated MulTables with
    those keys in the same order, is built on first read and kept.
    iso_class_count counts orbits of the listed tables under the action of
    Aut(G): the representatives the orbit search found, or for a limited
    search the orbits its tables meet.  truncated reports that the
    enumeration stopped at the requested limit.
    """

    mode: str
    n: int
    keys: tuple[tuple[int, ...], ...]
    iso_class_count: int
    truncated: bool

    @property
    def labeled_count(self) -> int:
        return len(self.keys)

    @property
    def status(self) -> str:
        """none/unique/multiple by the orbit count, except that a truncated
        report with fewer than two orbits is unknown: the tables left out
        may open more."""
        if self.iso_class_count >= 2:
            return "multiple"
        if self.truncated:
            return "unknown"
        return "unique" if self.iso_class_count else "none"

    @cached_property
    def tables(self) -> tuple[MulTable, ...]:
        return _tables_from_keys(self.keys, self.n)

    def to_dict(self) -> dict:
        starts = list(accumulate(range(self.n, 0, -1), initial=0))  # where rows begin in a key
        return {
            "mode": self.mode,
            "n": self.n,
            "labeled_count": self.labeled_count,
            "iso_class_count": self.iso_class_count,
            "status": self.status,
            "truncated": self.truncated,
            "tables": [
                [list(key[a:b]) for a, b in zip(starts, starts[1:])] for key in self.keys
            ],
        }


def _key_cells(n: int) -> list[tuple[int, int]]:
    """The upper-triangle cells (i, j), 1 <= i <= j <= n, in key order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


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


def _image_maps(g: Graph) -> list[tuple[tuple[int, ...], list[int], list[int]]]:
    """Per automorphism of g, the triple (p, q, idx): the element map p, its
    inverse q, and for each position of a canonical key the position of the
    original key it is read from.  The image of table t under p reads
    p[t[q[i]][q[j]]] at cell (i, j), so its key has p[key[idx[k]]] at the
    k-th upper-triangle cell.

    AssertionError for a permutation that does not map g onto itself."""
    n = g.n
    cells = _key_cells(n)
    pos = [[0] * (n + 1) for _ in range(n + 1)]
    for k, (i, j) in enumerate(cells):
        pos[i][j] = pos[j][i] = k
    edge = [(g.adj[i - 1] >> (j - 1)) & 1 for i, j in cells]
    vertices = list(range(n))
    maps = []
    for a in automorphisms(g):
        if sorted(a) != vertices:
            raise AssertionError(f"{a} is not a permutation of the vertices")
        p = (0,) + tuple(v + 1 for v in a)
        q = [0] * (n + 1)
        for e in range(n + 1):
            q[p[e]] = e
        idx = [pos[q[i]][q[j]] for i, j in cells]
        if [edge[k] for k in idx] != edge:
            raise AssertionError(f"{a} does not map the graph onto itself")
        maps.append((p, q, idx))
    return maps


def _orbits(keys, maps) -> tuple[list[set[tuple[int, ...]]], set[tuple[int, ...]]]:
    """The Aut(G) orbits the keys meet, in the order they are met, and their
    union: walking the keys in order, a key no earlier orbit holds opens a
    new orbit, the set of the keys of its images under maps (see
    _image_maps).  So Aut(G) is applied once per orbit, not once per table.

    The images need no MulTable of their own: each entry is p[key[k]], with
    p a permutation _image_maps checked, so every entry of an image of a
    validated table is in range by construction."""
    seen: set[tuple[int, ...]] = set()
    orbits = []
    for key in keys:
        if key not in seen:
            orbit = {tuple([p[key[k]] for k in idx]) for p, _, idx in maps}
            seen |= orbit
            orbits.append(orbit)
    return orbits, seen


def iso_class_count(keys, g: Graph, complete: bool = False) -> int:
    """Orbits under Aut(G) of the tables with the given canonical keys; the
    count of a limited search, whose tables need not be closed under Aut(G).
    Exact for any subset of tables.  Aut(G) is not computed for fewer than
    two keys.

    complete says the keys are every realization of g, so the set must be
    closed under Aut(G): each image of each orbit must be among the keys,
    and the orbit sizes |Aut(G)| / |Stab(T)| must sum to len(keys).
    AssertionError otherwise.
    """
    if len(keys) < 2:
        return len(keys)
    orbits, union = _orbits(keys, _image_maps(g))
    if complete:
        missed = union.difference(keys)
        if missed:
            raise AssertionError(f"search missed {min(missed)}, an Aut(G) image of its tables")
        total = sum(map(len, orbits))
        if total != len(keys):
            raise AssertionError(
                f"orbit sizes sum to {total}, but {len(keys)} tables were emitted"
            )
    return len(orbits)


def _pick_cell(state: SearchState) -> tuple[int, int] | None:
    """The open cell to branch on, or None when the table is complete: fewest
    candidates (fail first), then least deg(x) + deg(y) in G, then cell.  The
    first two keys do not depend on how G's vertices are numbered, so the
    cell index only breaks ties between cells alike on both."""
    dom = state.domains
    deg = state.deg
    return min(dom, key=lambda c: (dom[c].bit_count(), deg[c[0]] + deg[c[1]], c), default=None)


def _verify_solution(state: SearchState, g: Graph) -> MulTable:
    """Check a complete table independently of the propagation that built
    it: associative, its zero-divisor graph (zero_divisor_adj, so every
    nonzero element a zero divisor) is g, and idempotent in boolean mode."""
    t = table_from_rows(state.table)
    bad = assoc_violation_symmetric(t.prod)
    if bad is not None:
        raise AssertionError(f"search produced a non-associative table at {bad}")
    try:
        adj = zero_divisor_adj(t)
    except ValueError as exc:
        raise AssertionError(f"search produced a table where {exc}") from None
    if adj != g.adj:
        raise AssertionError("search produced a table with the wrong graph")
    if state.mode == BOOLEAN and not is_boolean(t):
        raise AssertionError("search produced a non-boolean table in boolean mode")
    return t


def _static_order(root: SearchState) -> list[int]:
    """The key positions of the cells root left open: the order in which the
    orbit search compares images and, while some image is tied, branches.
    Off-diagonal cells come before diagonal ones, then least deg(x) + deg(y)
    in G, then fewest candidates at root, then cell; all but the last key
    are label-free.

    Cells root decided are left out.  init_state reads only G and propagate
    has a single greatest fixpoint, so the root state is Aut(G)-invariant:
    every decided cell compares equal under every automorphism.
    """
    cells = _key_cells(root.n)
    deg = root.deg

    def rank(k: int) -> tuple:
        i, j = cells[k]
        return (i == j, deg[i] + deg[j], root.domains[i, j].bit_count(), (i, j))

    return sorted((k for k, cell in enumerate(cells) if cell in root.domains), key=rank)


def _least_so_far(T: list[list[int]], cells: list, tied: list) -> list | None:
    """Resume each comparison of the table with one of its images, from the
    position in cells, the static order, where it stopped: the cell T[i][j]
    against the image's p[T[q[i]][q[j]]].  An image stays tied while either
    cell is unknown and is dropped once it is larger; None once some image
    is smaller, as it stays in every completion, so the table cannot be its
    orbit's least."""
    still = []
    for p, q, at in tied:
        for k in range(at, len(cells)):
            i, j = cells[k]
            x = T[i][j]
            y = T[q[i]][q[j]]
            if x == UNKNOWN or y == UNKNOWN:
                still.append((p, q, k))
                break
            y = p[y]
            if x != y:
                if y < x:
                    return None
                break
    return still


def _dfs(
    state: SearchState, g: Graph, out: list[MulTable], cap: int | None,
    cells: list, tied: list,
) -> bool:
    """Collect solutions depth first; returns False once cap is reached.

    cells is the static order and tied the images still compared with the
    table in it, one (p, q, k) per non-identity automorphism p with inverse
    q (see _image_maps), k the position in cells where its comparison
    stands.  A node where one of them is already smaller is pruned, so each
    solution is its orbit's least in the static order.  While one is tied,
    the node branches on the first open cell of that order, none of which
    lies before where a tied comparison stopped; once none is, on the cell
    _pick_cell chooses.
    """
    if tied:
        tied = _least_so_far(state.table, cells, tied)
        if tied is None:
            return True
    if tied:
        T = state.table
        cell = next((i, j) for i, j in cells[tied[0][2]:] if T[i][j] == UNKNOWN)
    else:
        cell = _pick_cell(state)
    if cell is None:
        out.append(_verify_solution(state, g))
        return cap is None or len(out) < cap
    for v in bits(state.domains[cell]):
        child = state.copy()
        child.assign(cell[0], cell[1], v)
        if propagate(child) is None and not _dfs(child, g, out, cap, cells, tied):
            return False
    return True


def _tables_from_keys(keys, n: int) -> tuple[MulTable, ...]:
    """The tables with the given canonical keys."""
    at = [[0] * (n + 1) for _ in range(n + 1)]  # 1 + key position; 0 reads the zero
    for k, (i, j) in enumerate(_key_cells(n), 1):
        at[i][j] = at[j][i] = k
    rows = [itemgetter(*row) for row in at]
    return tuple(MulTable(n, tuple([row((0,) + key) for row in rows])) for key in keys)


def _expand_orbits(reps, maps, order: list[int]) -> list[tuple[int, ...]]:
    """The sorted keys of every Aut(G) image of the representatives, given
    as sorted canonical keys of validated tables.

    AssertionError unless each representative opens an orbit of its own,
    which a repeated representative breaks, the orbits are disjoint, so
    their sizes |Aut(G)| / |Stab(T)| sum to the number of keys, and each
    representative is its orbit's least key read at the positions of order,
    the search's static order.  The positions left out were decided at the
    root and are equal across an orbit, so that reading tells its keys apart.
    """
    orbits, keys = _orbits(reps, maps)
    if len(orbits) != len(reps) or sum(map(len, orbits)) != len(keys):
        total = sum(len(_orbits([key], maps)[1]) for key in reps)
        raise AssertionError(f"orbit sizes sum to {total}, but the orbits hold {len(keys)} tables")
    rank = itemgetter(*order)
    for key, orbit in zip(reps, orbits):
        if min(orbit, key=rank) != key:
            raise AssertionError(f"table {key} is not the least key of its orbit")
    return sorted(keys)


def realize_all(
    g: Graph,
    mode: str = PLAIN,
    limit: int | None = None,
    max_n: int = DEFAULT_MAX_N,
) -> RealizationReport:
    """Enumerate all multiplication tables realizing g, canonically ordered.

    Without a limit, the search finds one table per Aut(G) orbit and expands
    the orbits; Aut(G) is computed only when the root propagation leaves a
    cell open.  limit caps the number of labeled tables returned: the first
    limit found in enumeration order, which is deterministic.  The report is
    flagged truncated exactly when some realizing table is left out, so the
    search looks for one table more than limit.
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
    maps = None
    if propagate(root) is None:
        if root.domains:
            _drop_settled(root)
        cells, tied = [], []
        if limit is None and root.domains:
            maps = _image_maps(g)
            order = _static_order(root)
            every = _key_cells(g.n)
            cells = [every[k] for k in order]
            identity = tuple(range(g.n + 1))
            tied = [(p, q, 0) for p, q, _ in maps if p != identity]
        _dfs(root, g, sols, None if limit is None else limit + 1, cells, tied)
    truncated = limit is not None and len(sols) > limit
    keys = sorted(map(canonical_key, sols[:limit]))
    if maps is not None:
        iso, keys = len(keys), _expand_orbits(keys, maps, order)
    else:
        iso = iso_class_count(keys, g, complete=not truncated)
    return RealizationReport(mode, g.n, tuple(keys), iso, truncated)


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
    keys = tuple(sorted(map(canonical_key, sols)))
    return RealizationReport(mode, n, keys, _per_table_class_count(sols, g), False)
