"""Finite simple graphs on vertices 0..n-1, with the structure predicates the
rest of the package quantifies over: cores, pendant sets, neighborhood
uniqueness, complementation, meet closure, and small-graph isomorphism.

Adjacency is one bitmask per vertex, so neighborhood set algebra is plain
integer arithmetic and graphs are immutable and hashable.

Text format (read/write, bit exact on writer output)::

    zdg-graph 1
    n 5
    v 0 a1          # optional name lines
    e 0 1           # one line per edge, u < v, sorted
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .errors import _MAX_COUNT, FormatError, TooLargeError, _check_name, _LineReader

MAX_AUTOMORPHISMS = 10**6  # automorphisms refuses larger groups


def bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 0 or len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        for v, mask in enumerate(self.adj):
            if mask >> self.n:
                raise ValueError(f"vertex {v}: neighbor out of range")
            if (mask >> v) & 1:
                raise ValueError(f"vertex {v}: self-loop")
        # masks as bit strings, lowest bit first: walking a mask with bits()
        # or shifting it copies the whole int per step, which is quadratic
        # in a hub's degree
        low_first = [bin(mask)[:1:-1] for mask in self.adj]
        for u, row in enumerate(low_first):
            v = row.find("1")
            while v >= 0:
                if low_first[v][u:u + 1] != "1":
                    raise ValueError(f"adjacency not symmetric at {u}-{v}")
                v = row.find("1", v + 1)
        if self.names is not None and len(self.names) != self.n:
            raise ValueError("names length must equal vertex count")

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2


def from_edge_list(n: int, edges, names=None) -> Graph:
    """Build a graph from (u, v) pairs; duplicates collapse, loops rejected."""
    adj = [0] * n
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {e}: vertex out of range 0..{n - 1}")
        if u == v:
            raise ValueError(f"edge {e}: self-loop")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj), tuple(names) if names is not None else None)


def reachable(adj, src: int) -> int:
    """The vertices reachable from src, src included, as a bitmask; adj is
    one neighbour mask per vertex."""
    seen = frontier = 1 << src
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= adj[u]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def bfs_distances(g: Graph, src: int) -> list[int]:
    """Distances from src; -1 for unreachable vertices."""
    dist = [-1] * g.n
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in bits(g.adj[u]):
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def is_connected(g: Graph) -> bool:
    return g.n > 0 and reachable(g.adj, 0) == (1 << g.n) - 1


def diameter(g: Graph) -> int | None:
    """Graph diameter, or None when the graph is disconnected."""
    if g.n == 0:
        return None
    # twins are equally far from every other vertex, and 2 apart; the first
    # walk, from vertex 0, also settles connectivity
    far = 0
    for vs in hood_classes(g).values():
        dist = bfs_distances(g, vs[0])
        if -1 in dist:
            return None
        far = max(far, max(dist))
    return far


def core(g: Graph) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """Vertices and edges of the core: the edges lying on at least one cycle.

    An edge is on a cycle iff it is not a bridge.  One depth-first walk
    finds every bridge (Tarjan's lowlink): the tree edge parent-v is a
    bridge iff no vertex below v has a back edge to parent or above.  The
    walk keeps its own stack, so a long path does not hit the recursion
    limit.
    """
    order = [-1] * g.n  # discovery index
    low = [0] * g.n  # least discovery index reached from v's subtree
    bridges = set()
    count = 0
    for root in range(g.n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack = [(root, -1, bits(g.adj[root]))]
        while stack:
            v, parent, todo = stack[-1]
            for w in todo:
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append((w, v, bits(g.adj[w])))
                    break
                if w != parent and order[w] < low[v]:
                    low[v] = order[w]
            else:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > order[parent]:
                        bridges.add((min(parent, v), max(parent, v)))
    core_edges = [e for e in g.edges() if e not in bridges]
    verts = frozenset(v for e in core_edges for v in e)
    return verts, frozenset(core_edges)


def has_cycle(g: Graph) -> bool:
    """A graph has a cycle iff some edge is not a bridge: iff its core has an
    edge."""
    return bool(core(g)[1])


def end_vertices(g: Graph) -> frozenset[int]:
    """Vertices of degree one."""
    return frozenset(v for v in range(g.n) if g.degree(v) == 1)


def pendant_set(g: Graph, x: int) -> frozenset[int]:
    """T_x: the end vertices adjacent to x (possibly empty)."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} out of range")
    return frozenset(v for v in bits(g.adj[x]) if g.degree(v) == 1)


def hood_classes(g: Graph) -> dict[int, list[int]]:
    """The vertices of each distinct neighbour mask, in ascending order; the
    masks come in order of their first vertex."""
    classes: dict[int, list[int]] = {}
    for v, mask in enumerate(g.adj):
        classes.setdefault(mask, []).append(v)
    return classes


def is_m_uniquely_determined(g: Graph, m: int) -> bool:
    """No two distinct vertices of degree m share their neighborhood."""
    if not 1 <= m <= g.n:
        raise ValueError(f"m={m} out of range 1..{g.n}")
    return all(len(vs) == 1 for mask, vs in hood_classes(g).items()
               if mask.bit_count() == m)


def is_uniquely_determined(g: Graph) -> bool:
    """No two distinct vertices share their neighborhood."""
    return len(hood_classes(g)) == g.n


def perp_partners(g: Graph, x: int) -> list[int]:
    return [y for y in bits(g.adj[x]) if not (g.adj[x] & g.adj[y])]


def is_complemented(g: Graph) -> bool:
    """Every vertex has a perpendicular partner."""
    return all(perp_partners(g, x) for x in range(g.n))


def is_uniquely_complemented(g: Graph) -> bool:
    """Complemented, and all perpendicular partners of a vertex share one
    neighborhood."""
    for x in range(g.n):
        partners = perp_partners(g, x)
        if not partners:
            return False
        if any(g.adj[y] != g.adj[partners[0]] for y in partners[1:]):
            return False
    return True


def neighborhood_meet_closed(g: Graph) -> bool:
    """Whenever N(x) & N(y) is nonempty, some vertex z has exactly that
    neighborhood.  Twins meet in their own neighborhood, so only pairs of
    distinct classes are tested."""
    hoods = hood_classes(g)
    for a, b in combinations(hoods, 2):
        meet = a & b
        if meet and meet not in hoods:
            return False
    return True


def _signatures(g: Graph) -> list[tuple]:
    return [
        (g.degree(v), tuple(sorted(g.degree(u) for u in bits(g.adj[v]))))
        for v in range(g.n)
    ]


def isomorphisms(g: Graph, h: Graph):
    """Yield every adjacency-preserving vertex bijection g -> h, as the tuple
    of images, in lexicographic order.

    Backtracking over images with degree-signature and adjacency pruning;
    there is no size guard, as the work follows the bijections, not n.
    """
    if g.n != h.n or g.edge_count() != h.edge_count():
        return
    sg, sh = _signatures(g), _signatures(h)
    if sorted(sg) != sorted(sh):
        return
    n, hadj = g.n, h.adj
    candidates = [[w for w in range(n) if sh[w] == sg[v]] for v in range(n)]
    image = [0] * n

    def extend(v: int, used: int):
        if v == n:
            yield tuple(image)
            return
        # w may be v's image iff its neighbours among the images placed so
        # far are exactly the images of v's neighbours below v
        want = 0
        for u in bits(g.adj[v] & ((1 << v) - 1)):
            want |= 1 << image[u]
        for w in candidates[v]:
            if not (used >> w) & 1 and hadj[w] & used == want:
                image[v] = w
                yield from extend(v + 1, used | 1 << w)

    yield from extend(0, 0)


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """The full automorphism group as explicit vertex permutations, in
    lexicographic order; TooLargeError past MAX_AUTOMORPHISMS of them, before
    listing any if permuting twins (equal open, or closed, neighbourhoods)
    already gives more."""
    too_large = f"automorphism group has more than {MAX_AUTOMORPHISMS} elements"
    for masks in (g.adj, (mask | 1 << v for v, mask in enumerate(g.adj))):
        size, order = {}, 1  # order: the product of |class|! so far
        for mask in masks:
            size[mask] = k = size.get(mask, 0) + 1
            order *= k
            if order > MAX_AUTOMORPHISMS:
                raise TooLargeError(too_large)
    auts = list(islice(isomorphisms(g, g), MAX_AUTOMORPHISMS + 1))
    if len(auts) > MAX_AUTOMORPHISMS:
        raise TooLargeError(too_large)
    return auts


def is_isomorphic(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """The least vertex bijection g -> h preserving adjacency, or None."""
    return next(isomorphisms(g, h), None)


def connected_graphs(n: int) -> list[Graph]:
    """Every labeled connected graph on n vertices, ordered by edge mask: bit
    i of the mask is the i-th pair (u, v), u < v, in lexicographic order."""
    pairs = list(combinations(range(n), 2))
    graphs = (
        from_edge_list(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
        for mask in range(1 << len(pairs))
    )
    return [g for g in graphs if is_connected(g)]


# --- text format ----------------------------------------------------------


def parse_graph(text: str) -> Graph:
    reader = _LineReader(text, "zdg-graph 1")
    n = None
    names: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for parts in reader:
        if parts[0] == "n":
            if n is not None or len(parts) != 2:
                raise reader.error("bad vertex count line")
            n = reader.number(parts[1], "bad vertex count line",
                              f"vertex count {parts[1]} over the limit of {_MAX_COUNT}")
        elif parts[0] == "v":
            if n is None or len(parts) != 3:
                raise reader.error("bad name line")
            vid = reader.number(parts[1], "bad vertex id",
                                f"vertex id {parts[1]} out of range", hi=n - 1)
            names[vid] = parts[2]
        elif parts[0] == "e":
            if n is None or len(parts) != 3:
                raise reader.error("bad edge line")
            far = f"edge {parts[1]}-{parts[2]} out of range"
            u = reader.number(parts[1], "bad edge endpoints", far, hi=n - 1)
            v = reader.number(parts[2], "bad edge endpoints", far, hi=n - 1)
            if u == v:
                raise reader.error(f"self-loop at {u}")
            edges.append((u, v))
        else:
            raise reader.error(f"unknown directive {parts[0]!r}")
    if n is None:
        raise FormatError("missing vertex count line")
    name_tuple = None
    if names:
        name_tuple = tuple(names.get(i, f"v{i}") for i in range(n))
    return from_edge_list(n, edges, name_tuple)


def format_graph(g: Graph) -> str:
    """The graph as a file that parse_graph reads back; raises ValueError
    when it has more vertices than the format allows or a name that would
    not read back."""
    if g.n > _MAX_COUNT:
        raise ValueError(f"graph has {g.n} vertices, over the file limit of {_MAX_COUNT}")
    lines = ["zdg-graph 1", f"n {g.n}"]
    if g.names is not None:
        for name in g.names:
            _check_name(name)
        lines.extend(f"v {i} {name}" for i, name in enumerate(g.names))
    lines.extend(f"e {u} {v}" for u, v in sorted(g.edges()))
    return "\n".join(lines) + "\n"
