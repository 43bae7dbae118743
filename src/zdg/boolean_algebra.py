"""Recognition of the graphs that are zero-divisor graphs of boolean rings,
and reconstruction of the ring.

The pipeline: a connected graph qualifies iff (1) distinct vertices have
distinct neighborhoods, (2) it is uniquely complemented, (3) nonempty
neighborhood intersections are themselves neighborhoods, and (4) an
idempotent semigroup realizes it.  Given all four, the elements ordered
by inclusion of their neighborhoods (bottom = the adjoined 1, whose
neighborhood is empty, and top = 0, whose neighborhood is the whole vertex
set) form a boolean algebra whose join is the product, N(x) v N(y) = N(xy);
ring addition falls out of the complement structure and every axiom is
verified exhaustively before the ring is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import _MAX_COUNT, TooLargeError, _LineReader
from .graph import Graph, is_connected, is_uniquely_determined, isomorphisms
from .graph import is_uniquely_complemented, neighborhood_meet_closed
from .realize import BOOLEAN, DEFAULT_MAX_N, realize_all
from .semigroup import MulTable, is_boolean, zero_divisor_graph


class LatticeError(ValueError):
    """A lattice or ring axiom failed; carries a witness description."""


class BooleanGraphError(ValueError):
    """The graph fails one of the four boolean-graph conditions."""


@dataclass(frozen=True)
class BooleanGraphReport:
    """Per-condition outcome; witnesses name a failing instance."""

    uniquely_determined: bool
    uniquely_complemented: bool
    meet_closed: bool
    boolean_realizable: bool
    witnesses: tuple[str, ...] = ()
    realization: MulTable | None = field(default=None, compare=False)

    @property
    def all_hold(self) -> bool:
        return (
            self.uniquely_determined
            and self.uniquely_complemented
            and self.meet_closed
            and self.boolean_realizable
        )

    def to_dict(self) -> dict:
        return {
            "uniquely_determined": self.uniquely_determined,
            "uniquely_complemented": self.uniquely_complemented,
            "meet_closed": self.meet_closed,
            "boolean_realizable": self.boolean_realizable,
            "all_hold": self.all_hold,
            "witnesses": list(self.witnesses),
        }


def check_boolean_graph_conditions(g: Graph, max_n: int = DEFAULT_MAX_N) -> BooleanGraphReport:
    """Evaluate all four conditions; condition (4) delegates to the search
    engine capped at one table, kept as ``realization``."""
    if not is_connected(g):
        raise ValueError("graph must be connected")
    witnesses = []
    ud = is_uniquely_determined(g)
    if not ud:
        seen: dict[int, int] = {}
        for v in range(g.n):
            if g.adj[v] in seen:
                witnesses.append(f"N({seen[g.adj[v]]}) = N({v})")
                break
            seen[g.adj[v]] = v
    uc = is_uniquely_complemented(g)
    if not uc:
        witnesses.append("some vertex lacks a unique perpendicular neighborhood")
    mc = neighborhood_meet_closed(g)
    if not mc:
        witnesses.append("some nonempty N(x) & N(y) is no vertex's neighborhood")
    report = realize_all(g, mode=BOOLEAN, limit=1, max_n=max_n)
    realization = report.tables[0] if report.tables else None
    if realization is None:
        witnesses.append("no idempotent semigroup realizes the graph")
    return BooleanGraphReport(
        uniquely_determined=ud,
        uniquely_complemented=uc,
        meet_closed=mc,
        boolean_realizable=realization is not None,
        witnesses=tuple(witnesses),
        realization=realization,
    )


@dataclass(frozen=True)
class NeighborhoodAlgebra:
    """The boolean algebra of a graph's neighborhoods, indexed by element.

    Element ids follow the semigroup convention (0 = zero, 1..n = vertices)
    with n+1 for the adjoined identity.  Distinct elements have distinct
    neighborhoods, so an element stands for its neighborhood, and the
    order is inclusion of neighborhoods.  Every table is indexed by
    element id:

    - ``hood[e]`` is N(e) as a vertex bitmask, with N(0) = V(G) and
      N(n+1) empty;
    - ``mul`` is the product extended by the identity, and it is the join:
      N(a) v N(b) = N(ab);
    - ``meet[a][b]`` is the element whose neighborhood is N(a) & N(b);
    - ``complement[a]`` is the unique b with ab = 0 and meet n+1.
    """

    hood: tuple[int, ...]
    mul: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    complement: tuple[int, ...]


def build_algebra(g: Graph, s: MulTable) -> NeighborhoodAlgebra:
    """Construct and fully verify the neighborhood algebra of a boolean
    realization; raises LatticeError with a witness on any axiom failure."""
    if s.n != g.n:
        raise ValueError("table size must match the graph")
    if not is_boolean(s):
        raise ValueError("table must be idempotent")
    if zero_divisor_graph(s).adj != g.adj:
        raise ValueError("table does not realize the graph")
    n = g.n
    one = n + 1
    elements = range(n + 2)
    hood = ((1 << n) - 1, *g.adj, 0)
    owner = {hood[0]: 0, hood[one]: one}
    for v, mask in enumerate(g.adj):
        if mask in owner:
            raise LatticeError(f"neighborhoods collide at vertex {v}")
        owner[mask] = v + 1
    mul = tuple(row + (a,) for a, row in enumerate(s.prod)) + (tuple(elements),)

    meet = []
    for a in elements:
        row = []
        for b in elements:
            m = owner.get(hood[a] & hood[b])
            if m is None:
                raise LatticeError(f"meet of N({a}) and N({b}) is no neighborhood")
            row.append(m)
        meet.append(tuple(row))

    # the product must be the least upper bound under inclusion
    for a in elements:
        for b in elements:
            join = hood[mul[a][b]]
            both = hood[a] | hood[b]
            if both & ~join:
                raise LatticeError(f"join not an upper bound at ({a},{b})")
            for c in elements:
                if both & ~hood[c] == 0 and join & ~hood[c]:
                    raise LatticeError(f"join not least at ({a},{b},{c})")
    # distributivity, checked exhaustively over all triples
    for a in elements:
        for b in elements:
            mab = meet[a][b]
            for c in elements:
                if mul[mab][c] != meet[mul[a][c]][mul[b][c]]:
                    raise LatticeError(f"distributivity fails at ({a},{b},{c})")

    complement = []
    for a in elements:
        partners = [b for b in elements if mul[a][b] == 0 and meet[a][b] == one]
        if len(partners) != 1:
            raise LatticeError(
                f"element {a} has {len(partners)} complements, wanted exactly 1"
            )
        complement.append(partners[0])
    return NeighborhoodAlgebra(hood, mul, tuple(meet), tuple(complement))


@dataclass(frozen=True)
class BooleanRing:
    """A boolean ring on element ids 0..n+1: 0 is zero, n+1 is one, 1..n are
    the graph vertices.  add and mul are full symmetric tables."""

    n: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None

    @property
    def one(self) -> int:
        return self.n + 1

    @property
    def size(self) -> int:
        return self.n + 2

    def name_of(self, e: int) -> str:
        if self.names is not None:
            return self.names[e]
        if e == 0:
            return "0"
        if e == self.one:
            return "1"
        return f"v{e - 1}"


def verify_ring_axioms(r: BooleanRing) -> list[str]:
    """Exhaustively check every boolean-ring axiom; returns violations."""
    out = []
    size = r.size
    add, mul = r.add, r.mul
    rng = range(size)
    for a in rng:
        if add[a][0] != a:
            out.append(f"0 is not an additive identity at {a}")
        if add[a][a] != 0:
            out.append(f"{a}+{a} != 0")
        if mul[a][r.one] != a:
            out.append(f"1 is not a multiplicative identity at {a}")
        if mul[a][a] != a:
            out.append(f"{a} is not idempotent")
        if mul[a][0] != 0:
            out.append(f"{a}*0 != 0")
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                out.append(f"addition not commutative at ({a},{b})")
            if mul[a][b] != mul[b][a]:
                out.append(f"multiplication not commutative at ({a},{b})")
    for a in rng:
        for b in rng:
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    out.append(f"addition not associative at ({a},{b},{c})")
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    out.append(f"multiplication not associative at ({a},{b},{c})")
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    out.append(f"distributivity fails at ({a},{b},{c})")
    return out


def ring_zero_divisor_graph(r: BooleanRing) -> Graph:
    """Graph on the nonzero non-unit elements with a nonzero annihilator;
    edges join elements whose product is zero.  Vertex order follows element
    id order."""
    units = {
        x for x in range(r.size) if any(r.mul[x][y] == r.one for y in range(r.size))
    }
    verts = [
        x
        for x in range(r.size)
        if x != 0
        and x not in units
        and any(r.mul[x][y] == 0 for y in range(1, r.size))
    ]
    index = {x: i for i, x in enumerate(verts)}
    adj = [0] * len(verts)
    for x in verts:
        for y in verts:
            if x < y and r.mul[x][y] == 0:
                adj[index[x]] |= 1 << index[y]
                adj[index[y]] |= 1 << index[x]
    names = None
    if r.names is not None:
        names = tuple(r.names[x] for x in verts)
    return Graph(len(verts), tuple(adj), names)


def ring_from_graph(g: Graph, max_n: int = DEFAULT_MAX_N) -> BooleanRing:
    """Reconstruct the boolean ring whose zero-divisor graph is g.

    Requires all four boolean-graph conditions and builds the ring from the
    boolean realization found while checking them.  build_algebra accepts a
    realization only if N(xy) is the join of N(x) and N(y) in the lattice of
    g's neighborhoods, which fixes every product from g alone, so the ring
    does not depend on which realization the search found.
    """
    conditions = check_boolean_graph_conditions(g, max_n=max_n)
    if not conditions.all_hold:
        raise BooleanGraphError(
            "graph is not a boolean graph: " + "; ".join(conditions.witnesses)
        )
    return ring_from_realization(g, conditions.realization)


def ring_from_realization(g: Graph, s: MulTable) -> BooleanRing:
    """The boolean ring of g built on an idempotent table s realizing g.

    Builds the neighborhood algebra, whose join is the ring's product,
    derives addition as x+y = meet(x y', x' y) where ' is the lattice
    complement, verifies every ring axiom exhaustively, and checks that the
    ring's zero-divisor graph is g on the nose.
    """
    alg = build_algebra(g, s)
    mul, meet, comp = alg.mul, alg.meet, alg.complement
    n = g.n
    elements = range(n + 2)
    add = tuple(
        tuple(meet[mul[a][comp[b]]][mul[comp[a]][b]] for b in elements)
        for a in elements
    )

    names = None
    if g.names is not None:
        names = ("0",) + tuple(g.names) + ("1",)
    ring = BooleanRing(n=n, add=add, mul=mul, names=names)
    violations = verify_ring_axioms(ring)
    if violations:
        raise LatticeError("ring axioms failed: " + violations[0])
    if ring_zero_divisor_graph(ring).adj != g.adj:
        raise LatticeError("reconstructed ring has the wrong zero-divisor graph")
    return ring


def ring_isomorphic(r1: BooleanRing, r2: BooleanRing, max_size: int = 16):
    """A bijection preserving +, *, 0 and 1, as a tuple image list, or None.

    A ring isomorphism maps zero divisors to zero divisors, so it is an
    isomorphism of the zero-divisor graphs extended by 0 -> 0 and 1 -> 1;
    each graph isomorphism is extended so and tested on every pair.  The
    search is complete for boolean rings only: there every element other
    than 0 and 1 is a vertex, element e being vertex e-1.
    """
    if r1.size != r2.size:
        return None
    if r1.size > max_size:
        raise TooLargeError(f"ring isomorphism search capped at {max_size} elements")
    g1, g2 = ring_zero_divisor_graph(r1), ring_zero_divisor_graph(r2)
    pairs = [(a, b) for a in range(r1.size) for b in range(r1.size)]
    for p in isomorphisms(g1, g2, max_n=max_size):
        image = (0, *(w + 1 for w in p), r2.one)
        if len(image) == r1.size and all(
            image[r1.add[a][b]] == r2.add[image[a]][image[b]]
            and image[r1.mul[a][b]] == r2.mul[image[a]][image[b]]
            for a, b in pairs
        ):
            return image
    return None


# --- ring text format -------------------------------------------------------


def format_ring(r: BooleanRing) -> str:
    lines = ["zdg-ring 1", f"n {r.size}"]
    for e in range(r.size):
        lines.append(f"name {e} {r.name_of(e)}")
    lines.append("add")
    for i in range(r.size):
        lines.append(" ".join(str(r.add[i][j]) for j in range(i, r.size)))
    lines.append("mul")
    for i in range(r.size):
        lines.append(" ".join(str(r.mul[i][j]) for j in range(i, r.size)))
    return "\n".join(lines) + "\n"


def parse_ring(text: str) -> BooleanRing:
    reader = _LineReader(text, "zdg-ring 1")
    parts = reader.next()
    if parts is None or parts[0] != "n" or len(parts) != 2:
        raise reader.error("missing element count")
    size = reader.number(parts[1], "bad element count",
                         f"element count {parts[1]} not in 2..{_MAX_COUNT}", lo=2)
    names = [f"e{i}" for i in range(size)]
    parts = reader.next()
    while parts is not None and parts[0] == "name":
        if len(parts) != 3:
            raise reader.error("bad name line")
        eid = reader.number(parts[1], "bad element id",
                            f"element id {parts[1]} out of range", hi=size - 1)
        names[eid] = parts[2]
        parts = reader.next()
    blocks = []
    for keyword in ("add", "mul"):
        if parts != [keyword]:
            raise reader.error(f"expected '{keyword}' block")
        blocks.append(reader.triangle(0, size - 1))
        parts = reader.next()
    if parts is not None:
        raise reader.error("extra lines after 'mul' block")
    add, mul = blocks
    return BooleanRing(
        n=size - 2,
        add=tuple(tuple(r) for r in add),
        mul=tuple(tuple(r) for r in mul),
        names=tuple(names),
    )
