"""Recognition of the graphs that are zero-divisor graphs of boolean rings,
and reconstruction of the ring.

The pipeline: a connected graph qualifies iff (1) distinct vertices have
distinct neighborhoods, (2) it is uniquely complemented, (3) nonempty
neighborhood intersections are themselves neighborhoods, and (4) an
idempotent semigroup realizes it.  The realization found for (4), extended
by an identity, is certified by its atoms: coding each element by the atoms
it absorbs must be a bijection onto F_2^k that takes the product to AND.
Ring addition is XOR carried back along that code, so the ring is F_2^k up
to relabeling and every axiom holds without an O(N^3) check;
verify_ring_axioms stays as the exhaustive oracle.  The final check is that
the ring's zero-divisor graph is the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import _MAX_COUNT, TooLargeError, _check_name, _LineReader
from .graph import Graph, hood_classes, is_connected, is_uniquely_determined, isomorphisms
from .graph import is_uniquely_complemented, neighborhood_meet_closed
from .realize import BOOLEAN, DEFAULT_MAX_N, realize_all
from .semigroup import MulTable, is_boolean, zero_divisor_graph

RING_ISO_MAX_SIZE = 16  # ring_isomorphic refuses larger rings


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
        # the first vertex whose neighborhood an earlier vertex has, paired
        # with the first vertex that has it
        v, u = min((vs[1], vs[0]) for vs in hood_classes(g).values() if len(vs) > 1)
        witnesses.append(f"N({u}) = N({v})")
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
    """A boolean realization certified isomorphic to the subsets of its atoms.

    Element ids follow the semigroup convention (0 = zero, 1..n = vertices)
    with n+1 for the adjoined identity:

    - ``mul[a][b]`` is the product extended by the identity;
    - ``code[e]`` is the bitmask of the atoms that e absorbs: bit i is set
      when the i-th atom a, in element order, has ae = a;
    - ``elem`` inverts ``code``: ``elem[code[e]] == e``.

    ``code`` is a bijection onto the k-bit masks that takes the product to
    AND, so (elements, ``mul``) is the boolean algebra of subsets of the k
    atoms and the neighborhood order is the reverse of the code order.
    """

    mul: tuple[tuple[int, ...], ...]
    code: tuple[int, ...]
    elem: tuple[int, ...]


def build_algebra(g: Graph, s: MulTable) -> NeighborhoodAlgebra:
    """Certify a boolean realization by its atoms in O(N^2), N = n+2.

    The atoms are the nonzero elements a with ax in {0, a} for every x, and
    each element is coded by the atoms it absorbs.  Raises LatticeError with
    a witness unless there are k atoms with 2^k = N, the codes are distinct,
    and code(ab) = code(a) & code(b) for every pair.  Then the code is an
    isomorphism onto (F_2^k, AND), which proves every boolean-ring axiom of
    the product, commutativity and associativity included.
    """
    if s.n != g.n:
        raise ValueError("table size must match the graph")
    if not is_boolean(s):
        raise ValueError("table must be idempotent")
    if zero_divisor_graph(s).adj != g.adj:
        raise ValueError("table does not realize the graph")
    size = g.n + 2
    elements = range(size)
    mul = tuple(row + (a,) for a, row in enumerate(s.prod)) + (tuple(elements),)

    atoms = [a for a in range(1, size) if set(mul[a]) <= {0, a}]
    k = len(atoms)
    if 1 << k != size:
        raise LatticeError(f"atoms {atoms}: 2^{k} != {size} elements")
    code = tuple(
        sum(1 << i for i, a in enumerate(atoms) if mul[a][x] == a) for x in elements
    )
    elem = [-1] * size
    for x, c in enumerate(code):
        if elem[c] >= 0:
            raise LatticeError(f"elements {elem[c]} and {x} both have code {c}")
        elem[c] = x
    for a in elements:
        ca, row = code[a], mul[a]
        for b in elements:
            if code[row[b]] != ca & code[b]:
                raise LatticeError(
                    f"{a}*{b} = {row[b]} has code {code[row[b]]},"
                    f" not code({a}) & code({b}) = {ca & code[b]}"
                )
    return NeighborhoodAlgebra(mul, code, tuple(elem))


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
    realization only when its product is the meet of a boolean algebra;
    then N(x) contains N(y) exactly when xy = x, so N(xy) is the least
    neighborhood containing N(x) and N(y).  That fixes every product from g
    alone, so the ring does not depend on which realization the search
    found.
    """
    conditions = check_boolean_graph_conditions(g, max_n=max_n)
    if not conditions.all_hold:
        raise BooleanGraphError(
            "graph is not a boolean graph: " + "; ".join(conditions.witnesses)
        )
    return ring_from_realization(g, conditions.realization)


def ring_from_realization(g: Graph, s: MulTable) -> BooleanRing:
    """The boolean ring of g built on an idempotent table s realizing g.

    Certifies s by its atoms (build_algebra), whose code is an isomorphism
    onto (F_2^k, AND); the ring's addition is XOR carried back along it,
    a+b = elem[code(a) ^ code(b)], so the ring is isomorphic to F_2^k and
    every ring axiom holds.  Checks that the ring's zero-divisor graph is g
    on the nose.
    """
    alg = build_algebra(g, s)
    code, elem = alg.code, alg.elem
    add = tuple(tuple(elem[ca ^ cb] for cb in code) for ca in code)

    names = None
    if g.names is not None:
        names = ("0",) + tuple(g.names) + ("1",)
    ring = BooleanRing(n=g.n, add=add, mul=alg.mul, names=names)
    if ring_zero_divisor_graph(ring).adj != g.adj:
        raise LatticeError("reconstructed ring has the wrong zero-divisor graph")
    return ring


def ring_isomorphic(r1: BooleanRing, r2: BooleanRing):
    """A bijection preserving +, *, 0 and 1, as a tuple image list, or None.

    A ring isomorphism maps zero divisors to zero divisors, so it is an
    isomorphism of the zero-divisor graphs extended by 0 -> 0 and 1 -> 1;
    each graph isomorphism is extended so and tested on every pair.  The
    search is complete for boolean rings only: there every element other
    than 0 and 1 is a vertex, element e being vertex e-1.
    """
    if r1.size != r2.size:
        return None
    if r1.size > RING_ISO_MAX_SIZE:
        raise TooLargeError(f"ring isomorphism search capped at {RING_ISO_MAX_SIZE} elements")
    g1, g2 = ring_zero_divisor_graph(r1), ring_zero_divisor_graph(r2)
    pairs = [(a, b) for a in range(r1.size) for b in range(r1.size)]
    for p in isomorphisms(g1, g2):
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
    """The ring as a file that parse_ring reads back; raises ValueError on a
    name that would not read back."""
    lines = ["zdg-ring 1", f"n {r.size}"]
    for e in range(r.size):
        name = r.name_of(e)
        _check_name(name)
        lines.append(f"name {e} {name}")
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
