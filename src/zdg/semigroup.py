"""Finite commutative semigroups with zero as explicit multiplication tables.

Elements are 0..n where 0 is the absorbing zero and 1..n are the nonzero
elements; element e corresponds to vertex e-1 of the zero-divisor graph.
Subsets of elements are plain frozensets.

Table text format (upper triangle only; symmetry and the zero row are
implied)::

    zdg-table 1
    n 5
    0 0 0 0 1      # prod[1][1..5]
    0 0 2 0        # prod[2][2..5]
    ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import _MAX_COUNT, FormatError, _LineReader
from .graph import Graph

ElementSubset = frozenset[int]


@dataclass(frozen=True)
class MulTable:
    """A complete symmetric multiplication table on elements 0..n.

    Construction validates shape and entry range only; the semigroup axioms
    are data checked by check_axioms, so violating tables are representable.
    """

    n: int
    prod: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.prod) != self.n + 1:
            raise ValueError("table must have n+1 rows")
        for row in self.prod:
            if len(row) != self.n + 1:
                raise ValueError("table rows must have n+1 entries")
            for e in row:
                if not 0 <= e <= self.n:
                    raise ValueError(f"entry {e} out of range 0..{self.n}")

    def elements(self) -> range:
        return range(self.n + 1)

    def nonzero(self) -> range:
        return range(1, self.n + 1)


def table_from_rows(rows: Iterable[Iterable[int]]) -> MulTable:
    prod = tuple(tuple(r) for r in rows)
    return MulTable(len(prod) - 1, prod)


@dataclass(frozen=True)
class AxiomViolation:
    kind: str  # "zero" | "commutativity" | "associativity"
    witness: tuple[int, ...]

    def describe(self) -> str:
        if self.kind == "zero":
            (a,) = self.witness
            return f"zero row: 0*{a} != 0"
        if self.kind == "commutativity":
            a, b = self.witness
            return f"commutativity: {a}*{b} != {b}*{a}"
        a, b, c = self.witness
        return f"associativity: ({a}*{b})*{c} != {a}*({b}*{c})"


def check_axioms(t: MulTable) -> list[AxiomViolation]:
    """Report every violated semigroup axiom with a witness; empty means
    valid (commutative, associative, absorbing zero)."""
    out: list[AxiomViolation] = []
    p = t.prod
    for a in t.elements():
        if p[0][a] != 0 or p[a][0] != 0:
            out.append(AxiomViolation("zero", (a,)))
    for a in t.nonzero():
        for b in range(a + 1, t.n + 1):
            if p[a][b] != p[b][a]:
                out.append(AxiomViolation("commutativity", (a, b)))
    for a in t.nonzero():
        pa = p[a]
        for b in t.nonzero():
            ab = pa[b]
            pb = p[b]
            for c in t.nonzero():
                if p[ab][c] != pa[pb[c]]:
                    out.append(AxiomViolation("associativity", (a, b, c)))
    return out


def assoc_violation_symmetric(prod) -> tuple[int, int, int] | None:
    """First associativity violation of a symmetric table with absorbing
    zero, or None.

    For commutative tables (ab)c = a(bc) for all ordered triples holds iff
    (ab)c = (bc)a and (ab)c = (ca)b for all a <= b <= c, which cuts the scan
    to two checks per sorted triple.
    """
    n = len(prod) - 1
    for a in range(1, n + 1):
        pa = prod[a]
        for b in range(a, n + 1):
            ab = pa[b]
            pab = prod[ab]
            pb = prod[b]
            for c in range(b, n + 1):
                bc = pb[c]
                v = pab[c]
                if prod[bc][a] != v or prod[pa[c]][b] != v:
                    return (a, b, c)
    return None


def zero_divisor_graph(t: MulTable, names=None) -> Graph:
    """The graph on vertices 0..n-1 (vertex e-1 for element e) with an edge
    x-y iff the product of the two distinct elements is zero.

    Every nonzero element must be a zero divisor (some nonzero partner,
    possibly itself, multiplies to zero); offenders raise ValueError.
    """
    p = t.prod
    adj = [0] * t.n
    for x in t.nonzero():
        if all(p[x][y] != 0 for y in t.nonzero()):
            raise ValueError(f"element {x} is not a zero divisor")
        for y in range(x + 1, t.n + 1):
            if p[x][y] == 0:
                adj[x - 1] |= 1 << (y - 1)
                adj[y - 1] |= 1 << (x - 1)
    return Graph(t.n, tuple(adj), tuple(names) if names is not None else None)


def neighborhood(t: MulTable, x: int) -> ElementSubset:
    """N(x) in the zero-divisor graph, as element ids."""
    if not 1 <= x <= t.n:
        raise ValueError(f"element {x} out of range 1..{t.n}")
    return frozenset(y for y in t.nonzero() if y != x and t.prod[x][y] == 0)


def closure_witness(t: MulTable, sub: Iterable[int]) -> tuple[int, int, int] | None:
    """A triple (a, b, a*b) with a, b in sub but a*b outside, or None."""
    s = frozenset(sub)
    for a in sorted(s):
        for b in sorted(s):
            if b < a:
                continue
            ab = t.prod[a][b]
            if ab not in s:
                return (a, b, ab)
    return None


def is_subsemigroup(t: MulTable, sub: Iterable[int]) -> bool:
    return closure_witness(t, sub) is None


def ideal_witness(
    t: MulTable, sub: Iterable[int], within: Iterable[int]
) -> tuple[int, int, int] | None:
    """A pair (w, s, w*s) with w in within, s in sub, w*s outside sub."""
    s = frozenset(sub)
    w = frozenset(within)
    if not s <= w:
        raise ValueError("sub must be contained in within")
    for a in sorted(w):
        for b in sorted(s):
            ab = t.prod[a][b]
            if ab not in s:
                return (a, b, ab)
    return None


def is_ideal(t: MulTable, sub: Iterable[int], within: Iterable[int]) -> bool:
    return ideal_witness(t, sub, within) is None


def is_boolean(t: MulTable) -> bool:
    """Every element is idempotent."""
    return all(t.prod[x][x] == x for x in t.elements())


def nilpotent_witness(t: MulTable) -> int | None:
    """A nonzero nilpotent element, or None.

    Repeated squaring reaches zero iff the element is nilpotent: x^k = 0
    implies x^(2^m) = 0 once 2^m >= k, and the squaring orbit is finite.
    """
    for x in t.nonzero():
        seen = set()
        y = x
        while y not in seen:
            seen.add(y)
            y = t.prod[y][y]
            if y == 0:
                return x
    return None


def is_reduced(t: MulTable) -> bool:
    return nilpotent_witness(t) is None


def annihilator(t: MulTable, xs: Iterable[int]) -> ElementSubset:
    """Elements whose product with every member of xs is zero (all of S for
    empty xs; always contains 0)."""
    members = list(xs)
    return frozenset(
        s for s in t.elements() if all(t.prod[s][x] == 0 for x in members)
    )


# --- text format ----------------------------------------------------------


def parse_table(text: str) -> MulTable:
    reader = _LineReader(text, "zdg-table 1")
    parts = reader.next()
    if parts is None:
        raise FormatError("missing element count line")
    if parts[0] != "n" or len(parts) != 2:
        raise reader.error("bad element count line")
    n = reader.number(parts[1], "bad element count line",
                      f"element count {parts[1]} over the limit of {_MAX_COUNT}")
    prod = reader.triangle(1, n)
    if reader.next() is not None:
        raise reader.error("extra rows after table")
    return table_from_rows(prod)


def format_table(t: MulTable) -> str:
    lines = ["zdg-table 1", f"n {t.n}"]
    for i in t.nonzero():
        lines.append(" ".join(str(t.prod[i][j]) for j in range(i, t.n + 1)))
    return "\n".join(lines) + "\n"


def render_table(t: MulTable, names=None) -> str:
    """Human-readable upper-triangular rendering with element names."""
    label = ["0"] + [
        names[i - 1] if names is not None else f"v{i - 1}" for i in t.nonzero()
    ]
    width = max(len(s) for s in label)
    head = " " * (width + 3) + " ".join(s.ljust(width) for s in label[1:])
    lines = [head.rstrip()]
    for i in t.nonzero():
        cells = [" " * width] * (i - 1) + [
            label[t.prod[i][j]].ljust(width) for j in range(i, t.n + 1)
        ]
        lines.append((label[i].ljust(width) + " | " + " ".join(cells)).rstrip())
    return "\n".join(lines) + "\n"
