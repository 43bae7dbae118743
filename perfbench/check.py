"""Correctness gate: each answer must match the answer pinned for its
instance in ``expected.json``, and every emitted table and ring must pass
the few checks below, which share no code with ``zdg``.

Pinned answers are relabel-invariant: counts, statuses and condition flags.
``check`` returns None for a correct answer, otherwise the reason it fails.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations
from pathlib import Path

from corpus import Graph, Request

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

CONDITIONS = ("uniquely_determined", "uniquely_complemented", "meet_closed",
              "boolean_realizable", "all_hold")


def _full(upper, first: int):
    """Symmetric table from upper-triangle rows; row r of ``upper`` starts at
    the diagonal of element first + r, rows below ``first`` are zero."""
    size = first + len(upper)
    rows = [[0] * size for _ in range(size)]
    for r, row in enumerate(upper):
        i = first + r
        if len(row) != size - i:
            raise ValueError(f"row {i} has {len(row)} entries")
        for j, v in enumerate(row, start=i):
            if not (isinstance(v, int) and 0 <= v < size):
                raise ValueError(f"entry {v} out of range")
            rows[i][j] = rows[j][i] = v
    return rows


def _associative(p, elems) -> bool:
    return all(p[p[a][b]][c] == p[a][p[b][c]] for a in elems for b in elems for c in elems)


def _graph_error(p, vertices, g: Graph) -> str | None:
    """Check that distinct elements x, y among ``vertices`` multiply to zero
    exactly when g joins vertices x - 1 and y - 1."""
    for x, y in combinations(vertices, 2):
        if (p[x][y] == 0) != ((x - 1, y - 1) in g.edges):
            return f"product {x}*{y} = {p[x][y]} disagrees with the graph"
    return None


def _table_error(p, g: Graph, boolean: bool) -> str | None:
    elems = range(1, g.n + 1)
    if not _associative(p, elems):
        return "table is not associative"
    for x in elems:
        if all(p[x][y] for y in elems):
            return f"element {x} is not a zero divisor"
        if boolean and p[x][x] != x:
            return f"element {x} is not idempotent"
    return _graph_error(p, elems, g)


def _realize(req: Request, rc: int, out: dict, want: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    for key in ("labeled_count", "iso_class_count", "status", "truncated"):
        if out.get(key) != want[key]:
            return f"{key} = {out.get(key)!r}, pinned {want[key]!r}"
    tables = out["tables"]
    # One table per labeled realization today; a search that emits one per
    # orbit still passes, as long as it emits at least one.
    if not min(1, want["labeled_count"]) <= len(tables) <= want["labeled_count"]:
        return f"{len(tables)} tables for {want['labeled_count']} labeled"
    seen = set()
    for upper in tables:
        key = json.dumps(upper)
        if key in seen:
            return "table emitted twice"
        seen.add(key)
        error = _table_error(_full(upper, 1), req.subject, req.boolean)
        if error:
            return error
    return None


def _verdicts(rc: int, out: dict, want: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    bad = [v for v in out["verdicts"] if v["hypotheses_met"] and v["conclusion_holds"] is False]
    if bad or out["counterexamples"] != 0:
        return f"{max(len(bad), out['counterexamples'])} counterexamples"
    applicable = Counter(v["theorem"] for v in out["verdicts"] if v["hypotheses_met"])
    if dict(applicable) != want["applicable"]:
        return f"applicable verdicts {dict(applicable)}, pinned {want['applicable']}"
    return None


def _ring(req: Request, rc: int, out: dict, want: dict) -> str | None:
    if rc != want["rc"]:
        return f"exit code {rc}, pinned {want['rc']}"
    flags = out["conditions"] if rc == 0 else out
    for key in CONDITIONS:
        if flags.get(key) != want["conditions"][key]:
            return f"condition {key} = {flags.get(key)!r}, pinned {want['conditions'][key]!r}"
    if rc != 0:
        return None
    size = out["elements"]
    if size != want["elements"] or size != req.subject.n + 2:
        return f"{size} elements, pinned {want['elements']}"
    add, mul = _full(out["add"], 0), _full(out["mul"], 0)
    elems, one = range(size), size - 1
    for a in elems:
        if add[a][0] != a or add[a][a] != 0 or mul[a][one] != a or mul[a][a] != a:
            return f"identity, additive inverse or idempotence fails at {a}"
    if not _associative(add, elems) or not _associative(mul, elems):
        return "ring operation is not associative"
    for a in elems:
        for b in elems:
            for c in elems:
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    return f"distributivity fails at ({a}, {b}, {c})"
    return _graph_error(mul, range(1, one), req.subject)


def check(req: Request, rc: int, text: str) -> str | None:
    want = EXPECTED.get(req.instance)
    if want is None:
        return "no pinned answer"
    try:
        out = json.loads(text)
        if req.kind == "realize":
            return _realize(req, rc, out, want)
        if req.kind in ("sweep", "table"):
            return _verdicts(rc, out, want)
        return _ring(req, rc, out, want)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
