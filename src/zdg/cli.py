"""Command line entry point.

Subcommands: realize, props, boolean-ring, family, fixture, theorems,
oracle.  Results go to stdout, diagnostics to stderr.  Exit codes: 0 for a
successful computation (an empty realization list is a success), 1 when a
check subcommand answers no (theorem counterexample, failed boolean-graph
conditions), 2 for usage or file errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import boolean_algebra as BA
from . import families
from . import graph as G
from . import realize as RZ
from . import semigroup as SG
from . import theorems as TH


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_graph(path: str) -> G.Graph:
    return G.parse_graph(_read_text(path))


def _load_table(path: str) -> SG.MulTable:
    return SG.parse_table(_read_text(path))


def _scalar(v) -> str | None:
    """The JSON text of a str, int, bool or None; None for anything else."""
    if type(v) is str:
        return _quote(v)
    if type(v) is int:
        return str(v)
    if v is None:
        return "null"
    if type(v) is bool:
        return "true" if v else "false"
    return None


def _dumps(o, pad: str = "") -> str:
    """Exactly ``json.dumps(o, indent=2)`` for what the payloads hold: dicts
    with str keys, lists, str, int, bool and None; anything else raises
    TypeError.  The standard encoder falls back to its pure-Python version
    whenever it indents, and that was most of the command line's own cost."""
    text = _scalar(o)
    if text is not None:
        return text
    inner = pad + "  "
    sep = ",\n" + inner
    if type(o) is list:
        if not o:
            return "[]"
        if all(type(v) is int for v in o):
            body = sep.join(map(str, o))
        else:
            body = sep.join(_dumps(v, inner) for v in o)
        return f"[\n{inner}{body}\n{pad}]"
    if type(o) is dict:
        if not o:
            return "{}"
        items = []
        for k, v in o.items():
            if type(k) is not str:
                raise TypeError(f"JSON key {k!r} is not a str")
            text = _scalar(v)
            items.append(f"{_quote(k)}: {_dumps(v, inner) if text is None else text}")
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
    raise TypeError(f"cannot write {type(o).__name__} as JSON")


def _emit(payload: dict, as_json: bool):
    """payload as JSON, or as one ``key: value`` line per item."""
    if as_json:
        print(_dumps(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _render_report(report: RZ.RealizationReport, names) -> str:
    lines = [
        f"mode: {report.mode}",
        f"labeled tables: {report.labeled_count}"
        + (" (truncated)" if report.truncated else ""),
        f"iso classes: {report.iso_class_count}",
        f"status: {report.status}",
    ]
    for i, t in enumerate(report.tables, start=1):
        lines.append(f"table {i}:")
        lines.append(SG.render_table(t, names).rstrip("\n"))
    return "\n".join(lines) + "\n"


@functools.cache
def _table_format(n: int) -> str:
    """The %-template that writes a table on n elements from its canonical
    key, as an item of the "tables" list of ``_dumps(report.to_dict())``."""
    rows = (",\n        ".join(["%d"] * width) for width in range(n, 0, -1))
    return "[\n      [\n        " + "\n      ],\n      [\n        ".join(rows) + "\n      ]\n    ]"


def _report_json(report: RZ.RealizationReport) -> str:
    """Exactly ``_dumps(report.to_dict()) + "\n"``, with each table written
    straight from its key rather than from nested lists."""
    head = "".join(
        f"  {_quote(k)}: {_dumps(getattr(report, k))},\n"
        for k in ("mode", "n", "labeled_count", "iso_class_count", "status", "truncated")
    )
    form = _table_format(report.n)
    tables = ",\n    ".join([form % tuple(key) for key in report.keys])
    listing = f"[\n    {tables}\n  ]" if tables else "[]"
    return f'{{\n{head}  "tables": {listing}\n}}\n'


def _cmd_realize(args, oracle: bool = False) -> int:
    g = _load_graph(args.graph)
    mode = RZ.BOOLEAN if args.boolean else RZ.PLAIN
    if oracle:
        report = RZ.brute_force_realize(g, mode)
    else:
        report = RZ.realize_all(g, mode, limit=args.limit, max_n=args.max_n)
    if args.json:
        sys.stdout.write(_report_json(report))
    else:
        sys.stdout.write(_render_report(report, g.names))
    return 0


def _cmd_oracle(args) -> int:
    return _cmd_realize(args, oracle=True)


def _cmd_props(args) -> int:
    g = _load_graph(args.graph)
    core_vertices, core_edges = G.core(g)
    # uniquely complemented implies complemented
    unique = G.is_uniquely_complemented(g)
    diameter = G.diameter(g)  # None iff disconnected or empty
    payload = {
        "n": g.n,
        "connected": diameter is not None,
        "diameter": diameter,
        "has_cycle": bool(core_edges),  # a cycle iff some edge is not a bridge
        "core_vertices": sorted(core_vertices),
        "core_edges": [list(e) for e in sorted(core_edges)],
        "end_vertices": sorted(G.end_vertices(g)),
        "uniquely_determined": G.is_uniquely_determined(g),
        "complemented": unique or G.is_complemented(g),
        "uniquely_complemented": unique,
        "meet_closed": G.neighborhood_meet_closed(g),
    }
    _emit(payload, args.json)
    return 0


def _cmd_boolean_ring(args) -> int:
    if args.json and args.emit_tables == "-":
        print("error: --json and --emit-tables - would both write to stdout", file=sys.stderr)
        return 2
    g = _load_graph(args.graph)
    conditions = BA.check_boolean_graph_conditions(g, max_n=args.max_n)
    if args.check_only or not conditions.all_hold:
        _emit(conditions.to_dict(), args.json)
        return 0 if conditions.all_hold else 1
    ring = BA.ring_from_realization(g, conditions.realization)
    if args.emit_tables:
        _write_text(args.emit_tables, BA.format_ring(ring))
    if args.json:
        payload = {
            "conditions": conditions.to_dict(),
            "elements": ring.size,
            "names": [ring.name_of(e) for e in range(ring.size)],
            "add": [list(ring.add[i][i:]) for i in range(ring.size)],
            "mul": [list(ring.mul[i][i:]) for i in range(ring.size)],
        }
        print(_dumps(payload))
    elif args.emit_tables != "-":
        print(f"boolean ring with {ring.size} elements")
        sys.stdout.write(BA.format_ring(ring))
    return 0


_FAMILIES = {
    "complete": (families.complete, 1),
    "complete-bipartite": (families.complete_bipartite, 2),
    "complete-multipartite": (families.complete_multipartite, None),
    "m-nk": (families.m_nk, 2),
    "fig1": (families.fig1, 2),
    "fig2": (families.fig2, 1),
    "fig3": (families.fig3, 1),
    "fig4": (families.fig4, 3),
    "two-star": (families.two_star, 2),
}


def _cmd_family(args) -> int:
    if args.name not in _FAMILIES:
        print(f"unknown family {args.name!r}; choose from "
              + ", ".join(sorted(_FAMILIES)), file=sys.stderr)
        return 2
    fn, arity = _FAMILIES[args.name]
    params = args.params
    if arity is not None and len(params) != arity:
        print(f"family {args.name} takes {arity} parameter(s)", file=sys.stderr)
        return 2
    g = fn(params) if arity is None else fn(*params)
    _write_text(args.output, G.format_graph(g))
    return 0


def _cmd_fixture(args) -> int:
    t = families.fixture_table(args.k)
    _write_text(args.output, SG.format_table(t))
    return 0


def _verdict_json(v: TH.TheoremVerdict) -> str:
    """v as an item of the verdict list of ``_dumps(payload)``."""
    return _dumps(v.to_dict(), "    ")


def _verdict_line(v: TH.TheoremVerdict) -> str:
    """v as a line of the text output: its tag, instance and witness."""
    if v.is_counterexample:
        tag = "COUNTEREXAMPLE"
    elif not v.hypotheses_met:
        tag = "n/a"
    else:
        tag = "ok"
    return f"[{tag}] {v.instance}" + (f" ({v.witness})" if v.witness else "")


def _cmd_theorems(args) -> int:
    verdicts: list[TH.TheoremVerdict] = []
    if args.sweep:
        g = _load_graph(args.sweep)
        mode = RZ.BOOLEAN if args.boolean else RZ.PLAIN
        report = RZ.realize_all(g, mode, max_n=args.max_n)
        if report.keys:
            verdicts_of = TH.plan(g)
            for t in report.tables:
                verdicts.extend(verdicts_of(t))
    else:
        t = _load_table(args.table)
        bad = SG.check_axioms(t)
        if bad:
            print(f"table violates axioms: {bad[0].describe()}", file=sys.stderr)
            return 2
        verdicts = TH.all_verdicts(t)
    # a sweep repeats few verdict objects many times over, so each object
    # is rendered and classified once per request, keyed by its id (the
    # list keeps every one alive); equal verdicts held by different objects
    # still render once, through a cache keyed by value
    ids = list(map(id, verdicts))
    distinct = dict(zip(ids, verdicts))
    render = functools.cache(_verdict_json if args.json else _verdict_line)
    text = {i: render(v) for i, v in distinct.items()}
    refuted = {i for i, v in distinct.items() if v.is_counterexample}
    texts = list(map(text.__getitem__, ids))
    counter = sum(map(refuted.__contains__, ids)) if refuted else 0
    if args.json:
        listing = "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"
        out = f'{{\n  "verdicts": {listing},\n  "counterexamples": {counter}\n}}\n'
    else:
        out = "".join(line + "\n" for line in texts) + f"counterexamples: {counter}\n"
    sys.stdout.write(out)
    return 1 if counter else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every
    call of ``main``; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="zdg",
        description="zero-divisor graphs of finite commutative semigroups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def json_flag(p):
        p.add_argument("--json", action="store_true", help="JSON output")

    def search_flags(p):
        json_flag(p)
        p.add_argument("--max-n", type=int, default=RZ.DEFAULT_MAX_N,
                       help="size guard for searches")

    p = sub.add_parser("realize", help="enumerate semigroups realizing a graph")
    p.add_argument("graph")
    p.add_argument("--boolean", action="store_true", help="idempotent tables only")
    p.add_argument("--limit", type=int, default=None, help="cap on labeled tables")
    search_flags(p)
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("oracle", help="brute-force realization (n <= 4)")
    p.add_argument("graph")
    p.add_argument("--boolean", action="store_true")
    json_flag(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("props", help="structural properties of a graph")
    p.add_argument("graph")
    json_flag(p)
    p.set_defaults(fn=_cmd_props)

    p = sub.add_parser("boolean-ring", help="reconstruct the boolean ring of a graph")
    p.add_argument("graph")
    p.add_argument("--check-only", action="store_true",
                   help="only evaluate the four conditions")
    p.add_argument("--emit-tables", metavar="FILE", default=None,
                   help="write the ring tables to FILE")
    search_flags(p)
    p.set_defaults(fn=_cmd_boolean_ring)

    p = sub.add_parser("family", help="generate a named graph family")
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("fixture", help="emit a built-in reference table")
    p.add_argument("k", type=int)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_fixture)

    p = sub.add_parser("theorems", help="verify the structural claims on a table")
    p.add_argument("table", nargs="?", default=None)
    p.add_argument("--sweep", metavar="GRAPH", default=None,
                   help="realize GRAPH and verify every table")
    p.add_argument("--boolean", action="store_true")
    search_flags(p)
    p.set_defaults(fn=_cmd_theorems)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "theorems" and bool(args.sweep) == bool(args.table):
        print("theorems needs exactly one of a table file and --sweep GRAPH", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # FormatError and TooLargeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
