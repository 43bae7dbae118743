"""The benchmark's tracer finds every function it is told to wrap.

perfbench/spans.py wraps each (module, attribute) of its TARGETS at the
binding callers resolve; a target that no longer resolves is only reported on
stderr, so a refactor that drops a binding silently stops tracing a layer.
"""

from __future__ import annotations

import importlib
import runpy
from collections import Counter
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_target_resolves():
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing


def test_sweep_calls_verifiers_through_their_module_binding(tmp_path, monkeypatch, capsys):
    # the tracer replaces zdg.theorems.verify_* at the module attribute, so
    # the sweep must look them up there on each request, not hold the
    # functions it saw at import time; each is called once per table and
    # instance whose hypotheses the graph alone does not settle
    import reference_theorems as reference
    from zdg import cli, families, theorems
    from zdg.graph import format_graph
    from zdg.realize import PLAIN, realize_all

    calls = Counter()

    def counted(name):
        verify = getattr(theorems, name)

        def wrapper(*a, **k):
            calls[(name, *k.values())] += 1
            return verify(*a, **k)
        return wrapper

    for name in runpy.run_path(str(SPANS))["VERIFIERS"]:
        monkeypatch.setattr(theorems, name, counted(name))
    g = families.fig4(1, 1, 0)  # every claim has an unsettled instance
    path = tmp_path / "fig4.zdg-graph"
    path.write_text(format_graph(g))
    assert cli.main(["theorems", "--sweep", str(path), "--json"]) == 0
    capsys.readouterr()

    f = theorems.graph_facts(g)
    elems = range(1, g.n + 1)
    unsettled = [("verify_prop_2_10",), ("verify_thm_3_2",), ("verify_cor_3_3",)]
    for x in elems:
        unsettled += [("verify_thm_2_1", x, tx) for tx in theorems._thm_2_1_subsets(f, x)
                      if reference._thm_2_1_applies(f, x, tx)]
        unsettled += [("verify_cor_2_2", x)] * reference._cor_2_2_applies(f, x)
        unsettled += [("verify_prop_2_7", x)] * reference._prop_2_7_applies(f, x)
    unsettled += [("verify_thm_2_9", s, u) for s in elems for u in elems
                  if s < u and reference._thm_2_9_applies(f, s, u)]
    unsettled += [("verify_prop_3_6",)] * reference._prop_3_6_applies(f)
    tables = realize_all(g, PLAIN).keys
    assert len({key[0] for key in unsettled}) == 8 and tables
    assert calls == Counter({key: len(tables) for key in unsettled})


def test_a_fresh_import_of_zdg_leaves_the_last_one_free():
    # the benchmark's set-up imports zdg afresh on every repeat, so whatever
    # keeps an old copy alive counts toward its peak memory; a module-level
    # typing alias of a zdg class would, through typing's cache
    import gc
    import sys
    import weakref

    def ours():
        return [m for m in sys.modules if m == "zdg" or m.startswith("zdg.")]

    saved = {name: sys.modules.pop(name) for name in ours()}
    try:
        importlib.import_module("zdg.cli")
        refs = [weakref.ref(getattr(sys.modules[module], cls)) for module, cls in (
            ("zdg.theorems", "TableFacts"), ("zdg.theorems", "TheoremVerdict"),
            ("zdg.graph", "Graph"), ("zdg.semigroup", "MulTable"))]
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
