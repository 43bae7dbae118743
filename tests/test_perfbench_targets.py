"""The benchmark's tracer finds every function it is told to wrap.

perfbench/spans.py wraps each (module, attribute) of its TARGETS at the
binding callers resolve; a target that no longer resolves is only reported on
stderr, so a refactor that drops a binding silently stops tracing a layer.
"""

from __future__ import annotations

import importlib
import runpy
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
    # functions it saw at import time
    from zdg import cli, families, theorems
    from zdg.graph import format_graph

    calls = []
    verify = theorems.verify_thm_2_9
    monkeypatch.setattr(theorems, "verify_thm_2_9",
                        lambda *a, **k: calls.append(k) or verify(*a, **k))
    path = tmp_path / "p4.zdg-graph"
    path.write_text(format_graph(families.two_star(1, 1)))
    assert cli.main(["theorems", "--sweep", str(path), "--json"]) == 0
    capsys.readouterr()
    assert calls


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
