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
