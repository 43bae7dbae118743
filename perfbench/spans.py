"""Per-layer tracing from outside the program.

Each traced function is replaced, at every binding its callers resolve, by a
wrapper that counts calls and times them.  A function's self time is its
duration minus the time spent in wrapped functions it called.  Totals are
kept in memory, snapshotted per request, and written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

VERIFIERS = ("verify_thm_2_1", "verify_cor_2_2", "verify_prop_2_7", "verify_thm_2_9",
             "verify_prop_2_10", "verify_thm_3_2", "verify_cor_3_3", "verify_prop_3_6")
BOOLEAN_STEPS = ("check_boolean_graph_conditions", "build_algebra", "ring_from_graph",
                 "verify_ring_axioms", "ring_zero_divisor_graph")
GRAPH_PREDICATES = ("is_connected", "is_uniquely_determined", "is_uniquely_complemented",
                    "neighborhood_meet_closed")


# (module, attribute, span name, count) where count, if given, is a pair
# (key, function of the result) whose values are summed under that key.  A
# from-import is a binding of its own, so it is listed beside the original.
TARGETS = [
    ("zdg.cli", "main", "cli.main", None),
    ("zdg.realize", "realize_all", "realize.realize_all",
     ("tables", lambda r: r.labeled_count)),
    ("zdg.boolean_algebra", "realize_all", "realize.realize_all",
     ("tables", lambda r: r.labeled_count)),
    ("zdg.realize", "init_state", "realize.init_state", None),
    ("zdg.realize", "propagate", "realize.propagate",
     ("conflicts", lambda r: r is not None)),
    ("zdg.realize", "assoc_violation_symmetric", "realize.leaf_verify", None),
    ("zdg.realize", "zero_divisor_graph", "realize.leaf_verify", None),
    ("zdg.realize", "apply_automorphism", "realize.apply_automorphism", None),
    ("zdg.realize", "canonical_key", "realize.canonical_key", None),
    ("zdg.realize", "iso_class_count", "realize.iso_class_count", None),
    ("zdg.graph", "automorphisms", "graph.automorphisms", ("perms", len)),
    ("zdg.realize", "automorphisms", "graph.automorphisms", ("perms", len)),
    ("zdg.graph", "has_cycle", "graph.has_cycle", None),
    ("zdg.graph", "pendant_set", "graph.pendant_set", None),
    ("zdg.graph", "core", "graph.core", None),
    ("zdg.semigroup", "zero_divisor_graph", "semigroup.zero_divisor_graph", None),
    ("zdg.boolean_algebra", "zero_divisor_graph", "semigroup.zero_divisor_graph", None),
    ("zdg.semigroup", "closure_witness", "semigroup.closure_witness", None),
    *[("zdg.theorems", name, f"theorems.{name}",
       ("applicable", lambda v: v.hypotheses_met)) for name in VERIFIERS],
    ("zdg.theorems", "all_verdicts", "theorems.all_verdicts", None),
    *[("zdg.boolean_algebra", name, "graph.boolean_conditions", None)
      for name in GRAPH_PREDICATES],
    *[("zdg.boolean_algebra", name, f"boolean_algebra.{name}", None)
      for name in BOOLEAN_STEPS],
]

# Layers whose self times are compared to find the dominant one.
LAYERS = {
    "cli": ("cli.main",),
    "search": ("realize.realize_all", "realize.init_state", "realize.leaf_verify"),
    "propagate": ("realize.propagate",),
    "orbit": ("realize.apply_automorphism", "realize.canonical_key",
              "realize.iso_class_count"),
    "automorphisms": ("graph.automorphisms",),
    "verifiers": ("theorems.all_verdicts", *[f"theorems.{v}" for v in VERIFIERS],
                  "graph.has_cycle", "graph.pendant_set", "graph.core",
                  "semigroup.zero_divisor_graph", "semigroup.closure_witness"),
    "boolean": ("graph.boolean_conditions", *[f"boolean_algebra.{s}" for s in BOOLEAN_STEPS]),
}

# The layer expected to take the most self time in each part of a workload.
PREDICTED = {"enumerate": "orbit", "search": "propagate", "sweep": "verifiers",
             "ring": "automorphisms"}


def _metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [("cli.main.self_s", "s")]
    for name in ("realize_all", "init_state", "leaf_verify"):
        out.append((f"realize.{name}.self_s", "s"))
    out.append(("realize.tables", "count"))
    out += [("realize.propagate.calls", "count"), ("realize.propagate.self_s", "s"),
            ("realize.propagate.conflict_frac", "frac")]
    for name in ("apply_automorphism", "canonical_key"):
        out += [(f"realize.{name}.calls", "count"), (f"realize.{name}.self_s", "s")]
    out += [("realize.iso_class_count.self_s", "s"),
            ("realize.images_per_table", "count/table")]
    out += [("graph.automorphisms.calls", "count"), ("graph.automorphisms.self_s", "s"),
            ("graph.automorphisms.perms", "count")]
    for name in ("graph.has_cycle", "graph.pendant_set", "graph.core",
                 "semigroup.zero_divisor_graph", "semigroup.closure_witness"):
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    for name in VERIFIERS:
        out += [(f"theorems.{name}.calls", "count"), (f"theorems.{name}.self_s", "s"),
                (f"theorems.{name}.applicable", "count")]
    out += [("theorems.all_verdicts.self_s", "s"), ("theorems.applicable_frac", "frac")]
    out.append(("graph.boolean_conditions.self_s", "s"))
    out += [(f"boolean_algebra.{name}.self_s", "s") for name in BOOLEAN_STEPS]
    out += [("trace.overhead_frac", "frac"), ("trace.unattributed_frac", "frac")]
    out += [(f"layer.{layer}.share", "frac") for layer in LAYERS]
    out.append(("layer.dominant_is_predicted", "flag"))
    return out


METRICS = _metric_names()


class Tracer:
    """Wraps the TARGETS while installed; ``stats[name]`` holds calls,
    total_s, self_s and the counts of each span name."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._patched: list[tuple] = []

    def _stat(self, name, count):
        stat = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if count is not None:
            stat.setdefault(count[0], 0)
        return stat

    def _wrap(self, fn, stat, count):
        stack = self._stack
        key, value = count if count is not None else (None, None)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                stat["calls"] += 1
                stat["total_s"] += duration
                stat["self_s"] += duration - children
            if key is not None:
                stat[key] += value(result)
            return result

        return wrapper

    def install(self):
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            stat = self._stat(name, count)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, stat, count))
            self._patched.append((module, attr, fn))
        if self.missing:
            print("not traced (missing): " + ", ".join(self.missing), file=sys.stderr)

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {name: dict(stat) for name, stat in self.stats.items()}

    def metrics(self, records: list, traced_s: float, untraced_s: float) -> tuple[dict, dict]:
        """Per-layer metric values, and for each part of the workload the
        self-time share of each layer, from the per-request ``records`` of
        the traced pass."""
        s = self.stats

        def get(name, key):
            return s.get(name, {}).get(key, 0)

        values = {metric: get(*metric.rsplit(".", 1)) for metric, _ in METRICS}
        tables = get("realize.realize_all", "tables")
        values["realize.tables"] = tables
        values["realize.propagate.conflict_frac"] = (
            get("realize.propagate", "conflicts") / max(1, get("realize.propagate", "calls")))
        values["realize.images_per_table"] = (
            get("realize.apply_automorphism", "calls") / max(1, tables))
        verdicts = sum(get(f"theorems.{v}", "calls") for v in VERIFIERS)
        values["theorems.applicable_frac"] = (
            sum(get(f"theorems.{v}", "applicable") for v in VERIFIERS) / max(1, verdicts))
        values["trace.overhead_frac"] = traced_s / untraced_s - 1
        values["trace.unattributed_frac"] = 1 - get("cli.main", "total_s") / traced_s
        for layer, names in LAYERS.items():
            values[f"layer.{layer}.share"] = sum(get(n, "self_s") for n in names) / traced_s
        seconds, parts = {}, {}
        for record in records:
            part = record["part"]
            seconds[part] = seconds.get(part, 0.0) + record["seconds"]
            shares = parts.setdefault(part, dict.fromkeys(LAYERS, 0.0))
            for layer, names in LAYERS.items():
                shares[layer] += sum(record["layers"].get(n, {}).get("self_s", 0)
                                     for n in names)
        for part, shares in parts.items():
            for layer in shares:
                shares[layer] /= seconds[part]
        values["layer.dominant_is_predicted"] = int(all(
            max(shares, key=shares.get) == PREDICTED[part] for part, shares in parts.items()))
        return values, parts
