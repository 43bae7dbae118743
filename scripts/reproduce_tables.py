#!/usr/bin/env python3
"""Re-derive the five reference tables from their graphs alone and render
them side by side with the bundled fixtures."""

from __future__ import annotations

import time

from zdg import families
from zdg.realize import canonical_key, realize_all
from zdg.semigroup import render_table, zero_divisor_graph

CASES = [
    ("square plus triangle", families.fig1(0, 0), 1),
    ("two pendants on a2", families.fig1(0, 2), 2),
    ("two pendants on each hub", families.fig1(2, 2), 3),
    ("triangle, two pendants per corner", families.fig4(2, 2, 2), 4),
]


def main():
    for label, g, k in CASES:
        start = time.monotonic()
        report = realize_all(g)
        elapsed = time.monotonic() - start
        fixture = families.fixture_table(k)
        hit = report.keys.index(canonical_key(fixture))
        print(f"== {label}: {report.labeled_count} labeled tables, "
              f"{report.iso_class_count} classes, {elapsed:.2f}s")
        print(f"   fixture {k} is table #{hit + 1} of the enumeration:")
        print(render_table(fixture, names=g.names))

    t5 = families.fixture_table(5)
    g5 = zero_divisor_graph(t5, names=("a1", "a2", "a3", "x1"))
    report = realize_all(g5)
    print(f"== pendant triangle: {report.labeled_count} labeled tables; "
          f"fixture 5 present: {canonical_key(t5) in report.keys}")
    print(render_table(t5, names=g5.names))


if __name__ == "__main__":
    main()
