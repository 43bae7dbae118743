#!/usr/bin/env python3
"""Census of realization counts for every connected graph on up to four
vertices, cross-checked against the brute-force oracle, with one row per
isomorphism class."""

from __future__ import annotations

from zdg.graph import automorphisms, connected_graphs, is_isomorphic
from zdg.realize import brute_force_realize, realize_all


def iso_representatives(graphs):
    reps = []
    for g in graphs:
        if not any(is_isomorphic(g, h) for h in reps):
            reps.append(g)
    return reps


def main():
    print(f"{'n':>2} {'edges':<22} {'plain':>12} {'boolean':>12} {'|Aut|':>6}")
    total = 0
    for n in range(1, 5):
        for g in iso_representatives(connected_graphs(n)):
            plain = realize_all(g)
            boolean = realize_all(g, "boolean")
            assert plain.to_dict() == brute_force_realize(g).to_dict()
            assert boolean.to_dict() == brute_force_realize(g, "boolean").to_dict()
            total += 1
            fmt = lambda r: f"{r.labeled_count}/{r.iso_class_count}"
            print(f"{n:>2} {str(g.edges()):<22} {fmt(plain):>12} "
                  f"{fmt(boolean):>12} {len(automorphisms(g)):>6}")
    print(f"{total} isomorphism classes, engine and oracle agree on all "
          f"(counts shown as labeled/classes)")


if __name__ == "__main__":
    main()
