#!/usr/bin/env python3
"""End-to-end boolean pipeline demo: start from the zero-divisor graph of a
bit-vector ring, recognize it, rebuild the ring, and confirm the round trip
up to isomorphism."""

from __future__ import annotations

import sys
import time

from zdg import families
from zdg.boolean_algebra import (
    check_boolean_graph_conditions,
    format_ring,
    ring_from_realization,
    ring_isomorphic,
    ring_zero_divisor_graph,
)


def main():
    k = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    reference = families.f2k_ring(k)
    g = ring_zero_divisor_graph(reference)
    print(f"zero-divisor graph of the {2 ** k}-element bit-vector ring: "
          f"{g.n} vertices, {g.edge_count()} edges")

    report = check_boolean_graph_conditions(g, max_n=14)
    for key, value in report.to_dict().items():
        print(f"  {key}: {value}")

    start = time.monotonic()
    ring = ring_from_realization(g, report.realization)
    iso = ring_isomorphic(ring, reference)
    print(f"reconstructed ring with {ring.size} elements in "
          f"{time.monotonic() - start:.2f}s; isomorphic to the reference: "
          f"{iso is not None}")
    print(format_ring(ring))


if __name__ == "__main__":
    main()
