#!/usr/bin/env python3
"""Time two checkouts of zdg against each other in one process, on the
requests of one benchmark workload.

    python3 scripts/ab_compare.py ROOT_A ROOT_B --workload realize --rounds 20

Imports zdg from ROOT_A/src and from ROOT_B/src, each under its own module
objects, and builds the workload's requests (seed 0 unless --seed) from this
checkout's perfbench/corpus.py, so both trees see the same inputs.  After
one untimed pass per tree, whose outputs are compared, each
round runs one pass over the requests for each tree, A then B in even rounds
and B then A in odd ones, so a slow stretch of a shared host falls on both.
Each request is timed at its fastest over the rounds, as perfbench/run.py
times it.  Prints, per tree, the sum of those fastest times and the hardest
request; then B's sum over A's, and whether every request printed the same
exit code and output on both trees; then, one line per request, its fastest
time on each tree and B's over A's.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent.parent


def load(root: Path) -> dict:
    """The zdg modules of root/src, imported afresh."""
    src = str(root.resolve() / "src")
    for name in [m for m in sys.modules if m == "zdg" or m.startswith("zdg.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        from zdg import cli
    finally:
        sys.path.remove(src)
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"zdg imported from {cli.__file__}, not from {src}")
    return {m: mod for m, mod in sys.modules.items() if m == "zdg" or m.startswith("zdg.")}


def one_pass(modules: dict, argvs, fastest: list) -> list:
    """Run every request once with the given zdg modules, keeping each
    request's fastest time; returns the exit codes and outputs."""
    sys.modules.update(modules)
    main = modules["zdg.cli"].main
    outputs = []
    for k, argv in enumerate(argvs):
        out = io.StringIO()
        gc.collect()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = main(argv)
        fastest[k] = min(fastest[k], perf_counter() - start)
        outputs.append((rc, out.getvalue()))
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root_a", type=Path)
    parser.add_argument("root_b", type=Path)
    parser.add_argument("--workload", default="realize")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE / "perfbench"))
    import corpus
    if args.workload not in corpus.WORKLOADS or args.rounds < 1:
        parser.error(f"--workload must be one of {', '.join(corpus.WORKLOADS)}, "
                     "--rounds at least 1")
    trees = [load(args.root_a), load(args.root_b)]
    requests = corpus.requests(args.workload, args.seed)
    fastest = [[float("inf")] * len(requests) for _ in trees]
    with tempfile.TemporaryDirectory() as tmp:
        argvs = []
        for k, req in enumerate(requests):
            path = Path(tmp) / f"in-{k}.txt"
            path.write_text(req.subject.text())
            argvs.append([str(path) if a == "{input}" else a for a in req.args])
        # an untimed pass per tree first, so that neither pays the warm-up
        outputs = [one_pass(tree, argvs, [0.0] * len(argvs)) for tree in trees]
        for r in range(args.rounds):
            for t in (0, 1) if r % 2 == 0 else (1, 0):
                one_pass(trees[t], argvs, fastest[t])
    total = [sum(times) for times in fastest]
    for label, root, times, wall in zip("AB", (args.root_a, args.root_b), fastest, total):
        hard = max(range(len(times)), key=times.__getitem__)
        print(f"{label} {root}: {wall:.4f} s summed fastest; hardest "
              f"{requests[hard].instance} {times[hard]:.4f} s")
    same = "yes" if outputs[0] == outputs[1] else "no"
    print(f"{args.workload}: {len(requests)} requests, {args.rounds} rounds; "
          f"B/A {total[1] / total[0]:.3f}; outputs identical: {same}")
    for req, a, b in zip(requests, *fastest):
        print(f"{req.instance}: A {a * 1e3:.3f} ms, B {b * 1e3:.3f} ms, B/A {b / a:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
