"""Benchmark of the zdg command line: realize, theorems --sweep and
boolean-ring on fixed corpora, one request at a time, in process.

    python3 perfbench/run.py --workload realize --seed 1 --seconds 55 --trace 0

Set-up imports ``zdg`` from ``src/`` next to this directory, builds the
workload's corpus from the seed and writes its input files; it is repeated
and its median reported as ``setup_s``.  Then requests go through
``zdg.cli.main([..., "--json"])`` with stdout captured to memory, in passes
over the corpus, until ``--seconds`` have passed (at least one full pass).
Each request is timed at its fastest over the run: on a shared host the
processor's speed swings by up to 1.7x, for milliseconds to tens of seconds
at a time, so the median of a request depends on when the run happened,
while its fastest sample, out of many, is the one least slowed by other
tenants.  ``wall_s`` sums these over the corpus and ``hard_req_s`` is the
largest of them.  Every distinct answer is checked after the timed passes by
``check.py``.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` one more pass runs with the layers wrapped (``spans.py``) and
the last line reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import check
import corpus
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21


class Outcomes:
    """Distinct answers per request, saved to disk for the gate so they
    neither sit in memory during the timed passes nor count toward its peak."""

    def __init__(self, work: Path, n: int):
        self.work = work
        self.seen = [dict() for _ in range(n)]  # digest -> [rc, path, executions]
        self.attempted = 0

    def add(self, index: int, rc, text: str):
        self.attempted += 1
        digest = hashlib.sha256(f"{rc}\0{text}".encode()).hexdigest()
        entry = self.seen[index].get(digest)
        if entry is None:
            path = self.work / f"out-{index}-{len(self.seen[index])}.json"
            path.write_text(text)
            entry = self.seen[index][digest] = [rc, path, 0]
        entry[2] += 1

    def failures(self, requests) -> tuple[int, list[str]]:
        failed, reasons = 0, []
        for req, seen in zip(requests, self.seen):
            for rc, path, executions in seen.values():
                reason = rc if isinstance(rc, str) else check.check(req, rc, path.read_text())
                if reason is not None:
                    failed += executions
                    reasons.append(f"{req.instance}: {reason}")
        return failed, reasons


def setup(workload: str, seed: int, work: Path):
    """Import zdg afresh, build the corpus and write its input files."""
    for name in [m for m in sys.modules if m == "zdg" or m.startswith("zdg.")]:
        del sys.modules[name]
    cli = importlib.import_module("zdg.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"zdg imported from {cli.__file__}, not from {SRC}")
    requests = corpus.requests(workload, seed)
    argvs = []
    for i, req in enumerate(requests):
        path = work / f"in-{i}.txt"
        path.write_text(req.subject.text())
        argvs.append([str(path) if a == "{input}" else a for a in req.args])
    return cli, requests, argvs


def call(cli, argv):
    """One request; returns latency, exit code (or the exception) and stdout."""
    out = io.StringIO()
    gc.collect()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the command line
        rc = f"exited with {exc.code!r}"
    except Exception as exc:  # a crash is a failed request, not a failed run
        rc = f"raised {exc!r}"
    return perf_counter() - start, rc, out.getvalue()


def timed_passes(cli, argvs, seconds: float, outcomes: Outcomes):
    """Per-request latency samples from passes over the corpus: one full
    pass, then more until the next request would, going by its last
    latency, end past the deadline."""
    samples = [[] for _ in argvs]
    deadline = perf_counter() + seconds
    i = 0
    while i < len(argvs) or perf_counter() + samples[i % len(argvs)][-1] <= deadline:
        k = i % len(argvs)
        latency, rc, text = call(cli, argvs[k])
        samples[k].append(latency)
        outcomes.add(k, rc, text)
        i += 1
    return samples


def traced_pass(cli, requests, argvs, outcomes: Outcomes, tracer: spans.Tracer):
    """One pass with the layers wrapped; returns its wall time and the
    per-request span totals."""
    records, total = [], 0.0
    tracer.install()
    try:
        for i, (req, argv) in enumerate(zip(requests, argvs)):
            before = tracer.snapshot()
            latency, rc, text = call(cli, argv)
            outcomes.add(i, rc, text)
            total += latency
            after = tracer.snapshot()
            records.append({
                "request": i, "part": req.part, "instance": req.instance, "seconds": latency,
                "layers": {name: {k: v - before[name][k] for k, v in stat.items()}
                           for name, stat in after.items()
                           if stat["calls"] != before[name]["calls"]},
            })
    finally:
        tracer.uninstall()
    return total, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zdg" / "cli.py").is_file():
        print(f"error: no zdg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli, requests, argvs = setup(args.workload, args.seed, work)
        setups.append(perf_counter() - start)

    outcomes = Outcomes(work, len(requests))
    samples = timed_passes(cli, argvs, args.seconds, outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fastest = [min(s) for s in samples]
    hardest = max(range(len(fastest)), key=fastest.__getitem__)
    wall_s = sum(fastest)

    if args.trace:
        tracer = spans.Tracer()
        traced_s, records = traced_pass(cli, requests, argvs, outcomes, tracer)
        values, parts = tracer.metrics(records, traced_s, wall_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.METRICS}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": traced_s,
             "totals": tracer.stats, "requests": records}, indent=1))
        for part, shares in parts.items():
            for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
                print(f"{part:9s} layer {layer:14s} {share:7.1%} of traced time")
            dominant = max(shares, key=shares.get)
            print(f"{part:9s} dominant layer: {dominant} "
                  f"(predicted {spans.PREDICTED[part]})")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "hard_req_s": {"value": fastest[hardest], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")

    failed, reasons = outcomes.failures(requests)
    for reason in reasons:
        print(f"FAILED {reason}")
    print(f"{args.workload}: {len(requests)} requests, {min(map(len, samples))} to "
          f"{max(map(len, samples))} timed samples each; "
          f"hardest: {requests[hardest].instance}")
    print(f"fail_frac {failed / outcomes.attempted:g} ({failed}/{outcomes.attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": outcomes.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
