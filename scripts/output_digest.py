#!/usr/bin/env python3
"""One sha256 over the command line's answers to the benchmark corpus, so
that two checkouts can be shown to print byte-identical output.

    python3 scripts/output_digest.py [ROOT] [--seeds 0 1 2]

Imports zdg from ROOT/src (default: this checkout) and builds the requests
of both workloads from this checkout's perfbench/corpus.py, so that two
checkouts are compared on the same inputs.  Each request runs through
zdg.cli.main in JSON and in text mode, and each realize request also with
--limit 1 and --limit 3.  Each boolean-ring request also runs with
--check-only, in JSON and in text, and its graph through realize --boolean
--json with the request's --max-n.  Every graph input also runs through
props --json.  Every call adds its exit code, stdout and stderr to the
hash, in the order workloads, seeds, requests, variants.  Prints one line,
"<calls> calls, sha256 <hex>".  Run each checkout in a fresh interpreter:
the first zdg imported is the one used.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def variants(req) -> list[list[str]]:
    """The command lines of one request, "{input}" still standing for its
    input file."""
    args = list(req.args)
    out = [args, [a for a in args if a != "--json"]]
    if req.kind == "realize":
        out += [args + ["--limit", str(k)] for k in (1, 3)]
    if req.kind == "ring":
        check = args + ["--check-only"]
        out += [check, [a for a in check if a != "--json"]]
        cap = args[args.index("--max-n"):][:2] if "--max-n" in args else []
        out.append(["realize", "{input}", "--boolean", "--json", *cap])
    if req.kind != "table":
        out.append(["props", "{input}", "--json"])
    return out


def call(cli, argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the command line
            rc = exc.code
    return f"{rc}\0{out.getvalue()}\0{err.getvalue()}\0".encode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=str(HERE),
                        help="checkout whose src/zdg is run (default: this one)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)
    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE / "perfbench"))
    import corpus
    from zdg import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"zdg imported from {cli.__file__}, not from {src}")

    digest = hashlib.sha256()
    calls = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "input")
        for workload in corpus.WORKLOADS:
            for seed in sorted(args.seeds):
                for req in corpus.requests(workload, seed):
                    Path(path).write_text(req.subject.text())
                    for line in variants(req):
                        digest.update(call(cli, [path if a == "{input}" else a for a in line]))
                        calls += 1
    print(f"{calls} calls, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
