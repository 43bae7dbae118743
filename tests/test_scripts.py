"""Smoke test: each script under scripts/ runs in process and prints its
headline results."""

from __future__ import annotations

import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "name, lines",
    [
        (
            "reproduce_tables.py",
            [
                "== triangle, two pendants per corner: 216 labeled tables, 10 classes",
                "== pendant triangle: 36 labeled tables; fixture 5 present: True",
            ],
        ),
        (
            "census_small_graphs.py",
            ["10 isomorphism classes, engine and oracle agree on all"],
        ),
        (
            "boolean_ring_demo.py",
            ["reconstructed ring with 8 elements", "isomorphic to the reference: True"],
        ),
    ],
)
def test_script_runs(name, lines, monkeypatch, capsys):
    path = str(SCRIPTS / name)
    monkeypatch.setattr(sys, "argv", [path])
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    out = capsys.readouterr().out
    for line in lines:
        assert line in out


def test_output_digest_prints_one_line(monkeypatch, capsys):
    path = str(SCRIPTS / "output_digest.py")
    monkeypatch.setattr(sys, "argv", [path, "--seeds", "0"])
    monkeypatch.setattr(sys, "path", list(sys.path))
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    out = capsys.readouterr().out
    assert re.fullmatch(r"\d+ calls, sha256 [0-9a-f]{64}\n", out), out


def test_output_digest_is_pinned(monkeypatch, capsys):
    # the CLI's answers to the benchmark corpus, seeds 0-2; a change that
    # alters the output on purpose re-pins this line
    path = str(SCRIPTS / "output_digest.py")
    monkeypatch.setattr(sys, "argv", [path, "--seeds", "0", "1", "2"])
    monkeypatch.setattr(sys, "path", list(sys.path))
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    assert capsys.readouterr().out == (
        "942 calls, sha256 "
        "df61168ddd4e4fb4e0e7a7c6e78804e78b035faf3a83ff374ad4e3b2049cfaf3\n"
    )
