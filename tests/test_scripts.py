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


def test_boolean_ring_demo_refuses_a_ring_past_the_isomorphism_cap(monkeypatch, capsys):
    # k = 5 realizes its 30-vertex graph, but its 32-element ring is over the
    # 16 elements ring_isomorphic compares
    path = str(SCRIPTS / "boolean_ring_demo.py")
    monkeypatch.setattr(sys, "argv", [path, "5"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(path, run_name="__main__")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage: boolean_ring_demo.py [k], k = 2..4\n"


def test_ab_compare_runs_one_round(monkeypatch, capsys):
    # this checkout against itself: the outputs must agree
    path = str(SCRIPTS / "ab_compare.py")
    root = str(SCRIPTS.parent)
    monkeypatch.setattr(sys, "argv", [path, root, root, "--workload", "realize", "--rounds", "1"])
    monkeypatch.setattr(sys, "path", list(sys.path))
    # the script imports zdg afresh; the rest of the suite keeps the modules
    # it imported
    ours = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "zdg"}
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "zdg"]:
            del sys.modules[name]
        sys.modules.update(ours)
    lines = capsys.readouterr().out.splitlines()
    assert [line[:2] for line in lines[:2]] == ["A ", "B "]
    assert "hardest realize " in lines[0]
    assert re.fullmatch(r"realize: \d+ requests, 1 rounds; B/A [\d.]+; outputs identical: yes",
                        lines[2]), lines
    assert re.fullmatch(r"realize complete 5: A [\d.]+ ms, B [\d.]+ ms, B/A [\d.]+", lines[3]), lines


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
