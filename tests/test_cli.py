from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

from zdg import families
from zdg.cli import main
from zdg.graph import format_graph

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def _schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


@pytest.fixture
def base_graph_file(tmp_path):
    path = tmp_path / "base.zdg-graph"
    path.write_text(format_graph(families.fixture_graph()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_realize_text_renders_reference_table(base_graph_file, capsys):
    code, out, _ = run(capsys, "realize", base_graph_file)
    assert code == 0
    assert "status: unique" in out
    assert "a1 | 0  0  0  0  a1" in out


def test_realize_json_schema(base_graph_file, capsys):
    code, out, _ = run(capsys, "realize", base_graph_file, "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("realize"))
    assert payload["status"] == "unique"


def test_realize_none_is_success(tmp_path, capsys):
    path = tmp_path / "m43.zdg-graph"
    path.write_text(format_graph(families.m_nk(4, 3)))
    code, out, _ = run(capsys, "realize", str(path), "--json")
    assert code == 0
    assert json.loads(out)["status"] == "none"


@pytest.mark.parametrize("flag", [
    ["realize", "--threads", "2"],
    ["realize", "--oracle"],
    ["props", "--max-n", "5"],
    ["oracle", "--max-n", "5"],
])
def test_realize_removed_flags_exit_2(base_graph_file, flag):
    command, *rest = flag
    with pytest.raises(SystemExit) as exc:
        main([command, base_graph_file, *rest])
    assert exc.value.code == 2


def test_oracle_agrees_with_realize(tmp_path, capsys):
    path = tmp_path / "k2.zdg-graph"
    path.write_text(format_graph(families.complete(2)))
    _, a, _ = run(capsys, "realize", str(path), "--json")
    _, b, _ = run(capsys, "oracle", str(path), "--json")
    assert a == b
    jsonschema.validate(json.loads(b), _schema("realize"))


def test_props_json_schema(base_graph_file, capsys):
    code, out, _ = run(capsys, "props", base_graph_file, "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("props"))
    assert payload["diameter"] == 2


def test_boolean_ring_check_only(tmp_path, capsys):
    path = tmp_path / "p4.zdg-graph"
    path.write_text(format_graph(families.two_star(1, 1)))
    code, out, _ = run(capsys, "boolean-ring", str(path), "--check-only", "--json")
    assert code == 1
    jsonschema.validate(json.loads(out), _schema("conditions"))


def test_boolean_ring_emits_ring(tmp_path, capsys):
    path = tmp_path / "k2.zdg-graph"
    path.write_text(format_graph(families.complete(2)))
    ring_file = tmp_path / "out.zdg-ring"
    code, out, _ = run(
        capsys, "boolean-ring", str(path), "--emit-tables", str(ring_file), "--json"
    )
    assert code == 0
    jsonschema.validate(json.loads(out), _schema("boolean_ring"))
    assert ring_file.read_text().startswith("zdg-ring 1")


def test_boolean_ring_searches_once(tmp_path, capsys, monkeypatch):
    import zdg.boolean_algebra as BA

    calls = []
    search = BA.realize_all
    monkeypatch.setattr(BA, "realize_all", lambda *a, **k: calls.append(a) or search(*a, **k))
    path = tmp_path / "k2.zdg-graph"
    path.write_text(format_graph(families.complete(2)))
    code, out, _ = run(capsys, "boolean-ring", str(path), "--json")
    assert code == 0 and json.loads(out)["elements"] == 4
    assert len(calls) == 1


def test_family_fixture_pipeline(tmp_path, capsys):
    out_file = tmp_path / "fig4.zdg-graph"
    code, _, _ = run(capsys, "family", "fig4", "1", "1", "1", "-o", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "realize", str(out_file), "--json")
    assert code == 0
    assert json.loads(out)["labeled_count"] > 0

    code, out, _ = run(capsys, "fixture", "5")
    assert code == 0
    assert out.startswith("zdg-table 1")


def test_family_errors(capsys):
    code, _, err = run(capsys, "family", "nosuch")
    assert code == 2 and "unknown family" in err
    code, _, err = run(capsys, "family", "complete")
    assert code == 2 and "parameter" in err


def test_theorems_table_and_sweep(tmp_path, base_graph_file, capsys):
    table_file = tmp_path / "t5.zdg-table"
    run(capsys, "fixture", "5", "-o", str(table_file))
    code, out, _ = run(capsys, "theorems", str(table_file), "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("theorems"))
    assert payload["counterexamples"] == 0

    code, out, _ = run(capsys, "theorems", "--sweep", base_graph_file)
    assert code == 0
    assert "counterexamples: 0" in out


def test_theorems_rejects_invalid_table(tmp_path, capsys):
    bad = tmp_path / "bad.zdg-table"
    bad.write_text("zdg-table 1\nn 2\n2 1\n1\n")  # (1*1)*2 != 1*(1*2)
    code, _, err = run(capsys, "theorems", str(bad))
    assert code == 2 and "axioms" in err
    # valid semigroup whose elements are not all zero divisors
    bad.write_text("zdg-table 1\nn 2\n1 2\n1\n")
    code, _, err = run(capsys, "theorems", str(bad))
    assert code == 2 and "zero divisor" in err


def test_file_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "realize", str(tmp_path / "missing.graph"))
    assert code == 2
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n")
    code, _, err = run(capsys, "realize", str(bad))
    assert code == 2 and "line 1" in err


def test_size_guard_exit_2(tmp_path, capsys):
    # paths this long exceed the diameter bound, so the search resolves
    # instantly once the size guard lets it run
    from zdg.graph import from_edge_list

    big = from_edge_list(13, [(i, i + 1) for i in range(12)])
    path = tmp_path / "big.zdg-graph"
    path.write_text(format_graph(big))
    code, _, err = run(capsys, "realize", str(path))
    assert code == 2 and "capped" in err
    code, out, _ = run(capsys, "realize", str(path), "--max-n", "13", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "none"


def test_theorems_requires_input(tmp_path, base_graph_file, capsys):
    code, _, err = run(capsys, "theorems")
    assert code == 2 and "exactly one" in err
    # a table next to --sweep would be ignored, so it is refused whether or
    # not it exists
    table_file = tmp_path / "t5.zdg-table"
    run(capsys, "fixture", "5", "-o", str(table_file))
    for table in (str(table_file), str(tmp_path / "missing.zdg-table")):
        code, out, err = run(capsys, "theorems", table, "--sweep", base_graph_file)
        assert code == 2 and out == "" and "exactly one" in err
