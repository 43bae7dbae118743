from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdg import cli, families
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


def loads(out):
    """The payload of a --json output, which must be laid out exactly as
    json.dumps(indent=2) lays it out."""
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    return payload


def test_realize_text_renders_reference_table(base_graph_file, capsys):
    code, out, _ = run(capsys, "realize", base_graph_file)
    assert code == 0
    assert "status: unique" in out
    assert "a1 | 0  0  0  0  a1" in out


def test_realize_json_schema(base_graph_file, capsys):
    code, out, _ = run(capsys, "realize", base_graph_file, "--json")
    assert code == 0
    payload = loads(out)
    jsonschema.validate(payload, _schema("realize"))
    assert payload["status"] == "unique"


def test_realize_none_is_success(tmp_path, capsys):
    path = tmp_path / "m43.zdg-graph"
    path.write_text(format_graph(families.m_nk(4, 3)))
    code, out, _ = run(capsys, "realize", str(path), "--json")
    assert code == 0
    assert loads(out)["status"] == "none"


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
    jsonschema.validate(loads(b), _schema("realize"))


def test_props_json_schema(base_graph_file, capsys):
    code, out, _ = run(capsys, "props", base_graph_file, "--json")
    assert code == 0
    payload = loads(out)
    jsonschema.validate(payload, _schema("props"))
    assert payload["diameter"] == 2


def test_boolean_ring_check_only(tmp_path, capsys):
    path = tmp_path / "p4.zdg-graph"
    path.write_text(format_graph(families.two_star(1, 1)))
    code, out, _ = run(capsys, "boolean-ring", str(path), "--check-only", "--json")
    assert code == 1
    jsonschema.validate(loads(out), _schema("conditions"))


def test_boolean_ring_emits_ring(tmp_path, capsys):
    path = tmp_path / "k2.zdg-graph"
    path.write_text(format_graph(families.complete(2)))
    ring_file = tmp_path / "out.zdg-ring"
    code, out, _ = run(
        capsys, "boolean-ring", str(path), "--emit-tables", str(ring_file), "--json"
    )
    assert code == 0
    jsonschema.validate(loads(out), _schema("boolean_ring"))
    assert ring_file.read_text().startswith("zdg-ring 1")


def test_boolean_ring_refuses_two_documents_on_stdout(tmp_path, capsys):
    # the ring file and the JSON document would share stdout, which is then
    # neither
    path = tmp_path / "k2.zdg-graph"
    path.write_text(format_graph(families.complete(2)))
    code, out, err = run(capsys, "boolean-ring", str(path), "--json", "--emit-tables", "-")
    assert code == 2 and out == ""
    assert err == "error: --json and --emit-tables - would both write to stdout\n"


def test_boolean_ring_writes_the_ring_once_to_stdout(tmp_path, capsys):
    # with --emit-tables - the ring file is stdout, so it is written there
    # once and nothing else is: stdout reads back as that ring
    from zdg.boolean_algebra import format_ring, parse_ring

    path = tmp_path / "k2.zdg-graph"
    path.write_text(format_graph(families.complete(2)))
    code, out, _ = run(capsys, "boolean-ring", str(path), "--emit-tables", "-")
    assert code == 0
    assert out.count("zdg-ring 1") == 1
    assert out == format_ring(parse_ring(out))


def test_boolean_ring_searches_once(tmp_path, capsys, monkeypatch):
    import zdg.boolean_algebra as BA

    calls = []
    search = BA.realize_all
    monkeypatch.setattr(BA, "realize_all", lambda *a, **k: calls.append(a) or search(*a, **k))
    path = tmp_path / "k2.zdg-graph"
    path.write_text(format_graph(families.complete(2)))
    code, out, _ = run(capsys, "boolean-ring", str(path), "--json")
    assert code == 0 and loads(out)["elements"] == 4
    assert len(calls) == 1


def test_family_fixture_pipeline(tmp_path, capsys):
    out_file = tmp_path / "fig4.zdg-graph"
    code, _, _ = run(capsys, "family", "fig4", "1", "1", "1", "-o", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "realize", str(out_file), "--json")
    assert code == 0
    assert loads(out)["labeled_count"] > 0

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
    payload = loads(out)
    jsonschema.validate(payload, _schema("theorems"))
    assert payload["counterexamples"] == 0

    code, out, _ = run(capsys, "theorems", "--sweep", base_graph_file)
    assert code == 0
    assert "counterexamples: 0" in out

    code, out, _ = run(capsys, "theorems", "--sweep", base_graph_file, "--json")
    assert code == 0
    payload = loads(out)
    jsonschema.validate(payload, _schema("theorems"))
    assert payload["counterexamples"] == 0 and payload["verdicts"]


def test_theorems_sweep_works_out_graph_facts_once_per_request(tmp_path, capsys, monkeypatch):
    import zdg.graph as G

    calls = []
    core = G.core
    monkeypatch.setattr(G, "core", lambda g: calls.append(g) or core(g))
    path = tmp_path / "p4.zdg-graph"
    path.write_text(format_graph(families.two_star(1, 1)))
    code, out, _ = run(capsys, "theorems", "--sweep", str(path), "--json")
    assert code == 0 and len(loads(out)["verdicts"]) > 20
    assert len(calls) == 1
    # nothing is kept for the next request
    code, _, _ = run(capsys, "theorems", "--sweep", str(path), "--json")
    assert code == 0 and len(calls) == 2


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
    assert loads(out)["status"] == "none"


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.sampled_from(["", '"', "\\", "\n\t\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600"]),
    # a list of ints and bools keeps the int-only fast path from taking bools
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.integers() | st.booleans(), max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(JSON_VALUES)
def test_dumps_matches_json_indent_2(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {"a": [0, 1.0]}, [None, (0,)], {1: 2}, {"a": {"b": set()}},
])
def test_dumps_refuses_what_no_payload_holds(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_requests_in_one_process_do_not_leak(tmp_path, capsys):
    # the parser is built once per process, so nothing one request sets may
    # reach the next
    from zdg.realize import PLAIN, realize_all

    path = tmp_path / "k3.zdg-graph"
    path.write_text(format_graph(families.complete(3)))
    code, out, _ = run(capsys, "realize", str(path), "--limit", "1", "--json")
    assert code == 0 and loads(out)["truncated"] is True
    code, out, _ = run(capsys, "realize", str(path), "--json")
    full = loads(out)
    assert code == 0 and full["truncated"] is False
    assert full["labeled_count"] == realize_all(families.complete(3), PLAIN).labeled_count > 1

    with pytest.raises(SystemExit) as exc:
        main(["realize", str(path), "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "props", str(path), "--json")
    assert code == 0 and loads(out)["n"] == 3

    table_file = tmp_path / "t5.zdg-table"
    run(capsys, "fixture", "5", "-o", str(table_file))
    code, out, _ = run(capsys, "theorems", "--sweep", str(path))
    assert code == 0 and "counterexamples: 0" in out
    code, out, _ = run(capsys, "theorems", str(table_file), "--json")
    assert code == 0 and loads(out)["counterexamples"] == 0
    # neither the table nor --sweep of the requests before is remembered
    code, _, err = run(capsys, "theorems")
    assert code == 2 and "exactly one" in err


def test_family_refuses_a_graph_its_reader_refuses(tmp_path, capsys):
    out_file = tmp_path / "big.zdg-graph"
    code, _, err = run(capsys, "family", "complete-multipartite", "65537", "-o", str(out_file))
    assert code == 2 and "65536" in err
    assert not out_file.exists()
