from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdg import cli, families, theorems
from zdg.cli import main
from zdg.graph import connected_graphs, format_graph
from zdg.realize import BOOLEAN, PLAIN, realize_all
from zdg.semigroup import format_table

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def _schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


@pytest.fixture
def base_graph_file(tmp_path):
    path = tmp_path / "base.zdg-graph"
    path.write_text(format_graph(families.fig1(0, 0)))
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


def test_realize_writes_every_report_byte_for_byte(tmp_path, capsys, monkeypatch,
                                                   connected_classes_upto_5):
    # the writer renders each table from its key through one template per
    # n; each output must be the standard encoder's text of the report the
    # command computed, which a wrapper records
    reports = []

    def recorded(search):
        return lambda *a, **k: reports.append(search(*a, **k)) or reports[-1]

    monkeypatch.setattr(cli.RZ, "realize_all", recorded(cli.RZ.realize_all))
    monkeypatch.setattr(cli.RZ, "brute_force_realize", recorded(cli.RZ.brute_force_realize))
    graphs = [g for n in range(1, 5) for g in connected_graphs(n)]
    graphs += [families.m_nk(4, 3), families.complete(5), families.m_nk(5, 1)]
    requests = []
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.zdg-graph"
        path.write_text(format_graph(g))
        for flags in ([], ["--boolean"]):
            for extra in ([], ["--limit", "1"], ["--limit", "3"]):
                requests.append(["realize", str(path), *flags, *extra, "--json"])
    # the brute-force oracle takes about 30 ms a graph on 4 vertices, so it
    # runs on one graph per isomorphism class
    for i, g in enumerate(h for h in connected_classes_upto_5 if h.n <= 4):
        path = tmp_path / f"c{i}.zdg-graph"
        path.write_text(format_graph(g))
        for flags in ([], ["--boolean"]):
            requests.append(["oracle", str(path), *flags, "--json"])

    for argv in requests:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(reports[-1].to_dict(), indent=2) + "\n", argv

    assert len(reports) == len(requests)
    assert {1, 2, 3, 4, 5} <= {report.n for report in reports}
    assert any(not report.keys for report in reports)  # m-nk 4 3 has no table
    assert any(report.truncated for report in reports)


def test_props_json_schema(base_graph_file, capsys):
    code, out, _ = run(capsys, "props", base_graph_file, "--json")
    assert code == 0
    payload = loads(out)
    jsonschema.validate(payload, _schema("props"))
    assert payload["diameter"] == 2


def test_props_of_the_empty_graph(tmp_path, capsys):
    # n = 0: no diameter, so not connected, and every neighbourhood
    # condition holds vacuously
    path = tmp_path / "empty.zdg-graph"
    path.write_text("zdg-graph 1\nn 0\n")
    code, out, err = run(capsys, "props", str(path), "--json")
    assert (code, err) == (0, "")
    payload = loads(out)
    jsonschema.validate(payload, _schema("props"))
    assert payload == {
        "n": 0,
        "connected": False,
        "diameter": None,
        "has_cycle": False,
        "core_vertices": [],
        "core_edges": [],
        "end_vertices": [],
        "uniquely_determined": True,
        "complemented": True,
        "uniquely_complemented": True,
        "meet_closed": True,
    }


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


def _written(verdicts, as_json):
    """What ``zdg theorems`` wrote for these verdicts when it built the
    whole payload and printed it, or printed one line per verdict."""
    counter = sum(v.is_counterexample for v in verdicts)
    if as_json:
        return json.dumps({"verdicts": [v.to_dict() for v in verdicts],
                           "counterexamples": counter}, indent=2) + "\n"
    lines = []
    for v in verdicts:
        if v.is_counterexample:
            tag = "COUNTEREXAMPLE"
        elif not v.hypotheses_met:
            tag = "n/a"
        else:
            tag = "ok"
        line = f"[{tag}] {v.instance}"
        if v.witness:
            line += f" ({v.witness})"
        lines.append(line + "\n")
    return "".join(lines) + f"counterexamples: {counter}\n"


def test_theorems_writes_every_verdict_byte_for_byte(tmp_path, capsys, fixture_tables):
    # the writer renders each distinct verdict once per request; a memo
    # keyed by the instance name alone would repeat a verdict that another
    # table of the same request settles differently
    graphs = [g for n in range(1, 5) for g in connected_graphs(n)]
    graphs += [families.m_nk(4, 3), families.fig1(0, 1)]
    requests = []
    for g in graphs:
        path = tmp_path / f"g{len(requests)}.zdg-graph"
        path.write_text(format_graph(g))
        for mode, flags in ((PLAIN, []), (BOOLEAN, ["--boolean"])):
            verdicts = [v for t in realize_all(g, mode).tables for v in theorems.all_verdicts(t)]
            requests.append((["--sweep", str(path), *flags], verdicts))
    for k, t in fixture_tables.items():
        path = tmp_path / f"t{k}.zdg-table"
        path.write_text(format_table(t))
        requests.append(([str(path)], theorems.all_verdicts(t)))

    for argv, verdicts in requests:
        for as_json in (False, True):
            code, out, err = run(capsys, "theorems", *argv, *(["--json"] * as_json))
            assert (code, err) == (0, "")
            assert out == _written(verdicts, as_json), argv

    assert any(not verdicts for _, verdicts in requests)  # m-nk 4 3 has no table
    two_verdicts_one_name = False
    for _, verdicts in requests:
        by_name = {}
        for v in verdicts:
            by_name.setdefault((v.theorem, v.instance), set()).add(v)
        two_verdicts_one_name |= any(len(vs) > 1 for vs in by_name.values())
    assert two_verdicts_one_name


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


def test_theorems_writes_a_counterexample_line(tmp_path, capsys, monkeypatch):
    # no semigroup refutes a theorem, so the verifiers are replaced by one
    # that reports a refutation
    path = tmp_path / "zero.zdg-table"
    path.write_text("zdg-table 1\nn 0\n")
    refuted = theorems.TheoremVerdict("thm_2_1", "thm_2_1(x=1)", True, False, "1*1=1")
    monkeypatch.setattr(cli.TH, "all_verdicts", lambda t: [refuted])
    code, out, err = run(capsys, "theorems", str(path))
    assert (code, err) == (1, "")
    assert out == "[COUNTEREXAMPLE] thm_2_1(x=1) (1*1=1)\ncounterexamples: 1\n"


def test_theorems_counts_each_counterexample_where_it_occurs(tmp_path, capsys, monkeypatch):
    # the writer renders each verdict object once, but a counterexample
    # counts at each place it occurs: one object twice and an equal copy
    # of it are three
    path = tmp_path / "zero.zdg-table"
    path.write_text("zdg-table 1\nn 0\n")
    refuted = theorems.TheoremVerdict("thm_2_1", "thm_2_1(x=1)", True, False, "1*1=1")
    copy = dataclasses.replace(refuted)
    holds = theorems.TheoremVerdict("thm_3_2", "thm_3_2", True, True)
    verdicts = [refuted, holds, refuted, copy]
    assert copy == refuted and copy is not refuted
    monkeypatch.setattr(cli.TH, "all_verdicts", lambda t: verdicts)
    code, out, err = run(capsys, "theorems", str(path))
    assert (code, err) == (1, "") and out == _written(verdicts, False)
    assert out.count("[COUNTEREXAMPLE]") == 3 and out.endswith("\ncounterexamples: 3\n")
    code, out, err = run(capsys, "theorems", str(path), "--json")
    assert (code, err) == (1, "") and out == _written(verdicts, True)
    assert loads(out)["counterexamples"] == 3


def test_graph_read_from_stdin(base_graph_file, capsys, monkeypatch):
    code, want, _ = run(capsys, "realize", base_graph_file, "--json")
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(base_graph_file).read_text()))
    assert run(capsys, "realize", "-", "--json") == (code, want, "")


def test_theorems_on_the_zero_semigroup(tmp_path, capsys):
    # {0} is a semigroup whose graph has no vertex: no maximal degree, so
    # the maximal-degree claim does not apply; the others are checked as usual
    path = tmp_path / "zero.zdg-table"
    path.write_text("zdg-table 1\nn 0\n")
    code, out, err = run(capsys, "theorems", str(path))
    assert code == 0 and err == ""
    assert "[n/a] prop_2_10(m=0, candidates=[])" in out.splitlines()
    assert out.endswith("counterexamples: 0\n")


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
    part = loads(out)
    assert code == 0 and part["truncated"] is True and part["status"] == "unknown"
    jsonschema.validate(part, _schema("realize"))
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
