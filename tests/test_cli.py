import contextlib
import io
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explorelab import (
    FamilyParams,
    LabeledGraph,
    LollipopParams,
    build_family_graph,
    build_lollipop,
)
from explorelab.cli import main


def test_gen_and_validate_family(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gen", "--family", "4,8,7", "--seed", "2", "--out", str(out)]) == 0
    expected, _ = build_family_graph(FamilyParams(4, 8, 7), seed=2)
    assert LabeledGraph.from_json(out.read_text()) == expected
    assert main(["validate", "--family", "4,8,7", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True


def test_validate_rejects_corruption(tmp_path, capsys):
    out = tmp_path / "g.json"
    main(["gen", "--family", "4,8,7", "--out", str(out)])
    g = LabeledGraph.from_json(out.read_text())
    u, v = next(iter(g.edges())), None
    a, b = u
    broken = g.replace_ports(
        {
            a: [x for x in g.neighbors(a) if x != b],
            b: [x for x in g.neighbors(b) if x != a],
        }
    )
    out.write_text(broken.to_json())
    assert main(["validate", "--family", "4,8,7", str(out)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["violations"]
    del v


def test_validate_reports_unknown_neighbor(tmp_path, capsys):
    # every label kept, one port of node 1 names a label with no row
    g, _ = build_family_graph(FamilyParams(3, 8, 6))
    row = list(g.neighbors(1))
    row[0] = 9999
    out = tmp_path / "g.json"
    out.write_text(g.replace_ports({1: row}).to_json())
    assert main(["validate", "--family", "3,8,6", str(out)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "unknown-neighbor" in {v["code"] for v in report["violations"]}


def test_gen_lollipop_and_run(tmp_path, capsys):
    out = tmp_path / "lolli.json"
    assert main(["gen", "--lollipop", "1,2,1", "--out", str(out)]) == 0
    rep = tmp_path / "report.json"
    code = main(
        [
            "run",
            "--instance",
            str(out),
            "--source",
            "0",
            "--alpha",
            "1",
            "--policy",
            "fuel-cautious",
            "--monitors",
            "fuel,completion",
            "--report",
            str(rep),
        ]
    )
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["complete"] is True
    assert report["violations"] == []
    assert report["penalty"] >= 98


def test_gen_lollipop_writes_library_graph(tmp_path):
    out = tmp_path / "lolli.json"
    assert main(["gen", "--lollipop", "2,2,1", "--seed", "5", "--out", str(out)]) == 0
    graph, _ = build_lollipop(LollipopParams(2, 2, 1), 5)
    assert out.read_text() == graph.to_json() + "\n"


def test_gen_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["gen", "--family", "10,16,6", "--seed", "7", "--out", str(a)])
    main(["gen", "--family", "10,16,6", "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_adversary_merge_pipeline(tmp_path, capsys):
    final = tmp_path / "final.json"
    audit = tmp_path / "audit.json"
    code = main(
        [
            "adversary",
            "--r",
            "6",
            "--alpha",
            "0.5",
            "--k",
            "1",
            "--policy",
            "cautious-bfs",
            "--seed",
            "0",
            "--out",
            str(final),
            "--audit",
            str(audit),
            "--strict",
        ]
    )
    assert code == 0
    audit_doc = json.loads(audit.read_text())
    assert audit_doc["flags"] == []
    assert audit_doc["entries"]
    assert main(["validate", "--family", "10,16,6", str(final)]) == 0
    capsys.readouterr()

    merged = tmp_path / "merged.json"
    plan = tmp_path / "plan.json"
    code = main(
        [
            "merge",
            "--in",
            str(final),
            "--k",
            "1",
            "--alpha",
            "0.5",
            "--out",
            str(merged),
            "--plan",
            str(plan),
        ]
    )
    assert code == 0
    g = LabeledGraph.from_json(merged.read_text())
    assert len(g) == 173
    plan_doc = json.loads(plan.read_text())
    assert set(plan_doc["merged_even"]) == {"1", "2", "3", "4"}


def test_run_reports_layer_stats(tmp_path, capsys):
    out = tmp_path / "g.json"
    main(["gen", "--family", "10,16,6", "--out", str(out)])
    code = main(
        [
            "run",
            "--instance",
            str(out),
            "--alpha",
            "0.5",
            "--policy",
            "cautious-bfs",
            "--monitors",
            "distance,completion",
            "--family",
            "10,16,6",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["complete"] is True
    assert report["first_gadget_step"] is not None
    assert set(report["layer_traversals"]) == {str(i) for i in range(1, 10)}
    assert "penalty_before_gadget" in report


def test_experiment_fuel_csv(tmp_path):
    csv_path = tmp_path / "fuel.csv"
    code = main(
        ["experiment", "--variant", "fuel", "--k", "1", "--csv", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("k,|V|,|V'|")
    assert lines[1].split(",")[1] == "28"


def test_cli_error_paths(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "x.json")]) == 2
    assert (
        main(
            [
                "gen",
                "--family",
                "1,8,7",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        == 2
    )
    assert main(["gen", "--family", "a,b,c", "--out", str(tmp_path / "x.json")]) == 2
    assert main(["validate", "--family", "4,8,7", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_adversary_strict_flags_invalid_policy(tmp_path, capsys):
    # dfs does not respect the return cap, so the behavioral monitors flag it
    final = tmp_path / "dfs_final.json"
    code = main(
        [
            "adversary",
            "--r",
            "6",
            "--alpha",
            "0.5",
            "--k",
            "1",
            "--policy",
            "dfs",
            "--out",
            str(final),
            "--strict",
        ]
    )
    assert code == 1
    assert main(["validate", "--family", "10,16,6", str(final)]) == 0
    capsys.readouterr()


# graph file text -> what its one-line error names
MALFORMED = {
    "dangling": (LabeledGraph({0: [1], 1: []}).to_json(), "asymmetric-edge"),
    "asymmetric": (LabeledGraph({0: [1], 1: [0, 2], 2: [0]}).to_json(), "asymmetric-edge"),
    # label 1.7 must not load as label 1
    "float-label": (
        '{"nodes":[{"label":0,"ports":[1]},{"label":1.7,"ports":[0]}]}',
        "malformed graph JSON",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["run", "merge"])
def test_malformed_graph_file_is_a_one_line_error(tmp_path, capsys, name, command):
    text, named = MALFORMED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    if command == "run":
        argv = ["run", "--instance", str(path), "--alpha", "1"]
    else:
        out = tmp_path / "merged.json"
        argv = ["merge", "--in", str(path), "--k", "1", "--alpha", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and str(path) in err
    assert named in err
    assert "Traceback" not in err


SMALL_INTS = st.integers(-1, 4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL_INTS | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def graph_files(draw):
    """The JSON object of a graph file: the rows of a simple graph on labels
    -1..4, often consistently labeled, with at most one label or row
    replaced by an arbitrary JSON value."""
    rows = {}
    for a, b in draw(st.sets(st.tuples(SMALL_INTS, SMALL_INTS), max_size=7)):
        if a != b and b not in rows.get(a, ()):
            rows.setdefault(a, []).append(b)
            rows.setdefault(b, []).append(a)
    nodes = [{"label": v, "ports": row} for v, row in rows.items()]
    if nodes and draw(st.booleans()):
        draw(st.sampled_from(nodes))[draw(st.sampled_from(["label", "ports"]))] = draw(JSON_VALUES)
    return {"nodes": nodes}


@given(JSON_VALUES | graph_files())
@settings(max_examples=200, deadline=None)
def test_run_on_any_json_graph_file_exits_cleanly(value):
    # a graph file holding any JSON value runs (exit 0) or is refused in one
    # line (exit 2); main never lets an exception out
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/g.json"
        with open(path, "w") as fh:
            json.dump(value, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--instance", path, "--alpha", "1"])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
