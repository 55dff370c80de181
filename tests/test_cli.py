import contextlib
import io
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explorelab import FamilyMeta, FamilyParams, build_family_graph, merge_gadgets
from explorelab.cli import main
from explorelab.family import LollipopParams, build_lollipop
from explorelab.graph import LabeledGraph


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


def test_run_on_disconnected_graph_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(LabeledGraph({0: [1], 1: [0], 2: [3], 3: [2]}).to_json())
    assert main(["run", "--instance", str(path), "--alpha", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: eccentricity undefined: graph is not connected\n"


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
            "--alpha",
            "0.5",
            "--out",
            str(merged),
            "--plan",
            str(plan),
        ]
    )
    assert code == 0
    # the merge reads k = 1 off the graph's width
    graph = LabeledGraph.from_json(final.read_text())
    expected, _ = merge_gadgets(graph, FamilyMeta(FamilyParams(10, 16, 6)), 1)
    assert merged.read_text() == expected.to_json() + "\n"
    assert len(expected) == 173
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


@pytest.mark.parametrize(
    "made, claimed",
    [(["--family", "2,16,6"], "3,16,6"), (["--lollipop", "1,2,1"], "2,16,6")],
    ids=["other-family", "lollipop"],
)
def test_run_refuses_a_family_the_graph_is_not_a_member_of(tmp_path, capsys, made, claimed):
    # gadget statistics from a layout the graph does not have would be wrong
    path = tmp_path / "g.json"
    assert main(["gen", *made, "--out", str(path)]) == 0
    assert main(["run", "--instance", str(path), "--alpha", "1", "--family", claimed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {path} is not a member of family {claimed}: [")


def test_experiment_fuel_csv(tmp_path):
    csv_path = tmp_path / "fuel.csv"
    code = main(
        ["experiment", "--variant", "fuel", "--k", "1", "--csv", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("k,|V|,|V'|")
    assert lines[1].split(",")[1] == "28"


@pytest.mark.parametrize("observe, code", [(False, 1), (True, 0)])
def test_experiment_is_strict_unless_observing(tmp_path, capsys, observe, code):
    # dfs ignores the return cap, so its distance row fails its checks
    argv = ["experiment", "--variant", "distance", "--policy", "dfs", "--k", "1"]
    argv += ["--csv", str(tmp_path / "d.csv")]
    if observe:
        argv.append("--observe")
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("FAIL k=1: ")
    assert all(line.startswith("FAIL ") for line in err.splitlines())


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


@pytest.mark.parametrize(
    "command",
    [
        ["adversary", "--r", "6", "--alpha", "0", "--k", "1", "--policy", "dfs"],
        ["adversary", "--r", "6", "--alpha", "-1", "--k", "1", "--policy", "dfs"],
        ["merge", "--alpha", "-3"],
    ],
)
def test_non_positive_alpha_is_refused_by_name(tmp_path, capsys, command):
    member = tmp_path / "member.json"
    member.write_text(build_family_graph(FamilyParams(10, 16, 6))[0].to_json())
    if command[0] == "merge":
        command = command + ["--in", str(member)]
    assert main(command + ["--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: alpha must be positive, got {command[command.index('--alpha') + 1]}\n"
    assert not (tmp_path / "out.json").exists()


# graph file text -> what its one-line error names
MALFORMED = {
    "dangling": (LabeledGraph({0: [1], 1: []}).to_json(), "asymmetric-edge"),
    "asymmetric": (LabeledGraph({0: [1], 1: [0, 2], 2: [0]}).to_json(), "asymmetric-edge"),
    # label 1.7 must not load as label 1
    "float-label": (
        '{"nodes":[{"label":0,"ports":[1]},{"label":1.7,"ports":[0]}]}',
        "malformed graph JSON",
    ),
    # the last row for label 1 alone would make a consistent graph
    "duplicate-label": (
        '{"nodes":[{"label":0,"ports":[1]},{"label":1,"ports":[0]},'
        '{"label":1,"ports":[0,2]},{"label":1,"ports":[0]}]}',
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
        argv = ["merge", "--in", str(path), "--alpha", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and str(path) in err
    assert named in err
    assert "Traceback" not in err


# consistently labeled graphs that neither command can use, and the refusal
# each command gives
UNUSABLE = {
    "no-label-0": (
        {1: [2], 2: [1]},
        {"run": "source 0 not in graph", "merge": "label 0 not in graph"},
    ),
    "two-components": (
        {0: [1], 1: [0], 2: [3], 3: [2]},
        dict.fromkeys(("run", "merge"), "eccentricity undefined: graph is not connected"),
    ),
}


@pytest.mark.parametrize("name", sorted(UNUSABLE))
@pytest.mark.parametrize("command", ["run", "merge"])
def test_unusable_graph_file_is_refused_by_name(tmp_path, capsys, name, command):
    rows, refusals = UNUSABLE[name]
    path = tmp_path / f"{name}.json"
    path.write_text(LabeledGraph(rows).to_json())
    if command == "run":
        argv = ["run", "--instance", str(path), "--alpha", "1"]
    else:
        argv = ["merge", "--in", str(path), "--alpha", "1", "--out", str(tmp_path / "m.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: {refusals[command]}\n"


def test_merge_refuses_a_width_that_is_not_a_multiple_of_16(tmp_path, capsys):
    path = tmp_path / "w20.json"
    assert main(["gen", "--family", "10,20,6", "--out", str(path)]) == 0
    out = tmp_path / "merged.json"
    assert main(["merge", "--in", str(path), "--alpha", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: graph width 20 is not a positive multiple of 16\n"
    assert not out.exists()


def test_merge_names_the_file_and_family_it_refuses(tmp_path, capsys):
    # --alpha 1/3 selects 9 levels at ecc 6, so a 10-level member is refused
    path = tmp_path / "m.json"
    assert main(["gen", "--family", "10,16,6", "--out", str(path)]) == 0
    out = tmp_path / "merged.json"
    assert main(["merge", "--in", str(path), "--alpha", "1/3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(path) in err and "9,16,6" in err and "not a family member" in err
    assert not out.exists()


def test_validate_rejects_a_label_listed_twice(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(MALFORMED["duplicate-label"][0])
    assert main(["validate", "--family", "3,8,6", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {path}: malformed graph JSON")


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


# argv with {graph} and {out} placeholders -> the option and text it names
MALFORMED_COMMA_LISTS = {
    "validate-family": (["validate", "--family", "10,16", "{graph}"], "--family", "10,16"),
    "run-family": (
        ["run", "--instance", "{graph}", "--alpha", "0.5", "--family", "10,16"],
        "--family",
        "10,16",
    ),
    "gen-family": (["gen", "--family", "10,x,6", "--out", "{out}"], "--family", "10,x,6"),
    "gen-lollipop": (["gen", "--lollipop", "1,2", "--out", "{out}"], "--lollipop", "1,2"),
    "experiment-k": (["experiment", "--variant", "fuel", "--k", "1,x"], "--k", "1,x"),
}
COMMA_LIST_FORMS = {
    "--family": "levels,width,ecc (three integers)",
    "--lollipop": "k,ecc,alpha (two integers and a rational)",
    "--k": "a comma list of integers",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_COMMA_LISTS))
def test_malformed_comma_list_is_a_one_line_error(tmp_path, capsys, name):
    argv, option, text = MALFORMED_COMMA_LISTS[name]
    graph = tmp_path / "g.json"
    graph.write_text(build_family_graph(FamilyParams(10, 16, 6))[0].to_json())
    out = tmp_path / "out.json"
    argv = [a.format(graph=graph, out=out) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {option} expects {COMMA_LIST_FORMS[option]}, got {text!r}\n"
    assert not out.exists()
