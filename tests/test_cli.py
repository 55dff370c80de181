import contextlib
import dataclasses
import io
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explorelab import FamilyParams, build_family_graph, merge_gadgets
from explorelab import cli, experiments
from explorelab.cli import main
from explorelab.experiments import default_config, rows_to_csv, rows_to_json, run_experiment
from explorelab.family import FamilyMeta, LollipopParams, build_lollipop
from explorelab.graph import LabeledGraph, ValidationReport


def exit_code(argv) -> int:
    """main's exit code, whether the command returns it or the parser exits
    with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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


# command -> (an argv whose check fails, an argv whose check passes); {member}
# is a family member's file, {broken} the member less one edge, {lollipop} a
# lollipop's file, and {out} and {log} files each run writes
EXIT_RULE = {
    # dfs ignores the fuel tank, fuel-cautious never runs it dry
    "run": [
        ["run", "--instance", "{lollipop}", "--alpha", "1", "--monitors", "fuel", "--policy", p]
        + ["--report", "{out}"]
        for p in ("dfs", "fuel-cautious")
    ],
    # dfs ignores the return cap, so the adversary's behavioral monitors flag it
    "adversary": [
        ["adversary", "--r", "6", "--alpha", "1/2", "--k", "1", "--policy", p]
        + ["--out", "{out}", "--audit", "{log}"]
        for p in ("dfs", "cautious-bfs")
    ],
    # the same merge twice; the first run's check is made to fail below
    "merge": [
        ["merge", "--in", "{member}", "--alpha", "1/2", "--out", "{out}", "--check-behavior"]
    ]
    * 2,
    # dfs's distance row fails its checks; the fuel row passes
    "experiment": [
        ["experiment", "--variant", "distance", "--policy", "dfs", "--k", "1", "--csv", "{out}"],
        ["experiment", "--variant", "fuel", "--k", "1", "--csv", "{out}"],
    ],
    "validate": [["validate", "--family", "10,16,6", g] for g in ("{broken}", "{member}")],
}


@pytest.mark.parametrize("command", list(EXIT_RULE))
def test_a_failed_check_exits_1_and_a_clean_input_0(tmp_path, capsys, monkeypatch, command):
    # one exit rule, no flag: 1 when a check the command ran failed, 0 when
    # every check passed; the outputs are written either way
    member, _ = build_family_graph(FamilyParams(10, 16, 6))
    a, b = next(iter(member.edges()))
    rows = {v: [x for x in member.neighbors(v) if x not in (a, b)] for v in (a, b)}
    files = {
        "member": member,
        "broken": member.replace_ports(rows),
        "lollipop": build_lollipop(LollipopParams(1, 2, 1), 0)[0],
    }
    for name, graph in files.items():
        (tmp_path / f"{name}.json").write_text(graph.to_json())
    fill = {name: tmp_path / f"{name}.json" for name in (*files, "out", "log")}
    if command == "merge":
        merge_check = cli.validate_merge_behavior

        def failing_check(*args):
            report, info = merge_check(*args)
            report.add("memory-prefix", "made to fail")
            return report, info

        monkeypatch.setattr(cli, "validate_merge_behavior", failing_check)
    for argv, code in zip(EXIT_RULE[command], (1, 0)):
        assert main([arg.format(**fill) for arg in argv]) == code
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert bool(err) == (command == "experiment" and code == 1)
        assert all(line.startswith("FAIL ") for line in err.splitlines())
        for written in ("out", "log"):
            if "{%s}" % written in argv:
                fill[written].unlink()  # fails unless the run wrote it


@pytest.mark.parametrize("clean, code", [(False, 1), (True, 0)])
def test_experiment_is_strict_unless_observing(tmp_path, capsys, clean, code):
    # a failing row exits 1 and no flag turns that off; an incorrect policy
    # is still observed through the CSV and one FAIL line per failed check.
    # dfs ignores the return cap, so its distance row fails its checks
    policy = "cautious-bfs" if clean else "dfs"
    csv_path = tmp_path / "d.csv"
    argv = ["experiment", "--variant", "distance", "--policy", policy, "--k", "1"]
    assert main(argv + ["--csv", str(csv_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("" if clean else "FAIL k=1: ")
    assert all(line.startswith("FAIL k=1: ") for line in err.splitlines())
    assert len(csv_path.read_text().splitlines()) == 2


@pytest.mark.parametrize("variant", ["distance", "fuel"])
@pytest.mark.parametrize(
    "option, error",
    [
        ("--k", "error: argument --k: expects a comma list of integers, got ''\n"),
        ("--policy", "error: argument --policy: invalid choice: ''"),
    ],
    ids=["k", "policy"],
)
def test_experiment_refuses_an_empty_option(tmp_path, capsys, variant, option, error):
    # an empty value is a value, not the option left out
    out = tmp_path / "x.csv"
    assert exit_code(["experiment", "--variant", variant, option, "", "--csv", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(error) and err.count("\n") == 1
    assert not out.exists()


def test_experiment_refuses_a_bad_k_before_any_row(tmp_path, capsys, monkeypatch):
    # at alpha = 1/3, r = 4 the lollipop of k = 12 has an integer order and
    # that of k = 1 does not: every k is checked before the first row runs
    def must_not_run(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr(experiments, "_fuel_row", must_not_run)
    csv_path = tmp_path / "fuel.csv"
    argv = ["experiment", "--variant", "fuel", "--alpha", "1/3", "--r", "4", "--k", "12,1"]
    assert main(argv + ["--csv", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k=1: (8*alpha+6)*ecc*scale = 104/3 is not an integer\n"
    assert not csv_path.exists()


def test_experiment_writes_the_emitted_bytes(tmp_path):
    csv_path, json_path = tmp_path / "rows.csv", tmp_path / "rows.json"
    argv = ["experiment", "--variant", "fuel", "--k", "1,2"]
    assert main(argv + ["--csv", str(csv_path), "--json", str(json_path)]) == 0
    rows, _ = run_experiment(dataclasses.replace(default_config("fuel"), k_values=(1, 2)))
    assert csv_path.read_bytes() == rows_to_csv(rows)
    assert json_path.read_bytes() == rows_to_json(rows)


@pytest.mark.parametrize("option", ["--csv", "--json"])
def test_experiment_unwritable_output_is_an_error_line(tmp_path, capsys, option):
    path = tmp_path / "no" / "dir" / "rows"
    assert main(["experiment", "--variant", "fuel", "--k", "1", option, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")
    assert not (tmp_path / "no").exists()


# command lines that are valid but for one option -> the start of the one
# error line the parser refuses them with; {member} is a family member's
# file, {out} a file that must not be written, {missing} a path with no file
EMPTY = "expects a non-empty value"
FAMILY_FORM = "expects levels,width,ecc (three integers), got"
MONITOR_FORM = "expects a comma list of monitors (distance, fuel, completion), got"
REFUSED_COMMANDS = {
    "gen --family": (
        ["gen", "--family", "", "--lollipop", "1,2,1", "--out", "{out}"],
        f"argument --family: {FAMILY_FORM} ''",
    ),
    "gen --lollipop": (
        ["gen", "--lollipop", "", "--family", "10,16,6", "--out", "{out}"],
        "argument --lollipop: expects k,ecc,alpha (two integers and a rational), got ''",
    ),
    "gen both kinds": (
        ["gen", "--family", "10,16,6", "--lollipop", "1,2,1", "--out", "{out}"],
        "argument --lollipop: not allowed with argument --family",
    ),
    "gen neither kind": (
        ["gen", "--out", "{out}"],
        "one of the arguments --family --lollipop is required",
    ),
    "gen --out": (["gen", "--family", "10,16,6", "--out", ""], f"argument --out: {EMPTY}"),
    "validate graph": (["validate", "--family", "10,16,6", ""], f"argument graph: {EMPTY}"),
    "run --instance": (
        ["run", "--instance", "", "--alpha", "1/2"],
        f"argument --instance: {EMPTY}",
    ),
    "run --family": (
        ["run", "--instance", "{member}", "--alpha", "1/2", "--family", ""],
        f"argument --family: {FAMILY_FORM} ''",
    ),
    "run --family, no instance file": (
        ["run", "--instance", "{missing}", "--alpha", "1/2", "--family", "10,16"],
        f"argument --family: {FAMILY_FORM} '10,16'",
    ),
    "run --monitors unknown": (
        ["run", "--instance", "{member}", "--alpha", "1/2", "--monitors", "distance,bogus"],
        f"argument --monitors: {MONITOR_FORM} 'distance,bogus'",
    ),
    "run --monitors ,": (
        ["run", "--instance", "{member}", "--alpha", "1/2", "--monitors", ","],
        f"argument --monitors: {MONITOR_FORM} ','",
    ),
    "run --report": (
        ["run", "--instance", "{member}", "--alpha", "1/2", "--report", ""],
        f"argument --report: {EMPTY}",
    ),
    "adversary --audit": (
        ["adversary", "--r", "6", "--alpha", "1/2", "--k", "1", "--out", "{out}", "--audit", ""],
        f"argument --audit: {EMPTY}",
    ),
    "adversary --out": (
        ["adversary", "--r", "6", "--alpha", "1/2", "--k", "1", "--out", ""],
        f"argument --out: {EMPTY}",
    ),
    "merge --in": (
        ["merge", "--in", "", "--alpha", "1/2", "--out", "{out}"],
        f"argument --in: {EMPTY}",
    ),
    "merge --plan": (
        ["merge", "--in", "{member}", "--alpha", "1/2", "--out", "{out}", "--plan", ""],
        f"argument --plan: {EMPTY}",
    ),
    "merge --out": (
        ["merge", "--in", "{member}", "--alpha", "1/2", "--out", ""],
        f"argument --out: {EMPTY}",
    ),
    "experiment --csv": (
        ["experiment", "--variant", "fuel", "--k", "1", "--csv", ""],
        f"argument --csv: {EMPTY}",
    ),
    "experiment --json": (
        ["experiment", "--variant", "fuel", "--k", "1", "--json", ""],
        f"argument --json: {EMPTY}",
    ),
    "experiment --policy unknown": (
        ["experiment", "--variant", "fuel", "--policy", "bogus"],
        "argument --policy: invalid choice: 'bogus'",
    ),
}


@pytest.mark.parametrize("name", list(REFUSED_COMMANDS))
def test_an_empty_file_or_family_value_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, name
):
    # every option is checked when it is parsed: a malformed, empty or
    # conflicting value is refused with one error line and exit code 2,
    # before any file is read or written and before anything is built or run
    member = tmp_path / "member.json"
    member.write_text(build_family_graph(FamilyParams(10, 16, 6))[0].to_json())

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{name} did work")

    work = ("build_family_graph", "build_lollipop", "execute", "adversary_behavior")
    for function in work + ("merge_gadgets", "run_experiment", "_load_graph", "_write"):
        monkeypatch.setattr(cli, function, must_not_run)
    fill = {"member": member, "out": tmp_path / "out.json", "missing": tmp_path / "no.json"}
    argv, error = REFUSED_COMMANDS[name]
    argv = [arg.format(**fill) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}")
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["member.json"]


def test_cli_error_paths(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert exit_code(["gen", "--out", out]) == 2
    assert exit_code(["gen", "--family", "1,8,7", "--out", out]) == 2
    assert exit_code(["gen", "--family", "a,b,c", "--out", out]) == 2
    assert exit_code(["validate", "--family", "4,8,7", str(tmp_path / "missing.json")]) == 2
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


# graph files that no JSON value comes out of: one nested past every Python's
# parser depth limit (1000 levels pass on 3.12 and later), one not UTF-8
UNREADABLE = {
    "deeply-nested": b'{"nodes":' + b"[" * 10**5 + b"]" * 10**5 + b"}",
    "not-utf-8": b"\xff\xfe",
}
GRAPH_COMMANDS = {
    "run": ["run", "--instance", "{path}", "--alpha", "1"],
    "validate": ["validate", "--family", "3,8,6", "{path}"],
    "merge": ["merge", "--in", "{path}", "--alpha", "1", "--out", "{out}"],
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
@pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS))
def test_an_unreadable_graph_file_is_refused_by_name(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNREADABLE[name])
    out = tmp_path / "out.json"
    assert main([arg.format(path=path, out=out) for arg in GRAPH_COMMANDS[command]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not out.exists()


def test_merge_refuses_a_width_that_is_not_a_multiple_of_16(tmp_path, capsys):
    path = tmp_path / "w20.json"
    assert main(["gen", "--family", "10,20,6", "--out", str(path)]) == 0
    out = tmp_path / "merged.json"
    assert main(["merge", "--in", str(path), "--alpha", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: width must be a positive multiple of 16, got 20\n"
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
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: argument {option}: expects {COMMA_LIST_FORMS[option]}, got {text!r}\n"
    assert not out.exists()


# argv -> the start of the one error line argparse's refusal prints; the
# rest of the line varies between Python versions
PARSE_ERRORS = {
    "empty --csv": (
        ["experiment", "--variant", "fuel", "--csv", ""],
        "error: argument --csv: expects a non-empty value",
    ),
    "--alpha abc": (
        ["run", "--instance", "g.json", "--alpha", "abc"],
        "error: argument --alpha: not a rational number: abc",
    ),
    "missing --instance": (
        ["run", "--alpha", "1/2"],
        "error: the following arguments are required: --instance",
    ),
    "unknown run --policy": (
        ["run", "--instance", "g.json", "--alpha", "1/2", "--policy", "nope"],
        "error: argument --policy: invalid choice: ",
    ),
}


@pytest.mark.parametrize("name", list(PARSE_ERRORS))
def test_a_parse_error_is_one_error_line(capsys, name):
    argv, start = PARSE_ERRORS[name]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(start)
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: explorelab run ")
