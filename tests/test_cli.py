import json

import pytest

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


MALFORMED = {
    "dangling": {0: [1], 1: []},
    "asymmetric": {0: [1], 1: [0, 2], 2: [0]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["run", "merge"])
def test_malformed_graph_file_is_a_one_line_error(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(LabeledGraph(MALFORMED[name]).to_json())
    if command == "run":
        argv = ["run", "--instance", str(path), "--alpha", "1"]
    else:
        out = tmp_path / "merged.json"
        argv = ["merge", "--in", str(path), "--k", "1", "--alpha", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and str(path) in err
    assert "asymmetric-edge" in err
    assert "Traceback" not in err
