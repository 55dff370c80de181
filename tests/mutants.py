"""Mutation gate: small deliberate faults in ``src/`` that named tests must
catch.

    python3 tests/mutants.py

Each mutant names a file, an exact snippet of it, the snippet's
replacement, and the test ids that must fail once the edit is made.  The
script first runs every named test on an unmutated copy of ``src/`` and
``tests/``, which must pass.  Then, one mutant after another, it copies
``src/`` and ``tests/`` to a temporary directory, applies the edit and runs
the mutant's tests there in one pytest subprocess.  The mutant is killed
when pytest reports failed tests (exit status 1); a pass, or any other
status (a test id that no longer exists, an import error), leaves it
alive.  A snippet that does not occur exactly once in its file fails the
script too, so a refactor has to update the mutants it touches.  Exits 0
when every mutant is killed.

pytest does not collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "the cursor drops observe's answer and reuses the previous port",
        "src/explorelab/runtime.py",
        "            port = observe(rec)\n",
        "            observe(rec)\n",
        (
            "tests/test_runtime.py::test_run_returns_whether_the_policy_halted",
            "tests/test_runtime.py::test_bad_port_message_through_run",
        ),
    ),
    Mutant(
        "a planned run answers with the old plan's next port after it replans",
        "src/explorelab/explorers.py",
        "        self.plan = plan\n        return plan[0]\n",
        "        old, self.plan = self.plan, plan\n"
        "        return old[pos] if pos < len(old) else None\n",
        (
            "tests/test_explorers.py::test_policies_are_pure_functions_of_memory",
            "tests/test_runtime.py::test_budget_error_carries_the_oracle_prefix",
        ),
    ),
    Mutant(
        "the ledger skips its parallel-edge and self-loop test of dirty rows",
        "src/explorelab/family.py",
        "            if len(listed) != len(row) or v in listed:\n"
        "                return False  # parallel edge or self-loop\n",
        "",
        ("tests/test_ledger.py::test_ledger_rejects_each_violation",),
    ),
    Mutant(
        "replace_graph drops its traversed-port test",
        "src/explorelab/runtime.py",
        "            for p, u in enumerate(old.get(v, ())):\n"
        "                if (p >= len(row) or row[p] != u) and edge_key(v, u) in self.traversed:\n",
        "            for p, u in enumerate(old.get(v, ())):\n"
        "                if False:\n",
        (
            "tests/test_runtime.py::test_replace_graph_refuses_to_move_a_traversed_edge",
        ),
    ),
    Mutant(
        "pending_node drops its port check",
        "src/explorelab/runtime.py",
        "        row = self.graph._ports[self.node]\n"
        "        if type(port) is not int or not 0 <= port < len(row):\n"
        "            raise _port_error(port, self.node, row)\n",
        "        row = self.graph._ports[self.node]\n",
        ("tests/test_adversary.py::test_pending_node_rejects_bad_port_like_run",),
    ),
    Mutant(
        "the distance row drops its k^2 gate",
        "src/explorelab/experiments.py",
        "        if pen_gadget < k * k:\n"
        '            failures.append(f"penalty before gadget {pen_gadget} < k^2 = {k * k}")\n',
        "",
        ("tests/test_experiments.py::test_distance_row_fails_a_policy_below_both_bounds",),
    ),
    Mutant(
        "the distance row drops its merged-order gate",
        "src/explorelab/experiments.py",
        '        if merge_info and merge_info["penalty_before_gadget_merged"] < math.ceil(thm1):\n',
        "        if False:\n",
        ("tests/test_experiments.py::test_distance_row_fails_a_policy_below_both_bounds",),
    ),
    Mutant(
        "the distance row drops its monitor-violation gate",
        "src/explorelab/experiments.py",
        "    if report.violations:\n"
        '        failures.append(f"{len(report.violations)} monitor violations'
        ' in the final replay")\n',
        "",
        ("tests/test_experiments.py::test_distance_row_fails_a_policy_below_both_bounds",),
    ),
    Mutant(
        "the distance row drops its behavioral-flag gate",
        "src/explorelab/experiments.py",
        "    if run.flags:\n"
        '        failures.append(f"adversary behavioral flags: {run.flags[:4]}")\n',
        "",
        ("tests/test_experiments.py::test_distance_row_fails_a_policy_below_both_bounds",),
    ),
    Mutant(
        "the distance row drops its completion gate",
        "src/explorelab/experiments.py",
        "    if not report.complete:\n"
        '        failures.append("replay on the final graph did not complete exploration")\n',
        "",
        ("tests/test_experiments.py::test_distance_row_fails_a_policy_that_halts_at_once",),
    ),
    Mutant(
        "the distance row drops its merge-behaviour gate",
        "src/explorelab/experiments.py",
        "    if not behavior.ok:\n"
        '        failures.append(f"merge behavior checks failed: {behavior.codes()}")\n',
        "",
        ("tests/test_experiments.py::test_distance_row_fails_a_policy_that_halts_at_once",),
    ),
    Mutant(
        "the distance row never reports a run that visits no gadget",
        "src/explorelab/experiments.py",
        '        failures.append("no gadget was ever visited")\n',
        "        pass\n",
        ("tests/test_experiments.py::test_distance_row_fails_a_policy_that_halts_at_once",),
    ),
    Mutant(
        "the fuel row drops its fuel-violation gate",
        "src/explorelab/experiments.py",
        '    if report.violations_of("fuel"):\n        failures.append("fuel violations")\n',
        "",
        ("tests/test_experiments.py::test_fuel_row_fails_a_policy_that_runs_dry",),
    ),
    Mutant(
        "the fuel row drops its completion gate",
        "src/explorelab/experiments.py",
        '    if not report.complete:\n        failures.append("exploration incomplete")\n',
        "",
        ("tests/test_experiments.py::test_fuel_row_fails_a_policy_that_halts_at_once",),
    ),
    Mutant(
        "the fuel row drops its bound gate",
        "src/explorelab/experiments.py",
        "    if report.penalty < bound:\n"
        '        failures.append(f"penalty {report.penalty} below bound {bound}")\n',
        "",
        ("tests/test_experiments.py::test_fuel_row_fails_a_policy_that_halts_at_once",),
    ),
    Mutant(
        "level_labels answers past the last level again",
        "src/explorelab/family.py",
        "        if not 1 <= i <= self.params.levels:\n            return range(0)\n",
        "",
        (
            "tests/test_family.py::test_meta_label_geometry",
            "tests/test_adversary.py::test_role_questions_on_every_label_pair",
        ),
    ),
    Mutant(
        "the shared green walk stops sorting a row",
        "src/explorelab/family.py",
        "            for u in sorted([u for u in g.neighbors(v) if lo <= u < hi]):\n",
        "            for u in [u for u in g.neighbors(v) if lo <= u < hi]:\n",
        (
            "tests/test_family.py::test_green_edges_match_the_level_oracle[1]",
            "tests/test_adversary.py::test_first_unexplored_green_is_the_sorted_layers_first[1]",
        ),
    ),
    Mutant(
        "the adversary drops its final membership check",
        "src/explorelab/adversary.py",
        "    final_report = validate_family_membership(cursor.graph, params)\n"
        "    if not final_report.ok:\n"
        '        raise InvariantViolation(f"final graph left the family: '
        '{final_report.codes()}")\n',
        "",
        ("tests/test_ledger.py::test_a_graph_the_ledger_wrongly_admits_fails_the_final_check",),
    ),
    Mutant(
        "the adversary step drops its prefix gate",
        "src/explorelab/adversary.py",
        "        if not audit.prefix_ok:\n"
        '            raise InvariantViolation(f"memory prefix not preserved at step {step}")\n',
        "",
        (
            "tests/test_adversary.py"
            "::test_adversary_refuses_a_replay_that_departs_from_the_prefix",
        ),
    ),
    Mutant(
        "the adversary step drops its membership gate",
        "src/explorelab/adversary.py",
        '            raise InvariantViolation(f"family membership broken at step {step}: '
        '{report.codes()}")\n',
        "            pass\n",
        ("tests/test_ledger.py::test_surgery_with_a_lying_touched_list_is_caught",),
    ),
    Mutant(
        "the adversary step never raises its dichotomy flag",
        "src/explorelab/adversary.py",
        '            audit.flags.append("dichotomy")\n',
        "            pass\n",
        ("tests/test_experiments.py::test_distance_row_fails_a_policy_below_both_bounds",),
    ),
    Mutant(
        "the adversary step never raises its early-gadget flag",
        "src/explorelab/adversary.py",
        '        audit.flags.append("early-gadget")\n',
        "        pass\n",
        ("tests/test_experiments.py::test_distance_row_fails_a_policy_below_both_bounds",),
    ),
    Mutant(
        "the DFS run takes its entry port in ascending order, before the ports above it",
        "src/explorelab/explorers.py",
        "        if p == entry:\n            p += 1\n",
        "",
        (
            "tests/test_explorers.py::test_port_pointers_match_port_scans",
            "tests/test_explorers.py::test_port_pointers_match_port_scans_on_any_walk",
        ),
    ),
    Mutant(
        "the DFS run does not advance its pointer past a departed port",
        "src/explorelab/explorers.py",
        " else out_port + 1\n",
        " else out_port\n",
        (
            "tests/test_explorers.py::test_port_pointers_match_port_scans",
            "tests/test_explorers.py::test_port_pointers_match_port_scans_on_any_walk",
        ),
    ),
    Mutant(
        "the merge check skips its first-gadget-step comparison",
        "src/explorelab/merge.py",
        "    if trace2.first_gadget_step != t:\n",
        "    if False:\n",
        ("tests/test_merge.py::test_merge_behavior_matches_the_five_comparisons",),
    ),
    Mutant(
        "the merge check skips its memory-prefix comparison",
        "src/explorelab/merge.py",
        "        if trace.memory[i] != trace2.memory[i]:\n",
        "        if False:\n",
        ("tests/test_merge.py::test_merge_behavior_matches_the_five_comparisons",),
    ),
    Mutant(
        "the view ranks a new level ascending, so the nearest frontier node is its largest label",
        "src/explorelab/explorers.py",
        "            ranked.extend(sorted(level, reverse=True))\n",
        "            ranked.extend(sorted(level))\n",
        (
            "tests/test_explorers.py"
            "::test_plans_match_bfs_oracle[fuel-cautious-family-10-16-6-s0]",
        ),
    ),
    Mutant(
        "the view stops popping ranked labels that left the frontier",
        "src/explorelab/explorers.py",
        "            while ranked and len(adj[ranked[-1]]) == degree[ranked[-1]]:\n"
        "                ranked.pop()\n",
        "",
        (
            "tests/test_explorers.py::test_fuel_lollipop_safe_and_complete",
            "tests/test_explorers.py"
            "::test_plans_match_bfs_oracle[cautious-bfs-family-10-16-6-s0]",
        ),
    ),
    Mutant(
        "the view builds levels past its within cap",
        "src/explorelab/explorers.py",
        "            if d > within:\n                return None\n",
        "",
        (
            "tests/test_explorers.py"
            "::test_source_plan_after_a_plan_from_elsewhere_reuses_the_tree",
        ),
    ),
    Mutant(
        "the view keeps building levels after an empty one",
        "src/explorelab/explorers.py",
        "            if not level:\n                return None\n",
        "",
        ("tests/test_explorers.py::test_port_pointers_match_port_scans_on_any_walk",),
    ),
    Mutant(
        "the ledger drops a gadget's red edge into the layer below",
        "src/explorelab/family.py",
        '            sums["red", j - 1] += sign * reds_below\n',
        "",
        ("tests/test_ledger.py::test_ledger_matches_full_validator_on_adversary_runs[1-0]",),
    ),
    Mutant(
        "slack skips its alpha * ecc test",
        "src/explorelab/runtime.py",
        "    if ecc is not None and alpha * ecc < 1:\n",
        "    if False:\n",
        (
            "tests/test_runtime.py::test_each_rule_refuses_one_way[lollipop-slack]",
            "tests/test_explorers.py::test_cautious_needs_slack",
        ),
    ),
    Mutant(
        "width_multiplier takes any width of 16 or more",
        "src/explorelab/family.py",
        "    if width < 16 or width % 16:\n",
        "    if width < 16:\n",
        ("tests/test_cli.py::test_merge_refuses_a_width_that_is_not_a_multiple_of_16",),
    ),
    Mutant(
        "the sweep config stops checking each row's parameters",
        "src/explorelab/experiments.py",
        "        for k in self.k_values:  # every row's parameters, before any row runs\n",
        "        for k in ():\n",
        (
            "tests/test_runtime.py::test_each_rule_refuses_one_way[distance-config-ecc]",
            "tests/test_experiments.py::test_config_validation",
        ),
    ),
    Mutant(
        "the label check trusts a graph with no label outside the range",
        "src/explorelab/family.py",
        "    if extra or len(g) != params.order:\n",
        "    if extra:\n",
        ("tests/test_family.py::test_label_range_costs_the_size_of_the_graph[levels]",),
    ),
    Mutant(
        "the critical row skips its distinctness test",
        "src/explorelab/family.py",
        "                and len(set(row)) == len(row)\n",
        "",
        ("tests/test_ledger.py::test_ledger_rejects_each_violation[critical-duplicate]",),
    ),
    Mutant(
        "FamilyParams takes an order no dict can hold",
        "src/explorelab/family.py",
        "        if self.order > sys.maxsize:\n"
        '            raise ParameterError("family order exceeds sys.maxsize")\n',
        "",
        (
            "tests/test_runtime.py::test_each_rule_refuses_one_way[family-size]",
            "tests/test_runtime.py::test_each_rule_refuses_one_way[distance-config-size]",
        ),
    ),
    Mutant(
        "LollipopParams takes an order no dict can hold",
        "src/explorelab/family.py",
        "        if self.order > sys.maxsize:\n"
        '            raise ParameterError("lollipop order exceeds sys.maxsize")\n',
        "",
        (
            "tests/test_runtime.py::test_each_rule_refuses_one_way[lollipop-size]",
            "tests/test_runtime.py::test_each_rule_refuses_one_way[fuel-config-size]",
        ),
    ),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)


def run_tests(tree: Path, tests) -> int:
    """The exit status of one pytest run of ``tests`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    return done.returncode


def apply(tree: Path, mutant: Mutant) -> str | None:
    """Make the mutant's edit in ``tree``; returns why it cannot, or None."""
    path = tree / mutant.path
    text = path.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        return f"snippet occurs {count} times in {mutant.path}"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    return None


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="explorelab-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        status = run_tests(clean, tests)
        if status != 0:
            print(f"FAIL    the named tests exit {status} on the unmutated code")
            return 1
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            copy_tree(tree)
            why = apply(tree, mutant)
            if why is None:
                status = run_tests(tree, mutant.tests)
                if status != 1:
                    why = f"survived: the named tests exit {status}"
            shutil.rmtree(tree)
            if why is None:
                print(f"killed  {mutant.name}")
            else:
                failures += 1
                print(f"FAIL    {mutant.name}: {why}")
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
