from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explorelab import (
    FamilyParams,
    Instance,
    LabeledGraph,
    LollipopParams,
    ParameterError,
    build_family_graph,
    build_lollipop,
    execute,
    make_policy,
)
from explorelab.explorers import POLICY_NAMES, DfsPolicy, ExploredView
from explorelab.runtime import MemoryRecord, ReplayCursor

from conftest import engine_cases, small_graph_corpus
from oracles import (
    naive_dfs_next_action,
    naive_levels,
    naive_plan_to,
    naive_smallest_unexplored_port,
    naive_view_distances,
)


def run(graph, source, alpha, name, **kw):
    inst = Instance(graph=graph, source=source, alpha=alpha)
    policy = make_policy(name, inst.alpha, inst.ecc)
    return execute(inst, policy, **kw)


def test_registry_names():
    assert set(POLICY_NAMES) == {"cautious-bfs", "dfs", "fuel-cautious"}
    with pytest.raises(ParameterError):
        make_policy("wanderer", Fraction(1), 2)


def test_cautious_needs_slack():
    with pytest.raises(ParameterError):
        make_policy("cautious-bfs", Fraction(1, 10), 2)


def test_cautious_single_edge(single_edge):
    trace, report = run(
        single_edge, 0, Fraction(1), "cautious-bfs", monitors=("completion",)
    )
    assert trace.memory[1].out_port == 0
    assert report.steps == 1
    assert report.penalty == 0
    assert report.complete


def test_cautious_path_median(path3):
    _, report = run(path3, 1, Fraction(1), "cautious-bfs", monitors=("completion",))
    assert report.steps == 3
    assert report.penalty == 1
    assert report.complete


def test_path_median_lower_bound(path3):
    # the median start forces at least (|V|-1)/2 penalty on any complete run
    for name in ("cautious-bfs", "dfs"):
        _, report = run(path3, 1, Fraction(1), name, monitors=("completion",))
        assert report.complete
        assert report.penalty >= 1


def test_cautious_completes_family_member_safely():
    g, _ = build_family_graph(FamilyParams(10, 16, 6))
    _, report = run(
        g, 0, Fraction(1, 2), "cautious-bfs", monitors=("distance", "completion")
    )
    assert report.complete
    assert not report.violations


def test_dfs_is_exactly_two_passes(single_edge, triangle):
    _, report = run(single_edge, 0, Fraction(1), "dfs", monitors=("completion",))
    assert report.steps == 2
    assert report.penalty == 1
    _, report = run(triangle, 0, Fraction(1), "dfs", monitors=("completion",))
    assert report.complete
    assert report.steps <= 2 * triangle.edge_count()


def test_dfs_family_member_within_bound():
    g, _ = build_family_graph(FamilyParams(4, 8, 7))
    _, report = run(g, 0, Fraction(1, 2), "dfs", monitors=("completion",))
    assert report.complete
    assert report.steps <= 2 * g.edge_count()


def test_dfs_halts_at_source():
    g, _ = build_family_graph(FamilyParams(2, 4, 6))
    trace, report = run(g, 0, Fraction(1), "dfs", monitors=("completion",))
    assert report.complete
    assert trace.current == 0


def test_fuel_single_edge(single_edge):
    trace, report = run(
        single_edge, 0, Fraction(1), "fuel-cautious", monitors=("fuel", "completion")
    )
    assert report.complete
    assert report.steps == 2
    assert report.penalty == 1
    assert trace.current == 0


def test_fuel_lollipop_safe_and_complete():
    g, source = build_lollipop(LollipopParams(scale=1, ecc=2, alpha=Fraction(1)))
    _, report = run(
        g, source, Fraction(1), "fuel-cautious", monitors=("fuel", "completion")
    )
    assert report.complete
    assert not report.violations_of("fuel")
    assert report.penalty >= 98


def test_fuel_respects_tank_between_refuels():
    g, source = build_lollipop(LollipopParams(scale=1, ecc=4, alpha=Fraction(1, 2)))
    inst = Instance(graph=g, source=source, alpha=Fraction(1, 2))
    trace, report = execute(
        inst,
        make_policy("fuel-cautious", inst.alpha, inst.ecc),
        monitors=("fuel", "completion"),
    )
    assert report.complete and not report.violations_of("fuel")
    streak = 0
    for rec in trace.memory[1:]:
        streak += 1
        if rec.label == source:
            streak = 0
        assert streak <= inst.fuel_floor


@pytest.mark.parametrize("name", ["cautious-bfs", "dfs", "fuel-cautious"])
def test_policies_are_pure_functions_of_memory(name):
    g, _ = build_family_graph(FamilyParams(2, 4, 6))
    inst = Instance(graph=g, source=0, alpha=Fraction(1))
    policy = make_policy(name, inst.alpha, inst.ecc)
    trace, _ = execute(inst, policy)
    # replay every prefix into a fresh run state: the next action must match
    for cut in range(trace.steps):
        fresh = policy.start()
        for rec in trace.memory[: cut + 1]:
            fresh.observe(rec)
        action = fresh.next_action()
        assert action == fresh.next_action()  # idempotent
        assert action == trace.memory[cut + 1].out_port


def test_cautious_never_probes_beyond_cap():
    # eligibility: the probed node's known source distance stays below the cap
    g, _ = build_family_graph(FamilyParams(10, 16, 6), seed=4)
    inst = Instance(graph=g, source=0, alpha=Fraction(1, 2))
    policy = make_policy("cautious-bfs", inst.alpha, inst.ecc)
    trace, report = execute(inst, policy, monitors=("distance", "completion"))
    assert report.complete
    assert not report.violations_of("distance")


ENGINE_CASES = engine_cases()


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
@pytest.mark.parametrize("policy_name", ["cautious-bfs", "dfs", "fuel-cautious"])
def test_port_pointers_match_port_scans(case, policy_name, monkeypatch):
    # the monotone port pointers answer as the O(deg) scans do at every step:
    # every probe the policy asks for, the current node, and at the end every
    # known node
    g, source, alpha, _ = ENGINE_CASES[case]
    inst = Instance(graph=g, source=source, alpha=alpha)
    pointer = ExploredView.smallest_unexplored_port
    probes = []

    def checked(view, v):
        port = pointer(view, v)
        assert port == naive_smallest_unexplored_port(view, v), (len(probes), v)
        probes.append(v)
        return port

    monkeypatch.setattr(ExploredView, "smallest_unexplored_port", checked)
    cursor = ReplayCursor(g, make_policy(policy_name, inst.alpha, inst.ecc), source=source)
    state = cursor.state
    while True:
        if policy_name == "dfs":
            assert state.next_action() == naive_dfs_next_action(state), cursor.steps
        else:
            state.view.smallest_unexplored_port(state.view.cur)
        if cursor.pending_port() is None:
            break
        cursor.commit()
    if policy_name == "dfs":
        assert cursor.steps == 2 * g.edge_count()
    else:
        for v in state.view.degree:
            state.view.smallest_unexplored_port(v)
        assert len(probes) > cursor.steps


PLAN_CASES = dict(ENGINE_CASES)
PLAN_CASES["lollipop-3-2-1"] = (*build_lollipop(LollipopParams(3, 2, 1)), Fraction(1), None)


def oracle_target(view, within):
    """The planner's old predicate for ``plan_to(within)``: the source, or a
    node with an unexplored port within ``within`` of the source, with
    distances from a plain BFS."""
    if within is None:
        return lambda v: v == view.source
    dist = naive_view_distances(view)
    return lambda v: len(view.adj[v]) < view.degree[v] and dist[v] <= within


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
@pytest.mark.parametrize("policy_name", ["cautious-bfs", "fuel-cautious"])
def test_plans_match_bfs_oracle(case, policy_name, monkeypatch):
    # every replan's target and port path equal those of the old breadth-first
    # search under the old predicates
    g, source, alpha, _ = PLAN_CASES[case]
    inst = Instance(graph=g, source=source, alpha=alpha)
    plan = ExploredView.plan_to
    replans = []

    def checked(view, within):
        got = plan(view, within)
        assert got == naive_plan_to(view, oracle_target(view, within)), (len(replans), within)
        replans.append(within)
        return got

    monkeypatch.setattr(ExploredView, "plan_to", checked)
    _, report = execute(inst, make_policy(policy_name, inst.alpha, inst.ecc), monitors=("completion",))
    assert report.complete
    homeward = replans.count(None)
    assert homeward > 0 if policy_name == "fuel-cautious" else homeward == 0
    assert len(replans) - homeward > 0


WALK_GRAPHS = {name: (g, source) for name, g, source in small_graph_corpus()}
# a square whose far corner reaches both of its two closer neighbours, with
# ports against label order: the walk home has a choice to get right
WALK_GRAPHS["square"] = (LabeledGraph({0: [2, 1], 1: [3, 0], 2: [0, 3], 3: [2, 1]}), 0)
# two branches from the source: port 0 leads to 1, which is on no shortest
# path to 3, the one node two levels out left with an unexplored port; the
# walk in the example below explores 0-1-4 and 0-2-3 and stops at the source
WALK_GRAPHS["branches"] = (
    LabeledGraph({0: [1, 2], 1: [0, 4], 2: [0, 3], 3: [2, 5], 4: [1], 5: [3]}),
    0,
)


@given(st.sampled_from(sorted(WALK_GRAPHS)), st.lists(st.integers(0, 63), max_size=80))
@example("branches", [0, 1, 0, 0, 1, 1, 0, 0])
@settings(max_examples=100, deadline=None)
def test_port_pointers_match_port_scans_on_any_walk(name, choices):
    # record streams no policy would produce (re-entering a node whose ports
    # are all spent, say) keep the pointers equal to the scans too
    g, cur = WALK_GRAPHS[name]
    view, dfs = ExploredView(), DfsPolicy().start()
    rec = MemoryRecord(cur, g.degree(cur), -1, -1)
    for choice in [None, *choices]:
        if choice is not None:
            port = choice % g.degree(cur)
            nxt = g.neighbor(cur, port)
            rec = MemoryRecord(nxt, g.degree(nxt), port, g.port_of(nxt, cur))
            cur = nxt
        view.observe(rec)
        dfs.observe(rec)
        assert dfs.next_action() == naive_dfs_next_action(dfs)
        for v in view.degree:
            assert view.smallest_unexplored_port(v) == naive_smallest_unexplored_port(view, v)
        assert view.dist.dist == naive_view_distances(view)
        assert view.dist.levels == naive_levels(view.dist.dist)
        for within in (None, 0, 1, 2, 3):
            assert view.plan_to(within) == naive_plan_to(view, oracle_target(view, within))
