from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explorelab import (
    FamilyParams,
    Instance,
    ParameterError,
    build_family_graph,
    execute,
    make_policy,
)
from explorelab.explorers import POLICY_NAMES, DfsPolicy, ExploredView
from explorelab.family import LollipopParams, build_lollipop
from explorelab.graph import LabeledGraph
from explorelab.runtime import ReplayCursor, fuel_tank, step_budget

from conftest import engine_cases, small_graph_corpus
from oracles import (
    naive_dfs_next_action,
    naive_explored_rows,
    naive_levels,
    naive_open_nodes,
    naive_plan_to,
    naive_smallest_unexplored_port,
    naive_view_distances,
    port_to,
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
    assert trace.memory[1][2] == 0  # the out-port
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
    assert trace.memory[-1][0] == 0


def test_fuel_single_edge(single_edge):
    trace, report = run(
        single_edge, 0, Fraction(1), "fuel-cautious", monitors=("fuel", "completion")
    )
    assert report.complete
    assert report.steps == 2
    assert report.penalty == 1
    assert trace.memory[-1][0] == 0


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
    for label, *_ in trace.memory[1:]:
        streak += 1
        if label == source:
            streak = 0
        assert streak <= fuel_tank(inst.alpha, inst.ecc)


@pytest.mark.parametrize("name", ["cautious-bfs", "dfs", "fuel-cautious"])
def test_policies_are_pure_functions_of_memory(name):
    g, _ = build_family_graph(FamilyParams(2, 4, 6))
    inst = Instance(graph=g, source=0, alpha=Fraction(1))
    policy = make_policy(name, inst.alpha, inst.ecc)
    trace, _ = execute(inst, policy)
    # replay every prefix into a fresh run state: the answer observe gives to
    # its last record, re-read twice by next_action, is the next record's
    # out-port, and None after the whole memory
    outs = [out_port for _, _, out_port, _ in trace.memory[1:]] + [None]
    for cut, out_port in enumerate(outs):
        fresh = policy.start()
        for rec in trace.memory[: cut + 1]:
            answer = fresh.observe(rec)
        assert answer == fresh.next_action() == fresh.next_action() == out_port


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
    budget = step_budget(g)  # execute's default: a policy that never halts fails
    while True:
        if policy_name == "dfs":
            assert state.next_action() == naive_dfs_next_action(cursor.memory), cursor.steps
        else:
            state.view.smallest_unexplored_port(state.view.cur)
        if cursor.pending is None:
            break
        assert cursor.steps < budget, f"policy still moving after {budget} traversals"
        cursor.run(1)
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
    # search under the old predicates; the walks home take some steps off the
    # search tree's home ports and scan the row for others
    g, source, alpha, _ = PLAN_CASES[case]
    inst = Instance(graph=g, source=source, alpha=alpha)
    plan, home_port = ExploredView.plan_to, ExploredView._home_port
    replans = []
    steps = Counter()

    def counting_home_port(view, x):
        steps["scanned"] += 1
        return home_port(view, x)

    def checked(view, within):
        scanned = steps["scanned"]
        got = plan(view, within)
        assert got == naive_plan_to(view, oracle_target(view, within)), (len(replans), within)
        if within is None:
            scans = steps["scanned"] - scanned
            steps["home by scan"] += scans
            steps["home by tree"] += len(got[1]) - scans
        replans.append(within)
        return got

    monkeypatch.setattr(ExploredView, "_home_port", counting_home_port)
    monkeypatch.setattr(ExploredView, "plan_to", checked)
    _, report = execute(inst, make_policy(policy_name, inst.alpha, inst.ecc), monitors=("completion",))
    assert report.complete
    homeward = replans.count(None)
    assert homeward > 0 if policy_name == "fuel-cautious" else homeward == 0
    assert len(replans) - homeward > 0
    if policy_name == "fuel-cautious":
        assert steps["home by scan"] > 0 and steps["home by tree"] > 0, steps


OPEN_PORT_CASES = {
    f"family-10-16-6-s{seed}": (
        build_family_graph(FamilyParams(10, 16, 6), seed=seed)[0], 0, Fraction(1, 2)
    )
    for seed in (0, 1)
}
OPEN_PORT_CASES["lollipop-1-2-1"] = (*build_lollipop(LollipopParams(1, 2, 1)), Fraction(1))


@pytest.mark.parametrize("case", sorted(OPEN_PORT_CASES))
@pytest.mark.parametrize("policy_name", ["cautious-bfs", "fuel-cautious"])
def test_open_ports_and_distances_read_off_the_rows_match_the_memory(case, policy_name, monkeypatch):
    # at every step the nodes whose explored row is shorter than their
    # degree are exactly the known nodes the memory shows a port unused
    # at, every node of the rows has a distance, and every bounded plan
    # walks to the nearest such node, as a search for those nodes finds it
    g, source, alpha = OPEN_PORT_CASES[case]
    inst = Instance(graph=g, source=source, alpha=alpha)
    trace, _ = execute(inst, make_policy(policy_name, inst.alpha, inst.ecc))
    plan = ExploredView.plan_to
    open_nodes: set[int] = set()  # the oracle's answer for the record being observed
    plans = 0

    def checked(view, within):
        nonlocal plans
        got = plan(view, within)
        if within is not None:
            dist = view.dist.dist
            want = naive_plan_to(view, lambda v: v in open_nodes and dist[v] <= within)
            assert got == want, (plans, within)
            plans += 1
        return got

    monkeypatch.setattr(ExploredView, "plan_to", checked)
    state = make_policy(policy_name, inst.alpha, inst.ecc).start()
    view = state.view
    for step, (rec, open_nodes) in enumerate(zip(trace.memory, naive_open_nodes(trace.memory))):
        state.observe(rec)
        assert {v for v, row in view.adj.items() if len(row) < view.degree[v]} == open_nodes, step
        assert view.adj.keys() == view.degree.keys() == view.dist.dist.keys(), step
    assert not open_nodes and plans > 0


def walk_records(g, labels):
    """The memory records of the walk through ``labels``."""
    yield (labels[0], g.degree(labels[0]), -1, -1)
    for a, b in zip(labels, labels[1:]):
        yield (b, g.degree(b), g.port_of(a, b), g.port_of(b, a))


# a path 0-1-2-3-4-5-6 with a chord 3-6, a leaf 9 off 2, and leaves 7 and 8
# off 5 and 6; every port row lists its neighbours in label order except 6's
DROP_GRAPH = LabeledGraph(
    {
        0: [1],
        1: [0, 2],
        2: [1, 3, 9],
        3: [2, 4, 6],
        4: [3, 5],
        5: [4, 6, 7],
        6: [5, 3, 8],
        7: [5],
        8: [6],
        9: [2],
    }
)


def test_source_plans_across_a_distance_drop():
    # target 2 keeps its unexplored port 2 while the edge 3-6 lowers 6 from
    # distance 6 to 4: the second plan reuses the search tree ranked for the
    # first; once 2 is spent, the levels built next must hold 6 at distance
    # 4, ahead of 5 at distance 5, not where it was first reached
    g = DROP_GRAPH
    walk = [0, 1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1, 0]  # distances 1..6 along the way
    walk += [1, 2, 3, 6, 3, 2, 1, 0]  # the drop
    walk += [1, 2, 9, 2, 1, 0]  # spends 2's last port
    view, plans, dropped = ExploredView(), [], False
    for rec in walk_records(g, walk):
        before = dict(view.dist.dist) if view.dist else {}
        view.observe(rec)
        dropped |= any(view.dist.dist[v] < d for v, d in before.items())
        # away from the source only the walk home is planned, as
        # fuel-cautious does
        within = 10 if view.cur == view.source else None
        ranked = len(view._tree)
        got = view.plan_to(within)
        assert got == naive_plan_to(view, oracle_target(view, within)), (rec, within)
        if within is not None and rec[2] != -1:
            plans.append((got[0], dropped, len(view._tree) == ranked))
            dropped = False
    assert plans == [(2, False, False), (2, True, True), (6, False, False)]
    assert view.dist.dist[6] == 4 and view.dist.dist[5] == 5


def test_source_plan_after_a_plan_from_elsewhere_reuses_the_tree():
    # from the spent source, a plan bounded by 1 builds level 1 only and
    # finds nothing; the next plan builds level 2 and picks 2; a bounded
    # plan from 1 and a walk back to the source follow, and the next plan
    # from the source reads the same levels and ranking again
    g = DROP_GRAPH
    view = ExploredView()
    records = walk_records(g, [0, 1, 2, 1, 0, 1, 2, 3, 2, 1, 0])
    for rec in islice(records, 5):
        view.observe(rec)
    assert view.plan_to(1) is None and len(view._tree) == 2
    assert view.plan_to(10) == (2, [0, 1])
    tree, ranked = list(view._tree), list(view._ranked)
    assert len(tree) == 3 and ranked == [2]
    for rec in islice(records, 5):
        view.observe(rec)
    assert view.cur == 1 and len(view.adj[1]) == view.degree[1]
    assert view.plan_to(10) == naive_plan_to(view, oracle_target(view, 10)) == (2, [1])
    view.observe(next(records))
    assert view.cur == view.source and len(view.adj[view.source]) == view.degree[view.source]
    got = view.plan_to(10)
    assert got == naive_plan_to(view, oracle_target(view, 10)) == (2, [0, 1])
    assert len(view._tree) == len(tree) and all(a is b for a, b in zip(view._tree, tree))
    assert view._ranked == ranked


@pytest.mark.parametrize("case", ["family-10-16-6-s0", "lollipop-1-2-1", "lollipop-3-2-1"])
def test_fuel_plans_reuse_the_search_tree_and_pop_stale_entries(case, monkeypatch):
    # every fuel-cautious plan from the source equals the oracle's; the
    # ranked labels are always the deepest level's in descending order, less
    # the labels popped off the end once they left the frontier, so they
    # only shrink between level builds; the levels of the search tree are
    # reused across new edges and still match the oracle when the run ends;
    # and no distance ever drops: each probe leaves the nearest frontier
    # node, so every known node with an unexplored port sits at that node's
    # distance or one more
    g, source, alpha, _ = PLAN_CASES[case]
    inst = Instance(graph=g, source=source, alpha=alpha)
    plan, observe = ExploredView.plan_to, ExploredView.observe
    seen = Counter()
    views = set()
    edges_since = 0  # new edges since the last plan from the source

    def counting_observe(view, rec):
        nonlocal edges_since
        before = dict(view.dist.dist) if view.dist else {}
        new_edge = observe(view, rec)
        edges_since += new_edge
        seen["drops"] += sum(view.dist.dist[v] < d for v, d in before.items())
        return new_edge

    def checked(view, within):
        nonlocal edges_since
        views.add(view)
        if within is None:
            return plan(view, within)
        assert view.cur == view.source
        levels, ranked = len(view._tree), list(view._ranked)
        got = plan(view, within)
        assert got == naive_plan_to(view, oracle_target(view, within))
        assert len(view._tree) <= within + 1  # no level is built past the bound
        deepest = sorted(view._tree[-1], reverse=True)
        assert view._ranked == deepest[: len(view._ranked)]
        assert all(len(view.adj[v]) == view.degree[v] for v in deepest[len(view._ranked) :])
        if len(view._tree) == levels:
            assert view._ranked == ranked[: len(view._ranked)]
            seen["popped"] += len(ranked) - len(view._ranked)
            if got and got[1] and edges_since:
                seen["reused across an edge"] += 1
        edges_since = 0
        return got

    monkeypatch.setattr(ExploredView, "observe", counting_observe)
    monkeypatch.setattr(ExploredView, "plan_to", checked)
    _, report = execute(inst, make_policy("fuel-cautious", inst.alpha, inst.ecc), monitors=("completion",))
    assert report.complete
    assert seen["popped"] > 0 and seen["reused across an edge"] > 0, seen
    assert seen["drops"] == 0
    (view,) = views
    assert view.cur == view.source and len(view._tree) > 1
    for level in view._tree:
        routes = {y: naive_plan_to(view, lambda v: v == y)[1] for y in level}
        assert sorted(level, key=routes.get) == list(level)
        assert all(view._route_to(y) == route for y, route in routes.items())


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
# 3 is first reached from 1, but its smallest port into level 1 leads to 2:
# the home port is not the port to the parent; the walk in the example below
# ends at the source with 3 the one node left with an unexplored port
WALK_GRAPHS["crossed"] = (
    LabeledGraph({0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [2, 1, 4], 4: [3]}),
    0,
)


@given(st.sampled_from(sorted(WALK_GRAPHS)), st.lists(st.integers(0, 63), max_size=80))
@example("branches", [0, 1, 0, 0, 1, 1, 0, 0])
@example("crossed", [0, 1, 0, 0])
@settings(max_examples=100, deadline=None)
def test_port_pointers_match_port_scans_on_any_walk(name, choices):
    # record streams no policy would produce (re-entering a node whose ports
    # are all spent, say) keep the pointers equal to the scans too
    g, cur = WALK_GRAPHS[name]
    view, dfs = ExploredView(), DfsPolicy().start()
    records = [(cur, g.degree(cur), -1, -1)]
    for choice in [None, *choices]:
        if choice is not None:
            port = choice % g.degree(cur)
            nxt = g.neighbor(cur, port)
            records.append((nxt, g.degree(nxt), port, g.port_of(nxt, cur)))
            cur = nxt
        rec = records[-1]
        view.observe(rec)
        dfs.observe(rec)
        # the view reads its rows off the distances' one copy, and that copy
        # holds exactly the ports the records name
        assert view.adj is view.dist.adj
        assert view.adj == naive_explored_rows(records)
        assert dfs.next_action() == naive_dfs_next_action(records)
        for v in view.degree:
            assert view.smallest_unexplored_port(v) == naive_smallest_unexplored_port(view, v)
        assert view.dist.dist == naive_view_distances(view)
        for within in (None, 0, 1, 2, 3):
            assert view.plan_to(within) == naive_plan_to(view, oracle_target(view, within))
        # the ranked levels of the search tree hold the nodes at their
        # distance, each with its parent's port to it and its smallest
        # explored port into the level below; the deepest level's labels
        # are ranked in descending order, less those popped off the end
        levels = naive_levels(naive_view_distances(view))
        assert view._ranked == sorted(view._tree[-1], reverse=True)[: len(view._ranked)]
        for d in range(1, len(view._tree)):
            level = view._tree[d]
            assert set(level) == levels[d]
            for y, (parent, port, home) in level.items():
                assert port == port_to(view.adj[parent], y)
                assert home == min(p for p, x in view.adj[y].items() if x in levels[d - 1])
