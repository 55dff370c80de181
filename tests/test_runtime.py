import ast
import gc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explorelab import (
    BudgetError,
    FamilyParams,
    Instance,
    InvariantViolation,
    ParameterError,
    PolicyError,
    StructuralError,
    build_family_graph,
    execute,
    make_policy,
)
from explorelab import runtime
from explorelab.experiments import ExperimentConfig
from explorelab.family import LollipopParams, build_lollipop, family_levels, layer_traversal_stats
from explorelab.graph import LabeledGraph
from explorelab.runtime import (
    ExploredDistances,
    ReplayCursor,
    Trace,
    fuel_tank,
    penalty_before_step,
    return_cap,
)
from explorelab.surgery import switch_ports

from conftest import ScriptPolicy, engine_cases, explored_return_distances, port_script
from oracles import (
    naive_distance_violations,
    naive_distances,
    naive_fuel_violations,
    naive_return_distance,
    naive_run,
)


def test_instance_derives_limits(path3):
    inst = Instance(graph=path3, source=1, alpha=Fraction(1, 2))
    assert inst.ecc == 1
    assert return_cap(inst.alpha, inst.ecc) == 1
    assert fuel_tank(inst.alpha, inst.ecc) == 3


def test_runtime_imports_only_graph_and_errors_from_the_package():
    # the engine knows nothing of the family: the family reads the return
    # cap from the runtime, never the other way round
    nodes = list(ast.walk(ast.parse(Path(runtime.__file__).read_text())))
    relative = {n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.level}
    absolute = {n.module for n in nodes if isinstance(n, ast.ImportFrom) and not n.level}
    absolute |= {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    assert relative == {"graph", "errors"}
    assert not any(name.split(".")[0] == "explorelab" for name in absolute)


def test_instance_rejects_bad_source(path3):
    with pytest.raises(ParameterError):
        Instance(graph=path3, source=9, alpha=Fraction(1))


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(-1, 2)])
def test_instance_rejects_non_positive_alpha(path3, alpha):
    with pytest.raises(ParameterError, match=f"^alpha must be positive, got {alpha}$"):
        Instance(graph=path3, source=1, alpha=alpha)


NOT_POSITIVE = "alpha must be positive, got 0"
SLACK_TOO_SMALL = "need alpha * ecc >= 1, got alpha=1/10, ecc=2"
REFUSALS = {
    # each input rule has one owner, and every module asks it: one message
    "instance-alpha": (lambda: Instance(LabeledGraph({0: [1], 1: [0]}), 0, 0), NOT_POSITIVE),
    "family-levels-alpha": (lambda: family_levels(6, 0), NOT_POSITIVE),
    "distance-config-alpha": (lambda: ExperimentConfig("distance", (2,), 6, 0), NOT_POSITIVE),
    "fuel-config-alpha": (lambda: ExperimentConfig("fuel", (1,), 2, 0), NOT_POSITIVE),
    "lollipop-alpha": (lambda: LollipopParams(1, 2, 0), NOT_POSITIVE),
    "cautious-bfs-alpha": (lambda: make_policy("cautious-bfs", 0, 2), NOT_POSITIVE),
    "fuel-cautious-alpha": (lambda: make_policy("fuel-cautious", 0, 2), NOT_POSITIVE),
    "cautious-bfs-slack": (
        lambda: make_policy("cautious-bfs", Fraction(1, 10), 2),
        SLACK_TOO_SMALL,
    ),
    "fuel-cautious-slack": (
        lambda: make_policy("fuel-cautious", Fraction(1, 10), 2),
        SLACK_TOO_SMALL,
    ),
    "lollipop-slack": (lambda: LollipopParams(1, 2, Fraction(1, 10)), SLACK_TOO_SMALL),
    "distance-config-ecc": (
        lambda: ExperimentConfig("distance", (2,), 5, Fraction(1, 2)),
        "k=2: ecc must be >= 6, got 5",
    ),
    # no dict holds more than sys.maxsize entries, so no graph of a larger
    # order can be built
    "family-size": (lambda: FamilyParams(10**20, 16, 6), "family order exceeds sys.maxsize"),
    "lollipop-size": (
        lambda: LollipopParams(1, 2, 10**400),
        "lollipop order exceeds sys.maxsize",
    ),
    "distance-config-size": (
        lambda: ExperimentConfig("distance", (2,), 6, 10**400),
        "k=2: family order exceeds sys.maxsize",
    ),
    "fuel-config-size": (
        lambda: ExperimentConfig("fuel", (1,), 2, 10**400),
        "k=1: lollipop order exceeds sys.maxsize",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_rule_refuses_one_way(case):
    make, message = REFUSALS[case]
    with pytest.raises(ParameterError) as err:
        make()
    assert str(err.value) == message


def test_cursor_rejects_bad_source(path3):
    with pytest.raises(ParameterError) as err:
        ReplayCursor(path3, ScriptPolicy([]), source=5)
    assert str(err.value) == "source 5 not in graph"


def test_execute_rejects_a_monitor_name_as_string(path3):
    inst = Instance(graph=path3, source=1, alpha=Fraction(1))
    with pytest.raises(ParameterError) as err:
        execute(inst, ScriptPolicy([]), monitors="distance")
    assert str(err.value) == "monitors='distance': pass a collection of monitor names"
    # the CLI refuses an unknown name when it parses it; a library caller
    # meets this check
    with pytest.raises(ParameterError, match="^unknown monitor 'bogus'$"):
        execute(inst, ScriptPolicy([]), monitors=("bogus",))


def test_execute_reads_monitor_names_from_an_iterator():
    # the names are checked before the run and tested after it: an iterator
    # must not be spent by the check
    g, source = build_lollipop(LollipopParams(1, 2, Fraction(1)))
    inst = Instance(graph=g, source=source, alpha=Fraction(1))
    reports = [
        execute(inst, make_policy("dfs", inst.alpha, inst.ecc), monitors=names)[1]
        for names in (("fuel", "completion"), iter(["fuel", "completion"]))
    ]
    assert reports[0].to_dict() == reports[1].to_dict()
    assert reports[1].complete and len(reports[1].violations) == 696


def test_instance_rejects_disconnected_graph():
    g = LabeledGraph({0: [1], 1: [0], 2: [3], 3: [2]})
    with pytest.raises(StructuralError) as err:
        Instance(graph=g, source=0, alpha=Fraction(1))
    assert str(err.value) == "eccentricity undefined: graph is not connected"


def test_single_edge_script(single_edge):
    inst = Instance(graph=single_edge, source=0, alpha=Fraction(1))
    trace, report = execute(inst, ScriptPolicy([0]), monitors=("completion",))
    assert report.steps == 1
    assert report.penalty == 0
    assert report.complete
    assert trace.memory == [(0, 1, -1, -1), (1, 1, 0, 0)]


def test_memory_records_carry_both_ports(path3):
    inst = Instance(graph=path3, source=0, alpha=Fraction(1))
    trace, _ = execute(inst, ScriptPolicy([0, 1]))
    assert trace.memory[1] == (1, 2, 0, 0)
    assert trace.memory[2] == (2, 1, 1, 0)


@pytest.mark.parametrize(
    "build, policy",
    [
        (
            lambda: build_lollipop(LollipopParams(scale=3, ecc=2, alpha=Fraction(1))),
            "fuel-cautious",
        ),
        (lambda: (build_family_graph(FamilyParams(10, 16, 6))[0], 0), "cautious-bfs"),
    ],
    ids=["lollipop", "member"],
)
def test_memory_records_are_left_untracked_by_the_collector(build, policy):
    # a record is an exact tuple of ints, which the cyclic collector stops
    # tracking once it has examined it; a tuple subclass would stay tracked
    g, source = build()
    inst = Instance(graph=g, source=source, alpha=Fraction(1))
    trace, _ = execute(inst, make_policy(policy, inst.alpha, inst.ecc))
    gc.collect()
    assert trace.steps > 100
    assert all(type(rec) is tuple and not gc.is_tracked(rec) for rec in trace.memory)


def test_policy_error_on_bad_port(single_edge):
    inst = Instance(graph=single_edge, source=0, alpha=Fraction(1))
    with pytest.raises(PolicyError):
        execute(inst, ScriptPolicy([5]))


def test_budget_error_carries_trace(triangle, monkeypatch):
    inst = Instance(graph=triangle, source=0, alpha=Fraction(1))
    looping = ScriptPolicy([0, 0, 0, 0, 0, 0, 0, 0])
    monkeypatch.setattr(runtime, "step_budget", lambda graph: 3)
    with pytest.raises(BudgetError) as err:
        execute(inst, looping)
    assert err.value.trace.steps == 3


def test_completion_monitor_flags_partial_run(path3):
    inst = Instance(graph=path3, source=1, alpha=Fraction(1))
    _, report = execute(inst, ScriptPolicy([0]), monitors=("completion",))
    assert report.complete is False
    assert report.violations == [
        {"kind": "completion", "step": 1, "detail": "1 edges unexplored"}
    ]


def test_fuel_violation_at_step_nine():
    g, _ = build_lollipop(LollipopParams(scale=1, ecc=2, alpha=Fraction(1)))
    inst = Instance(graph=g, source=0, alpha=Fraction(1))
    assert fuel_tank(inst.alpha, inst.ecc) == 8
    walk = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]  # nine hops away from the source
    trace, report = execute(inst, port_script(g, walk), monitors=("fuel",))
    fuel = report.violations_of("fuel")
    assert [v["step"] for v in fuel] == [9]
    assert trace.steps == 9


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(1, 3), Fraction(5, 7)])
def test_fuel_violations_match_fraction_oracle(alpha):
    # the integer tank reports the same steps and the same "tank <Fraction>"
    # details as Fraction arithmetic, refuels included
    g, _ = build_lollipop(LollipopParams(scale=1, ecc=2, alpha=Fraction(1)))
    inst = Instance(graph=g, source=0, alpha=alpha)
    walk = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 0, 1] + list(range(13, 27))
    trace, report = execute(inst, port_script(g, walk), monitors=("fuel",))
    want = naive_fuel_violations(trace.memory, 0, fuel_tank(inst.alpha, inst.ecc))
    assert report.violations_of("fuel") == want
    assert len(want) > 10


def test_fuel_resets_at_source():
    g, _ = build_lollipop(LollipopParams(scale=1, ecc=2, alpha=Fraction(1)))
    inst = Instance(graph=g, source=0, alpha=Fraction(1))
    # two out-and-back excursions of 8 traversals each
    walk = [0, 1, 2, 3, 4, 3, 2, 1, 0, 1, 2, 3, 4, 3, 2, 1, 0]
    _, report = execute(inst, port_script(g, walk), monitors=("fuel",))
    assert not report.violations_of("fuel")


def test_distance_monitor_matches_oracle_per_step():
    g, meta = build_family_graph(FamilyParams(10, 16, 6), seed=1)
    inst = Instance(graph=g, source=0, alpha=Fraction(1, 2))
    policy = make_policy("dfs", inst.alpha, inst.ecc)
    trace, report = execute(inst, policy, monitors=("distance",))
    flagged = {v["step"] for v in report.violations_of("distance")}
    expect = set()
    seen = set()
    for i in range(1, trace.steps + 1):
        seen.add(trace.edge_at(i))
        d = naive_return_distance(seen, trace.memory[i][0], 0)
        if d is None or d > return_cap(inst.alpha, inst.ecc):
            expect.add(i)
    assert flagged == expect
    assert expect, "dfs should overrun the return cap somewhere on this graph"


def test_known_return_distance_examples(path3):
    inst = Instance(graph=path3, source=1, alpha=Fraction(1))
    trace, _ = execute(inst, ScriptPolicy([0, 0, 1]))
    assert [d for _, _, d in explored_return_distances(trace, 1)] == [1, 0, 1]
    empty = ExploredDistances(1)
    assert (empty.dist.get(1), empty.dist.get(0)) == (0, None)


def test_known_return_distance_tracks_oracle_midrun():
    g, _ = build_family_graph(FamilyParams(10, 16, 6))
    inst = Instance(graph=g, source=0, alpha=Fraction(1, 2))
    policy = make_policy("cautious-bfs", inst.alpha, inst.ecc)
    trace, _ = execute(inst, policy)
    for i, seen, d in explored_return_distances(trace, 0):
        if i % 97 == 1:
            assert d == naive_return_distance(seen, trace.memory[i][0], 0)


def test_penalty_before_step():
    g = LabeledGraph({0: [1], 1: [0, 2], 2: [1]})
    inst = Instance(graph=g, source=0, alpha=Fraction(1))
    trace, _ = execute(inst, port_script(g, [0, 1, 0, 1, 2]))
    assert penalty_before_step(trace, 0) == 0
    assert penalty_before_step(trace, 2) == 1  # the immediate re-cross
    assert penalty_before_step(trace, 4) == 2
    for cutoff in (99, -5):
        with pytest.raises(ParameterError):
            penalty_before_step(trace, cutoff)


def test_edge_at_rejects_traversals_outside_the_run():
    # index 0 would join the last record to the first, and index steps + 1
    # is past the memory
    g = LabeledGraph({0: [1], 1: [0, 2], 2: [1]})
    inst = Instance(graph=g, source=0, alpha=Fraction(1))
    trace, _ = execute(inst, port_script(g, [0, 1, 2]))
    assert [trace.edge_at(i) for i in (1, 2)] == [(0, 1), (1, 2)]
    for i in (0, -1, 3):
        with pytest.raises(ParameterError):
            trace.edge_at(i)


def test_conservation_at_completion(triangle):
    inst = Instance(graph=triangle, source=0, alpha=Fraction(1))
    policy = make_policy("dfs", inst.alpha, inst.ecc)
    trace, report = execute(inst, policy, monitors=("completion",))
    assert report.complete
    assert report.steps == triangle.edge_count() + report.penalty
    assert report.penalty >= 0


def test_layer_traversal_stats():
    g, meta = build_family_graph(FamilyParams(2, 4, 6))
    # source -> level 1 -> (green) level 2 -> back up the same green edge
    one = meta.green_edges(g, 1)[0]
    walk = [0, one[0], one[1], one[0]]
    inst = Instance(graph=g, source=0, alpha=Fraction(1))
    trace, _ = execute(inst, port_script(g, walk))
    assert layer_traversal_stats(trace, meta) == {1: (1, 1)}
    empty = Trace(memory=[(0, g.degree(0), -1, -1)])
    assert layer_traversal_stats(empty, meta) == {1: (0, 0)}


def test_first_gadget_step_detection():
    g, meta = build_family_graph(FamilyParams(2, 4, 6))
    gadget = next(iter(meta.gadget_labels))
    lo = meta.gadget_level_pair(g, gadget)[0]
    walk = [0, lo, gadget, lo, gadget]
    inst = Instance(graph=g, source=0, alpha=Fraction(1))
    trace, _ = execute(
        inst, port_script(g, walk), gadget_set=set(meta.gadget_labels)
    )
    assert trace.first_gadget_step == 2


@given(seed=st.integers(0, 2**16), data=st.data())
@example(seed=3, data=None)
@settings(max_examples=8, deadline=None)
def test_execute_replay_determinism(seed, data):
    # two runs of one policy give the same trace and report, and a fresh
    # cursor stopped after t steps holds the first t + 1 records
    g, meta = build_family_graph(FamilyParams(10, 16, 6), seed=seed)
    inst = Instance(graph=g, source=0, alpha=Fraction(1, 2))
    for name in ("cautious-bfs", "dfs", "fuel-cautious"):
        policy = make_policy(name, inst.alpha, inst.ecc)
        runs = [
            execute(
                inst,
                policy,
                monitors=("distance", "completion"),
                gadget_set=set(meta.gadget_labels),
            )
            for _ in range(2)
        ]
        (t1, r1), (t2, r2) = runs
        assert t1.memory == t2.memory
        assert t1.traversed == t2.traversed
        assert t1.first_gadget_step == t2.first_gadget_step
        assert r1.to_dict() == r2.to_dict()
        t = t1.steps if data is None else data.draw(st.integers(0, t1.steps))
        cursor = ReplayCursor(g, policy, source=0)
        cursor.run(t)
        assert cursor.memory == t1.memory[: t + 1]


def test_traversed_set_growth_and_return_bound():
    g, _ = build_family_graph(FamilyParams(2, 4, 6))
    inst = Instance(graph=g, source=0, alpha=Fraction(1))
    trace, _ = execute(inst, make_policy("dfs", inst.alpha, inst.ecc))
    sizes = []
    for i, seen, d in explored_return_distances(trace, 0):
        sizes.append(len(seen))
        assert d <= i
    assert sizes == sorted(sizes)


def test_explored_distances_incremental_updates():
    # each synthetic port is the label of the neighbour it leads to
    dists = ExploredDistances(0)
    for a, b in [(0, 1), (1, 2), (2, 3)]:
        dists.add_edge(a, b, b, a)
    assert [dists.dist.get(v) for v in range(4)] == [0, 1, 2, 3]
    dists.add_edge(0, 3, 3, 0)  # shortcut must relax node 3 and its neighbors
    assert dists.dist[3] == 1
    assert dists.dist[2] == 2
    assert dists.adj == {0: {1: 1, 3: 3}, 1: {0: 0, 2: 2}, 2: {1: 1, 3: 3}, 3: {2: 2, 0: 0}}


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
@example([(0, 1), (1, 2), (2, 3), (0, 3)])
@settings(max_examples=200, deadline=None)
def test_explored_distances_match_bfs_on_any_rooted_edge_sequence(pairs):
    # each edge is added from an end that has a distance, as a walker adds
    # the edge it just crossed; an edge with neither end reached yet is
    # skipped.  A later edge may shortcut a long path to the root
    dists = ExploredDistances(0)
    edges = {0: []}
    for a, b in pairs:
        if a == b or b in edges.get(a, ()):
            continue
        if a not in dists.dist:
            if b not in dists.dist:
                continue
            a, b = b, a
        dists.add_edge(a, b, b, a)
        edges.setdefault(a, []).append(b)
        edges.setdefault(b, []).append(a)
        expected = naive_distances(edges, 0)
        assert dists.dist == expected
        assert {v: list(row.values()) for v, row in dists.adj.items()} == edges


ENGINE_CASES = engine_cases()


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
@pytest.mark.parametrize("policy_name", ["cautious-bfs", "dfs", "fuel-cautious"])
def test_engine_matches_plain_stepping_oracle(case, policy_name):
    g, source, alpha, gadgets = ENGINE_CASES[case]
    inst = Instance(graph=g, source=source, alpha=alpha)

    def policy():
        return make_policy(policy_name, inst.alpha, inst.ecc)

    memory, traversed = naive_run(g, policy(), source)
    trace, report = execute(
        inst, policy(), monitors=("distance", "fuel", "completion"), gadget_set=gadgets
    )
    assert trace.memory == memory
    # the trace keeps its memory only; the edge set is derived on each read
    assert "traversed" not in vars(trace)
    assert trace.traversed == traversed
    assert report.steps == len(memory) - 1
    # the monitors read the finished memory: each kind matches its oracle,
    # and at a step with both, the fuel violation comes first
    fuel = naive_fuel_violations(memory, source, fuel_tank(inst.alpha, inst.ecc))
    distance = naive_distance_violations(memory, source, return_cap(inst.alpha, inst.ecc))
    assert report.violations_of("fuel") == fuel
    assert report.violations_of("distance") == distance
    monitored = [v for v in report.violations if v["kind"] != "completion"]
    assert monitored == sorted(fuel + distance, key=lambda v: v["step"])  # a stable sort
    if (policy_name, case) == ("dfs", "family-10-16-6-s3"):
        both = {v["step"] for v in fuel} & {v["step"] for v in distance}
        assert len(both) > 100, "dfs overruns the tank and the return cap at the same steps"

    cursor = ReplayCursor(g, policy(), source=source, gadgets=gadgets)
    while cursor.pending is not None:
        cursor.run(1)
    assert cursor.memory == memory
    assert cursor.traversed == traversed
    assert cursor.first_gadget_step == trace.first_gadget_step


@pytest.mark.parametrize("reverse_built", [False, True])
def test_commit_reads_entry_ports_of_a_swapped_in_graph(reverse_built):
    # the cursor takes entry ports from the graph's reverse map: one carried
    # over and patched by replace_ports, or one not built yet
    base, _ = build_family_graph(FamilyParams(10, 16, 6))
    policy = make_policy("cautious-bfs", Fraction(1, 2), 6)
    cursor = ReplayCursor(base, policy, source=0)
    for _ in range(5):
        cursor.run(1)
    # reverse the ports of a node the walk reaches only later; the steps
    # have built base's reverse map, a fresh copy has none
    seen = {label for label, *_ in cursor.memory}
    unswapped, _ = naive_run(base, policy, 0)
    v = next(v for v, deg, *_ in unswapped if v not in seen and deg > 1)
    old = base if reverse_built else LabeledGraph.from_json(base.to_json())
    swapped = old.replace_ports({v: base.neighbors(v)[::-1]})
    assert (swapped._rports is not None) == reverse_built
    cursor.replace_graph(swapped)
    while cursor.pending is not None:
        cursor.run(1)
    memory, traversed = naive_run(swapped, policy, 0)
    assert memory != unswapped
    assert cursor.memory == memory
    assert cursor.traversed == traversed


@pytest.mark.parametrize("derived", [True, False], ids=["derived", "from-json"])
def test_replace_graph_refuses_to_move_a_traversed_edge(derived):
    # the gate compares the rows the new graph records as replaced, or every
    # row of a graph that does not descend from the cursor's (one read back
    # from JSON); an equal copy moves nothing and is taken
    base, _ = build_family_graph(FamilyParams(10, 16, 6))
    cursor = ReplayCursor(base, make_policy("cautious-bfs", Fraction(1, 2), 6), source=0)
    assert cursor.run(5) is False
    v, _, _, in_port = cursor.memory[1]
    moved = switch_ports(base, v, in_port, (in_port + 1) % base.degree(v)).graph
    if not derived:
        moved = LabeledGraph.from_json(moved.to_json())
    with pytest.raises(InvariantViolation) as err:
        cursor.replace_graph(moved)
    assert str(err.value) == f"surgery touched already-traversed edge {(0, v)}"
    assert cursor.graph is base
    copy = LabeledGraph.from_json(base.to_json())
    cursor.replace_graph(copy)
    assert cursor.graph is copy


@pytest.mark.parametrize("port", ["1", -1, 2])
def test_bad_port_message(path3, port):
    cursor = ReplayCursor(path3, ScriptPolicy([port]), source=1)
    with pytest.raises(PolicyError) as err:
        cursor.run(1)
    assert str(err.value) == f"policy chose port {port!r} at node 1 of degree 2"


@pytest.mark.parametrize("port", ["1", -1, 1], ids=["str", "negative", "degree"])
def test_bad_port_message_through_run(path3, port):
    # the check runs at every step of a run, not only the first; the bad
    # answer stays pending, so the next step raises the same error
    cursor = ReplayCursor(path3, ScriptPolicy([0, port]), source=1)
    with pytest.raises(PolicyError) as err:
        cursor.run(5)
    assert str(err.value) == f"policy chose port {port!r} at node 0 of degree 1"
    assert cursor.memory == [(1, 2, -1, -1), (0, 1, 0, 0)]
    with pytest.raises(PolicyError) as again:
        cursor.run(1)
    assert str(again.value) == str(err.value)


def test_run_returns_whether_the_policy_halted(path3):
    # a run returns whether the policy's last answer is a halt, known after
    # the step that ends the run too, and then nothing is pending
    assert ReplayCursor(path3, ScriptPolicy([0, 0, 1]), source=1).run(3) is True
    cursor = ReplayCursor(path3, ScriptPolicy([0, 0, 1]), source=1)
    assert cursor.run(0) is False and cursor.steps == 0
    assert cursor.run(2) is False and cursor.steps == 2
    assert cursor.run(5) is True and cursor.steps == 3
    assert cursor.run(5) is True and cursor.steps == 3
    assert cursor.pending is None


@pytest.mark.parametrize("chunk", [1, 7, 10**9])
def test_run_reads_a_graph_swapped_in_between_calls(chunk):
    # a graph swapped in between run(1) calls is the one the next call
    # traverses, whatever its limit
    base, _ = build_family_graph(FamilyParams(10, 16, 6))
    policy = make_policy("cautious-bfs", Fraction(1, 2), 6)
    cursor = ReplayCursor(base, policy, source=0)
    for _ in range(5):
        assert cursor.run(1) is False
    seen = {label for label, *_ in cursor.memory}
    unswapped, _ = naive_run(base, policy, 0)
    v = next(v for v, deg, *_ in unswapped if v not in seen and deg > 1)
    swapped = base.replace_ports({v: base.neighbors(v)[::-1]})
    cursor.replace_graph(swapped)
    while not cursor.run(chunk):
        pass
    memory, traversed = naive_run(swapped, policy, 0)
    assert memory != unswapped
    assert cursor.memory == memory
    assert cursor.traversed == traversed


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_budget_error_carries_the_oracle_prefix(case, monkeypatch):
    # at any budget below the run's length, execute raises with the same
    # message and the memory of exactly that many steps; at the length, the
    # run completes
    g, source, alpha, gadgets = ENGINE_CASES[case]
    inst = Instance(graph=g, source=source, alpha=alpha)
    policy = make_policy("cautious-bfs", inst.alpha, inst.ecc)
    memory, _ = naive_run(g, policy, source)
    steps = len(memory) - 1
    for budget in (0, 1, 37, steps // 2, steps - 1):
        monkeypatch.setattr(runtime, "step_budget", lambda graph: budget)
        with pytest.raises(BudgetError) as err:
            execute(inst, policy, monitors=("distance", "fuel"))
        assert str(err.value) == f"exceeded {budget} traversals"
        assert err.value.trace.memory == memory[: budget + 1]
        assert "traversed" not in vars(err.value.trace)
        assert err.value.trace.traversed == {
            (min(a[0], b[0]), max(a[0], b[0]))
            for a, b in zip(memory[:budget], memory[1 : budget + 1])
        }
    monkeypatch.setattr(runtime, "step_budget", lambda graph: steps)
    trace, _ = execute(inst, policy, gadget_set=gadgets)
    assert trace.memory == memory
