from fractions import Fraction

import pytest

from explorelab import (
    BudgetError,
    FamilyParams,
    Instance,
    LabeledGraph,
    LollipopParams,
    ParameterError,
    PolicyError,
    Trace,
    build_family_graph,
    build_lollipop,
    execute,
    layer_traversal_stats,
    make_policy,
    penalty_before_step,
)
from explorelab.runtime import ExploredDistances, MemoryRecord, ReplayCursor

from conftest import ScriptPolicy, engine_cases, explored_return_distances, port_script
from oracles import naive_fuel_violations, naive_return_distance, naive_run


def test_instance_derives_limits(path3):
    inst = Instance(graph=path3, source=1, alpha=Fraction(1, 2))
    assert inst.ecc == 1
    assert inst.dist_cap == Fraction(3, 2)
    assert inst.dist_cap_floor == 1
    assert inst.fuel_tank == 3
    assert inst.fuel_floor == 3


def test_instance_rejects_bad_source(path3):
    with pytest.raises(ParameterError):
        Instance(graph=path3, source=9, alpha=Fraction(1))


def test_single_edge_script(single_edge):
    inst = Instance(graph=single_edge, source=0, alpha=Fraction(1))
    trace, report = execute(inst, ScriptPolicy([0]), monitors=("completion",))
    assert report.steps == 1
    assert report.penalty == 0
    assert report.complete
    assert trace.memory == [
        MemoryRecord(0, 1, -1, -1),
        MemoryRecord(1, 1, 0, 0),
    ]


def test_memory_records_carry_both_ports(path3):
    inst = Instance(graph=path3, source=0, alpha=Fraction(1))
    trace, _ = execute(inst, ScriptPolicy([0, 1]))
    assert trace.memory[1] == MemoryRecord(1, 2, 0, 0)
    assert trace.memory[2] == MemoryRecord(2, 1, 1, 0)


def test_policy_error_on_bad_port(single_edge):
    inst = Instance(graph=single_edge, source=0, alpha=Fraction(1))
    with pytest.raises(PolicyError):
        execute(inst, ScriptPolicy([5]))


def test_budget_error_carries_trace(triangle):
    inst = Instance(graph=triangle, source=0, alpha=Fraction(1))
    looping = ScriptPolicy([0, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(BudgetError) as err:
        execute(inst, looping, max_steps=3)
    assert err.value.trace.steps == 3


def test_completion_monitor_flags_partial_run(path3):
    inst = Instance(graph=path3, source=1, alpha=Fraction(1))
    _, report = execute(inst, ScriptPolicy([0]), monitors=("completion",))
    assert report.complete is False
    assert report.violations_of("completion")


def test_fuel_violation_at_step_nine():
    g, _ = build_lollipop(LollipopParams(scale=1, ecc=2, alpha=Fraction(1)))
    inst = Instance(graph=g, source=0, alpha=Fraction(1))
    assert inst.fuel_floor == 8
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
    want = naive_fuel_violations(trace.memory, 0, inst.fuel_tank)
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
        d = naive_return_distance(seen, trace.memory[i].label, 0)
        if d is None or d > inst.dist_cap_floor:
            expect.add(i)
    assert flagged == expect
    assert expect, "dfs should overrun the return cap somewhere on this graph"


def test_known_return_distance_examples(path3):
    inst = Instance(graph=path3, source=1, alpha=Fraction(1))
    trace, _ = execute(inst, ScriptPolicy([0, 0, 1]))
    assert [d for _, _, d in explored_return_distances(trace, 1)] == [1, 0, 1]
    empty = ExploredDistances(1)
    assert (empty.get(1), empty.get(0)) == (0, None)


def test_known_return_distance_tracks_oracle_midrun():
    g, _ = build_family_graph(FamilyParams(10, 16, 6))
    inst = Instance(graph=g, source=0, alpha=Fraction(1, 2))
    policy = make_policy("cautious-bfs", inst.alpha, inst.ecc)
    trace, _ = execute(inst, policy)
    for i, seen, d in explored_return_distances(trace, 0):
        if i % 97 == 1:
            assert d == naive_return_distance(seen, trace.memory[i].label, 0)


def test_penalty_before_step():
    g = LabeledGraph({0: [1], 1: [0, 2], 2: [1]})
    inst = Instance(graph=g, source=0, alpha=Fraction(1))
    trace, _ = execute(inst, port_script(g, [0, 1, 0, 1, 2]))
    assert penalty_before_step(trace, 0) == 0
    assert penalty_before_step(trace, 2) == 1  # the immediate re-cross
    assert penalty_before_step(trace, 4) == 2
    with pytest.raises(ParameterError):
        penalty_before_step(trace, 99)


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
    empty = Trace(memory=[MemoryRecord(0, g.degree(0), -1, -1)])
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


def test_execute_replay_determinism():
    g, meta = build_family_graph(FamilyParams(10, 16, 6), seed=3)
    inst = Instance(graph=g, source=0, alpha=Fraction(1, 2))
    runs = [
        execute(
            inst,
            make_policy("cautious-bfs", inst.alpha, inst.ecc),
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
    dists = ExploredDistances(0)
    dists.add_edge(0, 1)
    dists.add_edge(1, 2)
    dists.add_edge(2, 3)
    assert [dists.get(v) for v in range(4)] == [0, 1, 2, 3]
    dists.add_edge(0, 3)  # shortcut must relax node 3 and its neighbors
    assert dists.get(3) == 1
    assert dists.get(2) == 2


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
    assert trace.traversed == traversed
    assert report.steps == len(memory) - 1

    cursor = ReplayCursor(g, policy(), source=source, gadgets=gadgets)
    while cursor.pending_port() is not None:
        cursor.commit()
    assert cursor.memory == memory
    assert cursor.traversed == traversed
    assert cursor.first_gadget_step == trace.first_gadget_step
