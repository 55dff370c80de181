import dataclasses
from fractions import Fraction

import pytest

from explorelab import (
    BudgetError,
    FamilyMeta,
    FamilyParams,
    Instance,
    ParameterError,
    adversary_behavior,
    build_family_graph,
    execute,
    make_policy,
    validate_family_membership,
)
from explorelab.adversary import _replay_agrees
from explorelab.graph import edge_key
from explorelab.runtime import ReplayCursor, layer_traversal_stats, penalty_before_step

from oracles import graph_modification, naive_adversary_behavior, naive_run

ALPHA = Fraction(1, 2)


def cautious():
    return make_policy("cautious-bfs", ALPHA, 6)


def assert_memory_prefix_equal(policy, g1, g2, t):
    """Both runs last at least t traversals and agree through index t."""
    m1, _ = naive_run(g1, policy, 0)
    m2, _ = naive_run(g2, policy, 0)
    assert len(m1) > t and len(m2) > t
    assert m1[: t + 1] == m2[: t + 1]


@pytest.fixture(scope="module")
def k1_run():
    return adversary_behavior(6, ALPHA, cautious(), 16, seed=0)


# -- graph_modification (standalone surface) --------------------------------------


def test_modification_noop_at_source():
    g, _ = build_family_graph(FamilyParams(10, 16, 6))
    out, audit = graph_modification(g, ALPHA, cautious(), 0)
    assert out is g
    assert not audit.stages


def test_modification_noop_on_recrossed_edge():
    g, _ = build_family_graph(FamilyParams(10, 16, 6))
    inst = Instance(graph=g, source=0, alpha=ALPHA)
    trace, _ = execute(inst, cautious())
    seen = set()
    t = None
    for i in range(1, trace.steps + 1):
        key = trace.edge_at(i)
        if key in seen and t is None and i > 1:
            t = i - 1
        seen.add(key)
    assert t is not None
    out, _ = graph_modification(g, ALPHA, cautious(), t)
    assert out is g


def test_modification_noop_after_first_gadget_visit():
    # on the unmodified member cautious-bfs reaches a gadget at step 2; at
    # step 4 it stands at a level-1 node with an unexplored pending edge that
    # leaves the descending layer, so only the first-gadget guard stops the
    # divert-port stage
    g, meta = build_family_graph(FamilyParams(10, 16, 6))
    t = 4
    cursor = ReplayCursor(g, cautious(), source=0, gadgets=meta.gadget_labels)
    for _ in range(t):
        cursor.commit()
    assert cursor.first_gadget_step is not None and cursor.first_gadget_step < t
    assert meta.level_of(cursor.node) == 1
    assert edge_key(cursor.node, cursor.pending_node()) not in cursor.traversed
    out, audit = graph_modification(g, ALPHA, cautious(), t)
    assert out is g
    assert not audit.stages and not audit.surgeries


def test_modification_preserves_prefix_and_membership():
    params = FamilyParams(10, 16, 6)
    g, _ = build_family_graph(params)
    # the first traversal from a level-1 node is the earliest modifiable step
    out, audit = graph_modification(g, ALPHA, cautious(), 1)
    assert out is not g
    assert audit.stages
    assert validate_family_membership(out, params).ok
    assert_memory_prefix_equal(cautious(), g, out, 1)


def test_modification_rejects_halted_policy():
    g, _ = build_family_graph(FamilyParams(10, 16, 6))
    inst = Instance(graph=g, source=0, alpha=ALPHA)
    trace, _ = execute(inst, cautious())
    with pytest.raises(ParameterError):
        graph_modification(g, ALPHA, cautious(), trace.steps)


# -- the prefix gate: a fresh replay against recorded memory ------------------------


def test_prefix_equal_same_graph():
    g, _ = build_family_graph(FamilyParams(4, 8, 7))
    memory, _ = naive_run(g, cautious(), 0)
    assert _replay_agrees(cautious(), g, memory, 30)


def test_prefix_differs_after_relabeling():
    g, _ = build_family_graph(FamilyParams(4, 8, 7))
    swapped = {}
    for v in g.labels():
        key = {1: 2, 2: 1}.get(v, v)
        swapped[key] = [{1: 2, 2: 1}.get(x, x) for x in g.neighbors(v)]
    g2 = type(g)(swapped)
    memory, _ = naive_run(g, cautious(), 0)
    assert not _replay_agrees(cautious(), g2, memory, 30)


# -- the full adversary -------------------------------------------------------------


def test_adversary_rejects_bad_width():
    with pytest.raises(ParameterError):
        adversary_behavior(6, ALPHA, cautious(), 24)


def test_adversary_final_graph_in_family(k1_run):
    assert validate_family_membership(k1_run.final_graph, k1_run.params).ok


def test_adversary_no_behavioral_flags(k1_run):
    assert k1_run.flags == []


def test_adversary_prefix_checks_all_pass(k1_run):
    assert k1_run.prefix_checks > 0
    assert all(a.prefix_ok in (None, True) for a in k1_run.audit)


def test_adversary_trace_matches_fresh_replay(k1_run):
    inst = Instance(graph=k1_run.final_graph, source=0, alpha=ALPHA)
    trace, report = execute(inst, cautious(), monitors=("distance", "completion"))
    assert report.steps == k1_run.step_count
    assert report.complete
    assert not report.violations
    assert trace.memory == k1_run.trace.memory


def test_adversary_green_counts_conserved(k1_run):
    meta = FamilyMeta(k1_run.params)
    for layer in range(1, k1_run.params.levels):
        greens = meta.green_edges(k1_run.final_graph, layer)
        assert len(greens) == k1_run.params.greens_per_layer


def half_exploration_moment(trace, meta):
    """First step at which half of some layer's green edges are explored,
    with the layer index.  Green-ness is label-determined, so this holds
    across all intermediate graphs of a run."""
    half = meta.params.greens_per_layer // 2
    per: dict[int, set] = {i: set() for i in range(1, meta.params.levels)}
    for i in range(1, trace.steps + 1):
        a = trace.memory[i - 1].label
        b = trace.memory[i].label
        kind, layer = meta.edge_kind(a, b)
        if kind == "green":
            per[layer].add(edge_key(a, b))
            if len(per[layer]) == half:
                return i, layer
    return None, None


def test_down_up_balance_until_half_moment(k1_run):
    meta = FamilyMeta(k1_run.params)
    lam, layer = half_exploration_moment(k1_run.trace, meta)
    assert lam is not None
    assert k1_run.trace.first_gadget_step is None or k1_run.trace.first_gadget_step > lam
    down = up = 0
    for i in range(1, lam + 1):
        a = k1_run.trace.memory[i - 1].label
        b = k1_run.trace.memory[i].label
        la, lb = meta.level_of(a), meta.level_of(b)
        if la == layer and lb == layer + 1:
            down += 1
        elif la == layer + 1 and lb == layer:
            up += 1
    assert abs(down - up) <= 1


def test_layer_stats_of_adversary_trace(k1_run):
    meta = FamilyMeta(k1_run.params)
    stats = layer_traversal_stats(k1_run.trace, meta)
    assert set(stats) == set(range(1, k1_run.params.levels))
    assert any(d > 0 for d, _ in stats.values())


def test_adversary_penalty_before_gadget(k1_run):
    lam = k1_run.trace.first_gadget_step
    assert lam is not None
    assert penalty_before_step(k1_run.trace, lam) >= 1


def test_adversary_audit_contains_divert_stages(k1_run):
    stages = {s for a in k1_run.audit for s in a.stages}
    assert "divert-port" in stages
    assert "divert-gadget" in stages


def _reroute_scenario():
    """A scripted prefix that exhausts every downward edge of one deep node
    before approaching it, which is the one situation the rerouting stage
    exists for."""
    from conftest import port_script

    params = FamilyParams(10, 16, 6)
    g, meta = build_family_graph(params)

    def greens_at(v, layer):
        return [
            u for u in g.neighbors(v) if meta.edge_kind(v, u) == ("green", layer)
        ]

    target = up = None
    for v in meta.level_labels(2):
        downs = [u for u in g.neighbors(v) if meta.edge_kind(v, u)[1] == 2]
        ups = greens_at(v, 1)
        if ups and all(meta.edge_kind(v, u) == ("green", 2) for u in downs):
            target, up, down_nodes = v, ups[0], downs
            break
    assert target is not None

    # walk to the target through greens only, avoiding the approach edge
    allowed = {
        (a, b)
        for a in g.labels()
        for b in g.neighbors(a)
        if meta.edge_kind(a, b)[0] in ("green", "source")
    }
    allowed.discard((up, target))
    allowed.discard((target, up))
    parent = {0: None}
    frontier = [0]
    while frontier and target not in parent:
        nxt = []
        for x in frontier:
            for y in sorted(g.neighbors(x)):
                if (x, y) in allowed and y not in parent:
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()

    walk = list(path)
    used = {edge_key(a, b) for a, b in zip(path, path[1:])}
    for d in down_nodes:
        if edge_key(target, d) not in used:
            walk += [d, target]
            used.add(edge_key(target, d))
    walk += path[-2::-1]  # retrace to the source
    if walk[-1] != 0:
        walk.append(0)
    walk += [up, target]  # the pending approach, via the unexplored green
    return params, g, meta, port_script(g, walk), len(walk) - 2, up, target


def test_reroute_stage_fires_and_reroutes():
    params, g, meta, policy, t, up, target = _reroute_scenario()
    out, audit = graph_modification(g, ALPHA, policy, t)
    assert "reroute" in audit.stages
    ops = [s.op for s in audit.surgeries]
    assert "move-gadget" in ops and "switch-edges" in ops
    assert all(s.changed for s in audit.surgeries)
    assert validate_family_membership(out, params).ok
    assert_memory_prefix_equal(policy, g, out, t)
    # the pending port now reaches a node that still has unexplored edges
    # toward the next layer
    rerouted = out.neighbor(up, g.port_of(up, target))
    assert rerouted != target
    assert meta.level_of(rerouted) == 2


def test_adversary_against_dfs_flags_or_pays():
    # an incorrect policy either trips the distance monitor on the final
    # graph or still pays the gadget penalty; both are consistent outcomes
    policy = make_policy("dfs", ALPHA, 6)
    run = adversary_behavior(6, ALPHA, policy, 16, seed=0)
    assert validate_family_membership(run.final_graph, run.params).ok
    inst = Instance(graph=run.final_graph, source=0, alpha=ALPHA)
    meta = FamilyMeta(run.params)
    trace, report = execute(
        inst,
        make_policy("dfs", ALPHA, 6),
        monitors=("distance", "completion"),
        gadget_set=set(meta.gadget_labels),
    )
    assert report.complete
    paid = (
        trace.first_gadget_step is not None
        and penalty_before_step(trace, trace.first_gadget_step) >= 1
    )
    assert report.violations_of("distance") or paid


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_adversary_other_seeds(seed):
    run = adversary_behavior(6, ALPHA, cautious(), 16, seed=seed)
    assert run.flags == []
    assert validate_family_membership(run.final_graph, run.params).ok
    lam = run.trace.first_gadget_step
    assert lam is not None
    assert penalty_before_step(run.trace, lam) >= 1


def test_adversary_k2_alternate_seed_still_pays():
    # the bound is seed-independent; guard against a lucky default seed
    run = adversary_behavior(6, ALPHA, cautious(), 32, seed=1)
    assert run.flags == []
    inst = Instance(graph=run.final_graph, source=0, alpha=ALPHA)
    trace, report = execute(
        inst,
        cautious(),
        monitors=("distance", "completion"),
        gadget_set=set(FamilyMeta(run.params).gadget_labels),
    )
    assert report.complete and not report.violations
    assert penalty_before_step(trace, trace.first_gadget_step) >= 4


def test_adversary_is_seed_deterministic():
    runs = [
        adversary_behavior(6, ALPHA, cautious(), 16, seed=5)
        for _ in range(2)
    ]
    assert runs[0].final_graph.to_json() == runs[1].final_graph.to_json()
    assert runs[0].step_count == runs[1].step_count
    assert runs[0].trace.memory == runs[1].trace.memory
    other = adversary_behavior(6, ALPHA, cautious(), 16, seed=6)
    assert other.final_graph.to_json() != runs[0].final_graph.to_json()


# -- the two phases against the single loop that rewrites before every step -------


def run_fields(run):
    """Every field of an AdversaryRun, in comparable form."""
    out = {}
    for f in dataclasses.fields(run):
        value = getattr(run, f.name)
        if f.name == "final_graph":
            value = value.to_json()
        elif f.name == "audit":
            value = [a.to_dict() for a in value]
        elif f.name == "trace":
            value = (value.memory, value.traversed, value.first_gadget_step)
        out[f.name] = value
    return out


@pytest.mark.parametrize(
    "policy_name,k,seed",
    [("cautious-bfs", 1, 0), ("cautious-bfs", 1, 1), ("cautious-bfs", 2, 0),
     ("cautious-bfs", 2, 1), ("dfs", 1, 0)],
)
def test_two_phase_run_matches_rewriting_every_step(policy_name, k, seed):
    def run(behavior):
        policy = make_policy(policy_name, ALPHA, 6)
        return behavior(6, ALPHA, policy, 16 * k, seed=seed)

    got = run(adversary_behavior)
    assert run_fields(got) == run_fields(run(naive_adversary_behavior))
    # the replay phase is not empty: the policy goes on past the first gadget
    assert got.trace.first_gadget_step < got.step_count
    if policy_name == "dfs":
        assert got.flags


@pytest.mark.parametrize("past_gadget", [-1, 0, 10])
def test_budget_error_matches_rewriting_every_step(past_gadget):
    # a budget that ends just before, at and after the first gadget visit:
    # the last two run out in the replay phase
    full = naive_adversary_behavior(6, ALPHA, cautious(), 16, seed=0)
    budget = full.trace.first_gadget_step + past_gadget
    assert budget < full.step_count
    errors = []
    for behavior in (adversary_behavior, naive_adversary_behavior):
        with pytest.raises(BudgetError) as err:
            behavior(6, ALPHA, cautious(), 16, seed=0, max_steps=budget)
        errors.append(err.value)
    assert str(errors[0]) == str(errors[1]) == f"adversary exceeded {budget} steps"
    assert errors[0].trace.steps == errors[1].trace.steps == budget
    assert errors[0].trace.memory == errors[1].trace.memory


@pytest.mark.parametrize("before_halt", [1, 2, 1000])
def test_replay_phase_budget_error_matches_rewriting_every_step(before_halt):
    # budgets that run out deep in the replay phase, which is one
    # ReplayCursor.run call: the same message and the same partial memory as
    # rewriting before every step, and the full run's memory up to the budget
    full = naive_adversary_behavior(6, ALPHA, cautious(), 16, seed=0)
    budget = full.step_count - before_halt
    assert budget > full.trace.first_gadget_step
    errors = []
    for behavior in (adversary_behavior, naive_adversary_behavior):
        with pytest.raises(BudgetError) as err:
            behavior(6, ALPHA, cautious(), 16, seed=0, max_steps=budget)
        errors.append(err.value)
    assert str(errors[0]) == str(errors[1]) == f"adversary exceeded {budget} steps"
    assert errors[0].trace.memory == errors[1].trace.memory == full.trace.memory[: budget + 1]
    run = adversary_behavior(6, ALPHA, cautious(), 16, seed=0, max_steps=full.step_count)
    assert run.step_count == full.step_count


def test_cursor_replays_with_graph_swap():
    g, meta = build_family_graph(FamilyParams(10, 16, 6))
    cursor = ReplayCursor(g, cautious(), source=0, gadgets=meta.gadget_labels)
    for _ in range(5):
        cursor.commit()
    assert cursor.steps == 5
    assert cursor.pending_node() is not None
    before = list(cursor.memory)
    cursor.replace_graph(g)
    assert cursor.memory == before


class CountingPolicy:
    """Wraps a policy and counts, over every run state it starts, the records
    fed and the next-action questions asked.  Test helper."""

    def __init__(self, inner):
        self.inner = inner
        self.observed = 0
        self.asked = 0

    def start(self):
        return _CountingRun(self, self.inner.start())


class _CountingRun:
    def __init__(self, counts, state):
        self.counts = counts
        self.state = state

    def observe(self, rec):
        self.counts.observed += 1
        self.state.observe(rec)

    def next_action(self):
        self.counts.asked += 1
        return self.state.next_action()


def test_policy_asked_once_per_step():
    # the cursor keeps the policy's answer until the next record, so neither
    # the per-step rewrite nor the prefix replays ask twice for one step
    g, _ = build_family_graph(FamilyParams(10, 16, 6))
    policy = CountingPolicy(cautious())
    _, audit = graph_modification(g, ALPHA, policy, 1)
    assert audit.stages
    assert 0 < policy.asked <= policy.observed
    policy = CountingPolicy(cautious())
    run = adversary_behavior(6, ALPHA, policy, 16, seed=0)
    assert run.prefix_checks > 0
    assert run.step_count < policy.asked <= policy.observed
