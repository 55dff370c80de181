import dataclasses
import re
from fractions import Fraction
from functools import partial

import pytest

from explorelab import (
    BudgetError,
    FamilyParams,
    Instance,
    InvariantViolation,
    ParameterError,
    PolicyError,
    adversary_behavior,
    build_family_graph,
    execute,
    make_policy,
    validate_family_membership,
)
from explorelab import adversary
from explorelab.adversary import (
    _first_unexplored_green,
    _replay_agrees,
    _unexplored_layer_neighbors,
)
from explorelab.family import FamilyMeta, family_levels, layer_traversal_stats
from explorelab.graph import LabeledGraph, edge_key
from explorelab.runtime import ReplayCursor, penalty_before_step

from conftest import ScriptPolicy
from oracles import (
    graph_modification,
    naive_adversary_behavior,
    naive_green_edges,
    naive_run,
    naive_unexplored_greens,
)

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
        cursor.run(1)
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


class DriftingPolicy:
    """cautious-bfs, except that every run after the first leaves the source
    by the next port up: not a pure function of its memory.  Test helper."""

    def __init__(self):
        self.inner = cautious()
        self.starts = 0

    def start(self):
        self.starts += 1
        return _DriftingRun(self.inner.start(), self.starts > 1)


class _DriftingRun:
    def __init__(self, state, drift):
        self.state = state
        self.drift = drift

    def observe(self, rec):
        port = self.state.observe(rec)
        return port + 1 if self.drift and rec[2] == -1 else port


def test_adversary_refuses_a_replay_that_departs_from_the_prefix():
    # the adversary's own run is cautious-bfs, but the fresh replay after its
    # first change leaves the source elsewhere; the per-step prefix gate stops
    # the run there instead of carrying on to the halt
    with pytest.raises(InvariantViolation, match="^memory prefix not preserved at step 2$"):
        adversary_behavior(6, ALPHA, DriftingPolicy(), 16, seed=0)


# -- the full adversary -------------------------------------------------------------


def test_adversary_rejects_bad_width():
    with pytest.raises(ParameterError):
        adversary_behavior(6, ALPHA, cautious(), 24)


def test_adversary_rejects_a_short_tail():
    # the family's parameters refuse ecc 5; with a bad width too, the width
    # is checked first
    with pytest.raises(ParameterError, match="^ecc must be >= 6, got 5$"):
        adversary_behavior(5, ALPHA, cautious(), 16)
    with pytest.raises(ParameterError, match="^width must be a positive multiple of 16, got 0$"):
        adversary_behavior(5, ALPHA, cautious(), 0)


def test_adversary_final_graph_in_family(k1_run):
    assert validate_family_membership(k1_run.final_graph, k1_run.meta.params).ok


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
    # the run's trace keeps its memory only; the edge set is derived from it
    assert "traversed" not in vars(k1_run.trace)
    assert k1_run.trace.traversed == naive_run(k1_run.final_graph, cautious(), 0)[1]


def test_adversary_green_counts_conserved(k1_run):
    meta = k1_run.meta
    for layer in range(1, meta.params.levels):
        greens = meta.green_edges(k1_run.final_graph, layer)
        assert len(greens) == meta.params.greens_per_layer
        assert greens == naive_green_edges(k1_run.final_graph, meta, layer)


def half_exploration_moment(trace, meta):
    """First step at which half of some layer's green edges are explored,
    with the layer index.  Green-ness is label-determined, so this holds
    across all intermediate graphs of a run."""
    half = meta.params.greens_per_layer // 2
    per: dict[int, set] = {i: set() for i in range(1, meta.params.levels)}
    for i in range(1, trace.steps + 1):
        a, b = trace.memory[i - 1][0], trace.memory[i][0]
        layer = meta.green_layer(a, b)
        if layer is not None:
            per[layer].add(edge_key(a, b))
            if len(per[layer]) == half:
                return i, layer
    return None, None


def test_down_up_balance_until_half_moment(k1_run):
    meta = k1_run.meta
    lam, layer = half_exploration_moment(k1_run.trace, meta)
    assert lam is not None
    assert k1_run.trace.first_gadget_step is None or k1_run.trace.first_gadget_step > lam
    down = up = 0
    for i in range(1, lam + 1):
        a, b = k1_run.trace.memory[i - 1][0], k1_run.trace.memory[i][0]
        la, lb = meta.level_of(a), meta.level_of(b)
        if la == layer and lb == layer + 1:
            down += 1
        elif la == layer + 1 and lb == layer:
            up += 1
    assert abs(down - up) <= 1


def test_layer_stats_of_adversary_trace(k1_run):
    meta = k1_run.meta
    stats = layer_traversal_stats(k1_run.trace, meta)
    assert set(stats) == set(range(1, meta.params.levels))
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

    # a level-2 node whose every edge into layer 2 is green
    below, gadgets = meta.level_labels(3), meta._layer_gadgets(2)
    target = up = None
    for v in meta.level_labels(2):
        downs = [u for u in g.neighbors(v) if u in below or u in gadgets]
        ups = [u for u in g.neighbors(v) if meta.green_layer(v, u) == 1]
        if ups and all(u in below for u in downs):
            target, up, down_nodes = v, ups[0], downs
            break
    assert target is not None

    # walk to the target through greens only, avoiding the approach edge
    allowed = {
        (a, b)
        for a in g.labels()
        for b in g.neighbors(a)
        if meta.green_layer(a, b) is not None or meta.source_label in (a, b)
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


@pytest.mark.parametrize("seed", [0, 1])
def test_first_unexplored_green_is_the_sorted_layers_first(seed):
    # the adversary's one-scan pick against the whole layer's green edges,
    # sorted and filtered, along a run that traverses greens of every layer;
    # seed 1 shuffles every port row
    params = FamilyParams(10, 16, 6)
    g, _ = build_family_graph(params, seed)
    meta = FamilyMeta(params)
    cursor = ReplayCursor(g, cautious())
    for _ in range(12):
        cursor.run(40)
        for layer in range(1, params.levels):
            greens = naive_unexplored_greens(g, meta, layer, cursor.traversed)
            assert _first_unexplored_green(cursor, meta, layer) == (greens or [None])[0]
            skip = set(greens[:2])
            rest = naive_unexplored_greens(g, meta, layer, cursor.traversed, skip)
            assert _first_unexplored_green(cursor, meta, layer, skip) == (rest or [None])[0]


def test_reroute_stage_fires_and_reroutes():
    params, g, meta, policy, t, up, target = _reroute_scenario()
    out, audit = graph_modification(g, ALPHA, policy, t)
    # the gadget and the green edge the stage picks, and the switch after
    assert audit.to_dict() == {
        "step": 16,
        "stages": ["reroute"],
        "surgeries": [
            {"op": "move-gadget", "args": ((15, 17), 163), "changed": True,
             "reason": None, "note": None},
            {"op": "switch-edges", "args": (31, 19, 0, 1), "changed": True,
             "reason": None, "note": None},
        ],
        "changed": True,
        "prefix_ok": True,
        "flags": [],
    }
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
    assert validate_family_membership(run.final_graph, run.meta.params).ok
    inst = Instance(graph=run.final_graph, source=0, alpha=ALPHA)
    meta = run.meta
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
    assert validate_family_membership(run.final_graph, run.meta.params).ok
    lam = run.trace.first_gadget_step
    assert lam is not None
    assert penalty_before_step(run.trace, lam) >= 1


def test_adversary_k2_alternate_seed_still_pays(k2_adversary_runs):
    # the bound is seed-independent; guard against a lucky default seed
    run = k2_adversary_runs[1]
    assert run.flags == []
    for layer in range(1, run.meta.params.levels):
        greens = run.meta.green_edges(run.final_graph, layer)
        assert greens == naive_green_edges(run.final_graph, run.meta, layer)
    inst = Instance(graph=run.final_graph, source=0, alpha=ALPHA)
    trace, report = execute(
        inst,
        cautious(),
        monitors=("distance", "completion"),
        gadget_set=set(run.meta.gadget_labels),
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


# -- the role questions against their definitions ----------------------------------


def brute_green_layer(meta, a, b):
    """Layer i when {a, b} joins a level-i node to a level-(i+1) node, else None."""
    la, lb = meta.level_of(a), meta.level_of(b)
    for i in range(1, meta.params.levels):
        if {la, lb} == {i, i + 1}:
            return i
    return None


def brute_descends(meta, v, w):
    """Whether {v, w} leads down from level-j node v: to level j+1 or to a
    gadget of layer j."""
    j = meta.level_of(v)
    return meta.level_of(w) == j + 1 or (meta.is_gadget(w) and meta.gadget_layer(w) == j)


def assert_roles_match(meta, graph, steps=0):
    """green_layer on every edge of ``graph``, and each level node's
    descending neighbours off the edges a cautious-bfs run leaves unexplored
    after ``steps`` steps, against the brute-force definitions."""
    for a, b in graph.edges():
        assert meta.green_layer(a, b) == meta.green_layer(b, a) == brute_green_layer(meta, a, b)
    cursor = ReplayCursor(graph, ScriptPolicy([]) if steps == 0 else cautious())
    cursor.run(steps)
    levels = meta.params.levels
    for v in range(1, meta.params.width * levels + 1):
        want = [
            w
            for w in graph.neighbors(v)
            if brute_descends(meta, v, w) and edge_key(v, w) not in cursor.traversed
        ]
        assert _unexplored_layer_neighbors(cursor, meta, v) == want


def test_role_questions_on_every_label_pair():
    # every pair of labels of a member, the source and the tail included: a
    # complete graph on its labels makes each pair an edge; the last level
    # descends nowhere, though level_labels(levels + 1) holds gadget labels
    meta = FamilyMeta(FamilyParams(4, 8, 7))
    labels = range(meta.params.order)
    for a in labels:
        for b in labels:
            assert meta.green_layer(a, b) == brute_green_layer(meta, a, b)
    complete = LabeledGraph({v: [w for w in labels if w != v] for v in labels})
    assert_roles_match(meta, complete)
    cursor = ReplayCursor(complete, ScriptPolicy([]))
    assert all(not _unexplored_layer_neighbors(cursor, meta, v) for v in meta.level_labels(4))
    assert meta.green_layer(meta.source_label, 1) is None


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("steps", [0, 60])
def test_role_questions_on_every_member_edge(seed, steps):
    g, meta = build_family_graph(FamilyParams(10, 16, 6), seed)
    assert_roles_match(meta, g, steps)


@pytest.mark.parametrize("steps", [0, 60])
def test_role_questions_on_the_adversary_graph(k1_run, steps):
    assert k1_run.meta.params == FamilyParams(family_levels(6, ALPHA), 16, 6)
    assert_roles_match(k1_run.meta, k1_run.final_graph, steps)


# -- the two phases against the single loop that rewrites before every step -------


def run_fields(run):
    """Every field of an AdversaryRun, and the three counts it reads off its
    trace and audit, in comparable form."""
    out = {}
    for f in dataclasses.fields(run):
        value = getattr(run, f.name)
        if f.name == "meta":
            value = value.params
        elif f.name == "final_graph":
            value = value.to_json()
        elif f.name == "audit":
            value = [a.to_dict() for a in value]
        elif f.name == "trace":
            value = (value.memory, value.traversed, value.first_gadget_step)
        out[f.name] = value
    for name in ("step_count", "flags", "prefix_checks"):
        out[name] = getattr(run, name)
    return out


@pytest.mark.parametrize(
    "policy_name,k,seed",
    [("cautious-bfs", 1, 0), ("cautious-bfs", 1, 1), ("cautious-bfs", 2, 0),
     ("cautious-bfs", 2, 1), ("dfs", 1, 0)],
)
def test_two_phase_run_matches_rewriting_every_step(k2_adversary_runs, policy_name, k, seed):
    def run(behavior):
        policy = make_policy(policy_name, ALPHA, 6)
        return behavior(6, ALPHA, policy, 16 * k, seed=seed)

    shared = (policy_name, k) == ("cautious-bfs", 2)  # conftest's runs
    got = k2_adversary_runs[seed] if shared else run(adversary_behavior)
    naive, counts = run(naive_adversary_behavior)
    assert run_fields(got) == run_fields(naive)
    assert counts == {name: getattr(got, name) for name in counts}
    # the replay phase is not empty: the policy goes on past the first gadget
    gadget_step = got.trace.first_gadget_step
    assert gadget_step < got.step_count
    # and no step after the first gadget visit rewrote or flagged
    assert all(a.step <= gadget_step for a in naive.audit)
    if policy_name == "dfs":
        assert got.flags


@pytest.mark.parametrize("past_gadget", [-1, 0, 10])
def test_budget_error_matches_rewriting_every_step(past_gadget, monkeypatch):
    # a budget that ends just before, at and after the first gadget visit:
    # the last two run out in the replay phase
    full, _ = naive_adversary_behavior(6, ALPHA, cautious(), 16, seed=0)
    budget = full.trace.first_gadget_step + past_gadget
    assert budget < full.step_count
    monkeypatch.setattr(adversary, "step_budget", lambda graph: budget)
    errors = []
    for behavior in (adversary_behavior, partial(naive_adversary_behavior, max_steps=budget)):
        with pytest.raises(BudgetError) as err:
            behavior(6, ALPHA, cautious(), 16, seed=0)
        errors.append(err.value)
    assert str(errors[0]) == str(errors[1]) == f"adversary exceeded {budget} steps"
    assert errors[0].trace.steps == errors[1].trace.steps == budget
    assert errors[0].trace.memory == errors[1].trace.memory


@pytest.mark.parametrize("before_halt", [1, 2, 1000])
def test_replay_phase_budget_error_matches_rewriting_every_step(before_halt, monkeypatch):
    # budgets that run out deep in the replay phase, which is one
    # ReplayCursor.run call: the same message and the same partial memory as
    # rewriting before every step, and the full run's memory up to the budget
    full, _ = naive_adversary_behavior(6, ALPHA, cautious(), 16, seed=0)
    budget = full.step_count - before_halt
    assert budget > full.trace.first_gadget_step
    monkeypatch.setattr(adversary, "step_budget", lambda graph: budget)
    errors = []
    for behavior in (adversary_behavior, partial(naive_adversary_behavior, max_steps=budget)):
        with pytest.raises(BudgetError) as err:
            behavior(6, ALPHA, cautious(), 16, seed=0)
        errors.append(err.value)
    assert str(errors[0]) == str(errors[1]) == f"adversary exceeded {budget} steps"
    assert errors[0].trace.memory == errors[1].trace.memory == full.trace.memory[: budget + 1]
    monkeypatch.setattr(adversary, "step_budget", lambda graph: full.step_count)
    run = adversary_behavior(6, ALPHA, cautious(), 16, seed=0)
    assert run.step_count == full.step_count


def test_policy_that_halts_at_once_makes_a_zero_step_run():
    # like execute, the adversary returns the empty run of a policy that
    # never moves: no step, no audit, the fresh member unchanged
    fresh, _ = build_family_graph(FamilyParams(10, 16, 6), seed=0)
    run = adversary_behavior(6, ALPHA, ScriptPolicy([]), 16, seed=0)
    naive, counts = naive_adversary_behavior(6, ALPHA, ScriptPolicy([]), 16, seed=0)
    for r in (run, naive):
        assert r.step_count == 0
        assert r.audit == []
        assert r.final_graph == fresh
    assert counts == {"step_count": 0, "flags": [], "prefix_checks": 0}


def test_cursor_replays_with_graph_swap():
    g, meta = build_family_graph(FamilyParams(10, 16, 6))
    cursor = ReplayCursor(g, cautious(), source=0, gadgets=meta.gadget_labels)
    for _ in range(5):
        cursor.run(1)
    assert cursor.steps == 5
    assert cursor.pending_node() is not None
    before = list(cursor.memory)
    cursor.replace_graph(g)
    assert cursor.memory == before


@pytest.mark.parametrize("port", [99, -1, "a", True])
def test_pending_node_rejects_bad_port_like_run(port):
    # the adversary reads the pending node before every step; a port that
    # run would reject raises run's error there, not IndexError or TypeError,
    # -1 does not wrap round to the last neighbour, and True, an int to
    # isinstance, is not taken through port 1
    g, _ = build_family_graph(FamilyParams(10, 16, 6))
    with pytest.raises(PolicyError) as by_run:
        ReplayCursor(g, ScriptPolicy([port])).run(1)
    message = f"policy chose port {port!r} at node 0 of degree 16"
    assert str(by_run.value) == message
    with pytest.raises(PolicyError, match=f"^{re.escape(message)}$"):
        ReplayCursor(g, ScriptPolicy([port])).pending_node()
    with pytest.raises(PolicyError, match=f"^{re.escape(message)}$"):
        adversary_behavior(6, ALPHA, ScriptPolicy([port]), 16)


class CountingPolicy:
    """Wraps a policy and counts, over every run state it starts, the records
    fed and the next-action re-reads asked.  Test helper."""

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
        return self.state.observe(rec)

    def next_action(self):
        self.counts.asked += 1
        return self.state.next_action()


def test_policy_asked_once_per_step(monkeypatch):
    # the policy answers through observe's return value: each record a
    # cursor starts from or appends is fed once, in the per-step rewrite and
    # in every fresh prefix replay alike, and next_action is never called
    cursors = []
    init = ReplayCursor.__init__

    def tracked(cursor, *args, **kwargs):
        init(cursor, *args, **kwargs)
        cursors.append(cursor)

    monkeypatch.setattr(ReplayCursor, "__init__", tracked)
    g, _ = build_family_graph(FamilyParams(10, 16, 6))
    policy = CountingPolicy(cautious())
    _, audit = graph_modification(g, ALPHA, policy, 1)
    assert audit.stages and audit.prefix_ok and len(cursors) == 2
    assert policy.observed == sum(len(c.memory) for c in cursors)
    assert policy.asked == 0
    cursors.clear()
    policy = CountingPolicy(cautious())
    run = adversary_behavior(6, ALPHA, policy, 16, seed=0)
    assert run.prefix_checks > 0 and len(cursors) == run.prefix_checks + 1
    assert policy.observed == sum(len(c.memory) for c in cursors)
    assert policy.asked == 0
