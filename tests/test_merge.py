import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explorelab import (
    FamilyParams,
    Instance,
    ParameterError,
    StructuralError,
    adversary_behavior,
    build_family_graph,
    execute,
    make_policy,
    merge_gadgets,
    validate_family_membership,
)
from explorelab.graph import bfs_distances, eccentricity, validate_consistent_labeling
from explorelab.merge import _contract_layer, validate_merge_behavior
from explorelab.surgery import switch_ports

from conftest import ScriptPolicy
from oracles import naive_merge_behavior

ALPHA = Fraction(1, 2)


@pytest.fixture(scope="module")
def fresh():
    params = FamilyParams(10, 16, 6)
    g, meta = build_family_graph(params, seed=0)
    return params, g, meta


@pytest.fixture(scope="module")
def adversary_final():
    policy = make_policy("cautious-bfs", ALPHA, 6)
    run = adversary_behavior(6, ALPHA, policy, 16, seed=0)
    return run


def test_contract_layer_fresh(fresh):
    params, g, meta = fresh
    pairs = _contract_layer(g, meta, 1)
    edges = meta.green_edges(g, 1) + list(pairs.values())
    assert len(edges) == params.beta
    assert len(pairs) == params.gadgets_per_layer
    deg = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    assert set(deg.values()) == {params.layer_degree}


def test_contract_layer_correspondence(fresh):
    _, g, meta = fresh
    pairs = _contract_layer(g, meta, 3)
    assert pairs
    for gadget, pair in pairs.items():
        assert meta.gadget_level_pair(g, gadget) == pair


def test_contract_layer_rejects_rewired_gadget(fresh):
    params, g, meta = fresh
    # move one layer-1 gadget's upper end to another level-2 node
    gadget = meta.gadget_labels[0]
    lo, hi = meta.gadget_level_pair(g, gadget)
    other = next(
        v for v in meta.level_labels(2) if v != hi and gadget not in g.neighbors(v)
    )
    rewired = g.replace_ports(
        {
            gadget: [other if u == hi else u for u in g.neighbors(gadget)],
            hi: [u for u in g.neighbors(hi) if u != gadget],
            other: g.neighbors(other) + [gadget],
        }
    )
    assert validate_consistent_labeling(rewired).ok
    assert _contract_layer(rewired, meta, 1)[gadget] == (lo, other)
    assert _contract_layer(rewired, meta, 2) == _contract_layer(g, meta, 2)
    assert "layer-contraction" in validate_family_membership(rewired, params).codes()


def test_contract_layer_post_adversary(adversary_final):
    run = adversary_final
    meta = run.meta
    for layer in range(1, meta.params.levels):
        pairs = _contract_layer(run.final_graph, meta, layer)
        assert len(pairs) == meta.params.gadgets_per_layer
        assert len(meta.green_edges(run.final_graph, layer)) + len(pairs) == meta.params.beta


def test_merge_fresh_member(fresh):
    params, g, meta = fresh
    merged, plan = merge_gadgets(g, meta, 1)
    assert len(merged) == 8 * 1 * 21 + 5 == 173
    assert validate_consistent_labeling(merged).ok
    assert eccentricity(merged, 0) == 6
    assert len(merged) - len(g) == 8 * 1 - params.gadget_count


def test_merge_port_preservation(fresh):
    _, g, meta = fresh
    merged, plan = merge_gadgets(g, meta, 1)
    for v in g.labels():
        if meta.is_gadget(v) or v == meta.critical_label:
            continue
        assert merged.degree(v) == g.degree(v)
        for port in range(g.degree(v)):
            old = g.neighbor(v, port)
            assert merged.neighbor(v, port) == plan.gadget_map.get(old, old)


def test_merge_each_class_nonempty_and_disjoint(fresh):
    _, g, meta = fresh
    _, plan = merge_gadgets(g, meta, 1)
    for classes in (plan.even_classes, plan.odd_classes):
        assert set(classes) == {1, 2, 3, 4}
        for members in classes.values():
            assert members
            ends = []
            for gd in members:
                ends.extend(meta.gadget_level_pair(g, gd))
            assert len(ends) == len(set(ends))


def test_merge_critical_degree(fresh):
    _, g, meta = fresh
    merged, plan = merge_gadgets(g, meta, 1)
    want = set(plan.merged_even.values()) | set(plan.merged_odd.values())
    got = set(merged.neighbors(meta.critical_label))
    assert got == want | {meta.tail_labels[0]}


def test_merge_distance_contraction(fresh):
    _, g, meta = fresh
    merged, plan = merge_gadgets(g, meta, 1)
    rng = random.Random(7)
    labels = sorted(g.labels())
    for _ in range(40):
        u, v = rng.sample(labels, 2)
        d_old = bfs_distances(g, u)[v]
        d_new = bfs_distances(merged, plan.gadget_map.get(u, u))[plan.gadget_map.get(v, v)]
        assert d_new <= d_old


def test_merge_rejects_wrong_width(fresh):
    _, g, meta = fresh
    with pytest.raises(ParameterError):
        merge_gadgets(g, meta, 2)


def test_merge_rejects_non_member(fresh):
    params, g, meta = fresh
    u, v = meta.green_edges(g, 1)[0]
    rows = {
        u: [x for x in g.neighbors(u) if x != v],
        v: [x for x in g.neighbors(v) if x != u],
    }
    with pytest.raises(StructuralError):
        merge_gadgets(g.replace_ports(rows), meta, 1)


def test_merge_behavior_on_adversary_final(adversary_final):
    run = adversary_final
    meta = run.meta
    merged, plan = merge_gadgets(run.final_graph, meta, 1)
    report, info = validate_merge_behavior(
        run.final_graph,
        merged,
        plan,
        meta,
        lambda a, r: make_policy("cautious-bfs", a, r),
        ALPHA,
    )
    assert report.ok, report.codes()
    assert info["penalty_before_gadget"] == info["penalty_before_gadget_merged"]
    assert info["first_gadget_step"] == run.trace.first_gadget_step
    assert info["complete"] and info["complete_merged"]


def cautious(a, r):
    return make_policy("cautious-bfs", a, r)


@given(seed=st.integers(0, 2**16), k=st.sampled_from([1, 2]))
@example(seed=0, k=1)
@example(seed=1, k=2)
@settings(max_examples=15, deadline=None)
def test_merge_behavior_exact_on_fresh_members(seed, k):
    # k = 1 (width 16) and k = 2 (width 32): the merged run is the original
    # one pushed through the merge map, whatever the member's port orders
    g, meta = build_family_graph(FamilyParams(10, 16 * k, 6), seed=seed)
    merged, plan = merge_gadgets(g, meta, k)
    report, _ = validate_merge_behavior(g, merged, plan, meta, cautious, ALPHA)
    assert report.ok, report.codes()


@given(
    member=st.sampled_from(["fresh", "adversary"]),
    seed=st.integers(0, 2**16),
    k=st.just(1),
    where=st.sampled_from(["none", "source", "level", "merged", "critical"]),
    pick=st.integers(0, 2**16),
    p1=st.integers(0, 2**16),
    p2=st.integers(0, 2**16),
)
@example(member="fresh", seed=1, k=2, where="none", pick=0, p1=0, p2=0)
@example(member="fresh", seed=2, k=2, where="source", pick=0, p1=0, p2=1)
# the merged run leaves the original one at its first gadget step
@example(member="fresh", seed=3, k=2, where="level", pick=1, p1=0, p2=1)
@example(member="fresh", seed=4, k=2, where="merged", pick=5, p1=0, p2=2)
@example(member="fresh", seed=5, k=2, where="critical", pick=0, p1=1, p2=3)
# a memory-prefix failure the oracle also reports as traversed-map and penalty
@example(member="adversary", seed=0, k=1, where="level", pick=6, p1=3, p2=0)
@settings(max_examples=25, deadline=None)
def test_merge_behavior_matches_the_five_comparisons(
    adversary_final, member, seed, k, where, pick, p1, p2
):
    # a fresh member or the adversary's k = 1 graph, merged, then maybe two
    # ports switched at one node of the merged graph: the package's two
    # comparisons give the oracle's verdict and details, and no code the
    # oracle does not
    if member == "fresh":
        g, meta = build_family_graph(FamilyParams(10, 16 * k, 6), seed=seed)
    else:
        k, g, meta = 1, adversary_final.final_graph, adversary_final.meta
    merged, plan = merge_gadgets(g, meta, k)
    if where != "none":
        trace, _ = execute(
            Instance(graph=g, source=meta.source_label, alpha=ALPHA),
            cautious(ALPHA, meta.params.ecc),
            gadget_set=set(meta.gadget_labels),
        )
        nodes = {
            "source": [meta.source_label],
            # the level nodes the run stands on before its first gadget visit
            "level": [
                label
                for label, *_ in trace.memory[: trace.first_gadget_step]
                if meta.level_of(label) is not None
            ],
            "merged": sorted(set(plan.gadget_map.values())),
            "critical": [meta.critical_label],
        }[where]
        v = nodes[pick % len(nodes)]
        deg = merged.degree(v)
        merged = switch_ports(merged, v, p1 % deg, p2 % deg).graph
    report, info = validate_merge_behavior(g, merged, plan, meta, cautious, ALPHA)
    oracle, oracle_info = naive_merge_behavior(g, merged, plan, meta, cautious, ALPHA)
    assert report.ok == oracle.ok
    assert info == oracle_info
    assert report.codes() <= oracle.codes()


def test_merge_behavior_flags_a_moved_port(fresh):
    # swapping the source's first two ports sends the merged run's first
    # traversal elsewhere
    _, g, meta = fresh
    merged, plan = merge_gadgets(g, meta, 1)
    moved = switch_ports(merged, 0, 0, 1).graph
    report, _ = validate_merge_behavior(g, moved, plan, meta, cautious, ALPHA)
    assert not report.ok
    assert "memory-prefix" in report.codes()


def test_merge_behavior_needs_a_gadget_visit(fresh):
    _, g, meta = fresh
    merged, plan = merge_gadgets(g, meta, 1)
    # a policy that halts at once never reaches a gadget
    halts_at_once = lambda a, r: ScriptPolicy([])
    report, info = validate_merge_behavior(g, merged, plan, meta, halts_at_once, ALPHA)
    assert report.codes() == {"no-gadget-visit"}
    assert info == {}


def test_merged_graph_is_a_valid_instance(adversary_final):
    run = adversary_final
    meta = run.meta
    merged, _ = merge_gadgets(run.final_graph, meta, 1)
    assert validate_consistent_labeling(merged).ok
    assert eccentricity(merged, 0) == meta.params.ecc


def test_merged_labels_are_smallest_unused(fresh):
    _, g, meta = fresh
    merged, _ = merge_gadgets(g, meta, 1)
    new_labels = sorted(set(merged.labels()) - set(g.labels()))
    assert new_labels == list(range(len(g), len(g) + 8))
