import random
from fractions import Fraction

import pytest

from explorelab import (
    FamilyMeta,
    FamilyParams,
    ParameterError,
    StructuralError,
    adversary_behavior,
    build_family_graph,
    contract_layer_to_bipartite,
    eccentricity,
    make_policy,
    merge_gadgets,
    validate_consistent_labeling,
    validate_family_membership,
    validate_merge_behavior,
)
from explorelab.graph import bfs_distances

ALPHA = Fraction(1, 2)


@pytest.fixture(scope="module")
def fresh():
    params = FamilyParams(10, 16, 6)
    g, meta = build_family_graph(params, seed=0)
    return params, g, meta


@pytest.fixture(scope="module")
def adversary_final():
    policy = make_policy("cautious-bfs", ALPHA, 6)
    run = adversary_behavior(6, ALPHA, policy, 16, policy_name="cautious-bfs", seed=0)
    return run


def test_contract_layer_fresh(fresh):
    params, g, meta = fresh
    layer = contract_layer_to_bipartite(g, meta, 1)
    assert len(layer.edges) == params.beta
    assert len(layer.by_gadget) == params.gadgets_per_layer
    deg = {}
    for a, b in layer.edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    assert set(deg.values()) == {params.layer_degree}


def test_contract_layer_correspondence(fresh):
    _, g, meta = fresh
    layer = contract_layer_to_bipartite(g, meta, 3)
    for gadget, pair in layer.by_gadget.items():
        assert meta.gadget_level_pair(g, gadget) == pair


def test_contract_layer_bad_index(fresh):
    _, g, meta = fresh
    with pytest.raises(ParameterError):
        contract_layer_to_bipartite(g, meta, 0)


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
    with pytest.raises(StructuralError):
        contract_layer_to_bipartite(rewired, meta, 1)
    contract_layer_to_bipartite(rewired, meta, 2)  # other layers still contract
    assert "layer-contraction" in validate_family_membership(rewired, params).codes()


def test_contract_layer_post_adversary(adversary_final):
    run = adversary_final
    meta = FamilyMeta(run.params)
    for layer in range(1, run.params.levels):
        contracted = contract_layer_to_bipartite(run.final_graph, meta, layer)
        assert len(contracted.edges) == run.params.beta


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
            assert merged.neighbor(v, port) == plan.map_label(old)


def test_merge_each_class_nonempty_and_disjoint(fresh):
    _, g, meta = fresh
    _, plan = merge_gadgets(g, meta, 1)
    for classes in (plan.even_classes, plan.odd_classes):
        assert set(classes) == {1, 2, 3, 4}
        for members in classes.values():
            assert members
            ends = []
            for gd in members:
                ends.extend(plan.pairs[gd])
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
        d_new = bfs_distances(merged, plan.map_label(u))[plan.map_label(v)]
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
    meta = FamilyMeta(run.params)
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


def test_merged_graph_is_a_valid_instance(adversary_final):
    run = adversary_final
    meta = FamilyMeta(run.params)
    merged, _ = merge_gadgets(run.final_graph, meta, 1)
    assert validate_consistent_labeling(merged).ok
    assert eccentricity(merged, 0) == run.params.ecc


def test_merged_labels_are_smallest_unused(fresh):
    _, g, meta = fresh
    merged, _ = merge_gadgets(g, meta, 1)
    new_labels = sorted(set(merged.labels()) - set(g.labels()))
    assert new_labels == list(range(len(g), len(g) + 8))
