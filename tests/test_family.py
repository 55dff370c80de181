import tracemalloc
from fractions import Fraction

import pytest

from explorelab import (
    FamilyParams,
    ParameterError,
    StructuralError,
    build_family_graph,
    merge_gadgets,
    validate_family_membership,
)
from explorelab.family import FamilyMeta, LollipopParams, build_lollipop
from explorelab.graph import eccentricity
from oracles import (
    adjacency,
    check_eccentricity_properties,
    naive_distance,
    naive_eccentricity,
    naive_green_edges,
)


def test_params_derived_quantities():
    p = FamilyParams(4, 8, 7)
    assert (p.beta, p.gadgets_per_layer, p.greens_per_layer, p.reds_per_layer) == (
        16,
        14,
        2,
        28,
    )
    assert p.order == 80
    assert p.gadget_count == 42


def test_params_rejected():
    with pytest.raises(ParameterError):
        FamilyParams(1, 8, 7)
    with pytest.raises(ParameterError):
        FamilyParams(4, 3, 7)
    with pytest.raises(ParameterError):
        FamilyParams(4, 8, 5)  # shorter graphs are undefined


def test_meta_label_geometry():
    meta = FamilyMeta(FamilyParams(4, 8, 7))
    assert list(meta.level_labels(1)) == list(range(1, 9))
    assert list(meta.level_labels(4)) == list(range(25, 33))
    assert meta.level_labels(0) == meta.level_labels(5) == range(0)
    assert meta.level_of(32) == 4
    assert meta.level_of(33) is None
    assert list(meta.gadget_labels) == list(range(33, 75))
    assert meta.gadget_layer(33) == 1
    assert meta.gadget_layer(74) == 3
    assert meta.critical_label == 75
    assert list(meta.tail_labels) == [76, 77, 78, 79]
    assert meta.tail_tip == 79


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_green_edges_match_the_level_oracle(seed):
    # every layer's green edges against the edges found from level_of alone,
    # the last level's empty layer included; seeds 1 and 2 shuffle every row
    g, meta = build_family_graph(FamilyParams(10, 16, 6), seed)
    for layer in range(1, meta.params.levels + 1):
        assert meta.green_edges(g, layer) == naive_green_edges(g, meta, layer)


def test_build_small_member():
    p = FamilyParams(2, 4, 6)
    g, meta = build_family_graph(p)
    assert len(g) == 16
    assert len(list(meta.gadget_labels)) == 3
    assert validate_family_membership(g, p).ok


@pytest.mark.parametrize("levels,width,ecc", [(4, 8, 7), (10, 16, 6), (2, 4, 6)])
def test_membership_of_fresh_builds(levels, width, ecc):
    p = FamilyParams(levels, width, ecc)
    g, _ = build_family_graph(p, seed=0)
    assert validate_family_membership(g, p).ok
    g, _ = build_family_graph(p, seed=11)
    assert validate_family_membership(g, p).ok


def test_build_is_deterministic():
    p = FamilyParams(4, 8, 7)
    a, _ = build_family_graph(p, seed=3)
    b, _ = build_family_graph(p, seed=3)
    assert a.to_json() == b.to_json()
    c, _ = build_family_graph(p, seed=4)
    assert c.to_json() != a.to_json()


def test_seed_zero_sorts_ports():
    g, _ = build_family_graph(FamilyParams(4, 8, 7), seed=0)
    for v in g.labels():
        assert g.neighbors(v) == sorted(g.neighbors(v))


def test_tail_tip_realizes_eccentricity():
    g, meta = build_family_graph(FamilyParams(4, 8, 7))
    d = naive_distance(adjacency(g), 0, meta.tail_tip)
    assert d == 7
    assert naive_eccentricity(adjacency(g), 0) == 7


def test_deleting_a_green_edge_breaks_membership():
    p = FamilyParams(10, 16, 6)
    g, meta = build_family_graph(p)
    u, v = meta.green_edges(g, 1)[0]
    rows = {
        u: [x for x in g.neighbors(u) if x != v],
        v: [x for x in g.neighbors(v) if x != u],
    }
    broken = g.replace_ports(rows)
    report = validate_family_membership(broken, p)
    assert not report.ok
    assert "green-count" in report.codes()
    assert "layer-contraction" in report.codes()


def test_relabeled_node_breaks_membership():
    p = FamilyParams(2, 4, 6)
    g, _ = build_family_graph(p)
    ports = {(v + 1000 if v == 3 else v): list(g.neighbors(v)) for v in g.labels()}
    for v in ports:
        ports[v] = [1003 if x == 3 else x for x in ports[v]]
    report = validate_family_membership(type(g)(ports), p)
    assert "label-range" in report.codes()


@pytest.mark.parametrize(
    "params", [FamilyParams(10**4, 16, 6), FamilyParams(10, 16, 10**6)], ids=["levels", "ecc"]
)
def test_label_range_costs_the_size_of_the_graph(params):
    # a 669-node member checked against a family of millions of labels: the
    # label set is read off the graph, so the check allocates and reports as
    # it would against a family of the member's own size
    g, _ = build_family_graph(FamilyParams(10, 16, 6))
    tracemalloc.start()
    try:
        report = validate_family_membership(g, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.to_dict() == {
        "ok": False,
        "violations": [
            {
                "code": "label-range",
                "detail": "missing=[669, 670, 671, 672, 673, 674, 675, 676] extra=[]",
            }
        ],
    }
    assert peak < 4 * 2**20
    with pytest.raises(StructuralError, match="label-range"):
        merge_gadgets(g, FamilyMeta(FamilyParams(10**4, 16, 6)), 1)


def test_eccentricity_properties_pass():
    p = FamilyParams(10, 16, 6)
    g, meta = build_family_graph(p, seed=2)
    assert check_eccentricity_properties(g, meta).ok


def test_eccentricity_properties_two_level_member():
    g, meta = build_family_graph(FamilyParams(2, 16, 6))
    assert check_eccentricity_properties(g, meta).ok
    gadgets = set(meta.gadget_labels)
    for v in meta.level_labels(2):
        near = {v} | set(g.neighbors(v))
        near |= {x for u in g.neighbors(v) for x in g.neighbors(u)}
        assert near & gadgets


def test_eccentricity_properties_need_width_16():
    g, meta = build_family_graph(FamilyParams(4, 8, 7))
    with pytest.raises(ParameterError):
        check_eccentricity_properties(g, meta)


def test_punctured_distances_at_least_level():
    # removing the critical node leaves only the level-by-level descent
    p = FamilyParams(10, 16, 6)
    g, meta = build_family_graph(p, seed=7)
    adj = adjacency(g)
    adj.pop(meta.critical_label)
    for v in adj:
        adj[v] = [u for u in adj[v] if u != meta.critical_label]
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    for i in range(1, 11):
        for v in meta.level_labels(i):
            assert dist[v] >= i


# -- lollipop -----------------------------------------------------------------


def test_lollipop_28_nodes():
    params = LollipopParams(scale=1, ecc=2, alpha=Fraction(1))
    assert params.order == 28
    assert params.clique_size == 27
    g, source = build_lollipop(params)
    assert source == 0
    assert len(g) == 28
    assert g.edge_count() == 27 * 26 // 2 + 1
    assert naive_eccentricity(adjacency(g), 0) == 2
    assert eccentricity(g, 0) == 2


def test_lollipop_k2():
    params = LollipopParams(scale=2, ecc=2, alpha=Fraction(1))
    assert params.order == 56
    assert params.clique_size == 55
    g, _ = build_lollipop(params)
    assert g.edge_count() == 55 * 54 // 2 + 1


def test_lollipop_longer_line():
    params = LollipopParams(scale=1, ecc=4, alpha=Fraction(1, 2))
    g, source = build_lollipop(params)
    assert len(g) == params.order == 40
    assert eccentricity(g, source) == 4


def test_lollipop_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        LollipopParams(scale=1, ecc=2, alpha=Fraction(1, 4))  # ecc * alpha < 1
    with pytest.raises(ParameterError):
        LollipopParams(scale=1, ecc=2, alpha=Fraction(2, 3))  # non-integral order
    with pytest.raises(ParameterError):
        LollipopParams(scale=0, ecc=2, alpha=Fraction(1))


def test_lollipop_deterministic_ports():
    params = LollipopParams(scale=1, ecc=2, alpha=Fraction(1))
    a, _ = build_lollipop(params, seed=9)
    b, _ = build_lollipop(params, seed=9)
    assert a.to_json() == b.to_json()


def test_edge_identity_matches_counts():
    # the five edge roles, counted from degrees and green edges: the level
    # rows hold the source edges, both ends of each green edge and the red
    # edges; the critical row a gadget each and the first tail link; the
    # tail rows each tail link twice but the first
    for p in (FamilyParams(4, 8, 7), FamilyParams(10, 16, 6)):
        g, meta = build_family_graph(p)

        def degrees(labels):
            return sum(g.degree(v) for v in labels)

        layers = p.levels - 1
        source = g.degree(meta.source_label)
        green = sum(len(meta.green_edges(g, i)) for i in range(1, p.levels))
        red = degrees(range(1, p.width * p.levels + 1)) - source - 2 * green
        critical = g.degree(meta.critical_label) - 1
        tail = (degrees(meta.tail_labels) + 1) // 2
        assert source == p.width
        assert green == layers * p.greens_per_layer
        assert red == layers * p.reds_per_layer
        assert critical == p.gadget_count
        assert tail == p.ecc - 3
        assert source + green + red + critical + tail == g.edge_count() == p.edge_total
