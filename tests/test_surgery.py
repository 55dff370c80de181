import random

import pytest

from explorelab import FamilyParams, build_family_graph, validate_family_membership
from explorelab.graph import LabeledGraph
from explorelab.surgery import move_gadget, switch_edges, switch_ports


@pytest.fixture(scope="module")
def member():
    params = FamilyParams(10, 16, 6)
    g, meta = build_family_graph(params, seed=1)
    return params, g, meta


def degree_multiset(g):
    return sorted(g.degree(v) for v in g.labels())


# -- switch_ports ----------------------------------------------------------------


def test_switch_ports_transposition():
    g = LabeledGraph({0: [1, 2, 3], 1: [0], 2: [0], 3: [0]})
    res = switch_ports(g, 0, 0, 2)
    assert res.changed
    assert res.graph.neighbors(0) == [3, 2, 1]


def test_switch_ports_same_port_is_noop(triangle):
    res = switch_ports(triangle, 0, 0, 0)
    assert not res.changed
    assert res.graph is triangle
    assert res.reason


def test_switch_ports_out_of_range_is_noop(triangle):
    assert not switch_ports(triangle, 0, 0, 5).changed
    assert not switch_ports(triangle, 0, -1, 1).changed
    assert not switch_ports(triangle, 99, 0, 1).changed


def test_switch_ports_involution(member):
    _, g, _ = member
    res = switch_ports(g, 1, 0, 3)
    assert res.changed
    back = switch_ports(res.graph, 1, 0, 3)
    assert back.graph == g


def test_switch_ports_preserves_membership(member):
    params, g, _ = member
    res = switch_ports(g, 5, 1, 2)
    assert res.changed
    assert validate_family_membership(res.graph, params).ok


# -- switch_edges -----------------------------------------------------------------


def find_switchable(g, meta, layer=1):
    greens = meta.green_edges(g, layer)
    for v1, far1 in greens:
        for v2, far2 in greens:
            if v1 == v2 or far1 == far2:
                continue
            if g.has_edge(v2, far1) or g.has_edge(v1, far2):
                continue
            shared1 = {x for x in g.neighbors(v2) if meta.is_gadget(x)} & {
                x for x in g.neighbors(far1) if meta.is_gadget(x)
            }
            shared2 = {x for x in g.neighbors(v1) if meta.is_gadget(x)} & {
                x for x in g.neighbors(far2) if meta.is_gadget(x)
            }
            if shared1 or shared2:
                continue
            return v1, v2, g.port_of(v1, far1), g.port_of(v2, far2), far1, far2
    return None


def test_switch_edges_valid_keeps_membership(member):
    params, g, meta = member
    found = find_switchable(g, meta)
    assert found, "expected a switchable green pair in a fresh member"
    v1, v2, p1, p2, far1, far2 = found
    res = switch_edges(g, meta, v1, v2, p1, p2)
    assert res.changed
    assert validate_family_membership(res.graph, params).ok
    # rewired endpoints with preserved ports at the far ends
    assert res.graph.neighbor(v1, p1) == far2
    assert res.graph.neighbor(v2, p2) == far1
    assert res.graph.port_of(far1, v2) == g.port_of(far1, v1)
    assert res.graph.port_of(far2, v1) == g.port_of(far2, v2)
    assert degree_multiset(res.graph) == degree_multiset(g)


def test_switch_edges_rejects_duplicate(member):
    _, g, meta = member
    greens = meta.green_edges(g, 1)
    v1, far1 = greens[0]
    # pick a second green edge whose far endpoint is already joined to v1
    for v2, far2 in greens:
        if v2 != v1 and g.has_edge(v1, far2):
            res = switch_edges(g, meta, v1, v2, g.port_of(v1, far1), g.port_of(v2, far2))
            assert not res.changed
            assert "duplicate" in res.reason
            assert res.graph is g
            return
    pytest.skip("no duplicating pair available in this member")


def test_switch_edges_rejects_cross_level(member):
    _, g, meta = member
    v1, far1 = meta.green_edges(g, 1)[0]
    v2, far2 = meta.green_edges(g, 2)[0]
    res = switch_edges(g, meta, v1, far2, g.port_of(v1, far1), g.port_of(far2, v2))
    assert not res.changed


def test_switch_edges_rejects_non_green(member):
    _, g, meta = member
    gadget = next(iter(meta.gadget_labels))
    lo, _ = meta.gadget_level_pair(g, gadget)
    v1, far1 = meta.green_edges(g, 1)[0]
    other = next(v for v in meta.level_labels(meta.level_of(lo)) if v != lo)
    res = switch_edges(g, meta, lo, v1, g.port_of(lo, gadget), g.port_of(v1, far1))
    assert not res.changed
    del other


# -- move_gadget ------------------------------------------------------------------


def test_move_gadget_valid(member):
    params, g, meta = member
    green = meta.green_edges(g, 1)[0]
    gadget = next(
        gd
        for gd in meta.gadget_labels
        if meta.gadget_layer(gd) == 1
        and green[0] not in meta.gadget_level_pair(g, gd)
        and green[1] not in meta.gadget_level_pair(g, gd)
    )
    lo, hi = meta.gadget_level_pair(g, gadget)
    res = move_gadget(g, meta, green, gadget)
    assert res.changed
    assert res.note is None
    post = res.graph
    assert validate_family_membership(post, params).ok
    # the gadget subdivides the green edge; its old pair is joined directly
    assert set(post.neighbors(gadget)) == {green[0], green[1], meta.critical_label}
    assert post.has_edge(lo, hi)
    assert not post.has_edge(*green)
    # port inheritance at every touched node
    assert post.port_of(green[0], gadget) == g.port_of(green[0], green[1])
    assert post.port_of(green[1], gadget) == g.port_of(green[1], green[0])
    assert post.port_of(lo, hi) == g.port_of(lo, gadget)
    assert post.port_of(hi, lo) == g.port_of(hi, gadget)
    assert post.port_of(gadget, green[0]) == g.port_of(gadget, lo)
    assert post.port_of(gadget, green[1]) == g.port_of(gadget, hi)
    assert degree_multiset(post) == degree_multiset(g)
    assert sorted(post.labels()) == sorted(g.labels())
    assert len(meta.green_edges(post, 1)) == params.greens_per_layer


def test_move_gadget_shared_endpoint_still_valid(member):
    params, g, meta = member
    # choose a green edge touching the gadget's own level pair
    gadget = next(iter(meta.gadget_labels))
    lo, hi = meta.gadget_level_pair(g, gadget)
    green = next(
        (e for e in meta.green_edges(g, 1) if lo in e or hi in e), None
    )
    if green is None:
        pytest.skip("no adjacent green edge for this member")
    res = move_gadget(g, meta, green, gadget)
    assert res.changed
    assert res.note is not None
    assert validate_family_membership(res.graph, params).ok


def test_move_gadget_rejects_red_edge(member):
    _, g, meta = member
    gadget = next(iter(meta.gadget_labels))
    lo, _ = meta.gadget_level_pair(g, gadget)
    res = move_gadget(g, meta, (lo, gadget), gadget)
    assert not res.changed
    assert "not green" in res.reason


def test_move_gadget_rejects_wrong_layer(member):
    _, g, meta = member
    green = meta.green_edges(g, 1)[0]
    gadget2 = next(gd for gd in meta.gadget_labels if meta.gadget_layer(gd) == 2)
    res = move_gadget(g, meta, green, gadget2)
    assert not res.changed


def test_move_gadget_rejects_missing_edge(member):
    _, g, meta = member
    res = move_gadget(g, meta, (1, 2), next(iter(meta.gadget_labels)))
    assert not res.changed


def test_move_gadget_rejects_parallel_edge_hazard():
    # hand-built shape outside the family: the gadget's level pair is already
    # joined by a green edge different from the one being split, so the move
    # would create a parallel edge and must refuse
    from explorelab import FamilyMeta as Meta

    params = FamilyParams(2, 4, 6)
    meta = Meta(params)
    ports = {
        0: [1, 2, 3, 4],
        1: [0, 5],
        2: [0, 6],
        3: [0, 7],
        4: [0, 8, 9],
        5: [1],
        6: [2],
        7: [3],
        8: [4, 9],
        9: [4, 8, 12],
        10: [12],
        11: [12],
        12: [9, 10, 11, 13],
        13: [12, 14],
        14: [13, 15],
        15: [14],
    }
    g = LabeledGraph(ports)
    res = move_gadget(g, meta, (1, 5), 9)
    assert not res.changed
    assert "already exists" in res.reason


# -- random surgery chains ----------------------------------------------------------


def random_surgery(g, meta, rng):
    kind = rng.choice(("ports", "edges", "gadget"))
    if kind == "ports":
        v = rng.choice(sorted(g.labels()))
        if g.degree(v) < 2:
            return switch_ports(g, v, 0, 0)
        p1, p2 = rng.sample(range(g.degree(v)), 2)
        return switch_ports(g, v, p1, p2)
    layer = rng.randrange(1, meta.params.levels)
    greens = meta.green_edges(g, layer)
    if kind == "edges":
        (v1, f1), (v2, f2) = rng.sample(greens, 2)
        if rng.random() < 0.5:  # attach at the deeper level half the time
            v1, f1, v2, f2 = f1, v1, f2, v2
        return switch_edges(g, meta, v1, v2, g.port_of(v1, f1), g.port_of(v2, f2))
    glo = rng.choice(sorted(meta.gadget_labels))
    e = rng.choice(greens)
    return move_gadget(g, meta, e, glo)


def test_random_surgery_chain_preserves_membership(member):
    params, g, meta = member
    rng = random.Random(20240817)
    changed = 0
    for i in range(150):
        res = random_surgery(g, meta, rng)
        if res.changed:
            changed += 1
            report = validate_family_membership(res.graph, params)
            assert report.ok, f"op {i}: {report.codes()}"
            g = res.graph
        else:
            assert res.graph is g
    assert changed > 40


def graph_answers(g, pairs):
    """Every port_of answer of ``g`` per node and per edge, and the label pairs of
    ``pairs`` that ``g`` joins by an edge."""
    ports = {(v, u): g.port_of(v, u) for v in g.labels() for u in g.neighbors(v)}
    ends = {(a, b): (g.port_of(a, b), g.port_of(b, a)) for a, b in g.edges()}
    return ports, ends, {pair for pair in pairs if g.has_edge(*pair)}


def test_carried_reverse_map_matches_fresh_graph():
    # replace_ports carries the parent's reverse map forward; along a chain
    # of surgeries the derived graph answers as a freshly built one, and the
    # parent's answers never change
    g, meta = build_family_graph(FamilyParams(4, 16, 6), seed=2)
    labels = sorted(g.labels())
    rng = random.Random(1009)
    # has_edge is asked of every pair joined at some point of the chain and
    # of every label with 16 fixed others
    pairs = {(v, u) for v in labels for u in rng.sample(labels, 16)}
    pairs |= {(v, u) for v in labels for u in g.neighbors(v)}
    before = graph_answers(g, pairs)
    changed = 0
    for i in range(120):
        res = random_surgery(g, meta, rng)
        if not res.changed:
            continue
        changed += 1
        new = res.graph
        pairs |= {(v, u) for v in labels for u in new.neighbors(v)}
        fresh = LabeledGraph({v: list(new.neighbors(v)) for v in labels})
        assert new._rports is not None, f"op {i}: reverse map not carried"
        assert graph_answers(new, pairs) == graph_answers(fresh, pairs), f"op {i}"
        assert graph_answers(g, pairs) == before, f"op {i}: parent changed"
        g, before = new, graph_answers(new, pairs)
    assert changed > 30
