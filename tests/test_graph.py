import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explorelab import FamilyParams, ParameterError, StructuralError, build_family_graph
from explorelab.graph import (
    LabeledGraph,
    bfs_distances,
    circulant_pairs,
    color_regular_bipartite_edges,
    eccentricity,
    edge_key,
    hopcroft_karp,
    validate_consistent_labeling,
)
from explorelab.merge import merge_gadgets
from explorelab.runtime import Instance

from oracles import (
    adjacency,
    naive_eccentricity,
    naive_hopcroft_karp,
    naive_validate_consistent_labeling,
)


def test_ports_are_list_indices(triangle):
    assert triangle.degree(0) == 2
    assert triangle.neighbor(0, 1) == 2
    assert triangle.port_of(2, 0) == 0
    assert triangle.port_of(0, 2) == 1


def test_json_round_trip_is_byte_stable(path3):
    text = path3.to_json()
    again = LabeledGraph.from_json(text)
    assert again == path3
    assert again.to_json() == text
    data = json.loads(text)
    labels = [n["label"] for n in data["nodes"]]
    assert labels == sorted(labels)


def test_validate_ok(triangle):
    assert validate_consistent_labeling(triangle).ok


def test_validate_flags_parallel_edge():
    g = LabeledGraph({0: [1, 1], 1: [0, 0]})
    assert "parallel-edge" in validate_consistent_labeling(g).codes()


def test_validate_flags_asymmetric_edge():
    g = LabeledGraph({0: [1], 1: []})
    assert "asymmetric-edge" in validate_consistent_labeling(g).codes()


def test_validate_flags_self_loop():
    g = LabeledGraph({0: [0]})
    assert "self-loop" in validate_consistent_labeling(g).codes()


MALFORMED_PORTS = {
    "one-sided": {0: [1], 1: []},
    "dangling": {0: [1], 1: [0, 2], 2: [0]},
    "self-loop": {0: [0, 1], 1: [0]},
    "parallel-edge": {0: [1, 1], 1: [0, 0]},
    "listed-twice-back-once": {0: [1, 1], 1: [0], 2: [1]},
    # each fails one test of the clean-row shortcut and passes the others
    "negative-label": {-1: [0], 0: [-1], 1: [0]},
    "one-unknown-neighbor": {0: [1, 2, 3], 1: [0], 2: [0]},
    "self-loop-no-repeats": {0: [1, 0, 2], 1: [0], 2: [0]},
}


def assert_validator_matches_oracle(g):
    fast = validate_consistent_labeling(g).to_dict()
    assert fast == naive_validate_consistent_labeling(g).to_dict()
    return fast


@pytest.mark.parametrize("name", sorted(MALFORMED_PORTS))
def test_validator_matches_count_oracle_on_malformed(name):
    report = assert_validator_matches_oracle(LabeledGraph(MALFORMED_PORTS[name]))
    assert not report["ok"]


@pytest.mark.parametrize("seed", [0, 3])
def test_validator_matches_count_oracle_on_members(seed):
    g, _ = build_family_graph(FamilyParams(10, 16, 6), seed=seed)
    assert assert_validator_matches_oracle(g)["ok"]


def test_validator_matches_count_oracle_on_the_k2_adversary(k2_adversary_runs):
    # the adversary's final graph and its merged graph, each also with the
    # source listing its first neighbour twice
    run = k2_adversary_runs[0]
    merged, _ = merge_gadgets(run.final_graph, run.meta, 2)
    for g in (run.final_graph, merged):
        assert assert_validator_matches_oracle(g)["ok"]
        row = g.neighbors(0)
        broken = assert_validator_matches_oracle(g.replace_ports({0: [*row, row[0]]}))
        assert [v["code"] for v in broken["violations"]] == ["parallel-edge", "asymmetric-edge"]


LABELS = st.integers(-1, 30)


@st.composite
def port_rows(draw):
    """Rows of up to 12 entries on labels -1..30: some as drawn, the others
    listing each other, so that clean rows sit beside broken ones."""
    rows = draw(st.dictionaries(LABELS, st.lists(LABELS, max_size=12), max_size=8))
    for a, b in draw(st.lists(st.tuples(LABELS, LABELS), max_size=40)):
        for x, y in ((a, b), (b, a)):
            row = rows.setdefault(x, [])
            if len(row) < 12:
                row.append(y)
    return rows


@given(port_rows())
@settings(max_examples=300, deadline=None)
def test_validator_matches_count_oracle_on_random_ports(ports):
    assert_validator_matches_oracle(LabeledGraph(ports))


# -- bfs / eccentricity -------------------------------------------------------


def test_bfs_distance_examples(path3):
    assert bfs_distances(path3, 0) == {0: 0, 1: 1, 2: 2}
    with pytest.raises(ParameterError):
        bfs_distances(path3, 99)


def test_bfs_unreachable():
    g = LabeledGraph({0: [1], 1: [0], 2: [3], 3: [2]})
    assert 3 not in bfs_distances(g, 0)
    with pytest.raises(StructuralError):
        eccentricity(g, 0)


@pytest.mark.parametrize(
    "rows, missing",
    [({0: [1]}, 1), ({0: [1, 2], 1: [0], 2: [0, 3]}, 3)],
    ids=["source-row", "deeper-row"],
)
def test_bfs_names_a_neighbor_without_a_row(rows, missing):
    # a port that names a label with no row is a one-line structural error,
    # not a bare KeyError, in the BFS and in everything built on it
    g = LabeledGraph(rows)
    message = f"neighbor label {missing} not in graph"
    for call in (bfs_distances, eccentricity):
        with pytest.raises(StructuralError) as err:
            call(g, 0)
        assert str(err.value) == message
    with pytest.raises(StructuralError) as err:
        Instance(graph=g, source=0, alpha=1)
    assert str(err.value) == message


def test_eccentricity_single_node():
    assert eccentricity(LabeledGraph({7: []}), 7) == 0


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=20,
        )
    )
    adj = {v: set() for v in range(n)}
    for v in range(1, n):
        adj[v].add(v - 1)
        adj[v - 1].add(v)
    for a, b in extra:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return LabeledGraph({v: sorted(ns) for v, ns in adj.items()})


@given(connected_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_bfs_symmetry_and_triangle_inequality(g, data):
    labels = sorted(g.labels())
    a = data.draw(st.sampled_from(labels))
    b = data.draw(st.sampled_from(labels))
    c = data.draw(st.sampled_from(labels))
    from_a, from_c = bfs_distances(g, a), bfs_distances(g, c)
    assert from_a[b] == bfs_distances(g, b)[a]
    assert from_a[b] <= from_a[c] + from_c[b]


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_eccentricity_matches_oracle(g):
    adj = adjacency(g)
    for v in sorted(g.labels()):
        assert eccentricity(g, v) == naive_eccentricity(adj, v)


# -- regular bipartite construction -------------------------------------------


def circulant_edges(n, k):
    """The circulant pairs as edges between lefts 0..n-1 and rights n..2n-1."""
    return [(i, n + j) for i, j in circulant_pairs(n, k)]


def degrees(edges):
    return Counter(v for e in edges for v in e)


def test_circulant_two_disjoint_edges():
    assert circulant_pairs(2, 1) == [(0, 0), (1, 1)]


def test_circulant_complete_bipartite():
    pairs = circulant_pairs(3, 3)
    assert sorted(pairs) == [(i, j) for i in range(3) for j in range(3)]


def test_circulant_4_2():
    pairs = circulant_pairs(4, 2)
    assert len(pairs) == 8
    for i in range(4):
        assert {j for a, j in pairs if a == i} == {i, (i + 1) % 4}
    assert set(degrees(circulant_edges(4, 2)).values()) == {2}


def test_circulant_rejects_bad_degree():
    with pytest.raises(ParameterError):
        circulant_pairs(3, 4)
    with pytest.raises(ParameterError):
        circulant_pairs(3, 0)


@given(st.integers(1, 10), st.integers(1, 10))
@settings(max_examples=50, deadline=None)
def test_circulant_properties(n, k):
    if k > n:
        n, k = k, n
    pairs = circulant_pairs(n, k)
    assert len(set(pairs)) == len(pairs) == n * k
    assert all(0 <= i < n and 0 <= j < n for i, j in pairs)
    assert degrees(circulant_edges(n, k)) == {v: k for v in range(2 * n)}


def test_matching_on_long_augmenting_chain():
    # left i sees rights n+i-1 and n+i (left 0 only n); the greedy first phase
    # matches i to n+i-1, leaving one augmenting path through all n lefts
    n = 3000
    adj = {i: [n + i - 1, n + i] if i else [n] for i in range(n - 1, -1, -1)}
    matching = hopcroft_karp(adj)
    assert len(matching) == n
    assert len(set(matching.values())) == n
    assert all(r in adj[l] for l, r in matching.items())


@given(st.integers(1, 12), st.integers(1, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_matching_matches_recursive_oracle(lefts, rights, data):
    # the iterative search visits as the recursive one does: same pairs, same order
    row = st.lists(st.integers(lefts, lefts + rights - 1), unique=True, max_size=rights)
    adj = {l: data.draw(row) for l in data.draw(st.permutations(range(lefts)))}
    assert list(hopcroft_karp(adj).items()) == list(naive_hopcroft_karp(adj).items())


# -- edge coloring -------------------------------------------------------------


def test_coloring_perfect_matching_single_color():
    coloring = color_regular_bipartite_edges(circulant_edges(4, 1), set(range(4)))
    assert set(coloring.values()) == {1}


def test_coloring_complete_bipartite_three_matchings():
    coloring = color_regular_bipartite_edges(circulant_edges(3, 3), set(range(3)))
    assert set(coloring.values()) == {1, 2, 3}
    for color in (1, 2, 3):
        cls = [e for e, c in coloring.items() if c == color]
        assert len(cls) == 3
        ends = [v for e in cls for v in e]
        assert len(set(ends)) == 6


def _assert_proper(edges, coloring):
    assert set(coloring) == {edge_key(*e) for e in edges}
    for v in degrees(edges):
        at_v = [coloring[edge_key(*e)] for e in edges if v in e]
        assert len(set(at_v)) == len(at_v)


def test_coloring_circulant_4_2_proper():
    edges = circulant_edges(4, 2)
    coloring = color_regular_bipartite_edges(edges, set(range(4)))
    assert set(coloring.values()) == {1, 2}
    _assert_proper(edges, coloring)


def _perturb(edges, rng):
    """Swap the far endpoints of two random edges, keeping regularity."""
    for _ in range(30):
        (a, b), (c, d) = rng.sample(edges, 2)
        if b != d and (a, d) not in edges and (c, b) not in edges:
            return [e for e in edges if e not in ((a, b), (c, d))] + [(a, d), (c, b)]
    return edges


@given(st.integers(2, 8), st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_coloring_random_perturbed_regular_bipartite(n, k, rng):
    if k > n:
        n, k = k, n
    edges = circulant_edges(n, k)
    for _ in range(3):
        edges = _perturb(edges, rng)
    coloring = color_regular_bipartite_edges(edges, set(range(n)))
    assert set(coloring.values()) == set(range(1, k + 1))
    _assert_proper(edges, coloring)
    for color in range(1, k + 1):
        assert sum(1 for c in coloring.values() if c == color) == n


def test_coloring_rejects_irregular():
    with pytest.raises(StructuralError):
        color_regular_bipartite_edges([(0, 2), (1, 2), (1, 3)], {0, 1})


def test_coloring_rejects_odd_cycle():
    # whatever the left side, some edge of a triangle stays on one side
    for left in ({0}, {0, 1}):
        with pytest.raises(StructuralError):
            color_regular_bipartite_edges([(0, 1), (0, 2), (1, 2)], left)


def test_circulant_pairs_rule():
    assert circulant_pairs(3, 2) == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]
