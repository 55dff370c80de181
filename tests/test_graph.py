import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explorelab import (
    EdgeRef,
    FamilyParams,
    LabeledGraph,
    ParameterError,
    StructuralError,
    bfs_distance,
    build_family_graph,
    build_regular_bipartite,
    eccentricity,
    konig_edge_coloring,
    validate_consistent_labeling,
)
from explorelab.graph import bipartition_sides, circulant_pairs, edge_key, hopcroft_karp

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
    assert triangle.edge_ports(0, 2) == (1, 0)


def test_edge_ref(triangle):
    ref = EdgeRef.of(triangle, 2, 0)
    assert ref.endpoints == (0, 2)
    assert ref.port_at == {2: 0, 0: 1}
    with pytest.raises(ParameterError):
        EdgeRef.of(triangle, 0, 0)


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


@given(
    st.dictionaries(
        st.integers(-1, 6), st.lists(st.integers(-1, 7), max_size=6), max_size=7
    )
)
@settings(max_examples=200, deadline=None)
def test_validator_matches_count_oracle_on_random_ports(ports):
    assert_validator_matches_oracle(LabeledGraph(ports))


# -- bfs / eccentricity -------------------------------------------------------


def test_bfs_distance_examples(path3):
    assert bfs_distance(path3, 0, 2) == 2
    assert bfs_distance(path3, 0, 0) == 0
    with pytest.raises(ParameterError):
        bfs_distance(path3, 0, 99)


def test_bfs_unreachable():
    g = LabeledGraph({0: [1], 1: [0], 2: [3], 3: [2]})
    assert bfs_distance(g, 0, 3) is None
    with pytest.raises(StructuralError):
        eccentricity(g, 0)


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
    ab = bfs_distance(g, a, b)
    assert ab == bfs_distance(g, b, a)
    assert ab <= bfs_distance(g, a, c) + bfs_distance(g, c, b)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_eccentricity_matches_oracle(g):
    adj = adjacency(g)
    for v in sorted(g.labels()):
        assert eccentricity(g, v) == naive_eccentricity(adj, v)


# -- regular bipartite construction -------------------------------------------


def test_circulant_two_disjoint_edges():
    g = build_regular_bipartite(2, 1)
    assert sorted(g.edges()) == [(0, 2), (1, 3)]


def test_circulant_complete_bipartite():
    g = build_regular_bipartite(3, 3)
    assert g.edge_count() == 9
    assert all(g.degree(v) == 3 for v in g.labels())


def test_circulant_4_2():
    g = build_regular_bipartite(4, 2)
    assert g.edge_count() == 8
    for i in range(4):
        assert set(g.neighbors(i)) == {4 + i, 4 + (i + 1) % 4}
    assert {g.degree(v) for v in g.labels()} == {2}


def test_circulant_rejects_bad_degree():
    with pytest.raises(ParameterError):
        build_regular_bipartite(3, 4)
    with pytest.raises(ParameterError):
        build_regular_bipartite(3, 0)


@given(st.integers(1, 10), st.integers(1, 10))
@settings(max_examples=50, deadline=None)
def test_circulant_properties(n, k):
    if k > n:
        n, k = k, n
    g = build_regular_bipartite(n, k)
    assert validate_consistent_labeling(g).ok
    assert g.edge_count() == n * k
    assert all(g.degree(v) == k for v in g.labels())
    left = set(range(n))
    assert all((a in left) != (b in left) for a, b in g.edges())


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
    g = build_regular_bipartite(4, 1)
    coloring = konig_edge_coloring(g)
    assert set(coloring.values()) == {1}


def test_coloring_complete_bipartite_three_matchings():
    g = build_regular_bipartite(3, 3)
    coloring = konig_edge_coloring(g)
    assert set(coloring.values()) == {1, 2, 3}
    for color in (1, 2, 3):
        cls = [e for e, c in coloring.items() if c == color]
        assert len(cls) == 3
        ends = [v for e in cls for v in e]
        assert len(set(ends)) == 6


def _assert_proper(g, coloring):
    for v in g.labels():
        seen = set()
        for u in g.neighbors(v):
            c = coloring[edge_key(v, u)]
            assert c not in seen
            seen.add(c)


def test_coloring_circulant_4_2_proper():
    g = build_regular_bipartite(4, 2)
    coloring = konig_edge_coloring(g)
    assert set(coloring.values()) == {1, 2}
    _assert_proper(g, coloring)


def _perturb(g, n, rng):
    """Swap the far endpoints of two random edges, keeping regularity."""
    for _ in range(30):
        a, c = rng.sample(range(n), 2)
        b = rng.choice(g.neighbors(a))
        d = rng.choice(g.neighbors(c))
        if b != d and not g.has_edge(a, d) and not g.has_edge(c, b):
            rows = {
                a: [d if x == b else x for x in g.neighbors(a)],
                c: [b if x == d else x for x in g.neighbors(c)],
                b: [c if x == a else x for x in g.neighbors(b)],
                d: [a if x == c else x for x in g.neighbors(d)],
            }
            return g.replace_ports(rows)
    return g


@given(st.integers(2, 8), st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_coloring_random_perturbed_regular_bipartite(n, k, rng):
    if k > n:
        n, k = k, n
    g = build_regular_bipartite(n, k)
    for _ in range(3):
        g = _perturb(g, n, rng)
    coloring = konig_edge_coloring(g)
    assert set(coloring.values()) == set(range(1, k + 1))
    _assert_proper(g, coloring)
    for color in range(1, k + 1):
        assert sum(1 for c in coloring.values() if c == color) == n


def test_coloring_rejects_irregular():
    g = LabeledGraph({0: [2], 1: [2, 3], 2: [0, 1], 3: [1]})
    with pytest.raises(StructuralError):
        konig_edge_coloring(g)


def test_coloring_rejects_odd_cycle():
    g = LabeledGraph({0: [1, 2], 1: [0, 2], 2: [0, 1]})
    with pytest.raises(StructuralError):
        bipartition_sides(g)


def test_circulant_pairs_rule():
    assert circulant_pairs(3, 2) == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]
