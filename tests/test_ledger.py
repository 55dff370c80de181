"""The family membership check three ways: the adversary's incremental
ledger (``family._FamilyLedger.admits``), the full check (one pass of the
ledger's row terms over every row), and ``oracles.naive_family_violations``,
per-layer loops over the whole graph."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explorelab import (
    FamilyParams,
    InvariantViolation,
    adversary_behavior,
    build_family_graph,
    make_policy,
    validate_family_membership,
)
from explorelab import adversary
from explorelab.family import _FamilyLedger
from explorelab.graph import LabeledGraph
from explorelab.surgery import switch_ports
from oracles import naive_dirty_rows, naive_family_violations
from test_surgery import random_surgery

ALPHA = Fraction(1, 2)


def seeded_ledger(g, params):
    """A ledger whose base is ``g``, set by a first (full) check."""
    ledger = _FamilyLedger(params)
    assert validate_family_membership(g, params, ledger=ledger).ok
    return ledger


def full_check(g, params):
    """The full check's report, after checking that it gives the verdict and
    the codes of the per-layer reference."""
    report = validate_family_membership(g, params)
    naive = naive_family_violations(g, params)
    assert (report.ok, report.codes()) == (naive.ok, naive.codes())
    return report


def assert_rebuilt_gets_the_full_check(ledger, g, params):
    """A copy of the member ``g`` read back from JSON has no record that
    reaches the ledger's base: the ledger does not admit it, and the check
    with the ledger gives the full report and makes it the base."""
    rebuilt = LabeledGraph.from_json(g.to_json())
    assert rebuilt._replaced_since(ledger.diff) is None
    assert not ledger.admits(rebuilt)
    report = validate_family_membership(rebuilt, params, ledger=ledger)
    assert report.ok and report.to_dict() == full_check(rebuilt, params).to_dict()
    assert ledger.rows is rebuilt._ports


# -- differential: the ledger's verdict against the full validator -------------------


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [1, 2])
def test_ledger_matches_full_validator_on_adversary_runs(monkeypatch, k, seed):
    validate = adversary.validate_family_membership
    verdicts, ledgers = [], []

    def both(g, params, *, ledger=None):
        report = full_check(g, params)
        if ledger is not None:
            if ledger.rows is None:
                validate(g, params, ledger=ledger)  # the first check builds it
                ledgers.append(ledger)
            else:
                # the graph's record names exactly the rows a scan finds
                assert g._replaced_since(ledger.diff) == naive_dirty_rows(ledger.rows, g)
                verdicts.append((ledger.admits(g), report.ok))
        return report

    monkeypatch.setattr(adversary, "validate_family_membership", both)
    policy = make_policy("cautious-bfs", ALPHA, 6)
    run = adversary_behavior(6, ALPHA, policy, 16 * k, seed=seed)
    assert len(verdicts) == run.prefix_checks - 1 > 10
    assert all(admitted == ok for admitted, ok in verdicts)
    assert_rebuilt_gets_the_full_check(ledgers[0], run.final_graph, run.params)


def test_ledger_matches_full_validator_on_surgery_chain():
    # criterion 3's chain, with the ledger following every changed surgery
    params = FamilyParams(10, 16, 6)
    g, meta = build_family_graph(params, seed=0)
    ledger = seeded_ledger(g, params)
    rng = random.Random(1009)
    changed = 0
    for i in range(1000):
        res = random_surgery(g, meta, rng)
        if res.changed:
            changed += 1
            ok = full_check(res.graph, params).ok
            assert ledger.admits(res.graph) == ok, f"op {i}"
            g = res.graph
    assert changed > 300


# -- mutants: one corruption of a member per report code ------------------------------
#
# Each builds its graph from the member's rows, so the rows it leaves alone
# are the member's own lists.

# width 20 leaves a level-1 node with both gadgets and green edges
PARAMS = FamilyParams(4, 20, 7)


def _swapped(row, old, new):
    return [new if u == old else u for u in row]


def _rewired(g, swaps):
    """``g`` with each node of ``swaps`` renaming its neighbours by its
    old -> new map; the old name None appends the new one, and the new name
    None drops the old one."""
    rows = {}
    for v, renames in swaps.items():
        row = list(g.neighbors(v))
        for old, new in renames.items():
            if old is None:
                row.append(new)
            elif new is None:
                row.remove(old)
            else:
                row = _swapped(row, old, new)
        rows[v] = row
    return g.replace_ports(rows)


def _shares_gadget(g, meta, a, b):
    return any(meta.is_gadget(x) and g.has_edge(b, x) for x in g.neighbors(a))


def _self_loop(g, meta):
    v = meta.level_labels(2)[0]
    return _rewired(g, {v: {None: v}})


def _parallel_edge(g, meta):
    v = meta.level_labels(2)[0]
    return _rewired(g, {v: {None: g.neighbor(v, 0)}})


def _unknown_neighbor(g, meta):
    v = meta.level_labels(2)[0]
    return _rewired(g, {v: {None: meta.params.order}})


def _asymmetric_dropped(g, meta):
    # the first tail node trades the critical node for the tip, and the tip
    # its neighbour for the first tail node: every new listing is returned,
    # but the critical node and the tip's old neighbour still list them
    crit, t1, tip = meta.critical_label, meta.tail_labels[0], meta.tail_tip
    (u,) = g.neighbors(tip)
    return _rewired(g, {t1: {crit: tip}, tip: {u: t1}})


def _asymmetric_added(g, meta):
    # green edges (a, q) and (c, x) become (a, x) and (c, q) in the level-1
    # rows only, while q and x join each other: every contracted degree and
    # every degree stays, but x and q do not list a and c back
    greens = meta.green_edges(g, 1)
    for a, q in greens:
        for c, x in greens:
            if (
                a != c
                and q != x
                and not g.has_edge(a, x)
                and not g.has_edge(c, q)
                and not _shares_gadget(g, meta, a, x)
                and not _shares_gadget(g, meta, c, q)
            ):
                return _rewired(g, {a: {q: x}, c: {x: q}, q: {a: x}, x: {c: q}})
    raise AssertionError("no two green edges to rewire")


def _label_range_added(g, meta):
    return g.replace_ports({meta.params.order: []})


def _label_range_renamed(g, meta):
    # the tip takes a label outside the range, so the label count holds
    tip, new = meta.tail_tip, meta.params.order
    (u,) = g.neighbors(tip)
    rows = {v: g.neighbors(v) for v in g.labels() if v != tip}
    rows.update({u: _swapped(g.neighbors(u), tip, new), new: [u]})
    return LabeledGraph(rows)


def _edge_count(g, meta):
    a, b = meta.level_labels(2)[:2]
    return _rewired(g, {a: {None: b}, b: {None: a}})


def _green_count(g, meta):
    # the green edge (a, b) becomes an edge within level 1
    a, b = meta.green_edges(g, 1)[0]
    c = next(x for x in meta.level_labels(1) if x != a)
    return _rewired(g, {a: {b: c}, b: {a: None}, c: {None: a}})


def _red_count(g, meta):
    # a gadget trades the critical node for a second level-1 neighbour, put
    # before its first so that its level pair stays: only the red count and
    # the critical node's row show it
    crit = meta.critical_label
    for gadget in meta.gadget_labels:
        lo, _ = meta.gadget_level_pair(g, gadget)
        if g.port_of(gadget, crit) < g.port_of(gadget, lo):
            x = next(v for v in meta.level_labels(1) if not g.has_edge(gadget, v))
            return _rewired(g, {gadget: {crit: x}, crit: {gadget: None}, x: {None: gadget}})
    raise AssertionError("no gadget lists the critical node first")


def _gadget_shape(g, meta):
    # a gadget's level pair becomes a green edge, and the gadget trades the
    # pair for one level-3 neighbour: every contracted degree and the edge
    # count stay
    gadget = meta.gadget_labels[0]
    lo, hi = meta.gadget_level_pair(g, gadget)
    w = meta.level_labels(3)[0]
    return _rewired(
        g,
        {gadget: {lo: w, hi: None}, lo: {gadget: hi}, hi: {gadget: lo}, w: {None: gadget}},
    )


def _layer_contraction(g, meta):
    # the green edge (a, b) moves its upper end from b to a node c that
    # shares no gadget with a
    a, b = meta.green_edges(g, 1)[0]
    c = next(
        x
        for x in meta.level_labels(2)
        if x != b and not g.has_edge(a, x) and not _shares_gadget(g, meta, a, x)
    )
    return _rewired(g, {a: {b: c}, b: {a: None}, c: {None: a}})


def _green_gadget_overlap(g, meta):
    # gadgets (a, b) and (c, d) trade upper ends, where (a, d) is a green
    # edge: every degree, and every contracted degree, stays as it was
    for g1 in meta.gadget_labels:
        a, b = meta.gadget_level_pair(g, g1)
        for g2 in meta.gadget_labels:
            c, d = meta.gadget_level_pair(g, g2)
            if c != a and g.has_edge(a, d) and not g.has_edge(c, b):
                return _rewired(g, {b: {g1: g2}, d: {g2: g1}, g1: {b: d}, g2: {d: b}})
    raise AssertionError("no two gadgets to rewire")


def _source_edges(g, meta):
    x, y = meta.level_labels(1)[0], meta.level_labels(2)[0]
    return _rewired(g, {0: {x: y}, x: {0: None}, y: {None: 0}})


def _critical_shape(g, meta):
    v, crit = meta.level_labels(2)[0], meta.critical_label
    return _rewired(g, {crit: {None: v}, v: {None: crit}})


def _tail(g, meta):
    # the first tail node trades its link to the second for a level node,
    # which cuts the rest of the tail off
    t1, t2 = meta.tail_labels[:2]
    v = meta.level_labels(2)[0]
    return _rewired(g, {t1: {t2: v}, t2: {t1: None}, v: {None: t1}})


# name -> (every code its report names, its corruption)
MUTANTS = {
    "self-loop": ({"self-loop"}, _self_loop),
    "parallel-edge": ({"parallel-edge", "asymmetric-edge", "red-count"}, _parallel_edge),
    "unknown-neighbor": ({"unknown-neighbor"}, _unknown_neighbor),
    "asymmetric-dropped": ({"asymmetric-edge"}, _asymmetric_dropped),
    "asymmetric-added": ({"asymmetric-edge"}, _asymmetric_added),
    "label-range-added": ({"label-range"}, _label_range_added),
    "label-range-renamed": ({"label-range"}, _label_range_renamed),
    "edge-count": ({"edge-count"}, _edge_count),
    "green-count": ({"green-count", "layer-contraction"}, _green_count),
    "red-count": ({"red-count", "critical-shape"}, _red_count),
    "gadget-shape": ({"gadget-shape", "green-count", "red-count"}, _gadget_shape),
    "layer-contraction": ({"layer-contraction"}, _layer_contraction),
    "green-gadget-overlap": (
        {"green-gadget-overlap", "layer-contraction"},
        _green_gadget_overlap,
    ),
    "source-edges": ({"source-edges"}, _source_edges),
    "critical-shape": ({"critical-shape", "edge-count"}, _critical_shape),
    "tail": ({"tail", "disconnected"}, _tail),
}


@pytest.fixture(scope="module")
def shuffled_member():
    g, meta = build_family_graph(PARAMS, seed=3)
    return g, meta


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_ledger_rejects_each_violation(shuffled_member, name):
    g, meta = shuffled_member
    ledger = seeded_ledger(g, PARAMS)
    codes, corrupt = MUTANTS[name]
    mutant = corrupt(g, meta)
    full = full_check(mutant, PARAMS)
    assert full.codes() == codes
    assert not ledger.admits(mutant)
    # a rejection leaves the ledger on the member, and the report is the
    # full validator's
    assert ledger.rows is g._ports
    with_ledger = validate_family_membership(mutant, PARAMS, ledger=ledger)
    assert with_ledger.to_dict() == full.to_dict()
    moved = switch_ports(g, meta.level_labels(1)[0], 0, 1).graph
    assert ledger.admits(moved)


def test_surgery_with_a_lying_touched_list_is_caught(monkeypatch):
    # the third changed gadget move also breaks the tail, far from the rows
    # the move itself rewrites; the graph records every replaced row, so the
    # ledger sees the tail rows and the adversary names the step and the code
    move_gadget = adversary.move_gadget
    moves = []

    def lying_move_gadget(g, meta, edge, gadget):
        res = move_gadget(g, meta, edge, gadget)
        if res.changed:
            moves.append(edge)
            if len(moves) == 3:
                return dataclasses.replace(res, graph=_asymmetric_dropped(res.graph, meta))
        return res

    monkeypatch.setattr(adversary, "move_gadget", lying_move_gadget)
    policy = make_policy("cautious-bfs", ALPHA, 6)
    with pytest.raises(InvariantViolation) as err:
        adversary_behavior(6, ALPHA, policy, 16, seed=0)
    assert str(err.value) == "family membership broken at step 4: {'asymmetric-edge'}"


# -- the full check against the per-layer reference -----------------------------------


def _corrupted(g, rng, kind):
    """``g`` after one random edit of the given kind, or None when the
    drawn edit does not apply.  Every kind but "one-way" keeps each listing
    two-way: a row lists u exactly when u's row lists it back."""
    labels = sorted(g.labels())
    rows = {}

    def row(v):
        if v not in rows:
            rows[v] = list(g.neighbors(v))
        return rows[v]

    a = rng.choice(labels)
    if not row(a):
        return None
    b = rng.choice(row(a))
    if kind == "switch-ports":  # keeps membership
        i, j = rng.randrange(len(row(a))), rng.randrange(len(row(a)))
        row(a)[i], row(a)[j] = row(a)[j], row(a)[i]
    elif kind == "move-end":  # the edge (a, b) becomes (a, c)
        c = rng.choice(labels)
        if c == a or c in row(a):
            return None
        row(a)[row(a).index(b)] = c
        row(b).remove(a)
        row(c).insert(rng.randrange(len(row(c)) + 1), a)
    elif kind == "swap-ends":  # the edges (a, b) and (c, d) become (a, d) and (c, b)
        c = rng.choice(labels)
        if not row(c):
            return None
        d = rng.choice(row(c))
        if len({a, b, c, d}) < 4 or d in row(a) or b in row(c):
            return None
        for x, old, new in ((a, b, d), (c, d, b), (b, a, c), (d, c, a)):
            row(x)[row(x).index(old)] = new
    elif kind == "add":
        c = rng.choice(labels)
        if c == a or c in row(a):
            return None
        row(a).append(c)
        row(c).append(a)
    elif kind == "remove":
        row(a).remove(b)
        row(b).remove(a)
    else:  # "one-way": one row lists another label in place of b
        row(a)[row(a).index(b)] = rng.choice(labels)
    return g.replace_ports(rows)


def _corruptions(kinds, count, seed):
    g, _ = build_family_graph(PARAMS, seed=3)
    rng = random.Random(seed)
    while count:
        edited = _corrupted(g, rng, rng.choice(kinds))
        if edited is not None:
            count -= 1
            yield edited


def test_full_check_matches_reference_on_corruptions():
    members = 0
    for edited in _corruptions(("switch-ports", "move-end", "swap-ends", "add", "remove"), 400, 3):
        members += full_check(edited, PARAMS).ok
    assert 40 < members < 200


def test_one_way_listings_differ_from_reference_in_overlap_only():
    # The pass reads which level nodes a gadget touches from the gadget's
    # row, the reference from the level nodes' rows.  Where a listing is
    # one-way the two can disagree on green-gadget-overlap alone, and the
    # labeling check has already named the graph.
    differ = 0
    for edited in _corruptions(("one-way",), 200, 3):
        report = validate_family_membership(edited, PARAMS)
        naive = naive_family_violations(edited, PARAMS)
        assert report.ok == naive.ok
        diff = report.codes() ^ naive.codes()
        if diff:
            differ += 1
            assert diff == {"green-gadget-overlap"}
            assert "asymmetric-edge" in report.codes()
    assert differ < 10


@given(
    levels=st.integers(2, 5),
    width=st.sampled_from([8, 12, 16, 20]),
    ecc=st.integers(6, 8),
    seed=st.integers(0, 3),
    ops=st.randoms(use_true_random=False),
)
@settings(max_examples=20, deadline=None)
def test_surgeries_keep_membership_by_all_three_checks(levels, width, ecc, seed, ops):
    params = FamilyParams(levels, width, ecc)
    g, meta = build_family_graph(params, seed=seed)
    ledger = seeded_ledger(g, params)
    for i in range(12):
        res = random_surgery(g, meta, ops)
        if res.changed:
            assert full_check(res.graph, params).ok, f"op {i}"
            dirty = res.graph._replaced_since(ledger.diff)
            assert dirty == naive_dirty_rows(ledger.rows, res.graph), f"op {i}"
            assert ledger.admits(res.graph), f"op {i}"
            g = res.graph
    assert_rebuilt_gets_the_full_check(ledger, g, params)
