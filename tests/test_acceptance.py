"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The adversary runs for
k in {1, 2, 3} (about 0.5 s on 2 vCPUs) are shared session-wide by every
criterion that needs them.
"""

import random
import time
from fractions import Fraction

import pytest

from explorelab import (
    FamilyParams,
    Instance,
    adversary_behavior,
    build_family_graph,
    execute,
    make_policy,
    merge_gadgets,
    validate_family_membership,
)
from explorelab.family import LollipopParams, build_lollipop
from explorelab.graph import eccentricity
from explorelab.merge import validate_merge_behavior
from explorelab.runtime import penalty_before_step

from conftest import explored_return_distances
from oracles import (
    adjacency,
    check_eccentricity_properties,
    naive_eccentricity,
    naive_return_distance,
)
from test_surgery import random_surgery

ALPHA = Fraction(1, 2)
ECC = 6


def note(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def adversary_runs(k2_adversary_runs):
    runs = {2: k2_adversary_runs[0]}  # conftest's run, shared
    for k in (1, 3):
        policy = make_policy("cautious-bfs", ALPHA, ECC)
        runs[k] = adversary_behavior(ECC, ALPHA, policy, 16 * k, seed=0)
    return dict(sorted(runs.items()))


@pytest.fixture(scope="session")
def final_replays(adversary_runs):
    replays = {}
    for k, run in adversary_runs.items():
        meta = run.meta
        inst = Instance(graph=run.final_graph, source=0, alpha=ALPHA)
        replays[k] = execute(
            inst,
            make_policy("cautious-bfs", ALPHA, ECC),
            monitors=("distance", "completion"),
            gadget_set=set(meta.gadget_labels),
        )
    return replays


def test_criterion_1_family_structure():
    t0 = time.perf_counter()
    expected = {
        (4, 8, 7): (80, 42, 2, 28),
        (10, 16, 6): (669, 504, 8, 112),
    }
    for (levels, width, ecc), (order, gadgets, greens, reds) in expected.items():
        params = FamilyParams(levels, width, ecc)
        g, meta = build_family_graph(params, seed=0)
        report = validate_family_membership(g, params)
        assert report.ok, report.codes()
        assert len(g) == params.order == order
        assert len(list(meta.gadget_labels)) == params.gadget_count == gadgets
        assert params.greens_per_layer == greens
        assert params.reds_per_layer == reds
        for layer in range(1, levels):
            assert len(meta.green_edges(g, layer)) == greens
    elapsed = time.perf_counter() - t0
    note(1, elapsed < 1.0, f"orders/counts exact for both members in {elapsed:.2f}s")


def test_criterion_2_eccentricity_properties():
    t0 = time.perf_counter()
    params = FamilyParams(10, 16, 6)
    for seed in range(10):
        g, meta = build_family_graph(params, seed=seed)
        assert eccentricity(g, 0) == 6
        report = check_eccentricity_properties(g, meta, sample_size=100, seed=seed)
        assert report.ok, f"seed {seed}: {report.codes()}"
    elapsed = time.perf_counter() - t0
    note(2, elapsed < 10.0, f"10 seeds checked in {elapsed:.2f}s")


def test_criterion_3_surgery_closure(surgery_chain):
    changed, unchanged = surgery_chain
    for i, report, _ in changed:
        assert report.ok, f"op {i} broke membership: {report.codes()}"
    for i, same_object, same_json in unchanged:
        assert same_object, f"op {i}"
        assert same_json, f"op {i}"
    n, m = len(changed), len(unchanged)
    note(3, n + m == 1000, f"{n} changed, {m} no-ops, all closed")


def test_criterion_4_prefix_preservation(adversary_runs):
    for k in (2, 3):
        run = adversary_runs[k]
        assert run.prefix_checks > 0
        bad = [a.step for a in run.audit if a.prefix_ok is False]
        assert not bad, f"k={k}: prefix broken at steps {bad[:5]}"
    checks = {k: adversary_runs[k].prefix_checks for k in (2, 3)}
    note(4, True, f"all rewrite steps preserved the memory prefix ({checks})")


def test_criterion_5_penalty_before_first_gadget(adversary_runs, final_replays):
    pens = {}
    for k in (2, 3):
        trace, report = final_replays[k]
        assert report.complete
        assert trace.first_gadget_step is not None
        pens[k] = penalty_before_step(trace, trace.first_gadget_step)
        assert pens[k] >= k * k, f"k={k}: penalty {pens[k]} < {k * k}"
        assert report.steps == adversary_runs[k].step_count
    note(5, True, f"penalties before first gadget {pens} meet k^2 bounds (4, 9)")


def test_criterion_6_merge_correctness(adversary_runs):
    measured = {}
    for k in (1, 2):
        run = adversary_runs[k]
        meta = run.meta
        merged, plan = merge_gadgets(run.final_graph, meta, k)
        assert len(merged) == 8 * k * 21 + 5
        assert eccentricity(merged, 0) == 6
        report, info = validate_merge_behavior(
            run.final_graph,
            merged,
            plan,
            meta,
            lambda a, r: make_policy("cautious-bfs", a, r),
            ALPHA,
        )
        assert report.ok, report.codes()
        pen = info["penalty_before_gadget"]
        assert pen == info["penalty_before_gadget_merged"]
        bound = Fraction(len(merged), 16 * 21) ** 2
        ceil_bound = -((-bound.numerator) // bound.denominator)
        measured[k] = (pen, ceil_bound)
        if k >= 2:
            assert pen >= k * k
            assert pen >= ceil_bound
        assert info["total_penalty_merged"] >= ceil_bound
    note(6, True, f"merged sizes exact, behavior preserved, penalties {measured}")


def test_criterion_7_fuel_bound():
    t0 = time.perf_counter()
    graph, source = build_lollipop(LollipopParams(scale=1, ecc=2, alpha=Fraction(1)))
    inst = Instance(graph=graph, source=source, alpha=Fraction(1))
    trace, report = execute(
        inst,
        make_policy("fuel-cautious", inst.alpha, inst.ecc),
        monitors=("fuel", "completion"),
    )
    assert len(graph) == 28
    assert report.complete
    assert not report.violations_of("fuel")
    assert report.penalty >= 98 == len(graph) ** 2 // 8
    elapsed = time.perf_counter() - t0
    note(7, elapsed < 10.0, f"penalty {report.penalty} >= 98, no violations, {elapsed:.2f}s")


def test_criterion_8_explorer_correctness():
    params = FamilyParams(10, 16, 6)
    rng = random.Random(42)
    instances = []
    for seed in range(14):
        g, _ = build_family_graph(params, seed=seed)
        instances.append(g)
    for seed in range(6):
        g, meta = build_family_graph(params, seed=100 + seed)
        for _ in range(25):  # small membership-preserving perturbations
            res = random_surgery(g, meta, rng)
            if res.changed:
                g = res.graph
        assert validate_family_membership(g, params).ok
        instances.append(g)
    for g in instances:
        inst = Instance(graph=g, source=0, alpha=ALPHA)
        assert inst.ecc == 6
        trace, report = execute(
            inst,
            make_policy("cautious-bfs", ALPHA, ECC),
            monitors=("distance", "completion"),
        )
        assert report.complete and not report.violations
        _, dfs_report = execute(
            inst, make_policy("dfs", ALPHA, ECC), monitors=("completion",)
        )
        assert dfs_report.complete
        assert dfs_report.steps <= 2 * g.edge_count()
    note(8, True, "cautious-bfs clean and DFS within 2|E| on all 20 instances")


def test_supporting_invariants_adversary_monitors(adversary_runs):
    """Not a numbered criterion: the behavioral monitor flags stay empty and
    the half-explored layer's descent/ascent counts balance for the runs the
    criteria are built on."""
    from test_adversary import half_exploration_moment

    for k in (1, 2, 3):
        run = adversary_runs[k]
        assert run.flags == [], f"k={k}: {run.flags[:5]}"
        meta = run.meta
        lam, layer = half_exploration_moment(run.trace, meta)
        assert lam is not None
        first_gadget = run.trace.first_gadget_step
        assert first_gadget is None or first_gadget > lam
        down = up = 0
        for i in range(1, lam + 1):
            la = meta.level_of(run.trace.memory[i - 1][0])
            lb = meta.level_of(run.trace.memory[i][0])
            if la == layer and lb == layer + 1:
                down += 1
            elif la == layer + 1 and lb == layer:
                up += 1
        assert abs(down - up) <= 1
        assert down >= 2 * k * k - 1
    print("[acceptance] supporting invariants: PASS: no flags, balanced descents")


def test_criterion_9_oracle_equivalence(graph_corpus):
    for name, g, source in graph_corpus:
        assert len(g) <= 200
        adj = adjacency(g)
        for v in sorted(g.labels()):
            assert eccentricity(g, v) == naive_eccentricity(adj, v), (name, v)
        inst = Instance(graph=g, source=source, alpha=Fraction(1))
        trace, _ = execute(inst, make_policy("cautious-bfs", Fraction(1), inst.ecc))
        for i, seen, d in explored_return_distances(trace, source):
            want = naive_return_distance(seen, trace.memory[i][0], source)
            assert d == want, (name, i)
    note(9, True, f"exact agreement on all {len(graph_corpus)} corpus graphs")
