import dataclasses
import json
from fractions import Fraction

import pytest

from explorelab import (
    Instance,
    InvariantViolation,
    ParameterError,
    execute,
    experiments,
    make_policy,
)
from explorelab.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentRow,
    default_config,
    rows_to_csv,
    rows_to_json,
    run_distance_experiment,
    run_experiment,
    run_fuel_experiment,
)
from explorelab.family import LollipopParams, build_lollipop

from oracles import fuel_counting_floor


def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig("warp", (1,), 6, Fraction(1, 2))
    with pytest.raises(ParameterError):
        ExperimentConfig("distance", (1,), 5, Fraction(1, 2))
    with pytest.raises(ParameterError):
        ExperimentConfig("fuel", (1,), 2, Fraction(1, 4))
    with pytest.raises(ParameterError):
        ExperimentConfig("fuel", (), 2, Fraction(1))


@pytest.mark.parametrize("variant", ["distance", "fuel"])
@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(-1, 2)])
def test_config_refuses_non_positive_alpha(variant, alpha):
    with pytest.raises(ParameterError, match=f"alpha must be positive, got {alpha}"):
        ExperimentConfig(variant, (1,), 6, alpha)


def test_default_configs():
    d = default_config("distance")
    assert (d.k_values, d.ecc, d.alpha, d.policy) == ((2, 3, 4), 6, Fraction(1, 2), "cautious-bfs")
    f = default_config("fuel")
    assert (f.k_values, f.ecc, f.alpha, f.policy) == ((1, 2, 3), 2, Fraction(1), "fuel-cautious")


def test_fuel_experiment_rows():
    cfg = ExperimentConfig("fuel", (1, 2), 2, Fraction(1), "fuel-cautious")
    rows, report = run_fuel_experiment(cfg)
    assert report["failures"] == []
    assert [r.order for r in rows] == [28, 56]
    assert [r.thm1_bound for r in rows] == [Fraction(98), Fraction(392)]
    assert all(r.total_penalty >= r.thm1_bound for r in rows)
    assert all(r.violations == 0 for r in rows)


def test_fuel_experiment_detects_wrong_policy():
    cfg = ExperimentConfig("fuel", (1,), 2, Fraction(1), "cautious-bfs")
    _, report = run_fuel_experiment(cfg)
    assert report["failures"]


def test_distance_row_gates_the_final_replay(monkeypatch):
    # an adversary run whose memory lost its last record no longer matches
    # the replay on its final graph, and the row refuses it
    adversary = experiments.adversary_behavior

    def truncated(*args, **kwargs):
        run = adversary(*args, **kwargs)
        trace = dataclasses.replace(run.trace, memory=run.trace.memory[:-1])
        return dataclasses.replace(run, trace=trace)

    monkeypatch.setattr(experiments, "adversary_behavior", truncated)
    with pytest.raises(InvariantViolation, match="^k=1: "):
        run_distance_experiment(ExperimentConfig("distance", (1,), 6, Fraction(1, 2)))


@pytest.mark.parametrize("seed", [0, 1])
def test_distance_row_fails_a_policy_below_both_bounds(seed):
    # dfs oversteps the distance cap, trips both behavioural monitors and
    # reaches a gadget at k = 2 without paying any penalty first, on the
    # adversary's graph and on its merge alike: the row lists all four
    cfg = ExperimentConfig("distance", (2,), 6, Fraction(1, 2), "dfs", seed=seed)
    _, report = run_distance_experiment(cfg)
    violations = {0: 11, 1: 121}[seed]
    assert report["failures"] == [
        f"k=2: {violations} monitor violations in the final replay",
        "k=2: adversary behavioral flags: [(10, 'dichotomy'), (11, 'early-gadget')]",
        "k=2: penalty before gadget 0 < k^2 = 4",
        "k=2: merged penalty 0 < ceil(thm1 bound) = 2",
    ]


@pytest.mark.parametrize("seed", [0, 1])
def test_fuel_row_fails_a_policy_that_runs_dry(seed):
    # dfs explores the whole lollipop and pays above the bound, but never
    # goes home to refuel
    cfg = ExperimentConfig("fuel", (1,), 2, Fraction(1), "dfs", seed=seed)
    _, report = run_fuel_experiment(cfg)
    assert report["failures"] == ["k=1: fuel violations"]


class _HaltingPolicy:
    """A policy whose run halts at the source: ``observe`` answers None."""

    def start(self):
        return self

    def observe(self, rec):
        return None


def test_fuel_row_fails_a_policy_that_halts_at_once(monkeypatch):
    # no package policy leaves the lollipop unexplored or pays below the bound
    monkeypatch.setattr(experiments, "make_policy", lambda *args: _HaltingPolicy())
    _, report = run_fuel_experiment(ExperimentConfig("fuel", (1,), 2, Fraction(1)))
    assert report["failures"] == [
        "k=1: exploration incomplete",
        "k=1: penalty -352 below bound 98",
    ]


def test_distance_row_fails_a_policy_that_halts_at_once(monkeypatch):
    # a run that never leaves the source leaves every edge unexplored (the
    # one monitor violation is completion's) and reaches no gadget, on the
    # adversary's graph or on its merge
    monkeypatch.setattr(experiments, "make_policy", lambda *args: _HaltingPolicy())
    _, report = run_distance_experiment(ExperimentConfig("distance", (2,), 6, Fraction(1, 2)))
    assert report["failures"] == [
        "k=2: 1 monitor violations in the final replay",
        "k=2: replay on the final graph did not complete exploration",
        "k=2: merge behavior checks failed: {'no-gadget-visit'}",
        "k=2: no gadget was ever visited",
    ]


def _rows():
    return [
        ExperimentRow(2, 2341, 341, 64, 4, Fraction(1039, 1009), 2184, 0, 0.0),
        ExperimentRow(3, 5021, None, None, None, None, 99, 1, 0.25),
    ]


def test_csv_emission_shape():
    lines = rows_to_csv(_rows()).decode().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("2,2341,341,64,4,")
    assert lines[2] == "3,5021,,,,,99,1,0.250"


def test_json_emission_shape():
    data = rows_to_json(_rows())
    assert data.endswith(b"]\n")
    loaded = json.loads(data)
    assert [set(obj) for obj in loaded] == [set(CSV_COLUMNS)] * 2
    assert loaded[0]["penalty_before_gadget"] == "64"


def test_emission_is_deterministic():
    assert rows_to_csv(_rows()) == rows_to_csv(_rows())
    assert rows_to_json(_rows()) == rows_to_json(_rows())


def test_fuel_experiment_csv_bytes_are_reproducible():
    cfg = ExperimentConfig("fuel", (1,), 2, Fraction(1), "fuel-cautious")
    rows1, _ = run_fuel_experiment(cfg)
    rows2, _ = run_fuel_experiment(cfg)
    assert rows_to_csv(rows1) == rows_to_csv(rows2)


@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig("fuel", (1, 2), 2, Fraction(1), "fuel-cautious"),
        ExperimentConfig("distance", (1,), 6, Fraction(1, 2)),
    ],
    ids=["fuel", "distance"],
)
def test_timing_changes_only_the_seconds_column(cfg):
    untimed_rows, untimed = run_experiment(cfg)
    timed_rows, timed = run_experiment(dataclasses.replace(cfg, timing=True))
    assert timed == untimed
    assert all(row.seconds > 0 for row in timed_rows)
    assert [dataclasses.replace(row, seconds=0.0) for row in timed_rows] == untimed_rows


def test_emission_rejects_no_rows():
    for emit in (rows_to_csv, rows_to_json):
        with pytest.raises(ParameterError, match="^no rows to emit$"):
            emit([])


# -- the fuel bound against a floor that holds for every algorithm ------------

# every lollipop (k, r, alpha) the lab runs: the default fuel sweep
# (k = 1, 2, 3), the CI sweeps at scale (k = 4, 5, 6, 8) and at alpha = 1/2,
# r = 2 (k = 1..4), and the tests' own
USED_LOLLIPOPS = [(k, 2, Fraction(1)) for k in (1, 2, 3, 4, 5, 6, 8)]
USED_LOLLIPOPS += [(k, 2, Fraction(1, 2)) for k in (1, 2, 3, 4)]
USED_LOLLIPOPS.append((1, 4, Fraction(1, 2)))


def fuel_bound(params):
    return Fraction(params.order) ** 2 / (8 * params.alpha)


def path_only_floor(params):
    """The counting floor without the bridge node's edges: a closed trip
    crosses at most ``F - 2(r - 1)`` clique edges, the last at most
    ``F - (r - 1)``, of all ``c(c - 1) / 2``."""
    r = params.ecc
    tank = 2 * (1 + params.alpha) * r
    fuel = tank.numerator // tank.denominator
    c = params.clique_size
    beyond_last = max(0, c * (c - 1) // 2 - (fuel - (r - 1)))
    return 2 * -(-beyond_last // (fuel - 2 * (r - 1))) * (r - 1)


def test_counting_floor_reaches_the_fuel_bound_on_the_whole_grid():
    short = []
    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        for r in range(2, 13):
            for k in range(1, 9):
                if alpha * r < 1:
                    continue  # not a lollipop the lab builds
                params = LollipopParams(k, r, alpha)
                floor = fuel_counting_floor(params)
                assert floor >= path_only_floor(params), (alpha, r, k)
                if floor < fuel_bound(params):
                    short.append((alpha, r, k))
    assert short == []
    # the corner that counting the path alone leaves uncovered
    corner = LollipopParams(1, 2, Fraction(1, 2))
    assert path_only_floor(corner) == 84 < fuel_bound(corner) == 100
    assert fuel_counting_floor(corner) == 150
    assert fuel_counting_floor(LollipopParams(4, 2, Fraction(1, 2))) == 3000 >= 1600


@pytest.mark.parametrize(
    "k,r,alpha", USED_LOLLIPOPS, ids=[f"k{k}-r{r}-alpha{a}" for k, r, a in USED_LOLLIPOPS]
)
def test_fuel_cautious_pays_the_counting_floor(k, r, alpha):
    params = LollipopParams(k, r, alpha)
    floor = fuel_counting_floor(params)
    assert floor >= fuel_bound(params)
    graph, source = build_lollipop(params)
    inst = Instance(graph=graph, source=source, alpha=alpha)
    _, report = execute(
        inst, make_policy("fuel-cautious", alpha, r), monitors=("fuel", "completion")
    )
    assert report.complete and not report.violations
    assert report.penalty >= floor
