"""Experiment sweeps that measure exploration penalties against the proven
lower bounds, with CSV/JSON emission.

Each variant is one row function behind one sweep loop, which runs it once
per k, times it and prefixes its failures with k.  The distance row runs the
adversary with width multiplier k, replays the policy on the final graph,
merges its gadgets, and compares the penalty paid before the first gadget
visit with the k^2 bound and with the merged-order bound.  The fuel row runs
the tank-safe explorer on a lollipop graph and compares the total penalty
with |V|^2 / (8 * alpha).

Inequalities are asserted for the parameter ranges where they provably hold
(k >= 2 for the distance bounds); out-of-range rows are still measured and
reported.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .adversary import adversary_behavior
from .errors import InvariantViolation, ParameterError
from .explorers import make_policy
from .family import FamilyParams, LollipopParams, build_lollipop, family_levels
from .merge import merge_gadgets, validate_merge_behavior
from .runtime import Instance, execute, penalty_before_step, slack

CSV_COLUMNS = (
    "k",
    "|V|",
    "|V'|",
    "penalty_before_gadget",
    "k_squared_bound",
    "thm1_bound",
    "total_penalty",
    "violations",
    "seconds",
)


@dataclass(frozen=True)
class ExperimentConfig:
    variant: str
    k_values: tuple[int, ...]
    ecc: int
    alpha: Fraction
    policy: str = "cautious-bfs"
    seed: int = 0
    timing: bool = False

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(self.k_values))
        if self.variant not in ("distance", "fuel"):
            raise ParameterError(f"variant must be distance or fuel, got {self.variant}")
        if any(k < 1 for k in self.k_values) or not self.k_values:
            raise ParameterError("k values must be positive")
        object.__setattr__(self, "alpha", slack(self.alpha))
        for k in self.k_values:  # every row's parameters, before any row runs
            try:
                if self.variant == "distance":
                    FamilyParams(family_levels(self.ecc, self.alpha), 16 * k, self.ecc)
                else:
                    LollipopParams(k, self.ecc, self.alpha)
            except ParameterError as exc:
                raise ParameterError(f"k={k}: {exc}") from None


@dataclass
class ExperimentRow:
    k: int
    order: int
    merged_order: int | None
    penalty_before_gadget: int | None
    k_squared_bound: int | None
    thm1_bound: Fraction | None
    total_penalty: int
    violations: int
    seconds: float = 0.0

    def cells(self) -> list[str]:
        return [
            str(self.k),
            str(self.order),
            "" if self.merged_order is None else str(self.merged_order),
            "" if self.penalty_before_gadget is None else str(self.penalty_before_gadget),
            "" if self.k_squared_bound is None else str(self.k_squared_bound),
            "" if self.thm1_bound is None else f"{float(self.thm1_bound):.6g}",
            str(self.total_penalty),
            str(self.violations),
            f"{self.seconds:.3f}",
        ]

    def to_dict(self) -> dict:
        return dict(zip(CSV_COLUMNS, self.cells()))


def default_config(variant: str) -> ExperimentConfig:
    if variant == "distance":
        return ExperimentConfig("distance", (2, 3, 4), 6, Fraction(1, 2), "cautious-bfs")
    return ExperimentConfig("fuel", (1, 2, 3), 2, Fraction(1), "fuel-cautious")


def _distance_row(cfg: ExperimentConfig, k: int) -> tuple[ExperimentRow, dict, list[str]]:
    policy = make_policy(cfg.policy, cfg.alpha, cfg.ecc)
    run = adversary_behavior(cfg.ecc, cfg.alpha, policy, 16 * k, seed=cfg.seed)
    meta = run.meta
    trace, report = execute(
        Instance(graph=run.final_graph, source=0, alpha=cfg.alpha),
        make_policy(cfg.policy, cfg.alpha, cfg.ecc),
        monitors=("distance", "completion"),
        gadget_set=meta.gadget_labels,
    )
    if trace.memory != run.trace.memory:
        raise InvariantViolation(f"k={k}: the final replay departs from the adversary's run")
    first = trace.first_gadget_step
    pen_gadget = None if first is None else penalty_before_step(trace, first)
    del trace  # equal to run.trace: one copy of the memory is enough
    merged, plan = merge_gadgets(run.final_graph, meta, k)
    behavior, merge_info = validate_merge_behavior(
        run.final_graph,
        merged,
        plan,
        meta,
        lambda a, r: make_policy(cfg.policy, a, r),
        cfg.alpha,
    )
    denom = 16 * (2 * (meta.params.levels - 1) + 3)
    thm1 = Fraction(len(merged), denom) ** 2
    row = ExperimentRow(
        k=k,
        order=len(run.final_graph),
        merged_order=len(merged),
        penalty_before_gadget=pen_gadget,
        k_squared_bound=k * k,
        thm1_bound=thm1,
        total_penalty=report.penalty,
        violations=len(report.violations),
    )
    detail = {
        "k": k,
        "adversary_steps": run.step_count,
        "adversary_flags": run.flags,
        "prefix_checks": run.prefix_checks,
        "merge_behavior_ok": behavior.ok,
        "merge_behavior": merge_info,
        "thm1_bound": str(thm1),
    }
    failures = []
    if report.violations:
        failures.append(f"{len(report.violations)} monitor violations in the final replay")
    if not report.complete:
        failures.append("replay on the final graph did not complete exploration")
    if run.flags:
        failures.append(f"adversary behavioral flags: {run.flags[:4]}")
    if not behavior.ok:
        failures.append(f"merge behavior checks failed: {behavior.codes()}")
    if pen_gadget is None:
        failures.append("no gadget was ever visited")
    elif k >= 2:
        if pen_gadget < k * k:
            failures.append(f"penalty before gadget {pen_gadget} < k^2 = {k * k}")
        if merge_info and merge_info["penalty_before_gadget_merged"] < math.ceil(thm1):
            failures.append(
                f"merged penalty {merge_info['penalty_before_gadget_merged']}"
                f" < ceil(thm1 bound) = {math.ceil(thm1)}"
            )
    return row, detail, failures


def _fuel_row(cfg: ExperimentConfig, k: int) -> tuple[ExperimentRow, dict, list[str]]:
    params = LollipopParams(scale=k, ecc=cfg.ecc, alpha=cfg.alpha)
    graph, source = build_lollipop(params, cfg.seed)
    inst = Instance(graph=graph, source=source, alpha=cfg.alpha)
    policy = make_policy(cfg.policy, cfg.alpha, cfg.ecc)
    _, report = execute(inst, policy, monitors=("fuel", "completion"))
    bound = Fraction(len(graph)) ** 2 / (8 * cfg.alpha)
    row = ExperimentRow(
        k=k,
        order=len(graph),
        merged_order=None,
        penalty_before_gadget=None,
        k_squared_bound=None,
        thm1_bound=bound,
        total_penalty=report.penalty,
        violations=len(report.violations),
    )
    failures = []
    if report.violations_of("fuel"):
        failures.append("fuel violations")
    if not report.complete:
        failures.append("exploration incomplete")
    if report.penalty < bound:
        failures.append(f"penalty {report.penalty} below bound {bound}")
    return row, {"k": k, "order": len(graph), "bound": str(bound)}, failures


def _sweep(cfg: ExperimentConfig, row_of) -> tuple[list[ExperimentRow], dict]:
    """One row per k, each timed when ``cfg.timing``; every failure is
    prefixed with its row's k."""
    rows, details, failures = [], [], []
    for k in cfg.k_values:
        t0 = time.perf_counter()
        row, detail, row_failures = row_of(cfg, k)
        if cfg.timing:
            row.seconds = time.perf_counter() - t0
        rows.append(row)
        details.append(detail)
        failures += (f"k={k}: {msg}" for msg in row_failures)
    return rows, {"variant": cfg.variant, "failures": failures, "runs": details}


def run_distance_experiment(cfg: ExperimentConfig) -> tuple[list[ExperimentRow], dict]:
    return _sweep(cfg, _distance_row)


def run_fuel_experiment(cfg: ExperimentConfig) -> tuple[list[ExperimentRow], dict]:
    return _sweep(cfg, _fuel_row)


def run_experiment(cfg: ExperimentConfig) -> tuple[list[ExperimentRow], dict]:
    return _sweep(cfg, _distance_row if cfg.variant == "distance" else _fuel_row)


def rows_to_csv(rows: list[ExperimentRow]) -> bytes:
    if not rows:
        raise ParameterError("no rows to emit")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.cells())
    return buf.getvalue().encode()


def rows_to_json(rows: list[ExperimentRow]) -> bytes:
    if not rows:
        raise ParameterError("no rows to emit")
    return json.dumps([r.to_dict() for r in rows], indent=2).encode() + b"\n"

