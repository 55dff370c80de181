"""Experiment sweeps that measure exploration penalties against the proven
lower bounds, with CSV/JSON emission.

The distance sweep runs the adversary per width multiplier k, replays the
policy on the final graph, merges its gadgets, and compares the penalty paid
before the first gadget visit with the k^2 bound and with the merged-order
bound.  The fuel sweep runs the tank-safe explorer on lollipop graphs and
compares the total penalty with |V|^2 / (8 * alpha).

Inequalities are asserted for the parameter ranges where they provably hold
(k >= 2 for the distance bounds); out-of-range rows are still measured and
reported.  In observe mode failures are recorded instead of failing the
process, which is how incorrect policies can be studied.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from fractions import Fraction

from .adversary import adversary_behavior
from .errors import ParameterError
from .explorers import make_policy
from .family import FamilyMeta, LollipopParams, build_lollipop
from .merge import merge_gadgets, validate_merge_behavior
from .runtime import Instance, execute, penalty_before_step

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
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "k_values", tuple(self.k_values))
        if self.variant not in ("distance", "fuel"):
            raise ParameterError(f"variant must be distance or fuel, got {self.variant}")
        if any(k < 1 for k in self.k_values) or not self.k_values:
            raise ParameterError("k values must be positive")
        if self.variant == "distance" and self.ecc < 6:
            raise ParameterError("distance experiments need ecc >= 6")
        if self.variant == "fuel" and self.ecc * self.alpha < 1:
            raise ParameterError("fuel experiments need ecc * alpha >= 1")


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
    seconds: float

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


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def default_config(variant: str) -> ExperimentConfig:
    if variant == "distance":
        return ExperimentConfig("distance", (2, 3, 4), 6, Fraction(1, 2), "cautious-bfs")
    return ExperimentConfig("fuel", (1, 2, 3), 2, Fraction(1), "fuel-cautious")


def run_distance_experiment(cfg: ExperimentConfig) -> tuple[list[ExperimentRow], dict]:
    rows: list[ExperimentRow] = []
    failures: list[str] = []
    details: list[dict] = []
    for k in cfg.k_values:
        t0 = time.perf_counter()
        policy = make_policy(cfg.policy, cfg.alpha, cfg.ecc)
        run = adversary_behavior(
            cfg.ecc, cfg.alpha, policy, 16 * k, policy_name=cfg.policy, seed=cfg.seed
        )
        meta = FamilyMeta(run.params)
        inst = Instance(graph=run.final_graph, source=0, alpha=cfg.alpha)
        trace, report = execute(
            inst,
            make_policy(cfg.policy, cfg.alpha, cfg.ecc),
            monitors=("distance", "completion"),
            gadget_set=set(meta.gadget_labels),
        )
        pen_gadget = (
            penalty_before_step(trace, trace.first_gadget_step)
            if trace.first_gadget_step is not None
            else None
        )
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
        seconds = time.perf_counter() - t0 if cfg.timing else 0.0
        rows.append(
            ExperimentRow(
                k=k,
                order=len(run.final_graph),
                merged_order=len(merged),
                penalty_before_gadget=pen_gadget,
                k_squared_bound=k * k,
                thm1_bound=thm1,
                total_penalty=report.penalty,
                violations=len(report.violations),
                seconds=seconds,
            )
        )
        details.append(
            {
                "k": k,
                "adversary_steps": run.step_count,
                "adversary_flags": run.flags,
                "prefix_checks": run.prefix_checks,
                "merge_behavior_ok": behavior.ok,
                "merge_behavior": merge_info,
                "thm1_bound": str(thm1),
            }
        )

        def fail(msg: str) -> None:
            failures.append(f"k={k}: {msg}")

        if report.violations:
            fail(f"{len(report.violations)} monitor violations in the final replay")
        if not report.complete:
            fail("replay on the final graph did not complete exploration")
        if run.flags:
            fail(f"adversary behavioral flags: {run.flags[:4]}")
        if not behavior.ok:
            fail(f"merge behavior checks failed: {behavior.codes()}")
        if pen_gadget is None:
            fail("no gadget was ever visited")
        elif k >= 2:
            if pen_gadget < k * k:
                fail(f"penalty before gadget {pen_gadget} < k^2 = {k * k}")
            if merge_info and merge_info["penalty_before_gadget_merged"] < _ceil(thm1):
                fail(
                    f"merged penalty {merge_info['penalty_before_gadget_merged']}"
                    f" < ceil(thm1 bound) = {_ceil(thm1)}"
                )
    return rows, {"variant": "distance", "failures": failures, "runs": details}


def run_fuel_experiment(cfg: ExperimentConfig) -> tuple[list[ExperimentRow], dict]:
    rows: list[ExperimentRow] = []
    failures: list[str] = []
    details: list[dict] = []
    for k in cfg.k_values:
        t0 = time.perf_counter()
        params = LollipopParams(scale=k, ecc=cfg.ecc, alpha=cfg.alpha)
        graph, source = build_lollipop(params, cfg.seed)
        inst = Instance(graph=graph, source=source, alpha=cfg.alpha)
        policy = make_policy(cfg.policy, cfg.alpha, cfg.ecc)
        trace, report = execute(inst, policy, monitors=("fuel", "completion"))
        bound = Fraction(len(graph)) ** 2 / (8 * cfg.alpha)
        seconds = time.perf_counter() - t0 if cfg.timing else 0.0
        rows.append(
            ExperimentRow(
                k=k,
                order=len(graph),
                merged_order=None,
                penalty_before_gadget=None,
                k_squared_bound=None,
                thm1_bound=bound,
                total_penalty=report.penalty,
                violations=len(report.violations),
                seconds=seconds,
            )
        )
        details.append({"k": k, "order": len(graph), "bound": str(bound)})

        if report.violations_of("fuel"):
            failures.append(f"k={k}: fuel violations")
        if not report.complete:
            failures.append(f"k={k}: exploration incomplete")
        if report.penalty < bound:
            failures.append(f"k={k}: penalty {report.penalty} below bound {bound}")
    return rows, {"variant": "fuel", "failures": failures, "runs": details}


def run_experiment(cfg: ExperimentConfig) -> tuple[list[ExperimentRow], dict]:
    if cfg.variant == "distance":
        return run_distance_experiment(cfg)
    return run_fuel_experiment(cfg)


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


def report_emit(rows: list[ExperimentRow], fmt: str, path: str) -> bytes:
    """Write rows to ``path`` in csv or json format; returns the bytes written."""
    if fmt == "csv":
        data = rows_to_csv(rows)
    elif fmt == "json":
        data = rows_to_json(rows)
    else:
        raise ParameterError(f"format must be csv or json, got {fmt}")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc
    return data
