"""Command-line entry points: gen, validate, run, adversary, merge,
experiment.  All artifacts are JSON; experiment tables are CSV."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .adversary import adversary_behavior
from .errors import BudgetError, ParameterError, PolicyError, StructuralError
from .experiments import ExperimentConfig, default_config, report_emit, run_experiment
from .explorers import POLICY_NAMES, make_policy
from .family import (
    FamilyMeta,
    FamilyParams,
    LollipopParams,
    build_family_graph,
    build_lollipop,
    family_levels,
    validate_family_membership,
)
from .graph import LabeledGraph, eccentricity, validate_consistent_labeling
from .merge import merge_gadgets, validate_merge_behavior
from .runtime import Instance, execute, layer_traversal_stats, penalty_before_step


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text}") from exc


# comma-list option -> (its expected form, the converter of each part, or
# None for any number of integers)
COMMA_LISTS = {
    "--family": ("levels,width,ecc (three integers)", (int, int, int)),
    "--lollipop": ("k,ecc,alpha (two integers and a rational)", (int, int, Fraction)),
    "--k": ("a comma list of integers", None),
}


def _comma_list(option: str, text: str) -> tuple:
    """Split a comma-list option and convert its parts; a wrong count or a
    part that does not convert is a one-line error naming the option and
    its expected form."""
    form, kinds = COMMA_LISTS[option]
    parts = text.split(",")
    if kinds is None:
        kinds = (int,) * len(parts)
    if len(parts) == len(kinds):
        try:
            return tuple(kind(part) for kind, part in zip(kinds, parts))
        except (ValueError, ZeroDivisionError):
            pass
    raise ParameterError(f"{option} expects {form}, got {text!r}")


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _load_graph(path: str, *, check: bool = False) -> LabeledGraph:
    """Read a graph file; with ``check``, reject one that is not
    consistently labeled."""
    with open(path) as fh:
        text = fh.read()
    try:
        graph = LabeledGraph.from_json(text)
    except ValueError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
    if check:
        report = validate_consistent_labeling(graph)
        if not report.ok:
            raise ParameterError(
                f"{path} is not a consistently labeled graph: {sorted(report.codes())}"
            )
    return graph


def cmd_gen(args) -> int:
    if bool(args.family) == bool(args.lollipop):
        print("gen: pass exactly one of --family or --lollipop", file=sys.stderr)
        return 2
    if args.family:
        l, w, r = _comma_list("--family", args.family)
        graph, _ = build_family_graph(FamilyParams(l, w, r), args.seed)
    else:
        k, r, alpha = _comma_list("--lollipop", args.lollipop)
        params = LollipopParams(scale=k, ecc=r, alpha=alpha)
        graph, _ = build_lollipop(params, args.seed)
    _write(args.out, graph.to_json())
    return 0


def cmd_validate(args) -> int:
    l, w, r = _comma_list("--family", args.family)
    graph = _load_graph(args.graph)
    report = validate_family_membership(graph, FamilyParams(l, w, r))
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.ok else 1


def cmd_run(args) -> int:
    graph = _load_graph(args.instance, check=True)
    meta = gadget_set = None
    if args.family:
        # the gadget set and layer statistics hold only for a member
        l, w, r = _comma_list("--family", args.family)
        params = FamilyParams(l, w, r)
        membership = validate_family_membership(graph, params)
        if not membership.ok:
            raise ParameterError(
                f"{args.instance} is not a member of family {l},{w},{r}: "
                f"{sorted(membership.codes())}"
            )
        meta = FamilyMeta(params)
        gadget_set = set(meta.gadget_labels)
    try:
        inst = Instance(graph=graph, source=args.source, alpha=args.alpha)
    except (ParameterError, StructuralError) as exc:
        raise type(exc)(f"{args.instance}: {exc}") from None
    policy = make_policy(args.policy, inst.alpha, inst.ecc)
    monitors = tuple(m for m in args.monitors.split(",") if m) if args.monitors else ()
    trace, report = execute(inst, policy, monitors=monitors, gadget_set=gadget_set)
    out = report.to_dict()
    out["first_gadget_step"] = trace.first_gadget_step
    if meta is not None:
        stats = layer_traversal_stats(trace, meta)
        out["layer_traversals"] = {
            str(i): {"down": d, "up": u} for i, (d, u) in stats.items()
        }
        if trace.first_gadget_step is not None:
            out["penalty_before_gadget"] = penalty_before_step(
                trace, trace.first_gadget_step
            )
    text = json.dumps(out, indent=2)
    if args.report:
        _write(args.report, text)
    else:
        print(text)
    if args.strict and report.violations:
        return 1
    return 0


def cmd_adversary(args) -> int:
    policy = make_policy(args.policy, args.alpha, args.r)
    run = adversary_behavior(args.r, args.alpha, policy, 16 * args.k, seed=args.seed)
    _write(args.out, run.final_graph.to_json())
    if args.audit:
        audit = {
            "steps": run.step_count,
            "first_gadget_step": run.trace.first_gadget_step,
            "prefix_checks": run.prefix_checks,
            "flags": run.flags,
            "entries": [a.to_dict() for a in run.audit],
        }
        _write(args.audit, json.dumps(audit, indent=2))
    if args.strict and run.flags:
        return 1
    return 0


def cmd_merge(args) -> int:
    graph = _load_graph(args.infile, check=True)
    try:
        # the source is adjacent to exactly level 1, so its degree is the width
        ecc, width = eccentricity(graph, 0), graph.degree(0)
    except (ParameterError, StructuralError) as exc:
        raise type(exc)(f"{args.infile}: {exc}") from None
    if width < 16 or width % 16:
        raise ParameterError(
            f"{args.infile}: graph width {width} is not a positive multiple of 16"
        )
    levels = family_levels(ecc, args.alpha)
    meta = FamilyMeta(FamilyParams(levels, width, ecc))
    try:
        merged, plan = merge_gadgets(graph, meta, width // 16)
    except (ParameterError, StructuralError) as exc:
        # name the file and the family --alpha selected, as run --family does
        raise type(exc)(f"{args.infile} (family {levels},{width},{ecc}): {exc}") from None
    _write(args.out, merged.to_json())
    if args.plan:
        _write(args.plan, json.dumps(plan.to_dict(), indent=2))
    if args.check_behavior:
        report, info = validate_merge_behavior(
            graph, merged, plan, meta, lambda a, r: make_policy(args.policy, a, r), args.alpha
        )
        print(json.dumps({"behavior": report.to_dict(), "details": info}, indent=2))
        if args.strict and not report.ok:
            return 1
    return 0


def cmd_experiment(args) -> int:
    base = default_config(args.variant)
    cfg = ExperimentConfig(
        variant=args.variant,
        k_values=_comma_list("--k", args.k) if args.k else base.k_values,
        ecc=args.r if args.r is not None else base.ecc,
        alpha=args.alpha if args.alpha is not None else base.alpha,
        policy=args.policy or base.policy,
        seed=args.seed,
        timing=args.timing,
    )
    rows, report = run_experiment(cfg)
    if args.csv:
        report_emit(rows, "csv", args.csv)
    if args.json:
        report_emit(rows, "json", args.json)
    if not args.csv and not args.json:
        from .experiments import rows_to_csv

        sys.stdout.write(rows_to_csv(rows).decode())
    for failure in report["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    if report["failures"] and not args.observe:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="explorelab",
        description="Constrained mobile-agent graph exploration lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family member or lollipop graph")
    p.add_argument("--family", help="levels,width,ecc")
    p.add_argument("--lollipop", help="k,ecc,alpha")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="check family membership of a graph file")
    p.add_argument("--family", required=True, help="levels,width,ecc")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a policy on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--policy", choices=POLICY_NAMES, default="cautious-bfs")
    p.add_argument("--monitors", default="", help="comma list: distance,fuel,completion")
    p.add_argument("--family", help="levels,width,ecc for gadget statistics")
    p.add_argument("--report")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("adversary", help="run the adversary against a policy")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--policy", choices=POLICY_NAMES, default="cautious-bfs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--audit")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("merge", help="merge the gadgets of a family member")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--plan")
    p.add_argument("--check-behavior", action="store_true")
    p.add_argument("--policy", choices=POLICY_NAMES, default="cautious-bfs")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("experiment", help="penalty-bound experiment sweep")
    p.add_argument("--variant", choices=("distance", "fuel"), required=True)
    p.add_argument("--k", help="comma list of width multipliers")
    p.add_argument("--r", type=int)
    p.add_argument("--alpha", type=_fraction)
    p.add_argument("--policy", default=None, help="defaults to the variant's explorer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv")
    p.add_argument("--json", dest="json")
    p.add_argument("--observe", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, PolicyError, BudgetError) as exc:
        # covers parameter, structural, policy and budget errors; internal
        # invariant violations still produce a traceback on purpose
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
