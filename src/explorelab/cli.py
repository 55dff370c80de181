"""Command-line entry points: gen, validate, run, adversary, merge,
experiment.  All artifacts are JSON; experiment tables are CSV."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .adversary import adversary_behavior
from .errors import BudgetError, ParameterError, PolicyError, StructuralError
from .experiments import default_config, rows_to_csv, rows_to_json, run_experiment
from .explorers import POLICY_NAMES, make_policy
from .family import (
    FamilyMeta,
    FamilyParams,
    LollipopParams,
    build_family_graph,
    build_lollipop,
    family_levels,
    layer_traversal_stats,
    validate_family_membership,
    width_multiplier,
)
from .graph import LabeledGraph, eccentricity, validate_consistent_labeling
from .merge import merge_gadgets, validate_merge_behavior
from .runtime import MONITOR_KINDS, Instance, execute, penalty_before_step


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text}") from exc


def _nonempty(text: str) -> str:
    """An option naming a file; an empty value is an error, not the option
    left out."""
    if not text:
        raise argparse.ArgumentTypeError("expects a non-empty value")
    return text


def _comma_list(form: str, kinds):
    """The argparse type of a comma-list option: ``kinds`` is one converter
    per part, or a single converter for any number of parts.  A wrong count
    or a part that does not convert is refused with the option's expected
    form."""

    def convert(text: str) -> tuple:
        parts = text.split(",")
        each = kinds if isinstance(kinds, tuple) else (kinds,) * len(parts)
        if len(parts) == len(each):
            try:
                return tuple(kind(part) for kind, part in zip(each, parts))
            except (ValueError, ZeroDivisionError):
                pass
        raise argparse.ArgumentTypeError(f"expects {form}, got {text!r}")

    return convert


def _monitor(name: str) -> str:
    if name not in MONITOR_KINDS:
        raise ValueError(name)
    return name


_family = _comma_list("levels,width,ecc (three integers)", (int, int, int))
_lollipop = _comma_list("k,ecc,alpha (two integers and a rational)", (int, int, Fraction))
_k_values = _comma_list("a comma list of integers", int)
_monitors = _comma_list(f"a comma list of monitors ({', '.join(MONITOR_KINDS)})", _monitor)


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _load_graph(path: str, *, check: bool = False) -> LabeledGraph:
    """Read a graph file; with ``check``, reject one that is not
    consistently labeled."""
    try:
        with open(path) as fh:
            graph = LabeledGraph.from_json(fh.read())
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
    if args.family:
        graph, _ = build_family_graph(FamilyParams(*args.family), args.seed)
    else:
        graph, _ = build_lollipop(LollipopParams(*args.lollipop), args.seed)
    _write(args.out, graph.to_json())
    return 0


def cmd_validate(args) -> int:
    graph = _load_graph(args.graph)
    report = validate_family_membership(graph, FamilyParams(*args.family))
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.ok else 1


def cmd_run(args) -> int:
    graph = _load_graph(args.instance, check=True)
    meta = gadget_set = None
    if args.family:
        # the gadget set and layer statistics hold only for a member
        l, w, r = args.family
        params = FamilyParams(l, w, r)
        membership = validate_family_membership(graph, params)
        if not membership.ok:
            raise ParameterError(
                f"{args.instance} is not a member of family {l},{w},{r}: "
                f"{sorted(membership.codes())}"
            )
        meta = FamilyMeta(params)
        gadget_set = meta.gadget_labels
    try:
        inst = Instance(graph=graph, source=args.source, alpha=args.alpha)
    except (ParameterError, StructuralError) as exc:
        raise type(exc)(f"{args.instance}: {exc}") from None
    policy = make_policy(args.policy, inst.alpha, inst.ecc)
    trace, report = execute(inst, policy, monitors=args.monitors, gadget_set=gadget_set)
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
    return 1 if report.violations else 0


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
    return 1 if run.flags else 0


def cmd_merge(args) -> int:
    graph = _load_graph(args.infile, check=True)
    try:
        # the source is adjacent to exactly level 1, so its degree is the width
        ecc, width = eccentricity(graph, 0), graph.degree(0)
        k = width_multiplier(width)
    except (ParameterError, StructuralError) as exc:
        raise type(exc)(f"{args.infile}: {exc}") from None
    levels = family_levels(ecc, args.alpha)
    try:
        meta = FamilyMeta(FamilyParams(levels, width, ecc))
        merged, plan = merge_gadgets(graph, meta, k)
    except (ParameterError, StructuralError) as exc:
        # name the file and the family --alpha selected, as run --family
        # does, unless its level count alone is too large for any graph
        family = f" (family {levels},{width},{ecc})" if levels <= sys.maxsize else ""
        raise type(exc)(f"{args.infile}{family}: {exc}") from None
    _write(args.out, merged.to_json())
    if args.plan:
        _write(args.plan, json.dumps(plan.to_dict(), indent=2))
    if not args.check_behavior:
        return 0
    report, info = validate_merge_behavior(
        graph, merged, plan, meta, lambda a, r: make_policy(args.policy, a, r), args.alpha
    )
    print(json.dumps({"behavior": report.to_dict(), "details": info}, indent=2))
    return 0 if report.ok else 1


def cmd_experiment(args) -> int:
    given = {"k_values": args.k, "ecc": args.r, "alpha": args.alpha, "policy": args.policy}
    cfg = dataclasses.replace(
        default_config(args.variant),
        seed=args.seed,
        timing=args.timing,
        **{field: value for field, value in given.items() if value is not None},
    )
    rows, report = run_experiment(cfg)
    if args.csv:
        _write(args.csv, rows_to_csv(rows).decode())
    if args.json:
        _write(args.json, rows_to_json(rows).decode())
    if not args.csv and not args.json:
        sys.stdout.write(rows_to_csv(rows).decode())
    for failure in report["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if report["failures"] else 0


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals are one ``error: ...`` line and exit code 2,
    like every other refusal of the CLI; its subcommand parsers are of the
    same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="explorelab",
        description="Constrained mobile-agent graph exploration lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family member or lollipop graph")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--family", type=_family, help="levels,width,ecc")
    kind.add_argument("--lollipop", type=_lollipop, help="k,ecc,alpha")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=_nonempty, required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="check family membership of a graph file")
    p.add_argument("--family", type=_family, required=True, help="levels,width,ecc")
    p.add_argument("graph", type=_nonempty)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a policy on an instance")
    p.add_argument("--instance", type=_nonempty, required=True)
    p.add_argument("--source", type=int, default=0)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--policy", choices=POLICY_NAMES, default="cautious-bfs")
    p.add_argument(
        "--monitors", type=_monitors, default=(), help="comma list: distance,fuel,completion"
    )
    p.add_argument("--family", type=_family, help="levels,width,ecc for gadget statistics")
    p.add_argument("--report", type=_nonempty)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("adversary", help="run the adversary against a policy")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--policy", choices=POLICY_NAMES, default="cautious-bfs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=_nonempty, required=True)
    p.add_argument("--audit", type=_nonempty)
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("merge", help="merge the gadgets of a family member")
    p.add_argument("--in", dest="infile", type=_nonempty, required=True)
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--out", type=_nonempty, required=True)
    p.add_argument("--plan", type=_nonempty)
    p.add_argument("--check-behavior", action="store_true")
    p.add_argument("--policy", choices=POLICY_NAMES, default="cautious-bfs")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("experiment", help="penalty-bound experiment sweep")
    p.add_argument("--variant", choices=("distance", "fuel"), required=True)
    p.add_argument("--k", type=_k_values, help="comma list of width multipliers")
    p.add_argument("--r", type=int)
    p.add_argument("--alpha", type=_fraction)
    p.add_argument("--policy", choices=POLICY_NAMES, help="defaults to the variant's explorer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", type=_nonempty)
    p.add_argument("--json", type=_nonempty)
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
