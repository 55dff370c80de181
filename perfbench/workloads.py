"""The benchmark's three workloads.

Each workload turns a seed into inputs (``setup``) and then runs one verified
iteration on them (``iterate``), returning an :class:`Outcome`: SHA-256
digests of everything the iteration produced, exact counts of the work done,
and the checks that failed.  The package is reached through module
attributes at call time, so a :class:`tracing.Tracer` installed between
iterations sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

import explorelab
from explorelab import adversary, experiments, explorers, family, graph, merge, runtime, surgery


@dataclass
class Outcome:
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    checks: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_digest(value) -> str:
    return sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode())


def graph_json(out: Outcome, key: str, g) -> str:
    text = g.to_json()
    out.digests[key] = sha256(text.encode())
    out.counts["json_bytes"] = out.counts.get("json_bytes", 0) + len(text)
    return text


@contextlib.contextmanager
def capturing(*targets):
    """Record the return value of every call to the given (module, name)
    bindings; one extra call per operation, in traced and untraced runs
    alike."""
    got: list[tuple[str, object]] = []
    saved = []
    for mod, attr in targets:
        fn = getattr(mod, attr)
        saved.append((mod, attr, fn))

        def capture(*args, _fn=fn, _key=f"{mod.__name__}.{attr}", **kwargs):
            result = _fn(*args, **kwargs)
            got.append((_key, result))
            return result

        capture.__wrapped__ = fn
        setattr(mod, attr, capture)
    try:
        yield got
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def results_of(got, key: str) -> list:
    return [r for k, r in got if k == key]


def check_rows(out: Outcome, rows, details) -> None:
    out.digests["csv"] = sha256(experiments.rows_to_csv(rows))
    out.digests["details"] = json_digest(details)
    out.check(not details["failures"], f"experiment failures: {details['failures'][:4]}")
    out.check(all(r.seconds == 0.0 for r in rows), "CSV seconds column is not zero")


def check_replays(out: Outcome, runs, prefix: str) -> int:
    """Digest and check the (trace, report) pair of every ``execute`` call;
    returns the traversals they committed."""
    steps = 0
    for n, (trace, report) in enumerate(runs):
        out.digests[f"{prefix}{n}.memory"] = json_digest(trace.memory)
        out.check(not report.violations, f"{prefix}{n}: monitor violations {report.violations[:2]}")
        out.check(report.complete is not False, f"{prefix}{n}: exploration incomplete")
        steps += report.steps
    return steps


class AdversaryK2:
    """One verified distance row: adversary, final replay, merge, merge
    replay and bound checks, k = 2, r = 6, alpha = 1/2, cautious-bfs."""

    name = "adversary-k2"
    hot_spot = ("family.validate",)

    def setup(self, seed: int):
        return experiments.ExperimentConfig(
            "distance", (2,), 6, Fraction(1, 2), "cautious-bfs", seed=seed, timing=False
        )

    def input_digest(self, cfg) -> str:
        return sha256(repr(cfg).encode())

    def iterate(self, cfg) -> Outcome:
        out = Outcome()
        with capturing(
            (experiments, "adversary_behavior"),
            (experiments, "execute"),
            (experiments, "merge_gadgets"),
            (merge, "execute"),
        ) as got:
            rows, details = experiments.run_distance_experiment(cfg)
        check_rows(out, rows, details)
        (run,) = results_of(got, "explorelab.experiments.adversary_behavior")
        ((merged, plan),) = results_of(got, "explorelab.experiments.merge_gadgets")
        graph_json(out, "adversary.graph", run.final_graph)
        graph_json(out, "merged.graph", merged)
        out.digests["adversary.memory"] = json_digest(run.trace.memory)
        out.digests["adversary.audit"] = json_digest([a.to_dict() for a in run.audit])
        out.digests["merge.plan"] = json_digest(plan.to_dict())
        replays = results_of(got, "explorelab.experiments.execute")
        replays += results_of(got, "explorelab.merge.execute")
        out.check(len(replays) == 3, f"expected 3 replays, saw {len(replays)}")
        executed = check_replays(out, replays, "replay")

        surgeries = [s for a in run.audit for s in a.surgeries]
        for op in ("switch-ports", "switch-edges", "move-gadget"):
            key = op.replace("-", "_")
            out.counts[f"surgery.{key}.calls"] = sum(a.op == op for a in surgeries)
            out.counts[f"surgery.{key}.changed"] = sum(a.op == op and a.changed for a in surgeries)
        out.counts["adversary.steps"] = run.step_count
        out.counts["adversary.changed_steps"] = sum(a.changed for a in run.audit)
        out.counts["runtime.traversals"] = executed
        out.counts["traversals"] = run.step_count + executed
        return out


class FuelSweep:
    """The default fuel sweep: lollipops k = 1, 2, 3, r = 2, alpha = 1,
    fuel-cautious."""

    name = "fuel-sweep"
    hot_spot = ("explorers.plan_to",)

    def setup(self, seed: int):
        cfg = experiments.default_config("fuel")
        return experiments.ExperimentConfig(
            cfg.variant, cfg.k_values, cfg.ecc, cfg.alpha, cfg.policy, seed=seed, timing=False
        )

    def input_digest(self, cfg) -> str:
        return sha256(repr(cfg).encode())

    def iterate(self, cfg) -> Outcome:
        out = Outcome()
        with capturing((experiments, "execute")) as got:
            rows, details = experiments.run_fuel_experiment(cfg)
        check_rows(out, rows, details)
        replays = results_of(got, "explorelab.experiments.execute")
        out.check(len(replays) == len(cfg.k_values), f"saw {len(replays)} fuel runs")
        executed = check_replays(out, replays, "fuel")
        out.counts["runtime.traversals"] = executed
        out.counts["traversals"] = executed
        return out


@dataclass
class Member:
    graph: object
    meta: object
    alpha: Fraction


class ReplayMergeK3:
    """A fresh k = 3 member (levels 10, width 48, ecc 6) built in set-up;
    each iteration replays cautious-bfs and dfs on it, merges its gadgets,
    replays the merge and round-trips both graphs through JSON."""

    name = "replay-merge-k3"
    hot_spot = ("explorers.port_scans", "runtime")
    k = 3

    def setup(self, seed: int) -> Member:
        g, meta = family.build_family_graph(family.FamilyParams(10, 16 * self.k, 6), seed)
        return Member(g, meta, Fraction(1, 2))

    def input_digest(self, member: Member) -> str:
        return sha256(member.graph.to_json().encode())

    def iterate(self, member: Member) -> Outcome:
        out = Outcome()
        g, meta, alpha = member.graph, member.meta, member.alpha
        inst = runtime.Instance(graph=g, source=meta.source_label, alpha=alpha)
        cautious = runtime.execute(
            inst,
            explorers.make_policy("cautious-bfs", alpha, inst.ecc),
            monitors=("distance", "completion"),
            gadget_set=set(meta.gadget_labels),
        )
        dfs = runtime.execute(
            inst, explorers.make_policy("dfs", alpha, inst.ecc), monitors=("completion",)
        )
        executed = check_replays(out, [cautious, dfs], "replay")
        out.check(dfs[1].steps == 2 * g.edge_count(), "dfs did not take exactly 2|E| moves")

        merged, plan = merge.merge_gadgets(g, meta, self.k)
        behavior, info = merge.validate_merge_behavior(
            g, merged, plan, meta, lambda a, r: explorers.make_policy("cautious-bfs", a, r), alpha
        )
        out.check(behavior.ok, f"merge behaviour checks failed: {behavior.codes()}")
        out.digests["merge.behavior"] = json_digest(info)
        out.digests["merge.plan"] = json_digest(plan.to_dict())
        executed += info["total_steps"] + info["total_steps_merged"]

        for key, value in (("member.graph", g), ("merged.graph", merged)):
            text = graph_json(out, key, value)
            out.check(graph.LabeledGraph.from_json(text) == value, f"{key} JSON round trip differs")
        out.counts["runtime.traversals"] = executed
        out.counts["traversals"] = executed
        return out


WORKLOADS = {w.name: w for w in (AdversaryK2(), FuelSweep(), ReplayMergeK3())}

# every explorelab module whose names the tracer wraps
PACKAGE_MODULES = (explorelab, graph, family, surgery, runtime, explorers, adversary, merge, experiments)


def policy_state_classes():
    """The concrete classes behind the observe/next_action protocol."""
    return [
        type(explorers.make_policy(name, Fraction(1, 2), 6).start())
        for name in explorers.POLICY_NAMES
    ]
