"""The adversary: stepwise graph rewriting driven by the choices of a
deterministic exploration policy.

The rewriting never touches an edge the agent has traversed, so the agent's
memory prefix is preserved across every rewrite; the engine verifies this
per surgery (the ports of the rows the new graph records as replaced,
against the traversed set) and, after every step that changed the graph, by
a full fresh replay.  Family membership is checked after every step that
changed the graph, incrementally: a ledger of the last member's per-row
sums is updated from the rows the graph records as replaced since that
member, and any doubt falls back to the full validator.  The final graph
gets the full validator.  Structural monitors (family membership, prefix
preservation) raise on failure since they hold unconditionally; behavioral
monitors (the agent being kept out of gadgets, and each descent ending in a
deeper frontier node or a repeated edge) are recorded as flags because they
are only guaranteed for policies that actually solve the distance-constrained
problem.

The rewriting stops for good at the agent's first visit to a gadget (the
cursor's ``first_gadget_step``), and so do the behavioral monitors.  A run
therefore has two phases: rewrites and monitors before every step up to
that visit, then a plain replay of the policy's ports on the final graph
until it halts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetError, InvariantViolation, ParameterError
from .family import (
    FamilyMeta,
    FamilyParams,
    _contract_layer,
    _FamilyLedger,
    build_family_graph,
    family_levels,
    validate_family_membership,
)
from .graph import LabeledGraph, edge_key
from .runtime import ReplayCursor, Trace
from .surgery import SurgeryResult, move_gadget, switch_edges, switch_ports

STAGE_DIVERT_PORT = "divert-port"
STAGE_DIVERT_GADGET = "divert-gadget"
STAGE_REROUTE = "reroute"


@dataclass
class SurgeryAudit:
    op: str
    args: tuple
    changed: bool
    reason: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "args": list(self.args),
            "changed": self.changed,
            "reason": self.reason,
            "note": self.note,
        }


@dataclass
class StepAudit:
    step: int
    stages: list[str] = field(default_factory=list)
    surgeries: list[SurgeryAudit] = field(default_factory=list)
    changed: bool = False
    prefix_ok: bool | None = None
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "stages": self.stages,
            "surgeries": [s.to_dict() for s in self.surgeries],
            "changed": self.changed,
            "prefix_ok": self.prefix_ok,
            "flags": self.flags,
        }


@dataclass
class AdversaryRun:
    ecc: int
    alpha: Fraction
    width: int
    seed: int
    final_graph: LabeledGraph
    step_count: int
    audit: list[StepAudit]
    trace: Trace
    flags: list[tuple[int, str]]
    prefix_checks: int

    @property
    def params(self) -> FamilyParams:
        return FamilyParams(family_levels(self.ecc, self.alpha), self.width, self.ecc)


class _Adversary:
    """A cursor on the graph under rewrite, with the green edges explored
    per layer that the monitors read, the ledger that checks membership
    after each rewrite, and one count, ``prefix_checks``: the steps that
    changed the graph, each followed by one membership check and one
    prefix replay."""

    def __init__(self, graph: LabeledGraph, policy, meta: FamilyMeta):
        self.cursor = ReplayCursor(graph, policy, source=0, gadgets=meta.gadget_labels)
        self.meta = meta
        self.explored_green = {i: 0 for i in range(1, meta.params.levels)}
        self.ledger = _FamilyLedger(meta.params)
        self.prefix_checks = 0

    def commit(self) -> bool:
        """Take the pending traversal; returns whether its edge was already
        explored."""
        cursor = self.cursor
        e = edge_key(cursor.node, cursor.pending_node())
        was_seen = e in cursor.traversed
        cursor.commit()
        if not was_seen:
            kind, layer = self.meta.edge_kind(*e)
            if kind == "green":
                self.explored_green[layer] += 1
        return was_seen

    def rewrite(self, step: int) -> StepAudit:
        """Rewrite the graph ahead of traversal ``step``; after a change,
        check family membership and, by a fresh replay, the memory prefix.
        Either failure raises."""
        cursor = self.cursor
        before = cursor.graph
        audit = StepAudit(step=step)
        _modify_step(self, audit)
        audit.changed = cursor.graph is not before
        if audit.changed:
            report = validate_family_membership(
                cursor.graph, self.meta.params, ledger=self.ledger
            )
            if not report.ok:
                raise InvariantViolation(
                    f"family membership broken at step {step}: {report.codes()}"
                )
            audit.prefix_ok = _replay_agrees(cursor.policy, cursor.graph, cursor.memory, step - 1)
            self.prefix_checks += 1
            if not audit.prefix_ok:
                raise InvariantViolation(f"memory prefix not preserved at step {step}")
        return audit


# -- the per-step modification ---------------------------------------------------


def _unexplored_layer_neighbors(
    cursor: ReplayCursor, meta: FamilyMeta, v: int, layer: int
) -> list[int]:
    """The neighbours of ``v`` across unexplored green or red edges of
    ``layer``."""
    traversed = cursor.traversed
    out = []
    for u in cursor.graph.neighbors(v):
        kind, klayer = meta.edge_kind(v, u)
        if klayer == layer and kind in ("green", "red") and edge_key(v, u) not in traversed:
            out.append(u)
    return out


def _unexplored_greens(cursor: ReplayCursor, meta: FamilyMeta, layer: int) -> list[tuple[int, int]]:
    return [
        e for e in meta.green_edges(cursor.graph, layer) if edge_key(*e) not in cursor.traversed
    ]


def _apply(cursor: ReplayCursor, audit: StepAudit, op: str, args: tuple, result: SurgeryResult) -> bool:
    audit.surgeries.append(
        SurgeryAudit(op, args, result.changed, result.reason, result.note)
    )
    if result.changed:
        cursor.replace_graph(result.graph)
    return result.changed


def _modify_step(adv: _Adversary, audit: StepAudit) -> None:
    """One modification round at the cursor's current prefix.

    Three stages, each firing only when its guards hold: repoint the pending
    port onto an unexplored edge of the descending layer; if the pending edge
    is red, move the target gadget onto an unexplored green edge so the
    pending port now descends a green edge; if the reached node has no
    unexplored edge below it, move a spare gadget to mint a fresh green edge
    and switch the pending edge onto its endpoint, which does.
    """
    cursor, meta = adv.cursor, adv.meta
    g = cursor.graph
    u = cursor.node
    if cursor.pending_port() is None:
        raise ParameterError("policy halts before the step being modified")
    e = edge_key(u, cursor.pending_node())
    levels = meta.params.levels
    i = meta.level_of(u)

    if cursor.first_gadget_step is not None or e in cursor.traversed or i is None or i >= levels:
        return

    # repoint the pending port onto the descending layer when it aims elsewhere
    kind, klayer = meta.edge_kind(*e)
    in_layer = kind in ("green", "red") and klayer == i
    if not in_layer:
        candidates = _unexplored_layer_neighbors(cursor, meta, u, i)
        if candidates:
            target = min(candidates)
            pending = cursor.pending_port()
            new_port = g.port_of(u, target)
            res = switch_ports(g, u, pending, new_port)
            audit.stages.append(STAGE_DIVERT_PORT)
            if not _apply(cursor, audit, "switch-ports", (u, pending, new_port), res):
                audit.flags.append("divert-port-noop")
            g = cursor.graph
            e = edge_key(u, cursor.pending_node())

    # a pending red edge: move its gadget onto an unexplored green edge of the
    # same layer, which turns the pending port into a green descent
    kind, klayer = meta.edge_kind(*e)
    if kind == "red":
        greens = _unexplored_greens(cursor, meta, klayer)
        if greens:
            gadget = cursor.pending_node()
            audit.stages.append(STAGE_DIVERT_GADGET)
            res = move_gadget(g, meta, greens[0], gadget)
            if not _apply(cursor, audit, "move-gadget", (greens[0], gadget), res):
                audit.flags.append("divert-gadget-noop")
            g = cursor.graph
            e = edge_key(u, cursor.pending_node())

    reached = cursor.pending_node()
    if (
        i < levels - 1
        and meta.level_of(reached) == i + 1
        and not _unexplored_layer_neighbors(cursor, meta, reached, i + 1)
    ):
        audit.stages.append(STAGE_REROUTE)
        blocked = {u, reached}
        for x in (u, reached):
            for y in g.neighbors(x):
                if meta.is_gadget(y) and meta.gadget_layer(y) == i:
                    blocked.add(y)
        n_lo = {
            v
            for v in meta.level_labels(i)
            if not any(y in blocked for y in g.neighbors(v))
        }
        n_hi = {
            v
            for v in meta.level_labels(i + 1)
            if not any(y in blocked for y in g.neighbors(v))
            and _unexplored_layer_neighbors(cursor, meta, v, i + 1)
        }
        greens = [x for x in _unexplored_greens(cursor, meta, i) if x != e]
        chosen = None
        for gadget, pair in _contract_layer(g, meta, i).items():
            if pair[0] not in n_lo or pair[1] not in n_hi:
                continue
            # two specific green edges would make the follow-up switch
            # collide with a gadget next to the pending edge; skip them
            banned = {edge_key(u, pair[1]), edge_key(pair[0], reached)}
            for h in greens:
                if edge_key(*h) not in banned:
                    chosen = (h, gadget, pair)
                    break
            if chosen:
                break
        if chosen:
            h, gadget, (lo, hi) = chosen
            res = move_gadget(g, meta, h, gadget)
            if not _apply(cursor, audit, "move-gadget", (h, gadget), res):
                audit.flags.append("reroute-move-noop")
                return
            g = cursor.graph
            p_reached = g.port_of(reached, u)
            p_hi = g.port_of(hi, lo)
            res = switch_edges(g, meta, reached, hi, p_reached, p_hi)
            if not _apply(
                cursor, audit, "switch-edges", (reached, hi, p_reached, p_hi), res
            ):
                audit.flags.append("reroute-switch-noop")


def _replay_agrees(policy, graph: LabeledGraph, records, t: int) -> bool:
    """Whether a fresh replay of ``policy`` on ``graph`` from the first
    record's label, ``t`` steps long, gives ``records`` through index ``t``.
    A halt before step ``t`` counts as disagreement."""
    fresh = ReplayCursor(graph, policy, source=records[0].label)
    return not fresh.run(t) and fresh.memory == records[: t + 1]


def adversary_behavior(
    ecc: int,
    alpha: Fraction,
    policy,
    width: int,
    *,
    seed: int = 0,
    max_steps: int | None = None,
) -> AdversaryRun:
    """Run the full adversary: build a fresh family member, rewrite it ahead
    of every traversal of the policy, and return it once the policy halts.

    Family membership and prefix preservation are verified after every graph
    change, raising on any violation: membership incrementally, from the rows
    the change rewrote, and in full on the final graph; the prefix by a fresh
    replay.  Gadget-avoidance and descent-dichotomy flags are recorded per
    step but never raise: they are only promised for policies that actually
    solve the distance-constrained problem.

    The run has two phases.  The *rewrite phase* runs the rewrite and the
    behavioral monitors before every step, until the agent first visits a
    gadget (the cursor's ``first_gadget_step`` is set) or the policy halts.
    The *replay phase* is then one :meth:`ReplayCursor.run` call that takes
    the policy's ports on the final graph until it halts, under the same
    step budget and step numbering.  This gives the same run as rewriting
    before every step, because
    - ``first_gadget_step`` is never reset;
    - once it is set, the first guard of ``_modify_step`` returns, so no
      surgery, stage, flag, audit entry, membership check or prefix check
      can follow;
    - both monitor hypotheses (``avoid_hyp``, ``descent_hyp``) hold only
      before it is set, so no flag can follow either;
    - ``explored_green`` is read only by those hypotheses, so the replay
      phase need not keep it up to date.

    The source is not a gadget, and a gadget's neighbours are level nodes
    and the critical node only, so the agent's first traversal of a
    gadget-incident edge is its first arrival at a gadget, across an edge
    it has not explored: the first red edge explored and the first gadget
    visit are the same step.
    """
    alpha = Fraction(alpha)
    if ecc < 6:
        raise ParameterError(f"ecc must be >= 6, got {ecc}")
    if width < 16 or width % 16 != 0:
        raise ParameterError(f"width must be a positive multiple of 16, got {width}")
    params = FamilyParams(family_levels(ecc, alpha), width, ecc)
    graph, meta = build_family_graph(params, seed)
    adv = _Adversary(graph, policy, meta)
    cursor = adv.cursor
    if max_steps is None:
        max_steps = 50 * graph.edge_count() + 1000

    audits: list[StepAudit] = []
    flags: list[tuple[int, str]] = []
    half = params.greens_per_layer // 2
    x = 0  # the number of steps taken
    halted = False
    # rewrite phase: every step runs the rewrite and the behavioral monitors
    while not halted and cursor.first_gadget_step is None:
        x += 1
        if x > max_steps:
            raise BudgetError(f"adversary exceeded {max_steps} steps", trace=cursor.as_trace())
        u = cursor.node
        i = meta.level_of(u)
        greens_left_everywhere = all(
            adv.explored_green[j] < params.greens_per_layer
            for j in range(1, params.levels)
        )
        avoid_hyp = i is not None and greens_left_everywhere
        descent_hyp = (
            i is not None
            and i <= params.levels - 1
            and _unexplored_layer_neighbors(cursor, meta, u, i)
            and all(
                adv.explored_green[j] <= half for j in range(1, params.levels)
            )
        )

        audit = adv.rewrite(x)
        was_seen = adv.commit()
        reached = cursor.node

        if avoid_hyp and meta.is_gadget(reached):
            audit.flags.append("early-gadget")
        if descent_hyp and not was_seen:
            deeper = (
                i < params.levels - 1
                and meta.level_of(reached) == i + 1
                and _unexplored_layer_neighbors(cursor, meta, reached, i + 1)
            )
            if not deeper:
                audit.flags.append("dichotomy")
        for f in audit.flags:
            flags.append((x, f))
        if audit.stages or audit.flags:
            audits.append(audit)
        halted = cursor.pending_port() is None

    # replay phase: no rewrite or monitor can fire any more (see docstring)
    if not cursor.run(max_steps - x) and cursor.pending_port() is not None:
        raise BudgetError(f"adversary exceeded {max_steps} steps", trace=cursor.as_trace())

    final_report = validate_family_membership(cursor.graph, params)
    if not final_report.ok:
        raise InvariantViolation(f"final graph left the family: {final_report.codes()}")
    return AdversaryRun(
        ecc=ecc,
        alpha=alpha,
        width=width,
        seed=seed,
        final_graph=cursor.graph,
        step_count=cursor.steps,
        audit=audits,
        trace=cursor.as_trace(),
        flags=flags,
        prefix_checks=adv.prefix_checks,
    )
