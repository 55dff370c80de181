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

from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .errors import BudgetError, InvariantViolation
from .family import (
    FamilyMeta,
    FamilyParams,
    _FamilyLedger,
    build_family_graph,
    family_levels,
    validate_family_membership,
    width_multiplier,
)
from .graph import LabeledGraph, edge_key
from .runtime import ReplayCursor, Trace, step_budget
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


@dataclass
class StepAudit:
    step: int
    stages: list[str] = field(default_factory=list)
    surgeries: list[SurgeryAudit] = field(default_factory=list)
    changed: bool = False
    prefix_ok: bool | None = None
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AdversaryRun:
    """A finished run.  The audit lists each step that ran a stage or raised
    a flag; the step count, flags and prefix checks are read off it and the trace.
    ``meta`` describes the family the run's graphs belong to."""

    meta: FamilyMeta
    final_graph: LabeledGraph
    audit: list[StepAudit]
    trace: Trace

    @property
    def step_count(self) -> int:
        return self.trace.steps

    @property
    def flags(self) -> list[tuple[int, str]]:
        return [(a.step, f) for a in self.audit for f in a.flags]

    @property
    def prefix_checks(self) -> int:
        """The steps that changed the graph: one membership check and replay each."""
        return sum(a.changed for a in self.audit)


# -- the per-step modification ---------------------------------------------------


def _unexplored_layer_neighbors(cursor: ReplayCursor, meta: FamilyMeta, v: int) -> list[int]:
    """The neighbours of level node ``v`` across unexplored edges of the
    layer below it: green edges to the next level and red edges to that
    layer's gadgets."""
    j = meta.level_of(v)
    down, gadgets, traversed = meta.level_labels(j + 1), meta._layer_gadgets(j), cursor.traversed
    return [
        u
        for u in cursor.graph.neighbors(v)
        if (u in down or u in gadgets) and edge_key(v, u) not in traversed
    ]


def _first_unexplored_green(cursor: ReplayCursor, meta: FamilyMeta, layer: int, skip=()):
    """The first green edge of ``layer`` in ``meta.green_edges`` order that
    is neither traversed nor in ``skip``, or None."""
    done = cursor.traversed
    walk = meta._green_walk(cursor.graph, layer)
    return next((e for e in walk if e not in done and e not in skip), None)


def _apply(
    cursor: ReplayCursor, audit: StepAudit, op: str, args: tuple, result: SurgeryResult, noop: str
) -> bool:
    """Record the surgery in ``audit`` and traverse its graph from now on;
    a surgery that changed nothing is flagged ``noop`` instead.  Returns
    whether it changed the graph."""
    audit.surgeries.append(
        SurgeryAudit(op, args, result.changed, result.reason, result.note)
    )
    if result.changed:
        cursor.replace_graph(result.graph)
    else:
        audit.flags.append(noop)
    return result.changed


def _modify_step(cursor: ReplayCursor, meta: FamilyMeta, audit: StepAudit) -> int:
    """One modification round at the cursor's current prefix; the policy
    has a port pending.  Returns the node the pending port reaches after the
    round.

    Three stages, each firing only when its guards hold: repoint the pending
    port onto an unexplored edge of the descending layer; if the pending edge
    is red, move the target gadget onto an unexplored green edge so the
    pending port now descends a green edge; if the reached node has no
    unexplored edge below it, move a spare gadget to mint a fresh green edge
    and switch the pending edge onto its endpoint, which does.  The pending
    port's end is read again only after a stage that changed the graph.
    """
    u = cursor.node
    reached = cursor.pending_node()
    i = meta.level_of(u)

    if (
        cursor.first_gadget_step is not None
        or edge_key(u, reached) in cursor.traversed
        or i is None
        or i >= meta.params.levels
    ):
        return reached

    # repoint the pending port onto the descending layer when it aims
    # elsewhere; the pending edge is unexplored, so it descends exactly when
    # its end is a candidate
    candidates = _unexplored_layer_neighbors(cursor, meta, u)
    if candidates and reached not in candidates:
        pending = cursor.pending
        new_port = cursor.graph.port_of(u, min(candidates))
        res = switch_ports(cursor.graph, u, pending, new_port)
        audit.stages.append(STAGE_DIVERT_PORT)
        if _apply(cursor, audit, "switch-ports", (u, pending, new_port), res, "divert-port-noop"):
            reached = cursor.pending_node()

    # a pending red edge: move its gadget onto an unexplored green edge of the
    # same layer, which turns the pending port into a green descent
    if meta.is_gadget(reached):
        green = _first_unexplored_green(cursor, meta, meta.gadget_layer(reached))
        if green:
            audit.stages.append(STAGE_DIVERT_GADGET)
            res = move_gadget(cursor.graph, meta, green, reached)
            if _apply(cursor, audit, "move-gadget", (green, reached), res, "divert-gadget-noop"):
                reached = cursor.pending_node()

    if (
        i < meta.params.levels - 1
        and meta.level_of(reached) == i + 1
        and not _unexplored_layer_neighbors(cursor, meta, reached)
    ):
        audit.stages.append(STAGE_REROUTE)
        blocked = {u, reached}
        for x in (u, reached):
            for y in cursor.graph.neighbors(x):
                if meta.is_gadget(y) and meta.gadget_layer(y) == i:
                    blocked.add(y)
        # the first gadget of the layer, in label order, whose two level
        # nodes have no blocked neighbour and whose level-(i+1) node still
        # has an unexplored edge below it
        for gadget in meta._layer_gadgets(i):
            pair = meta.gadget_level_pair(cursor.graph, gadget)
            if (
                pair is None
                or not blocked.isdisjoint(cursor.graph.neighbors(pair[0]))
                or not blocked.isdisjoint(cursor.graph.neighbors(pair[1]))
                or not _unexplored_layer_neighbors(cursor, meta, pair[1])
            ):
                continue
            # besides the pending edge, two specific green edges would make
            # the follow-up switch collide with a gadget next to the pending
            # edge; skip them
            banned = {edge_key(u, reached), edge_key(u, pair[1]), edge_key(pair[0], reached)}
            h = _first_unexplored_green(cursor, meta, i, banned)
            if h:
                break
        else:
            return reached
        lo, hi = pair
        res = move_gadget(cursor.graph, meta, h, gadget)
        if not _apply(cursor, audit, "move-gadget", (h, gadget), res, "reroute-move-noop"):
            return reached
        p_reached = cursor.graph.port_of(reached, u)
        p_hi = cursor.graph.port_of(hi, lo)
        res = switch_edges(cursor.graph, meta, reached, hi, p_reached, p_hi)
        args = (reached, hi, p_reached, p_hi)
        if _apply(cursor, audit, "switch-edges", args, res, "reroute-switch-noop"):
            reached = cursor.pending_node()
    return reached


def _replay_agrees(policy, graph: LabeledGraph, records, t: int) -> bool:
    """Whether a fresh replay of ``policy`` on ``graph`` from the first
    record's label, ``t`` steps long, gives ``records`` through index ``t``.
    A halt before step ``t`` counts as disagreement.  ``run`` also reports
    a halt right after step ``t``, which cannot come with agreeing records:
    the caller's policy, fed the same records, has a port pending."""
    fresh = ReplayCursor(graph, policy, source=records[0][0])
    return not fresh.run(t) and fresh.memory == records[: t + 1]


def _rewrite(
    cursor: ReplayCursor, meta: FamilyMeta, ledger: _FamilyLedger | None
) -> tuple[StepAudit, int]:
    """Rewrite the graph ahead of the cursor's next traversal, whose port is
    pending; after a change, check family membership (through ``ledger``)
    and, by a fresh replay, the memory prefix.  Either failure raises.
    Returns the step's audit and the node the pending port then reaches."""
    before = cursor.graph
    step = cursor.steps + 1
    audit = StepAudit(step=step)
    reached = _modify_step(cursor, meta, audit)
    audit.changed = cursor.graph is not before
    if audit.changed:
        report = validate_family_membership(cursor.graph, meta.params, ledger=ledger)
        if not report.ok:
            raise InvariantViolation(f"family membership broken at step {step}: {report.codes()}")
        audit.prefix_ok = _replay_agrees(cursor.policy, cursor.graph, cursor.memory, cursor.steps)
        if not audit.prefix_ok:
            raise InvariantViolation(f"memory prefix not preserved at step {step}")
    return audit, reached


def _step(
    cursor: ReplayCursor, meta: FamilyMeta, ledger: _FamilyLedger, explored_green: dict[int, int]
) -> StepAudit:
    """Rewrite ahead of the cursor's pending traversal, take it, count a new
    green edge in ``explored_green`` (by layer), and run the behavioral
    monitors; the audit carries the traversal's number.  The monitors
    need the agent at a level node before its first gadget visit:
    ``early-gadget``, with green edges left in every layer, flags a step to
    a gadget; ``dichotomy``, with an unexplored layer edge below the agent
    and no layer's greens over half explored, flags a new edge that does
    not reach a deeper node with an unexplored edge below it."""
    p = meta.params
    u = cursor.node
    i = meta.level_of(u)
    before_gadget = i is not None and cursor.first_gadget_step is None
    avoid_hyp = before_gadget and all(n < p.greens_per_layer for n in explored_green.values())
    descent_hyp = (
        before_gadget
        and _unexplored_layer_neighbors(cursor, meta, u)
        and all(n <= p.greens_per_layer // 2 for n in explored_green.values())
    )

    audit, reached = _rewrite(cursor, meta, ledger)
    e = edge_key(u, reached)
    was_seen = e in cursor.traversed
    cursor.run(1)
    if not was_seen:
        layer = meta.green_layer(*e)
        if layer is not None:
            explored_green[layer] += 1

    if avoid_hyp and meta.is_gadget(reached):
        audit.flags.append("early-gadget")
    if descent_hyp and not was_seen:
        deeper = (
            i < p.levels - 1
            and meta.level_of(reached) == i + 1
            and _unexplored_layer_neighbors(cursor, meta, reached)
        )
        if not deeper:
            audit.flags.append("dichotomy")
    return audit


def adversary_behavior(
    ecc: int,
    alpha: Fraction,
    policy,
    width: int,
    *,
    seed: int = 0,
) -> AdversaryRun:
    """Run the full adversary: build a fresh family member, rewrite it ahead
    of every traversal of the policy, and return it once the policy halts.

    Family membership and prefix preservation are verified after every graph
    change, raising on any violation: membership incrementally, from the rows
    the change rewrote, and in full on the final graph; the prefix by a fresh
    replay.  Gadget-avoidance and descent-dichotomy flags are recorded per
    step but never raise: they are only promised for policies that actually
    solve the distance-constrained problem.  A policy still moving after
    :func:`~.runtime.step_budget` traversals raises :class:`BudgetError`.

    The run has two phases.  The *rewrite phase* is one :func:`_step` per
    traversal, until the agent first visits a gadget (the cursor's
    ``first_gadget_step`` is set) or the policy halts.  The *replay phase*
    is then one :meth:`ReplayCursor.run` call that takes the policy's ports
    on the final graph until it halts, under the same step budget and step
    numbering.  This gives the same run as one :func:`_step` per traversal
    to the halt, because
    - ``first_gadget_step`` is never reset;
    - once it is set, the first guard of ``_modify_step`` returns, so no
      surgery, stage, flag, audit entry, membership check or prefix check
      can follow;
    - both monitor hypotheses hold only before it is set, so no flag can
      follow either;
    - ``explored_green`` is read only by those hypotheses, so the replay
      phase need not keep it up to date.

    The source is not a gadget, and a gadget's neighbours are level nodes
    and the critical node only, so the agent's first traversal of a
    gadget-incident edge is its first arrival at a gadget, across an edge
    it has not explored: the first red edge explored and the first gadget
    visit are the same step.
    """
    width_multiplier(width)
    params = FamilyParams(family_levels(ecc, alpha), width, ecc)
    graph, meta = build_family_graph(params, seed)
    cursor = ReplayCursor(graph, policy, source=0, gadgets=meta.gadget_labels)
    ledger = _FamilyLedger(params)
    explored_green = {i: 0 for i in range(1, params.levels)}
    budget = step_budget(graph)

    audits: list[StepAudit] = []
    while cursor.first_gadget_step is None and cursor.pending is not None:
        if cursor.steps >= budget:
            raise BudgetError(f"adversary exceeded {budget} steps", trace=cursor.as_trace())
        audit = _step(cursor, meta, ledger, explored_green)
        if audit.stages or audit.flags:
            audits.append(audit)

    # replay phase: no rewrite or monitor can fire any more (see docstring)
    if not cursor.run(budget - cursor.steps):
        raise BudgetError(f"adversary exceeded {budget} steps", trace=cursor.as_trace())

    final_report = validate_family_membership(cursor.graph, params)
    if not final_report.ok:
        raise InvariantViolation(f"final graph left the family: {final_report.codes()}")
    return AdversaryRun(meta, cursor.graph, audits, cursor.as_trace())
