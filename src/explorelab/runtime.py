"""Deterministic execution of exploration policies with penalty accounting
and distance / fuel / completion monitors.

The agent model: the policy sees only the memory sequence (one 4-tuple per
traversal) and answers with the next port to take or a halt.  The runtime
owns the graph, performs traversals, and feeds records back.  Every
traversal in the package is a step of :meth:`ReplayCursor.run`: ``commit``
is one such step, the adversary drives the cursor on the graph it rewrites,
and :func:`execute` runs it to the policy's halt.  A run is judged only by
its memory, so ``execute``'s monitors read the finished memory in one pass.
Constraint violations are recorded in the run report and never stop the
run, so that monitors can observe what an incorrect policy would have done.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import BudgetError, InvariantViolation, ParameterError, PolicyError
from .family import FamilyMeta
from .graph import LabeledGraph, edge_key, eccentricity

MONITOR_KINDS = ("distance", "fuel", "completion")


class MemoryRecord(NamedTuple):
    """What the agent learns from one traversal (ports are -1 initially)."""

    label: int
    degree: int
    out_port: int
    in_port: int


@dataclass(frozen=True)
class Instance:
    """A problem instance: graph, source label, and the slack constant.

    The source eccentricity, the return-distance cap and the fuel tank size
    are derived exactly (alpha is kept as a Fraction so the floors are exact).
    """

    graph: LabeledGraph
    source: int
    alpha: Fraction
    ecc: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha <= 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if self.source not in self.graph:
            raise ParameterError(f"source {self.source} not in graph")
        object.__setattr__(self, "ecc", eccentricity(self.graph, self.source))

    @property
    def fuel_tank(self) -> Fraction:
        return 2 * (1 + self.alpha) * self.ecc

    @property
    def dist_cap_floor(self) -> int:
        d = (1 + self.alpha) * self.ecc
        return d.numerator // d.denominator


@dataclass
class Trace:
    """Everything observable about one run."""

    memory: list[MemoryRecord]
    traversed: set[tuple[int, int]] = field(default_factory=set)
    first_gadget_step: int | None = None

    @property
    def steps(self) -> int:
        return len(self.memory) - 1

    def edge_at(self, i: int) -> tuple[int, int]:
        """The edge of the i-th traversal (1-based)."""
        return edge_key(self.memory[i - 1].label, self.memory[i].label)


@dataclass
class RunReport:
    steps: int = 0
    penalty: int = 0
    complete: bool | None = None
    violations: list[dict] = field(default_factory=list)

    def violations_of(self, kind: str) -> list[dict]:
        return [v for v in self.violations if v["kind"] == kind]

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "penalty": self.penalty,
            "complete": self.complete,
            "violations": self.violations,
        }


class ExploredDistances:
    """The explored edges from a fixed root and the exact shortest-path
    distances over them.  ``adj[v]`` maps each explored port of ``v`` to the
    neighbour it leads to: the one copy of the explored subgraph, which
    ``ExploredView`` reads as its rows.  ``add_edge(a, pa, b, pb)`` writes
    both rows of the edge from port ``pa`` of ``a`` to port ``pb`` of ``b``,
    then runs a decrease-only relaxation, so lookups stay O(1) between
    additions.

    Nodes joined by added edges but not yet to the root have no distance.

    :meth:`add_edge` returns None when it changed no distance or only gave
    a new leaf its distance, and otherwise the list of every node whose
    distance it set or lowered: the relaxation's own queue, so a caller
    that ignores it pays nothing.
    """

    __slots__ = ("root", "dist", "adj")

    def __init__(self, root: int):
        self.root = root
        self.dist: dict[int, int] = {root: 0}
        self.adj: dict[int, dict[int, int]] = {root: {}}

    def add_edge(self, a: int, pa: int, b: int, pb: int) -> list[int] | None:
        dist, adj = self.dist, self.adj
        if a in adj:
            adj[a][pa] = b
        else:
            adj[a] = {pa: b}
        if b in adj:
            adj[b][pb] = a
        else:
            adj[b] = {pb: a}
        da = dist.get(a)
        db = dist.get(b)
        if da is None:
            if db is None:
                return None
            a, b, da, db = b, a, db, da
        elif db is not None:
            if abs(da - db) <= 1:
                return None
            if db < da:
                a, b, da, db = b, a, db, da
        # now da + 1 < db, or b has no distance yet
        d = da + 1
        dist[b] = d
        if db is None and len(adj[b]) == 1:
            return None  # a new leaf: nothing lies beyond it
        queue = [b]
        for v in queue:  # visits the nodes appended below too
            d = dist[v] + 1
            for u in adj[v].values():
                du = dist.get(u)
                if du is None or du > d:
                    dist[u] = d
                    queue.append(u)
        return queue


_UNASKED = object()


class ReplayCursor:
    """Stepwise execution of a policy: :meth:`run` is the one place a
    traversal happens.

    Each step asks the policy for its next port, checks it, builds the
    memory record, grows the traversed set and the memory, notes the first
    visit to a label in ``gadgets`` and feeds the record to the policy.
    :meth:`commit` is one step.  The policy is asked once per step: an
    answer read through :meth:`pending_port` is kept for the step that
    takes it.  The policy only ever sees memory records, and the
    adversary's rewrites preserve labels, degrees and the ports of
    traversed edges, so the accumulated policy state remains valid when
    :meth:`replace_graph` swaps the graph underneath it.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        policy,
        source: int = 0,
        gadgets: Container[int] | None = None,
    ):
        self.graph = graph
        self.policy = policy
        self.state = policy.start()
        self.memory: list[MemoryRecord] = [MemoryRecord(source, graph.degree(source), -1, -1)]
        self.traversed: set[tuple[int, int]] = set()
        self.gadgets = gadgets
        self.first_gadget_step: int | None = None
        self.state.observe(self.memory[0])
        self._pending = _UNASKED

    @property
    def steps(self) -> int:
        return len(self.memory) - 1

    @property
    def node(self) -> int:
        return self.memory[-1].label

    def pending_port(self) -> int | None:
        port = self._pending
        if port is _UNASKED:
            port = self._pending = self.state.next_action()
        return port

    def pending_node(self) -> int | None:
        port = self.pending_port()
        if port is None:
            return None
        return self.graph.neighbor(self.node, port)

    def replace_graph(self, new_graph: LabeledGraph) -> None:
        """Traverse ``new_graph`` from now on; raises if it moves a traversed
        edge off its ports.  The rows compared port by port are those the
        new graph's record says were replaced since the current graph, or
        every row when it does not descend from the current graph."""
        old, new = self.graph._ports, new_graph._ports
        labels = new_graph._replaced_since(self.graph._diff)
        for v in old if labels is None else labels:
            row = new.get(v, ())
            for p, u in enumerate(old.get(v, ())):
                if (p >= len(row) or row[p] != u) and edge_key(v, u) in self.traversed:
                    raise InvariantViolation(
                        f"surgery touched already-traversed edge {edge_key(v, u)}"
                    )
        self.graph = new_graph

    def run(self, limit: int) -> bool:
        """Take up to ``limit`` traversals; returns whether the policy
        halted.  After ``limit`` traversals it returns False without asking
        the policy again.  The graph is read once per call, so a graph
        swapped in by :meth:`replace_graph` is traversed from the next
        call on."""
        state = self.state
        next_action, observe = state.next_action, state.observe
        memory = self.memory
        append, add = memory.append, self.traversed.add
        g = self.graph
        ports = g._ports
        rev = g._rports
        if rev is None:
            rev = g._reverse()
        gadgets = self.gadgets if self.first_gadget_step is None else None
        # this is the hot path: tuple.__new__ skips the NamedTuple's
        # Python-level __new__, and the edge key is edge_key(cur, nxt) inlined
        record = tuple.__new__
        cur = memory[-1][0]
        port = self._pending
        for _ in range(limit):
            if port is _UNASKED:
                port = next_action()
            if port is None:
                break
            row = ports[cur]
            if not isinstance(port, int) or not 0 <= port < len(row):
                self._pending = port
                raise PolicyError(
                    f"policy chose port {port!r} at node {cur} of degree {len(row)}"
                )
            nxt = row[port]
            rec = record(MemoryRecord, (nxt, len(ports[nxt]), port, rev[nxt][cur]))
            add((cur, nxt) if cur <= nxt else (nxt, cur))
            append(rec)
            if gadgets is not None and nxt in gadgets:
                self.first_gadget_step = len(memory) - 1
                gadgets = None
            observe(rec)
            cur = nxt
            port = _UNASKED
        self._pending = port
        return port is None

    def commit(self) -> MemoryRecord:
        """Traverse the policy's pending choice: one step of :meth:`run`."""
        if self.run(1):
            raise InvariantViolation("commit requested but the policy halted")
        return self.memory[-1]

    def as_trace(self) -> Trace:
        return Trace(
            memory=self.memory,
            traversed=self.traversed,
            first_gadget_step=self.first_gadget_step,
        )


def execute(
    inst: Instance,
    policy,
    *,
    monitors: frozenset | set | tuple = (),
    max_steps: int | None = None,
    gadget_set: set[int] | None = None,
) -> tuple[Trace, RunReport]:
    """Run ``policy`` on ``inst`` until it halts; returns (trace, report).

    The run is one :meth:`ReplayCursor.run` call.  The monitors
    ("distance", "fuel", "completion") then read the finished memory and
    record violations; none of them stops the run.  ``max_steps`` defaults
    to 50*|E| + 1000; a policy still moving after that many traversals
    raises :class:`BudgetError` carrying the partial trace.
    """
    g = inst.graph
    for m in monitors:
        if m not in MONITOR_KINDS:
            raise ParameterError(f"unknown monitor {m!r}")
    edge_total = g.edge_count()
    if max_steps is None:
        max_steps = 50 * edge_total + 1000

    cursor = ReplayCursor(g, policy, inst.source, gadgets=gadget_set)
    if not cursor.run(max_steps) and cursor.pending_port() is not None:
        raise BudgetError(f"exceeded {max_steps} traversals", trace=cursor.as_trace())

    trace = cursor.as_trace()
    report = RunReport(steps=trace.steps, penalty=trace.steps - edge_total)
    if "fuel" in monitors or "distance" in monitors:
        report.violations = _fuel_and_distance_violations(
            inst, trace.memory, "fuel" in monitors, "distance" in monitors
        )
    if "completion" in monitors:
        report.complete = len(trace.traversed) == edge_total
        if not report.complete:
            report.violations.append(
                {
                    "kind": "completion",
                    "step": trace.steps,
                    "detail": f"{edge_total - len(trace.traversed)} edges unexplored",
                }
            )
    return trace, report


def _fuel_and_distance_violations(
    inst: Instance, memory: list[MemoryRecord], fuel_on: bool, distance_on: bool
) -> list[dict]:
    """The fuel and distance monitors' violations of a finished memory, in
    step order, a step's fuel violation before its distance violation.

    Fuel is counted in integer units of 1/``unit`` (the tank's denominator),
    so one traversal costs ``unit`` of them; it is checked before the step
    and refilled on arrival at the source.  The distance monitor keeps the
    explored edges and the known return distances from the source over them;
    an edge is new when its out-port is not yet in its tail's explored row.
    """
    source = inst.source
    out: list[dict] = []
    tank = fuel = unit = None
    if fuel_on:
        tank, unit = inst.fuel_tank.as_integer_ratio()
        fuel = tank
    dists = adj = dist = None
    if distance_on:
        dists = ExploredDistances(source)
        adj, dist = dists.adj, dists.dist
    cap = inst.dist_cap_floor
    prev = source
    for step in range(1, len(memory)):
        cur, _, out_port, in_port = memory[step]
        if fuel is not None:
            if fuel < unit:
                detail = f"tank {Fraction(fuel, unit)}"
                out.append({"kind": "fuel", "step": step, "detail": detail})
            fuel = tank if cur == source else fuel - unit
        if dists is not None:
            if out_port not in adj[prev]:
                dists.add_edge(prev, out_port, cur, in_port)
            d = dist.get(cur)
            if d is None or d > cap:
                detail = f"known return distance {d} > {cap}"
                out.append({"kind": "distance", "step": step, "detail": detail})
        prev = cur
    return out


def layer_traversal_stats(trace: Trace, meta: FamilyMeta) -> dict[int, tuple[int, int]]:
    """Per-layer (descending, ascending) green-edge traversal counts, taken
    up to the first gadget visit (whole trace when no gadget was visited)."""
    cutoff = trace.first_gadget_step
    if cutoff is None:
        cutoff = trace.steps
    counts = {i: [0, 0] for i in range(1, meta.params.levels)}
    for i in range(1, cutoff + 1):
        a = trace.memory[i - 1].label
        b = trace.memory[i].label
        la, lb = meta.level_of(a), meta.level_of(b)
        if la is None or lb is None:
            continue
        if lb == la + 1:
            counts[la][0] += 1
        elif lb == la - 1:
            counts[lb][1] += 1
    return {i: (d, u) for i, (d, u) in counts.items()}


def penalty_before_step(trace: Trace, cutoff: int) -> int:
    """Number of the first ``cutoff`` traversals that re-cross an edge
    already traversed at that moment."""
    if cutoff > trace.steps:
        raise ParameterError(f"cutoff {cutoff} exceeds trace steps {trace.steps}")
    seen: set[tuple[int, int]] = set()
    repeats = 0
    for i in range(1, cutoff + 1):
        key = trace.edge_at(i)
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return repeats
