"""Deterministic execution of exploration policies with penalty accounting
and distance / fuel / completion monitors.

The agent model: the policy sees only the memory sequence (one 4-tuple per
traversal) and answers with the next port to take or a halt.  The runtime
owns the graph, performs traversals, and feeds records back: every traversal
in the package is a :meth:`ReplayCursor.commit`, which :func:`execute` loops
over with its monitors and the adversary drives on the graph it rewrites.
Constraint violations are recorded in the run report and the run continues,
so that monitors can observe what an incorrect policy would have done.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Container
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import BudgetError, InvariantViolation, ParameterError, PolicyError, StructuralError
from .family import FamilyMeta
from .graph import LabeledGraph, edge_key, eccentricity, is_connected

MONITOR_KINDS = ("distance", "fuel", "completion")


class MemoryRecord(NamedTuple):
    """What the agent learns from one traversal (ports are -1 initially)."""

    label: int
    degree: int
    out_port: int
    in_port: int


def initial_record(g: LabeledGraph, source: int) -> MemoryRecord:
    return MemoryRecord(source, g.degree(source), -1, -1)


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
        if not is_connected(self.graph):
            raise StructuralError("instance graph must be connected")
        object.__setattr__(self, "ecc", eccentricity(self.graph, self.source))

    @property
    def dist_cap(self) -> Fraction:
        return (1 + self.alpha) * self.ecc

    @property
    def fuel_tank(self) -> Fraction:
        return 2 * (1 + self.alpha) * self.ecc

    @property
    def dist_cap_floor(self) -> int:
        d = self.dist_cap
        return d.numerator // d.denominator

    @property
    def fuel_floor(self) -> int:
        b = self.fuel_tank
        return b.numerator // b.denominator


@dataclass
class Trace:
    """Everything observable about one run."""

    memory: list[MemoryRecord]
    traversed: set[tuple[int, int]] = field(default_factory=set)
    first_gadget_step: int | None = None

    @property
    def steps(self) -> int:
        return len(self.memory) - 1

    @property
    def current(self) -> int:
        return self.memory[-1].label

    def edge_at(self, i: int) -> tuple[int, int]:
        """The edge of the i-th traversal (1-based)."""
        return edge_key(self.memory[i - 1].label, self.memory[i].label)


@dataclass
class RunReport:
    steps: int = 0
    penalty: int = 0
    complete: bool | None = None
    halted: bool = False
    violations: list[dict] = field(default_factory=list)

    def violations_of(self, kind: str) -> list[dict]:
        return [v for v in self.violations if v["kind"] == kind]

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "penalty": self.penalty,
            "complete": self.complete,
            "halted": self.halted,
            "violations": self.violations,
        }


class ExploredDistances:
    """Exact shortest-path distances from a fixed root over a growing edge
    set.  Adding an edge triggers a decrease-only relaxation, so lookups
    stay O(1) between additions."""

    __slots__ = ("root", "dist", "adj")

    def __init__(self, root: int):
        self.root = root
        self.dist: dict[int, int] = {root: 0}
        self.adj: dict[int, list[int]] = {root: []}

    def add_edge(self, a: int, b: int) -> None:
        self.adj.setdefault(a, []).append(b)
        self.adj.setdefault(b, []).append(a)
        da = self.dist.get(a)
        db = self.dist.get(b)
        queue = deque()
        if da is not None and (db is None or db > da + 1):
            self.dist[b] = da + 1
            queue.append(b)
        elif db is not None and (da is None or da > db + 1):
            self.dist[a] = db + 1
            queue.append(a)
        while queue:
            v = queue.popleft()
            dv = self.dist[v]
            for u in self.adj[v]:
                du = self.dist.get(u)
                if du is None or du > dv + 1:
                    self.dist[u] = dv + 1
                    queue.append(u)

    def get(self, v: int) -> int | None:
        return self.dist.get(v)


_UNASKED = object()


class ReplayCursor:
    """Stepwise execution of a policy: the one place a traversal happens.

    Each :meth:`commit` checks the port, looks up the neighbor, builds the
    memory record, grows the traversed set and the memory, notes the first
    visit to a label in ``gadgets`` and feeds the record to the policy.  The
    policy is asked for its next port once per step: the answer is kept
    until the next :meth:`commit`, the only place the policy is fed.  The
    policy only ever sees memory records, and the adversary's rewrites
    preserve labels, degrees and the ports of traversed edges, so the
    accumulated policy state remains valid when :meth:`replace_graph` swaps
    the graph underneath it.
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
        self.memory: list[MemoryRecord] = [initial_record(graph, source)]
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

    def pending_edge(self) -> tuple[int, int] | None:
        port = self.pending_port()
        if port is None:
            return None
        return edge_key(self.node, self.graph.neighbor(self.node, port))

    def pending_node(self) -> int | None:
        port = self.pending_port()
        if port is None:
            return None
        return self.graph.neighbor(self.node, port)

    def replace_graph(self, new_graph: LabeledGraph, touched: tuple) -> None:
        for key in touched:
            if key in self.traversed:
                raise InvariantViolation(
                    f"surgery touched already-traversed edge {key}"
                )
        self.graph = new_graph

    def commit(self, port: int | None = None) -> MemoryRecord:
        """Traverse ``port`` (by default the policy's pending choice)."""
        if port is None:
            port = self.pending_port()
            if port is None:
                raise InvariantViolation("commit requested but the policy halted")
        g = self.graph
        cur = self.memory[-1].label
        if not isinstance(port, int) or not 0 <= port < g.degree(cur):
            raise PolicyError(
                f"policy chose port {port!r} at node {cur} of degree {g.degree(cur)}"
            )
        nxt = g.neighbor(cur, port)
        rec = MemoryRecord(nxt, g.degree(nxt), port, g.port_of(nxt, cur))
        self.traversed.add(edge_key(cur, nxt))
        self.memory.append(rec)
        if self.first_gadget_step is None and self.gadgets is not None and nxt in self.gadgets:
            self.first_gadget_step = len(self.memory) - 1
        self.state.observe(rec)
        self._pending = _UNASKED
        return rec

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

    Monitors ("distance", "fuel", "completion") record violations without
    stopping the run.  ``max_steps`` defaults to 50*|E| + 1000; exceeding it
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
    memory, traversed = cursor.memory, cursor.traversed
    report = RunReport()
    # Fuel is counted in integer units of 1/``unit`` (the tank's denominator),
    # so one traversal costs ``unit`` of them.
    tank = fuel = unit = None
    if "fuel" in monitors:
        tank, unit = inst.fuel_tank.as_integer_ratio()
        fuel = tank
    dists = ExploredDistances(inst.source) if "distance" in monitors else None
    cap = inst.dist_cap_floor

    while True:
        port = cursor.pending_port()
        if port is None:
            report.halted = True
            break
        if len(memory) > max_steps:
            raise BudgetError(f"exceeded {max_steps} traversals", trace=cursor.as_trace())
        if fuel is not None:
            if fuel < unit:
                report.violations.append(
                    {
                        "kind": "fuel",
                        "step": len(memory),
                        "detail": f"tank {Fraction(fuel, unit)}",
                    }
                )
            fuel -= unit
        known = len(traversed)
        rec = cursor.commit(port)
        cur = rec.label
        if fuel is not None and cur == inst.source:
            fuel = tank
        if dists is not None:
            if len(traversed) > known:
                dists.add_edge(memory[-2].label, cur)
            d = dists.get(cur)
            if d is None or d > cap:
                report.violations.append(
                    {
                        "kind": "distance",
                        "step": len(memory) - 1,
                        "detail": f"known return distance {d} > {cap}",
                    }
                )

    trace = cursor.as_trace()
    report.steps = trace.steps
    report.penalty = trace.steps - edge_total
    if "completion" in monitors:
        report.complete = len(traversed) == edge_total
        if not report.complete:
            report.violations.append(
                {
                    "kind": "completion",
                    "step": trace.steps,
                    "detail": f"{edge_total - len(traversed)} edges unexplored",
                }
            )
    return trace, report


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
