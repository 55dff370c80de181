"""Deterministic execution of exploration policies with penalty accounting
and distance / fuel / completion monitors.

The agent model: the policy sees only the memory sequence, one record per
traversal, and answers each record it is fed through ``observe`` with the
next port to take, or None to halt.  The runtime owns the graph, performs
traversals, and feeds records back.  Every traversal in the package is a
step of :meth:`ReplayCursor.run`: the adversary drives the cursor one
``run(1)`` at a time on the graph it rewrites, and :func:`execute` runs it
to the policy's halt.  A run is judged only by its memory, so
``execute``'s monitors read the finished memory in one pass.
Constraint violations are recorded in the run report and never stop the
run, so that monitors can observe what an incorrect policy would have done.

A memory record is the plain tuple ``(label, degree, out_port, in_port)``:
the label and degree of the node reached, the port it was left through and
the port it was entered by (both -1 in the source's record, the first).
Readers unpack it or index it.  The cyclic garbage collector stops tracking
an exact tuple of ints the first time it examines it (a tuple subclass
stays tracked), so a long memory costs later collections nothing.
"""

from __future__ import annotations

import math
from collections.abc import Container
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .errors import BudgetError, InvariantViolation, ParameterError, PolicyError
from .graph import LabeledGraph, edge_key, eccentricity

MONITOR_KINDS = ("distance", "fuel", "completion")


def slack(alpha, ecc: int | None = None) -> Fraction:
    """The slack constant ``alpha`` as a Fraction, refused unless positive
    and, when ``ecc`` is given, unless ``alpha * ecc >= 1``: the one check
    of the slack rule for every module that takes an ``alpha``."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if ecc is not None and alpha * ecc < 1:
        raise ParameterError(f"need alpha * ecc >= 1, got alpha={alpha}, ecc={ecc}")
    return alpha


def return_cap(alpha: Fraction, ecc: int) -> int:
    """The return cap ``floor((1+alpha)*ecc)``: the longest way home the
    agent may know after any traversal, exact for rational ``alpha``."""
    return math.floor((1 + alpha) * ecc)


def fuel_tank(alpha: Fraction, ecc: int) -> Fraction:
    """The fuel variant's tank ``2*(1+alpha)*ecc``, in traversals, refilled
    at the source."""
    return 2 * (1 + alpha) * ecc


def step_budget(graph: LabeledGraph) -> int:
    """The traversal budget of every run on ``graph``: ``50*|E| + 1000``."""
    return 50 * graph.edge_count() + 1000


@dataclass(frozen=True)
class Instance:
    """A problem instance: graph, source label, and the slack constant.

    The source eccentricity is derived; alpha is kept as a Fraction, so
    :func:`return_cap` and :func:`fuel_tank` of an instance are exact.
    """

    graph: LabeledGraph
    source: int
    alpha: Fraction
    ecc: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", slack(self.alpha))
        if self.source not in self.graph:
            raise ParameterError(f"source {self.source} not in graph")
        object.__setattr__(self, "ecc", eccentricity(self.graph, self.source))


@dataclass
class Trace:
    """Everything observable about one run: its memory and the step of its
    first gadget visit.  The traversed edges are derived from the memory
    on each read, so a trace keeps no copy of them."""

    memory: list[tuple[int, int, int, int]]
    first_gadget_step: int | None = None

    @property
    def steps(self) -> int:
        return len(self.memory) - 1

    @property
    def traversed(self) -> set[tuple[int, int]]:
        return {self.edge_at(i) for i in range(1, len(self.memory))}

    def edge_at(self, i: int) -> tuple[int, int]:
        """The edge of the i-th traversal, for ``i`` in ``1..steps``."""
        if not 0 < i < len(self.memory):
            raise ParameterError(f"traversal {i} outside 1..{self.steps}")
        return edge_key(self.memory[i - 1][0], self.memory[i][0])


@dataclass
class RunReport:
    steps: int = 0
    penalty: int = 0
    complete: bool | None = None
    violations: list[dict] = field(default_factory=list)

    def violations_of(self, kind: str) -> list[dict]:
        return [v for v in self.violations if v["kind"] == kind]

    def to_dict(self) -> dict:
        return asdict(self)


class ExploredDistances:
    """The explored edges from a fixed root and the exact shortest-path
    distances over them.  ``adj[v]`` maps each explored port of ``v`` to the
    neighbour it leads to: the one copy of the explored subgraph, which
    ``ExploredView`` reads as its rows.  ``add_edge(a, pa, b, pb)`` writes
    both rows of the edge from port ``pa`` of ``a`` to port ``pb`` of ``b``,
    then runs a decrease-only relaxation, so lookups stay O(1) between
    additions.

    :meth:`add_edge` requires ``a`` to have a distance already.  Both
    callers, the explorer's view and the distance monitor, add the edge the
    walker just crossed, from a node it had already reached, so the nodes
    of ``adj`` are exactly the nodes with a distance.  Callers read the
    distances off ``dist``: :meth:`add_edge` returns nothing.
    """

    __slots__ = ("dist", "adj")

    def __init__(self, root: int):
        self.dist: dict[int, int] = {root: 0}
        self.adj: dict[int, dict[int, int]] = {root: {}}

    def add_edge(self, a: int, pa: int, b: int, pb: int) -> None:
        dist, adj = self.dist, self.adj
        adj[a][pa] = b  # a has a distance, so it has a row
        if b in adj:
            adj[b][pb] = a
        else:
            adj[b] = {pb: a}
        da = dist[a]
        db = dist.get(b)
        if db is not None:
            if abs(da - db) <= 1:
                return
            if db < da:
                a, b, da, db = b, a, db, da
        # now da + 1 < db, or b has no distance yet
        dist[b] = da + 1
        queue = [b]
        for v in queue:  # visits the nodes appended below too
            d = dist[v] + 1
            for u in adj[v].values():
                if dist[u] > d:
                    dist[u] = d
                    queue.append(u)


def _port_error(port, node: int, row: list[int]) -> PolicyError:
    return PolicyError(f"policy chose port {port!r} at node {node} of degree {len(row)}")


class ReplayCursor:
    """Stepwise execution of a policy: :meth:`run` is the one place a
    traversal happens.

    Each step checks the pending port, builds the memory record, grows the
    traversed set and the memory, notes the first visit to a label in
    ``gadgets`` and feeds the record to the policy, whose ``observe``
    answers with the next pending port.  The policy is called once per
    record, the source's included, and ``pending`` holds the answer to the
    last call: a port, or None once the policy halts.  The policy only ever
    sees memory records, and the adversary's rewrites preserve labels,
    degrees and the ports of traversed edges, so the accumulated policy
    state remains valid when :meth:`replace_graph` swaps the graph
    underneath it.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        policy,
        source: int = 0,
        gadgets: Container[int] | None = None,
    ):
        if source not in graph:
            raise ParameterError(f"source {source} not in graph")
        self.graph = graph
        self.policy = policy
        self.state = policy.start()
        self.memory = [(source, graph.degree(source), -1, -1)]
        self.traversed: set[tuple[int, int]] = set()
        self.gadgets = gadgets
        self.first_gadget_step: int | None = None
        self.pending = self.state.observe(self.memory[0])

    @property
    def steps(self) -> int:
        return len(self.memory) - 1

    @property
    def node(self) -> int:
        return self.memory[-1][0]

    def pending_node(self) -> int | None:
        """The node the pending port leads to, None when the policy halts;
        a port that :meth:`run` would reject raises the same error."""
        port = self.pending
        if port is None:
            return None
        row = self.graph._ports[self.node]
        if type(port) is not int or not 0 <= port < len(row):
            raise _port_error(port, self.node, row)
        return row[port]

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
        halts, that is whether its last answer is None, which is known
        after its last step too.  The graph is read once per call, so a
        graph swapped in by :meth:`replace_graph` is traversed from the
        next call on."""
        observe = self.state.observe
        memory = self.memory
        append, add = memory.append, self.traversed.add
        g = self.graph
        ports = g._ports
        rev = g._rports
        if rev is None:
            rev = g._reverse()
        gadgets = self.gadgets if self.first_gadget_step is None else None
        cur = memory[-1][0]
        port = self.pending
        for _ in range(limit):
            if port is None:
                break
            row = ports[cur]
            if type(port) is not int or not 0 <= port < len(row):
                self.pending = port
                raise _port_error(port, cur, row)
            nxt = row[port]
            rec = (nxt, len(ports[nxt]), port, rev[nxt][cur])
            add((cur, nxt) if cur <= nxt else (nxt, cur))  # edge_key(cur, nxt), inlined
            append(rec)
            if gadgets is not None and nxt in gadgets:
                self.first_gadget_step = len(memory) - 1
                gadgets = None
            port = observe(rec)
            cur = nxt
        self.pending = port
        return port is None

    def as_trace(self) -> Trace:
        return Trace(memory=self.memory, first_gadget_step=self.first_gadget_step)


def execute(
    inst: Instance,
    policy,
    *,
    monitors: frozenset | set | tuple = (),
    gadget_set: Container[int] | None = None,
) -> tuple[Trace, RunReport]:
    """Run ``policy`` on ``inst`` until it halts; returns (trace, report).

    The run is one :meth:`ReplayCursor.run` call.  The completion count
    is read from the cursor's traversed set, and the cursor, with the
    policy's run state, is dropped before the monitors ("distance", "fuel",
    "completion") read the finished memory and record violations; none of
    them stops the run.  A policy still moving after :func:`step_budget`
    traversals raises :class:`BudgetError` carrying the partial trace.
    """
    g = inst.graph
    if isinstance(monitors, str):
        raise ParameterError(f"monitors={monitors!r}: pass a collection of monitor names")
    monitors = frozenset(monitors)  # tested more than once below; an iterator would run dry
    for m in monitors:
        if m not in MONITOR_KINDS:
            raise ParameterError(f"unknown monitor {m!r}")
    edge_total = g.edge_count()
    budget = step_budget(g)

    cursor = ReplayCursor(g, policy, inst.source, gadgets=gadget_set)
    halted = cursor.run(budget)
    explored = len(cursor.traversed)
    trace = cursor.as_trace()
    del cursor  # frees the policy's run state before the monitors build theirs
    if not halted:
        raise BudgetError(f"exceeded {budget} traversals", trace=trace)

    report = RunReport(steps=trace.steps, penalty=trace.steps - edge_total)
    if "fuel" in monitors or "distance" in monitors:
        report.violations = _fuel_and_distance_violations(
            inst, trace.memory, "fuel" in monitors, "distance" in monitors
        )
    if "completion" in monitors:
        report.complete = explored == edge_total
        if not report.complete:
            report.violations.append(
                {
                    "kind": "completion",
                    "step": trace.steps,
                    "detail": f"{edge_total - explored} edges unexplored",
                }
            )
    return trace, report


def _fuel_and_distance_violations(
    inst: Instance, memory: list[tuple[int, int, int, int]], fuel_on: bool, distance_on: bool
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
        tank, unit = fuel_tank(inst.alpha, inst.ecc).as_integer_ratio()
        fuel = tank
    dists = adj = dist = None
    if distance_on:
        dists = ExploredDistances(source)
        adj, dist = dists.adj, dists.dist
    cap = return_cap(inst.alpha, inst.ecc)
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
            d = dist[cur]
            if d > cap:
                detail = f"known return distance {d} > {cap}"
                out.append({"kind": "distance", "step": step, "detail": detail})
        prev = cur
    return out


def penalty_before_step(trace: Trace, cutoff: int) -> int:
    """Number of the first ``cutoff`` traversals that re-cross an edge
    already traversed at that moment, for ``cutoff`` in ``0..steps``."""
    if not 0 <= cutoff <= trace.steps:
        raise ParameterError(f"cutoff {cutoff} outside 0..{trace.steps}")
    seen: set[tuple[int, int]] = set()
    repeats = 0
    for i in range(1, cutoff + 1):
        key = trace.edge_at(i)
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return repeats
