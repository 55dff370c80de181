"""Reference deterministic exploration policies.

A policy is a stateless descriptor; :meth:`start` creates the per-run state,
which is fed memory records through ``observe`` and queried for the next
action through ``next_action`` (a port number, or None to halt).  Run states
keep derived structures for speed, but every decision is a pure function of
the record sequence seen so far: replaying the same records always reproduces
the same actions, which the test suite spot-checks.

Tie-breaking everywhere is lexicographic on (distance, node label, port), so
runs are bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParameterError
from .runtime import ExploredDistances, MemoryRecord


class ExploredView:
    """The subgraph an agent can reconstruct from its memory sequence: known
    degrees, known port assignments, which nodes still own unexplored ports,
    and ``dist``, the exact distances from the source over the explored
    edges (every known node has one: it was reached over an explored edge).

    ``low[v]`` is the lowest port of ``v`` that may still be unexplored:
    known ports only ever grow, so the pointer only moves up.
    """

    __slots__ = ("source", "cur", "degree", "adj", "rev", "frontier", "low", "dist")

    def __init__(self):
        self.source: int | None = None
        self.cur: int | None = None
        self.degree: dict[int, int] = {}
        self.adj: dict[int, dict[int, int]] = {}
        self.rev: dict[int, dict[int, int]] = {}
        self.frontier: set[int] = set()
        self.low: dict[int, int] = {}
        self.dist: ExploredDistances | None = None

    def _touch(self, label: int, degree: int) -> None:
        if label not in self.degree:
            self.degree[label] = degree
            self.adj[label] = {}
            self.rev[label] = {}
            self.frontier.add(label)
            self.low[label] = 0

    def _refresh_frontier(self, label: int) -> None:
        if len(self.adj[label]) == self.degree[label]:
            self.frontier.discard(label)

    def observe(self, rec: MemoryRecord) -> bool:
        """Feed one record; returns whether its edge was new."""
        if rec.out_port == -1:
            self.source = self.cur = rec.label
            self.dist = ExploredDistances(rec.label)
            self._touch(rec.label, rec.degree)
            self._refresh_frontier(rec.label)
            return False
        prev = self.cur
        new_edge = rec.out_port not in self.adj[prev]
        if new_edge:
            self.adj[prev][rec.out_port] = rec.label
            self.rev[prev][rec.label] = rec.out_port
            self.dist.add_edge(prev, rec.label)
        self._touch(rec.label, rec.degree)
        if rec.in_port not in self.adj[rec.label]:
            self.adj[rec.label][rec.in_port] = prev
            self.rev[rec.label][prev] = rec.in_port
        self._refresh_frontier(prev)
        self._refresh_frontier(rec.label)
        self.cur = rec.label
        return new_edge

    def smallest_unexplored_port(self, v: int) -> int | None:
        known, deg = self.adj[v], self.degree[v]
        p = self.low[v]
        while p < deg and p in known:
            p += 1
        self.low[v] = p
        return p if p < deg else None

    def plan_to(self, within: int | None) -> tuple[int, list[int]] | None:
        """Target node and port path of the walk from the current node.

        With a bound: breadth-first search over explored edges, expanding
        port-ascending, for the closest node with an unexplored port whose
        source distance is at most ``within`` (smallest label on ties); None
        when there is none.  With None: the path to the source, descending
        ``dist`` by the smallest port one step closer at each node.  That is
        the path the search would find, since a port-ascending BFS returns
        the lexicographically smallest port sequence among shortest paths.
        """
        cur, dist = self.cur, self.dist.dist
        if within is None:
            ports = []
            while cur != self.source:
                row, closer = self.adj[cur], dist[cur] - 1
                port = min(p for p, y in row.items() if dist[y] == closer)
                ports.append(port)
                cur = row[port]
            return (cur, ports)
        frontier = self.frontier
        if cur in frontier and dist[cur] <= within:
            return (cur, [])
        parent: dict[int, int | None] = {cur: None}
        level = [cur]
        while level:
            nxt: list[int] = []
            found: list[int] = []
            for x in level:
                row = self.adj[x]
                for p in sorted(row):
                    y = row[p]
                    if y not in parent:
                        parent[y] = x
                        nxt.append(y)
                        if y in frontier and dist[y] <= within:
                            found.append(y)
            if found:
                node = min(found)
                chain = [node]
                while parent[chain[-1]] is not None:
                    chain.append(parent[chain[-1]])
                chain.reverse()
                return (node, [self.rev[a][b] for a, b in zip(chain, chain[1:])])
            level = nxt
        return None


class _PlannedRun:
    """Shared machinery for policies that walk precomputed explored paths and
    replan only when the explored subgraph grows.

    Replanning happens inside ``observe``, at points fully determined by the
    record stream (a new edge appeared, or the plan ran out), so the whole
    state is a pure function of the records and ``next_action`` is a pure
    read.
    """

    def __init__(self):
        self.view = ExploredView()
        self.plan: list[int] | None = []
        self.pos = 0
        self.stale = False

    def observe(self, rec: MemoryRecord) -> None:
        new_edge = self.view.observe(rec)
        if rec.out_port != -1:
            if self.plan and self.pos < len(self.plan):
                self.pos += 1
            if new_edge:
                self.stale = True
        if self.plan is not None and (self.stale or self.pos >= len(self.plan)):
            self.stale = False
            self.pos = 0
            self._replan()

    def _replan(self) -> None:
        raise NotImplementedError

    def _plan_probe(self, within: int) -> None:
        """Plan the walk to the closest frontier node within ``within`` of
        the source and the probe of its smallest unexplored port; halt when
        there is none."""
        hit = self.view.plan_to(within)
        if hit is None:
            self.plan = None
            return
        target, ports = hit
        ports.append(self.view.smallest_unexplored_port(target))
        self.plan = ports

    def next_action(self) -> int | None:
        if self.plan is None or self.pos >= len(self.plan):
            return None
        return self.plan[self.pos]


def _require_slack(alpha: Fraction, ecc: int) -> Fraction:
    alpha = Fraction(alpha)
    if alpha <= 0 or alpha * ecc < 1:
        raise ParameterError(
            f"need alpha > 0 and alpha * ecc >= 1, got alpha={alpha}, ecc={ecc}"
        )
    return alpha


class CautiousBfsPolicy:
    """Distance-safe explorer: repeatedly walks to the closest known node
    that still owns an unexplored port and whose known distance from the
    source is below the return cap (``plan_to(cap_floor - 1)``), then probes
    that node's smallest unexplored port.

    Every node of the graph has true distance at most ecc from the source,
    and ecc stays below the cap, so the frontier keeps expanding until every
    edge is explored; probing only below the cap keeps the known return
    distance within the cap after every single traversal.
    """

    name = "cautious-bfs"

    def __init__(self, alpha: Fraction, ecc: int):
        alpha = _require_slack(alpha, ecc)
        cap = (1 + alpha) * ecc
        self.cap_floor = cap.numerator // cap.denominator

    def start(self):
        return _CautiousRun(self.cap_floor)


class _CautiousRun(_PlannedRun):
    def __init__(self, cap_floor: int):
        super().__init__()
        self.cap_floor = cap_floor

    def _replan(self) -> None:
        self._plan_probe(self.cap_floor - 1)


class DfsPolicy:
    """Depth-first baseline: depart through the smallest port not yet used
    for departure, keeping the first-entry port for last; halts back at the
    source once every port is spent.  Traverses each edge once per direction,
    so a connected graph costs exactly 2|E| moves.  Ignores all constraints.
    """

    name = "dfs"

    def start(self):
        return _DfsRun()


class _DfsRun:
    """``low[v]`` is the lowest port of ``v`` that may be neither departed
    through nor the first-entry port; departures only grow, so it only
    moves up."""

    def __init__(self):
        self.cur: int | None = None
        self.degree: dict[int, int] = {}
        self.first_entry: dict[int, int | None] = {}
        self.departed: dict[int, set[int]] = {}
        self.low: dict[int, int] = {}

    def observe(self, rec: MemoryRecord) -> None:
        if rec.out_port == -1:
            self.first_entry[rec.label] = None
        else:
            self.departed[self.cur].add(rec.out_port)
            if rec.label not in self.first_entry:
                self.first_entry[rec.label] = rec.in_port
        self.cur = rec.label
        self.degree.setdefault(rec.label, rec.degree)
        self.departed.setdefault(rec.label, set())
        self.low.setdefault(rec.label, 0)

    def next_action(self) -> int | None:
        cur = self.cur
        used, entry, deg = self.departed[cur], self.first_entry[cur], self.degree[cur]
        p = self.low[cur]
        while p < deg and (p in used or p == entry):
            p += 1
        self.low[cur] = p
        if p < deg:
            return p
        return entry if entry is not None and entry not in used else None


class FuelCautiousPolicy:
    """Tank-safe explorer: from the source, walks to the closest known node
    with an unexplored port whose round trip fits the tank, probes one port,
    and walks straight home to refuel along the explored distances
    (``plan_to(None)``); halts when no such node remains.

    A node at known distance d costs at most 2d + 2 to visit, probe, and
    return from, so requiring 2d + 2 <= floor(tank), that is
    ``plan_to((tank_floor - 2) // 2)``, keeps every excursion within one tank.
    """

    name = "fuel-cautious"

    def __init__(self, alpha: Fraction, ecc: int):
        alpha = _require_slack(alpha, ecc)
        tank = 2 * (1 + alpha) * ecc
        self.tank_floor = tank.numerator // tank.denominator

    def start(self):
        return _FuelRun(self.tank_floor)


class _FuelRun(_PlannedRun):
    def __init__(self, tank_floor: int):
        super().__init__()
        self.tank_floor = tank_floor

    def _replan(self) -> None:
        if self.view.cur == self.view.source:
            # for an integer d, 2d + 2 <= tank_floor iff d <= (tank_floor - 2) // 2
            self._plan_probe((self.tank_floor - 2) // 2)
        else:
            self.plan = self.view.plan_to(None)[1]


POLICY_NAMES = ("cautious-bfs", "dfs", "fuel-cautious")


def make_policy(name: str, alpha: Fraction, ecc: int):
    """Look up a policy by registry name, instantiated for (alpha, ecc)."""
    if name == "cautious-bfs":
        return CautiousBfsPolicy(alpha, ecc)
    if name == "dfs":
        return DfsPolicy()
    if name == "fuel-cautious":
        return FuelCautiousPolicy(alpha, ecc)
    raise ParameterError(f"unknown policy {name!r}; known: {', '.join(POLICY_NAMES)}")
