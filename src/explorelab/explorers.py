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
from heapq import heapify, heappop, heappush

from .errors import ParameterError
from .runtime import ExploredDistances, MemoryRecord


class ExploredView:
    """The subgraph an agent can reconstruct from its memory sequence: known
    degrees, which nodes still own unexplored ports, and ``dist``, the
    explored edges and the exact distances from the source over them (every
    known node has one: it was reached over an explored edge).  ``adj`` is
    ``dist.adj``, the one copy of the explored port rows; plans carry each
    port from the search that crossed it, so no reverse map is kept.

    ``low[v]`` is the lowest port of ``v`` that may still be unexplored:
    known ports only ever grow, so the pointer only moves up.

    Two private structures serve plans from the source (see
    :meth:`plan_to`): ``_heap``, a lazy-deletion heap of ``(distance,
    label)`` over the frontier, built by the first such plan and kept up
    from each new edge until a bounded plan starts elsewhere; and
    ``_tree``, the breadth-first search tree of the levels up to the
    farthest target such a plan has picked, the one place the view groups
    nodes by distance: ``_tree[d]`` maps each node at distance ``d``, in
    search order, to its parent, the parent's port to it, and its home
    port, the smallest explored port into level ``d - 1``.
    """

    __slots__ = ("source", "cur", "degree", "adj", "frontier", "low", "dist", "_heap", "_tree")

    def __init__(self):
        self.source: int | None = None
        self.cur: int | None = None
        self.degree: dict[int, int] = {}
        self.adj: dict[int, dict[int, int]] = {}
        self.frontier: set[int] = set()
        self.low: dict[int, int] = {}
        self.dist: ExploredDistances | None = None
        self._heap: list[tuple[int, int]] | None = None
        self._tree: list[dict[int, tuple[int | None, int | None, int | None]]] = []

    def observe(self, rec: MemoryRecord) -> bool:
        """Feed one record; returns whether its edge was new."""
        label, deg, out_port, in_port = rec
        degree = self.degree
        new_node = label not in degree
        if new_node:
            degree[label] = deg
            self.low[label] = 0
            if deg:
                self.frontier.add(label)
        if out_port == -1:
            self.source = self.cur = label
            self.dist = ExploredDistances(label)
            self.adj = self.dist.adj
            self._tree = [{label: (None, None, None)}]
            return False
        prev, adj = self.cur, self.adj
        new_edge = out_port not in adj[prev]
        if new_edge:
            moved = self.dist.add_edge(prev, out_port, label, in_port)
            heap = self._heap
            if heap is not None:
                # a new node, and every node whose distance dropped, needs an
                # entry at its current distance; the older entries go stale
                if moved is None:
                    moved = (label,) if new_node else ()
                dist = self.dist.dist
                for v in moved:
                    if v in self.frontier:
                        heappush(heap, (dist[v], v))
            if len(adj[prev]) == degree[prev]:
                self.frontier.discard(prev)
            if len(adj[label]) == degree[label]:
                self.frontier.discard(label)
        self.cur = label
        return new_edge

    def smallest_unexplored_port(self, v: int) -> int | None:
        known, deg = self.adj[v], self.degree[v]
        p = self.low[v]
        while p < deg and p in known:
            p += 1
        self.low[v] = p
        return p if p < deg else None

    def _home_port(self, x: int) -> int:
        """The smallest explored port of ``x`` into the level below it, by a
        scan of ``x``'s explored row."""
        dist = self.dist.dist
        d = dist[x] - 1
        return min([p for p, y in self.adj[x].items() if dist[y] == d])

    def plan_to(self, within: int | None) -> tuple[int, list[int]] | None:
        """Target node and port path of the walk from the current node.

        With a bound: the closest node with an unexplored port whose source
        distance is at most ``within`` (smallest label on ties), reached by
        the port path a breadth-first search over explored edges, expanding
        port-ascending, would find; None when there is none.  With None: the
        path to the source.

        A port-ascending BFS lists each level in the lexicographic order of
        its nodes' smallest shortest-path port sequences (by induction: a
        node is first reached from the earliest node of the level before,
        through its smallest port), so it returns the lexicographically
        smallest port sequence among shortest paths to the target.  Three
        of the four cases reach the same answer without the search:

        - From the source, the BFS levels are the distance levels, so the
          target is the smallest ``(distance, label)`` in the frontier: the
          top of ``_heap`` once the entries whose node left the frontier or
          whose distance dropped since their push are popped.  ``observe``
          pushes a fresh entry for every new node and every node whose
          distance drops, so each frontier node has an entry at its current
          distance.  The path reads the ports stored along the parents of
          ``_tree`` up from the target, and ``_tree`` is the search itself:
          each level is built by expanding the level before in order, ports
          ascending.  When target ``t`` at distance ``d`` is picked, no node
          nearer than ``d`` has an unexplored port, so every edge at those
          nodes is explored.  A later edge joins two nodes at distance ``d``
          or more (or a new node), so every distance it sets or lowers ends
          above ``d``.  The levels up to ``d``, the edges between consecutive
          ones and each node's edges into the level below are therefore
          fixed for good, and so is their part of the tree, home ports
          included: a distance drop leaves nothing to rebuild.
        - Home (``within=None``): every node one level closer lies on a
          shortest path to the source, so each step takes the node's home
          port: the one stored in ``_tree`` for a node at one of its levels,
          and otherwise the smallest port a scan of its explored row finds
          into the level below.
        - From any other node with a bound, a frontier node among the
          explored neighbours answers at once: the BFS would find exactly
          those nodes in its first level; one scan of the row finds the
          smallest and its port.

        Otherwise the BFS runs as described, keeping each node's parent and
        the port crossed from it, and ``_heap`` is dropped: a policy that
        plans from elsewhere would keep it up for nothing.
        """
        cur, dist = self.cur, self.dist.dist
        if within is None:
            ports, tree = [], self._tree
            while cur != self.source:
                d = dist[cur]
                port = tree[d][cur][2] if d < len(tree) else self._home_port(cur)
                ports.append(port)
                cur = self.adj[cur][port]
            return (cur, ports)
        frontier = self.frontier
        if cur in frontier and dist[cur] <= within:
            return (cur, [])
        if cur == self.source:
            target = self._nearest_frontier_node()
            if target is None or dist[target] > within:
                return None
            return (target, self._route_to(target))
        self._heap = None
        node = None
        for p, y in self.adj[cur].items():
            if y in frontier and dist[y] <= within and (node is None or y < node):
                node, port = y, p
        if node is not None:
            return (node, [port])
        parent: dict[int, tuple[int, int] | None] = {cur: None}
        level = [cur]
        while level:
            nxt: list[int] = []
            found: list[int] = []
            for x in level:
                row = self.adj[x]
                for p in sorted(row):
                    y = row[p]
                    if y not in parent:
                        parent[y] = (x, p)
                        nxt.append(y)
                        if y in frontier and dist[y] <= within:
                            found.append(y)
            if found:
                node = y = min(found)
                ports = []
                while parent[y] is not None:
                    y, p = parent[y]
                    ports.append(p)
                return (node, ports[::-1])
            level = nxt
        return None

    def _nearest_frontier_node(self) -> int | None:
        """The frontier node of smallest ``(distance, label)``, or None; builds
        ``_heap`` when there is none."""
        heap, frontier, dist = self._heap, self.frontier, self.dist.dist
        if heap is None:
            heap = self._heap = [(dist[v], v) for v in frontier]
            heapify(heap)
        while heap:
            d, v = heap[0]
            if v in frontier and dist[v] == d:
                return v
            heappop(heap)
        return None

    def _route_to(self, target: int) -> list[int]:
        """The port path from the source to ``target`` along ``_tree``,
        building the levels up to ``target``'s first.  Level ``d`` is built
        as the search reaches it: the nodes of level ``d - 1`` are expanded
        in order over their explored rows, ports ascending, and each node at
        distance ``d`` is kept, in the order first reached, with the node
        that reached it as its parent, the port the search crossed from it,
        and its home port."""
        dist, adj, tree = self.dist.dist, self.adj, self._tree
        for d in range(len(tree), dist[target] + 1):
            level: dict[int, tuple[int, int, int]] = {}
            for x in tree[d - 1]:
                row = adj[x]
                for p in sorted(row):
                    y = row[p]
                    if y not in level and dist[y] == d:
                        level[y] = (x, p, self._home_port(y))
            tree.append(level)
        ports, y = [], target
        for d in range(dist[target], 0, -1):
            y, p, _ = tree[d][y]
            ports.append(p)
        return ports[::-1]


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

    def observe(self, rec: MemoryRecord) -> None:
        new_edge = self.view.observe(rec)
        plan = self.plan
        if plan is None:
            return
        pos, n = self.pos, len(plan)
        if pos < n and rec.out_port != -1:
            pos += 1
        if new_edge or pos >= n:
            self.pos = 0
            self._replan()
        else:
            self.pos = pos

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
        plan, pos = self.plan, self.pos
        if plan is None or pos >= len(plan):
            return None
        return plan[pos]


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
        label, degree, out_port, in_port = rec
        if out_port != -1:
            self.departed[self.cur].add(out_port)
        if label not in self.degree:  # the first visit; only the source's has no entry port
            self.first_entry[label] = None if out_port == -1 else in_port
            self.degree[label] = degree
            self.departed[label] = set()
            self.low[label] = 0
        self.cur = label

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
