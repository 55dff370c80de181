"""Reference deterministic exploration policies.

A policy is a stateless descriptor; :meth:`start` creates the per-run state,
which answers each memory record fed to ``observe``, the plain tuple
``(label, degree, out_port, in_port)`` described in :mod:`.runtime`, with
the next action (a port number, or None to halt); ``next_action`` re-reads
it.  Run states keep derived structures for speed, but every decision is a
pure function of the record sequence seen so far: replaying the same
records always reproduces the same actions, which the test suite
spot-checks.

Tie-breaking everywhere is lexicographic on (distance, node label, port), so
runs are bit-reproducible.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParameterError
from .runtime import ExploredDistances, fuel_tank, return_cap, slack


class ExploredView:
    """The subgraph an agent can reconstruct from its memory sequence: known
    degrees and ``dist``, the explored edges and the exact distances from
    the source over them (every known node has one: it was reached over an
    explored edge).  ``adj`` is ``dist.adj``, the one copy of the explored
    port rows; plans carry each port from the search that crossed it, so no
    reverse map is kept.  A known node ``v`` still owns an unexplored port
    exactly when ``len(adj[v]) < degree[v]``, so no frontier set is kept:
    the frontier is read off the rows.

    ``low[v]`` is the lowest port of ``v`` that may still be unexplored:
    known ports only ever grow, so the pointer only moves up.

    Plans from the source read their target and path off ``_tree`` (see
    :meth:`plan_to`), the breadth-first search tree of the levels up to the
    farthest target such a plan has picked, and the one place the view
    groups nodes by distance: ``_tree[d]`` maps each node at distance
    ``d``, in search order, to its parent, the parent's port to it, and its
    home port, the smallest explored port into level ``d - 1``.
    ``_ranked`` holds the deepest level's labels not yet seen out of the
    frontier, in descending order.
    """

    __slots__ = ("source", "cur", "degree", "adj", "low", "dist", "_tree", "_ranked")

    def __init__(self):
        self.source: int | None = None
        self.cur: int | None = None
        self.degree: dict[int, int] = {}
        self.adj: dict[int, dict[int, int]] = {}
        self.low: dict[int, int] = {}
        self.dist: ExploredDistances | None = None
        self._tree: list[dict[int, tuple[int | None, int | None, int | None]]] = []
        self._ranked: list[int] = []

    def observe(self, rec: tuple[int, int, int, int]) -> bool:
        """Feed one record; returns whether its edge was new."""
        label, deg, out_port, in_port = rec
        degree = self.degree
        if label not in degree:
            degree[label] = deg
            self.low[label] = 0
        if out_port == -1:
            self.source = self.cur = label
            self.dist = ExploredDistances(label)
            self.adj = self.dist.adj
            self._tree = [{label: (None, None, None)}]
            self._ranked = [label]
            return False
        prev, adj = self.cur, self.adj
        new_edge = out_port not in adj[prev]
        if new_edge:
            self.dist.add_edge(prev, out_port, label, in_port)
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
          target is the frontier node of smallest ``(distance, label)``.
          Let ``m`` be the smallest distance of a frontier node.  Every
          node nearer than ``m`` has all its ports explored, so a new edge
          joins two nodes at distance ``m`` or more, or one of them and a
          new node: no distance drops below ``m``, and ``m`` never
          decreases.  This holds for any record stream.  Once the levels
          below ``d`` hold no frontier node, then, level ``d`` never gains
          or loses a node, each of its nodes keeps its edges into level
          ``d - 1``, and a node of level ``d`` leaves the frontier for good
          once its ports are spent.  So the levels up to the deepest one
          still holding a frontier node are fixed, and so is their part of
          ``_tree``, home ports included: a distance drop leaves nothing to
          rebuild.  The target is the smallest label of that deepest level
          still in the frontier: the end of ``_ranked`` once the labels
          that left the frontier are popped.  When ``_ranked`` runs empty,
          the next level is built, never past ``within``, and ranked.  The
          path reads the ports stored along the parents of ``_tree`` up
          from the target, and ``_tree`` is the search itself: each level
          is built by expanding the level before in order, ports ascending.
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
        the port crossed from it.
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
        adj, degree = self.adj, self.degree
        if len(adj[cur]) < degree[cur] and dist[cur] <= within:
            return (cur, [])
        if cur == self.source:
            target = self._nearest_frontier_node(within)
            if target is None or dist[target] > within:
                return None
            return (target, self._route_to(target))
        node = None
        for p, y in adj[cur].items():
            if len(adj[y]) < degree[y] and dist[y] <= within and (node is None or y < node):
                node, port = y, p
        if node is not None:
            return (node, [port])
        parent: dict[int, tuple[int, int] | None] = {cur: None}
        level = [cur]
        while level:
            nxt: list[int] = []
            found: list[int] = []
            for x in level:
                row = adj[x]
                for p in sorted(row):
                    y = row[p]
                    if y not in parent:
                        parent[y] = (x, p)
                        nxt.append(y)
                        if len(adj[y]) < degree[y] and dist[y] <= within:
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

    def _nearest_frontier_node(self, within: int) -> int | None:
        """The frontier node of smallest ``(distance, label)``, or None when
        the levels up to ``within`` hold none: the end of ``_ranked`` once
        the labels that left the frontier are popped, building and ranking
        the next level of ``_tree`` each time it runs empty.  Level ``d`` is
        built as the search reaches it: the nodes of level ``d - 1`` are
        expanded in order over their explored rows, ports ascending, and
        each node at distance ``d`` is kept, in the order first reached,
        with the node that reached it as its parent, the port the search
        crossed from it, and its home port."""
        ranked, tree, degree = self._ranked, self._tree, self.degree
        dist, adj = self.dist.dist, self.adj
        while True:
            while ranked and len(adj[ranked[-1]]) == degree[ranked[-1]]:
                ranked.pop()
            if ranked:
                return ranked[-1]
            d = len(tree)
            if d > within:
                return None
            level: dict[int, tuple[int, int, int]] = {}
            for x in tree[d - 1]:
                row = adj[x]
                for p in sorted(row):
                    y = row[p]
                    if y not in level and dist[y] == d:
                        level[y] = (x, p, self._home_port(y))
            if not level:
                return None
            tree.append(level)
            ranked.extend(sorted(level, reverse=True))

    def _route_to(self, target: int) -> list[int]:
        """The port path from the source to ``target``, read off the
        parents stored in ``_tree``."""
        ports, tree, y = [], self._tree, target
        for d in range(self.dist.dist[target], 0, -1):
            y, p, _ = tree[d][y]
            ports.append(p)
        return ports[::-1]


class _PlannedRun:
    """Shared machinery for policies that walk precomputed explored paths and
    replan only when the explored subgraph grows.

    Replanning happens inside ``observe``, at points fully determined by the
    record stream (a new edge appeared, or the plan ran out), so the whole
    state is a pure function of the records and ``next_action`` is a pure
    read of ``observe``'s answer.  The run takes the bound of each new plan
    when it starts: ``from_source`` for plans from the source, ``elsewhere``
    for the others.  With a bound, the plan walks to the closest frontier
    node within it and probes that node's smallest unexplored port, or the
    run halts when there is none; with None, the plan walks home.
    """

    def __init__(self, from_source: int | None, elsewhere: int | None):
        self.view = ExploredView()
        self.plan: list[int] | None = []
        self.pos = 0
        self.from_source = from_source
        self.elsewhere = elsewhere

    def observe(self, rec: tuple[int, int, int, int]) -> int | None:
        """Feed one record; returns the next port, or None to halt."""
        view = self.view
        new_edge = view.observe(rec)
        plan = self.plan
        if plan is None:
            return None
        pos, n = self.pos, len(plan)
        if pos < n and rec[2] != -1:  # the record has an out-port
            pos += 1
        if not new_edge and pos < n:
            self.pos = pos
            return plan[pos]
        self.pos = 0
        within = self.from_source if view.cur == view.source else self.elsewhere
        hit = view.plan_to(within)
        if hit is None:
            self.plan = None
            return None
        target, plan = hit
        if within is not None:
            plan.append(view.smallest_unexplored_port(target))
        self.plan = plan
        return plan[0]

    def next_action(self) -> int | None:
        plan, pos = self.plan, self.pos
        if plan is None or pos >= len(plan):
            return None
        return plan[pos]


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
        self.cap_floor = return_cap(slack(alpha, ecc), ecc)

    def start(self):
        within = self.cap_floor - 1
        return _CautiousRun(within, within)


class _CautiousRun(_PlannedRun):
    """Every plan probes below the return cap, from the source or not."""


class DfsPolicy:
    """Depth-first baseline: each node departs through its ports in
    ascending order, skipping its first-entry port and taking it last; halts
    back at the source once every port is spent.  Traverses each edge once
    per direction, so a connected graph costs exactly 2|E| moves.  Ignores
    all constraints.
    """

    def start(self):
        return _DfsRun()


class _DfsRun:
    """A node departs through its ports in ascending order, its first-entry
    port skipped and taken last, so one pointer per node says which are
    spent and no set of departed ports is kept: ``low[v]`` is one past the
    port ``v`` last departed through, and past ``v``'s degree once the entry
    port is taken.  ``next_action`` is a pure read of ``low[v]`` and the
    entry port: ``low[v]``, or the port above it when that is the entry
    port, then the entry port once the others are spent."""

    def __init__(self):
        self.cur: int | None = None
        self.degree: dict[int, int] = {}
        self.first_entry: dict[int, int | None] = {}
        self.low: dict[int, int] = {}

    def observe(self, rec: tuple[int, int, int, int]) -> int | None:
        label, degree, out_port, in_port = rec
        if out_port != -1:
            prev = self.cur
            self.low[prev] = (
                self.degree[prev] + 1 if out_port == self.first_entry[prev] else out_port + 1
            )
        if label not in self.degree:  # the first visit; only the source's has no entry port
            self.first_entry[label] = None if out_port == -1 else in_port
            self.degree[label] = degree
            self.low[label] = 0
        self.cur = label
        return self.next_action()

    def next_action(self) -> int | None:
        cur = self.cur
        p, entry, deg = self.low[cur], self.first_entry[cur], self.degree[cur]
        if p == entry:
            p += 1
        if p < deg:
            return p
        return entry if p == deg else None


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
        self.tank_floor = math.floor(fuel_tank(slack(alpha, ecc), ecc))

    def start(self):
        # for an integer d, 2d + 2 <= tank_floor iff d <= (tank_floor - 2) // 2
        return _FuelRun((self.tank_floor - 2) // 2, None)


class _FuelRun(_PlannedRun):
    """Plans from the source probe within the tank's reach; every other
    plan walks home."""


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
