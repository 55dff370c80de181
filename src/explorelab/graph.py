"""Port-numbered labeled graphs: data model, validation, search, bipartite tools.

The central value type is :class:`LabeledGraph`, a simple undirected graph
whose nodes carry pairwise distinct non-negative integer labels and whose
incident edges are numbered locally at each node: the edge leaving ``v``
through port ``p`` is the one to ``v``'s ``p``-th listed neighbor.  Graph
values are immutable by convention; every rewriting operation in this package
returns a fresh value that shares untouched adjacency rows and records which
rows it replaced.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .errors import InvariantViolation, ParameterError, StructuralError


@dataclass(frozen=True)
class Violation:
    """One failed check in a validation report."""

    code: str
    detail: str

    def to_dict(self) -> dict:
        return {"code": self.code, "detail": self.detail}


@dataclass
class ValidationReport:
    """Outcome of a validator: empty ``violations`` means the value passed."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, detail: str) -> None:
        self.violations.append(Violation(code, detail))

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_dict() for v in self.violations]}

    def __repr__(self) -> str:
        if self.ok:
            return "ValidationReport(ok)"
        return f"ValidationReport({len(self.violations)} violations: {self.codes()})"


def edge_key(a: int, b: int) -> tuple[int, int]:
    """Canonical (sorted) representation of an undirected edge."""
    return (a, b) if a <= b else (b, a)


class LabeledGraph:
    """Simple undirected graph with unique integer labels and port arrays.

    ``ports`` maps each label to the ordered list of neighbor labels; the port
    number of an incident edge at ``v`` is its index in ``v``'s list, so port
    numbers 0..deg(v)-1 are structural.  Instances are treated as immutable:
    no method mutates the adjacency, and :meth:`replace_ports` is the only way
    to derive a modified graph.
    """

    __slots__ = ("_ports", "_rports", "_diff")

    def __init__(self, ports: dict[int, list[int]]):
        self._ports: dict[int, list[int]] = dict(ports)
        self._rports: dict[int, dict[int, int]] | None = None
        # [labels whose rows replace_ports replaced, the parent's record]; a
        # fresh list per graph, so that no two graphs share a record
        self._diff: list = [(), None]

    # -- basic queries -----------------------------------------------------

    def labels(self):
        return self._ports.keys()

    def __contains__(self, label: int) -> bool:
        return label in self._ports

    def __len__(self) -> int:
        return len(self._ports)

    def degree(self, v: int) -> int:
        return len(self._ports[v])

    def neighbors(self, v: int) -> list[int]:
        """Neighbor labels of ``v`` in port order.  Treat as read-only."""
        return self._ports[v]

    def neighbor(self, v: int, port: int) -> int:
        return self._ports[v][port]

    def _reverse(self) -> dict[int, dict[int, int]]:
        if self._rports is None:
            self._rports = {
                v: {u: p for p, u in enumerate(ns)} for v, ns in self._ports.items()
            }
        return self._rports

    def port_of(self, v: int, u: int) -> int:
        """Port number at ``v`` of the edge {v, u}."""
        return self._reverse()[v][u]

    def has_edge(self, u: int, v: int) -> bool:
        row = self._reverse().get(u)
        return row is not None and v in row

    def edges(self):
        """All edges as canonical (a, b) pairs with a < b."""
        for v, ns in self._ports.items():
            for u in ns:
                if v < u:
                    yield (v, u)

    def edge_count(self) -> int:
        return sum(len(ns) for ns in self._ports.values()) // 2

    # -- derivation and serialization ---------------------------------------

    def replace_ports(self, changes: dict[int, list[int]]) -> "LabeledGraph":
        """New graph equal to this one except for the given adjacency rows.

        A reverse map already built here is carried over: the new graph gets
        a shallow copy with only the changed rows rebuilt, and this graph's
        maps are left untouched.  The new graph records the replaced labels
        and a link to this graph's record, which :meth:`_replaced_since`
        reads; the record holds no graph and no row.
        """
        new = LabeledGraph(self._ports)
        new._ports.update(changes)
        new._diff = [tuple(changes), self._diff]
        if self._rports is not None:
            rports = dict(self._rports)
            for v, ns in changes.items():
                rports[v] = {u: p for p, u in enumerate(ns)}
            new._rports = rports
        return new

    def _replaced_since(self, base: list) -> set[int] | None:
        """The labels whose rows :meth:`replace_ports` replaced on the way
        from the graph whose record is ``base`` to this one, or None when
        this graph does not descend from that graph."""
        labels: set[int] = set()
        diff = self._diff
        while diff is not base:
            if diff is None:
                return None
            replaced, diff = diff
            labels.update(replaced)
        return labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._ports == other._ports

    def __hash__(self):
        raise TypeError("LabeledGraph is not hashable; compare serializations")

    def __repr__(self) -> str:
        return f"LabeledGraph({len(self)} nodes, {self.edge_count()} edges)"

    def to_json(self) -> str:
        """Byte-stable serialization: nodes sorted by label, compact separators."""
        nodes = [
            {"label": v, "ports": self._ports[v]} for v in sorted(self._ports)
        ]
        return json.dumps({"nodes": nodes}, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "LabeledGraph":
        """Parse :meth:`to_json` output.  Labels and ports must be JSON
        integers (not floats, strings or booleans), each row a list, and
        each label listed once; anything else raises :class:`ParameterError`."""
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise ParameterError(f"malformed graph JSON: {exc}") from exc
        try:
            ports = {}
            for n in data["nodes"]:
                label, row = n["label"], n["ports"]
                if type(label) is not int or type(row) is not list or any(
                    type(x) is not int for x in row
                ):
                    raise TypeError(f"node {label!r} needs an integer label and integer ports")
                if label in ports:
                    raise ParameterError(f"malformed graph JSON: label {label} is listed twice")
                ports[label] = row
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed graph JSON: {exc}") from exc
        return cls(ports)


# -- search ----------------------------------------------------------------


def bfs_distances(g: LabeledGraph, a: int) -> dict[int, int]:
    """Shortest-path edge counts from ``a`` to every reachable node."""
    if a not in g:
        raise ParameterError(f"label {a} not in graph")
    dist = {a: 0}
    queue = deque([a])
    try:
        while queue:
            v = queue.popleft()
            dv = dist[v]
            for u in g.neighbors(v):
                if u not in dist:
                    dist[u] = dv + 1
                    queue.append(u)
    except KeyError:
        # a port names a label that has no row
        raise StructuralError(f"neighbor label {v} not in graph") from None
    return dist


def eccentricity(g: LabeledGraph, a: int) -> int:
    """Maximum BFS distance from ``a``; requires a connected graph."""
    dist = bfs_distances(g, a)
    if len(dist) != len(g):
        raise StructuralError("eccentricity undefined: graph is not connected")
    return max(dist.values())


# -- consistent-labeling validation -----------------------------------------


def validate_consistent_labeling(g: LabeledGraph) -> ValidationReport:
    """Check the structural invariants of a consistently labeled graph.

    Violations are data, not errors: the report enumerates every failure with
    the offending labels.  A clean row is cleared by set tests (a non-negative
    integer label, no repeats in it or its neighbours' rows, no self-loop,
    each neighbour listing it back); only a row that fails them is walked
    port by port, as ``tests/oracles.py`` walks every row.
    """
    report = ValidationReport()
    rev, ports = g._reverse(), g._ports
    # a row repeats a neighbour exactly when its reverse map is shorter
    repeats = {v for v, ns in ports.items() if len(rev[v]) != len(ns)}
    for v, ns in ports.items():
        clean = isinstance(v, int) and v >= 0 and v not in repeats and v not in rev[v]
        if clean and repeats.isdisjoint(ns) and all(v in rev.get(u, ()) for u in ns):
            continue
        if not isinstance(v, int) or v < 0:
            report.add("negative-label", f"label {v} is not a non-negative integer")
        seen: set[int] = set()
        for p, u in enumerate(ns):
            if u == v:
                report.add("self-loop", f"node {v} lists itself at port {p}")
                continue
            if u in seen:
                report.add("parallel-edge", f"node {v} lists neighbor {u} twice")
                continue
            seen.add(u)
            if u not in ports:
                report.add("unknown-neighbor", f"node {v} lists missing label {u}")
                continue
            # a row without repeats lists v once or not at all
            times = ports[u].count(v) if u in repeats else int(v in rev[u])
            if times != 1:
                report.add(
                    "asymmetric-edge", f"node {v} lists {u} but {u} lists {v} {times} times"
                )
    return report


# -- regular bipartite generation -------------------------------------------


def circulant_pairs(n: int, k: int) -> list[tuple[int, int]]:
    """Index pairs (i, j) of the k-regular circulant bipartite graph on n+n
    nodes: side one's node i is joined to side two's nodes (i+x) mod n for
    x = 0..k-1."""
    if k <= 0 or k > n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    return [(i, (i + x) % n) for i in range(n) for x in range(k)]


# -- maximum matching and edge coloring --------------------------------------

_UNSEEN = -1


def hopcroft_karp(adj: dict[int, list[int]]) -> dict[int, int]:
    """Maximum matching of a bipartite graph given as left -> right adjacency.

    Deterministic: iteration follows the given key and list orders, never set
    order, so results are stable across runs and Python versions.
    """
    pair_left: dict[int, int] = {}
    pair_right: dict[int, int] = {}
    dist: dict[int, int] = {}
    goal = _UNSEEN  # length of the shortest augmenting paths of this phase
    lefts = list(adj.keys())

    def bfs() -> bool:
        nonlocal goal
        queue: deque[int] = deque()
        for l in lefts:
            if l not in pair_left:
                dist[l] = 0
                queue.append(l)
            else:
                dist[l] = _UNSEEN
        found = _UNSEEN
        while queue:
            l = queue.popleft()
            if found != _UNSEEN and dist[l] >= found:
                continue
            for r in adj[l]:
                if r not in pair_right:
                    if found == _UNSEEN:
                        found = dist[l] + 1
                else:
                    nxt = pair_right[r]
                    if dist[nxt] == _UNSEEN:
                        dist[nxt] = dist[l] + 1
                        queue.append(nxt)
        goal = found
        return found != _UNSEEN

    def dfs(root: int) -> None:
        # Depth-first search for an augmenting path from ``root`` along the
        # BFS layers, with an explicit stack of (left, remaining rights) and
        # the right taken at each frame: the visiting order of the recursive
        # form, without its depth limit.  A dead end is cut from the layers.
        stack = [(root, iter(adj[root]))]
        taken: list[int] = []
        while stack:
            l, rights = stack[-1]
            for r in rights:
                if r not in pair_right:
                    if goal == dist[l] + 1:
                        taken.append(r)
                        for (a, _), b in zip(reversed(stack), reversed(taken)):
                            pair_left[a] = b
                            pair_right[b] = a
                        return
                else:
                    nxt = pair_right[r]
                    if dist[nxt] == dist[l] + 1:
                        taken.append(r)
                        stack.append((nxt, iter(adj[nxt])))
                        break
            else:
                dist[l] = _UNSEEN
                stack.pop()
                if taken:
                    taken.pop()

    while bfs():
        for l in lefts:
            if l not in pair_left:
                dfs(l)
    return pair_left


def color_regular_bipartite_edges(
    edges: list[tuple[int, int]], left: set[int]
) -> dict[tuple[int, int], int]:
    """Proper edge coloring of a k-regular bipartite simple graph with colors
    1..k, where each edge is an (a, b) pair with exactly one endpoint in
    ``left``.

    Works by repeatedly extracting a perfect matching (each one becomes a
    color class) from the remaining graph, which stays regular after every
    extraction.
    """
    if not edges:
        return {}
    adj: dict[int, list[int]] = {}
    deg: dict[int, int] = {}
    for a, b in edges:
        l, r = (a, b) if a in left else (b, a)
        if l not in left or r in left:
            raise StructuralError(f"edge ({a},{b}) does not cross the bipartition")
        adj.setdefault(l, []).append(r)
        deg[l] = deg.get(l, 0) + 1
        deg[r] = deg.get(r, 0) + 1
    degrees = set(deg.values())
    if len(degrees) != 1:
        raise StructuralError(f"graph is not regular: degrees {sorted(degrees)}")
    k = degrees.pop()
    for l in adj:
        adj[l].sort()

    coloring: dict[tuple[int, int], int] = {}
    for color in range(1, k + 1):
        matching = hopcroft_karp(adj)
        if len(matching) != len(adj):
            raise InvariantViolation(
                "matching extraction failed on a regular bipartite graph"
            )
        for l, r in matching.items():
            coloring[edge_key(l, r)] = color
            adj[l].remove(r)
        if color == k:
            if any(adj[l] for l in adj):
                raise InvariantViolation("edges left over after k matchings")
    return coloring

