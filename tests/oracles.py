"""Independent brute-force oracles used to cross-check the package's search
routines.  These deliberately re-derive everything from raw adjacency and
never call the package's BFS helpers.

``naive_family_violations`` is the family membership check as a set of
per-layer loops over the graph (a contraction of each layer, a red-edge
count, a scan for green edges whose endpoints share a gadget) and explicit
checks of the source, critical and tail rows: the independent reference for
the package's one pass over the rows.  ``naive_dirty_rows`` finds the rows a
graph changed against a member's by identity, the reference for the record
of replaced rows that ``LabeledGraph.replace_ports`` keeps.

``naive_merge_behavior`` is the merge-behaviour check as five comparisons,
three of which follow from the other two: the reference for
``validate_merge_behavior``.

``fuel_counting_floor`` is not an oracle of package code: it is a floor on
the fuel penalty that holds for every algorithm, from counting alone.

The last two functions are test helpers rather than oracles, kept out of the
package because only the tests call them: ``graph_modification``, the
adversary's per-step rewrite on its own, and ``check_eccentricity_properties``,
distance-structure checks of a family member."""

import random
from collections import Counter, deque
from fractions import Fraction

from explorelab.adversary import AdversaryRun, StepAudit, _rewrite, _step
from explorelab.errors import BudgetError, InvariantViolation, ParameterError
from explorelab.family import (
    FamilyMeta,
    FamilyParams,
    _FamilyLedger,
    build_family_graph,
    family_levels,
    validate_family_membership,
)
from explorelab.graph import (
    LabeledGraph,
    ValidationReport,
    eccentricity,
    edge_key,
    validate_consistent_labeling,
)
from explorelab.runtime import Instance, ReplayCursor, execute, penalty_before_step, step_budget


def adjacency(graph):
    return {v: list(graph.neighbors(v)) for v in graph.labels()}


def naive_distances(adj, start):
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def naive_distance(adj, a, b):
    return naive_distances(adj, a).get(b)


def naive_eccentricity(adj, a):
    dist = naive_distances(adj, a)
    assert len(dist) == len(adj), "oracle eccentricity needs a connected graph"
    return max(dist.values())


def naive_return_distance(traversed, current, source):
    """Shortest path from current to source using only the given edges."""
    adj = {source: [], current: []}
    for a, b in traversed:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    queue = deque([current])
    dist = {current: 0}
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist.get(source)


def naive_run(graph, policy, source):
    """Step ``policy`` on ``graph`` until it halts, with no monitors: the
    memory sequence and the traversed edge set, from neighbor and port
    lookups alone."""
    state = policy.start()
    memory = [(source, graph.degree(source), -1, -1)]
    traversed = set()
    state.observe(memory[0])
    cur = source
    port = state.next_action()
    while port is not None:
        nxt = graph.neighbor(cur, port)
        memory.append((nxt, graph.degree(nxt), port, graph.port_of(nxt, cur)))
        traversed.add((min(cur, nxt), max(cur, nxt)))
        state.observe(memory[-1])
        cur = nxt
        port = state.next_action()
    return memory, traversed


def naive_validate_consistent_labeling(g):
    """The consistent-labeling check with a ``list.count`` per listed
    neighbor: the slow counterpart of ``validate_consistent_labeling``."""
    report = ValidationReport()
    for v in g.labels():
        ns = g.neighbors(v)
        if not isinstance(v, int) or v < 0:
            report.add("negative-label", f"label {v} is not a non-negative integer")
        seen = set()
        for p, u in enumerate(ns):
            if u == v:
                report.add("self-loop", f"node {v} lists itself at port {p}")
                continue
            if u in seen:
                report.add("parallel-edge", f"node {v} lists neighbor {u} twice")
                continue
            seen.add(u)
            if u not in g:
                report.add("unknown-neighbor", f"node {v} lists missing label {u}")
            elif g.neighbors(u).count(v) != 1:
                report.add(
                    "asymmetric-edge",
                    f"node {v} lists {u} but {u} lists {v} "
                    f"{g.neighbors(u).count(v)} times",
                )
    return report


def naive_gadget_level_pair(g, meta, gadget):
    """The (level-i node, level-i+1 node) pair of a layer-i gadget, each the
    last one its row lists, for a row of three neighbours that are level-i
    nodes, level-(i+1) nodes or the critical node, with both levels present;
    None for any other row."""
    layer = meta.gadget_layer(gadget)
    lo = hi = None
    for u in g.neighbors(gadget):
        lu = meta.level_of(u)
        if lu == layer:
            lo = u
        elif lu == layer + 1:
            hi = u
        elif u != meta.critical_label:
            return None
    if lo is None or hi is None or g.degree(gadget) != 3:
        return None
    return (lo, hi)


def naive_green_edges(g, meta, layer):
    """Every edge of ``g`` from a level-``layer`` node to a level-(``layer``
    + 1) node, found by ``level_of`` alone and sorted by (level-i label,
    level-(i+1) label)."""
    return sorted(
        (v, u)
        for v in g.labels()
        if meta.level_of(v) == layer
        for u in g.neighbors(v)
        if meta.level_of(u) == layer + 1
    )


def naive_unexplored_greens(g, meta, layer, traversed, skip=()):
    """Every green edge of ``layer`` that is neither traversed nor in
    ``skip``, in ``naive_green_edges`` order."""
    return [e for e in naive_green_edges(g, meta, layer) if e not in traversed and e not in skip]


def naive_contract_layer(g, meta, layer):
    """Layer ``layer`` with its gadgets contracted back into level-to-level
    edges: (the green edges then one pair per well-shaped gadget, the
    gadget -> pair map, the report of the contraction's faults)."""
    p = meta.params
    edges = naive_green_edges(g, meta, layer)
    by_gadget = {}
    problems = ValidationReport()
    glo = meta.gadget_labels[0] + (layer - 1) * p.gadgets_per_layer
    for gd in range(glo, glo + p.gadgets_per_layer):
        pair = naive_gadget_level_pair(g, meta, gd)
        if pair is None:
            problems.add("gadget-shape", f"gadget {gd} lacks the degree-3 shape")
            continue
        by_gadget[gd] = pair
        edges.append(pair)
    if len(set(edges)) < len(edges):
        problems.add("layer-contraction", f"layer {layer}: duplicate contracted edge")
    deg = Counter(v for e in edges for v in e)
    left, right = meta.level_labels(layer), meta.level_labels(layer + 1)
    bad = [v for v in (*left, *right) if deg[v] != p.layer_degree]
    if bad:
        problems.add(
            "layer-contraction",
            f"layer {layer}: nodes {bad[:8]} off {p.layer_degree}-regularity",
        )
    return edges, by_gadget, problems


def naive_family_violations(g, params):
    """Every violated family property of ``g``, found by per-layer loops
    and role checks: the slow counterpart of ``validate_family_membership``."""
    p = params
    meta = FamilyMeta(p)
    report = validate_consistent_labeling(g)

    expected = set(range(meta.params.order))
    actual = set(g.labels())
    if actual != expected:
        report.add(
            "label-range",
            f"missing={sorted(expected - actual)[:8]} extra={sorted(actual - expected)[:8]}",
        )
        return report  # remaining checks assume the exact label set
    if g.edge_count() != p.edge_total:
        report.add("edge-count", f"expected {p.edge_total}, got {g.edge_count()}")

    # per-layer color counts and contraction regularity
    for layer in range(1, p.levels):
        edges, by_gadget, problems = naive_contract_layer(g, meta, layer)
        greens = len(edges) - len(by_gadget)
        reds = 0
        for v in (*meta.level_labels(layer), *meta.level_labels(layer + 1)):
            for u in g.neighbors(v):
                if meta.is_gadget(u) and meta.gadget_layer(u) == layer:
                    reds += 1
        if greens != p.greens_per_layer:
            report.add(
                "green-count",
                f"layer {layer}: expected {p.greens_per_layer}, got {greens}",
            )
        if reds != p.reds_per_layer:
            report.add(
                "red-count", f"layer {layer}: expected {p.reds_per_layer}, got {reds}"
            )
        report.violations.extend(problems.violations)

    # no green edge's endpoints may share a gadget neighbor
    for layer in range(1, p.levels):
        for u, v in naive_green_edges(g, meta, layer):
            shared = {x for x in g.neighbors(u) if meta.is_gadget(x)} & {
                x for x in g.neighbors(v) if meta.is_gadget(x)
            }
            if shared:
                report.add(
                    "green-gadget-overlap",
                    f"green ({u},{v}) endpoints share gadgets {sorted(shared)}",
                )

    if sorted(g.neighbors(meta.source_label)) != list(meta.level_labels(1)):
        report.add("source-edges", "source is not adjacent to exactly level 1")

    crit = meta.critical_label
    want_crit = set(meta.gadget_labels) | {meta.tail_labels[0]}
    if set(g.neighbors(crit)) != want_crit or g.degree(crit) != len(want_crit):
        report.add("critical-shape", "critical node adjacency is not gadgets + tail")
    chain = [crit, *meta.tail_labels]
    for a, b in zip(chain, chain[1:]):
        if not g.has_edge(a, b):
            report.add("tail", f"missing tail edge ({a},{b})")
    for t in meta.tail_labels:
        want = 1 if t == meta.tail_tip else 2
        if g.degree(t) != want:
            report.add("tail", f"tail node {t} has degree {g.degree(t)} != {want}")

    # a search would follow a listed neighbor that has no row
    if "unknown-neighbor" not in report.codes():
        if len(naive_distances(adjacency(g), next(iter(g.labels())))) != len(g):
            report.add("disconnected", "graph is not connected")
    return report


def naive_dirty_rows(base_rows, g):
    """The labels of ``g`` whose row is not the very list ``base_rows``
    holds: a scan of every row, the slow counterpart of the record
    ``LabeledGraph._replaced_since`` reads."""
    return {v for v, row in g._ports.items() if base_rows.get(v) is not row}


def naive_smallest_unexplored_port(view, v):
    """Scan of ``v``'s ports for the first one the explored view does not
    know: the slow counterpart of ``ExploredView.smallest_unexplored_port``."""
    known = view.adj[v]
    for p in range(view.degree[v]):
        if p not in known:
            return p
    return None


def naive_plan_to(view, is_target):
    """Breadth-first search from the view's current node over its explored
    edges, expanding port-ascending, for the closest node satisfying the
    predicate (smallest label on ties), with the port path to it: the slow
    counterpart of ``ExploredView.plan_to``."""
    cur = view.cur
    if is_target(cur):
        return (cur, [])
    parent = {cur: None}
    level = [cur]
    while level:
        nxt, found = [], []
        for x in level:
            row = view.adj[x]
            for p in sorted(row):
                y = row[p]
                if y not in parent:
                    parent[y] = x
                    nxt.append(y)
                    if is_target(y):
                        found.append(y)
        if found:
            node = min(found)
            chain = [node]
            while parent[chain[-1]] is not None:
                chain.append(parent[chain[-1]])
            chain.reverse()
            return (node, [port_to(view.adj[a], b) for a, b in zip(chain, chain[1:])])
        level = nxt
    return None


def port_to(row, y):
    """The port of an explored row that leads to ``y``, by a scan."""
    return next(p for p, x in row.items() if x == y)


def naive_explored_rows(records):
    """The explored port rows rebuilt from a memory record sequence: each
    node seen maps every port it was left or entered by to the neighbour at
    the other end; the slow counterpart of ``ExploredDistances.adj``."""
    rows, prev = {}, None
    for label, _, out_port, in_port in records:
        rows.setdefault(label, {})
        if out_port != -1:
            rows[prev][out_port] = label
            rows[label][in_port] = prev
        prev = label
    return rows


def naive_open_nodes(records):
    """After each record of a memory sequence, the known nodes that still
    own a port the walk has neither left nor entered by, rebuilt from the
    records alone: the slow counterpart of ``ExploredView``'s rule that a
    node's explored row is shorter than its degree."""
    unexplored, prev = {}, None
    for label, degree, out_port, in_port in records:
        unexplored.setdefault(label, set(range(degree)))
        if out_port != -1:
            unexplored[prev].discard(out_port)
            unexplored[label].discard(in_port)
        prev = label
        yield {v for v, ports in unexplored.items() if ports}


def naive_levels(dist):
    """The nodes of a distance map grouped by distance: entry ``d`` holds
    the nodes at distance ``d``, up to the largest one."""
    levels = [set() for _ in range(max(dist.values()) + 1)]
    for v, d in dist.items():
        levels[d].add(v)
    return levels


def naive_view_distances(view):
    """Distances from the view's source over its explored edges, by a plain
    BFS: the slow counterpart of the view's ``dist``."""
    adj = {v: list(row.values()) for v, row in view.adj.items()}
    return naive_distances(adj, view.source)


def naive_dfs_next_action(records):
    """The DFS policy's next port after ``records``, read off the records
    alone: the current node lists its ports ascending, its first-entry port
    moved to the end, and the next port follows the one the node last
    departed through in that list (the first one before any departure,
    None after the last).  On the policy's own runs that is the smallest
    port not yet departed through, the entry port kept for last.  The slow
    counterpart of the DFS run state's ``next_action``."""
    cur = records[-1][0]
    first = next(i for i, rec in enumerate(records) if rec[0] == cur)
    _, degree, _, in_port = records[first]
    entry = in_port if first else None
    order = [p for p in range(degree) if p != entry]
    if entry is not None:
        order.append(entry)
    departed = [rec[2] for prev, rec in zip(records, records[1:]) if prev[0] == cur]
    i = order.index(departed[-1]) + 1 if departed else 0
    return order[i] if i < len(order) else None


def naive_fuel_violations(memory, source, tank):
    """Fuel-monitor violations of a memory sequence with the tank kept as a
    ``Fraction``: the slow counterpart of ``execute``'s integer tank."""
    fuel = tank
    out = []
    for step in range(1, len(memory)):
        if fuel < 1:
            out.append({"kind": "fuel", "step": step, "detail": f"tank {fuel}"})
        fuel -= 1
        if memory[step][0] == source:
            fuel = tank
    return out


def naive_distance_violations(memory, source, cap):
    """Distance-monitor violations of a memory sequence: at each step, the
    return distance of the node reached over the edges traversed so far,
    from a fresh breadth-first search of those edges after each new one;
    the slow counterpart of ``execute``'s incremental distances."""
    adj, dist = {source: []}, {source: 0}
    out = []
    for step in range(1, len(memory)):
        a, b = memory[step - 1][0], memory[step][0]
        if b not in adj.get(a, ()):
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
            dist = naive_distances(adj, source)
        d = dist.get(b)
        if d is None or d > cap:
            detail = f"known return distance {d} > {cap}"
            out.append({"kind": "distance", "step": step, "detail": detail})
    return out


def naive_hopcroft_karp(adj):
    """Hopcroft-Karp with a recursive depth-first search: the recursive
    counterpart of ``graph.hopcroft_karp`` (same visiting order, so the same
    matching), for graphs shallow enough for the recursion limit."""
    pair_left, pair_right, dist = {}, {}, {}
    unseen = -1
    goal = unseen

    def bfs():
        nonlocal goal
        queue = deque()
        for l in adj:
            if l not in pair_left:
                dist[l] = 0
                queue.append(l)
            else:
                dist[l] = unseen
        found = unseen
        while queue:
            l = queue.popleft()
            if found != unseen and dist[l] >= found:
                continue
            for r in adj[l]:
                if r not in pair_right:
                    if found == unseen:
                        found = dist[l] + 1
                elif dist[pair_right[r]] == unseen:
                    dist[pair_right[r]] = dist[l] + 1
                    queue.append(pair_right[r])
        goal = found
        return found != unseen

    def dfs(l):
        for r in adj[l]:
            if r not in pair_right:
                if goal == dist[l] + 1:
                    pair_left[l], pair_right[r] = r, l
                    return True
            elif dist[pair_right[r]] == dist[l] + 1 and dfs(pair_right[r]):
                pair_left[l], pair_right[r] = r, l
                return True
        dist[l] = unseen
        return False

    while bfs():
        for l in adj:
            if l not in pair_left:
                dfs(l)
    return pair_left


def naive_adversary_behavior(ecc, alpha, policy, width, *, seed=0, max_steps=None):
    """The adversary as one loop of its per-step function ``_step`` to the
    policy's halt, with no replay phase: the single-phase counterpart of
    ``adversary_behavior``.  Returns the run and the loop's own counts of
    steps, flags and changed steps, which the run reads off its trace and
    audit."""
    alpha = Fraction(alpha)
    params = FamilyParams(family_levels(ecc, alpha), width, ecc)
    graph, meta = build_family_graph(params, seed)
    cursor = ReplayCursor(graph, policy, source=0, gadgets=meta.gadget_labels)
    ledger = _FamilyLedger(params)
    explored_green = {i: 0 for i in range(1, params.levels)}
    if max_steps is None:
        max_steps = step_budget(graph)
    audits, flags, changed = [], [], 0
    x = 0
    while cursor.pending is not None:
        x += 1
        if x > max_steps:
            raise BudgetError(f"adversary exceeded {max_steps} steps", trace=cursor.as_trace())
        audit = _step(cursor, meta, ledger, explored_green)
        flags += [(x, f) for f in audit.flags]
        changed += audit.changed
        if audit.stages or audit.flags:
            audits.append(audit)
    if not validate_family_membership(cursor.graph, params).ok:
        raise InvariantViolation("final graph left the family")
    run = AdversaryRun(meta, cursor.graph, audits, cursor.as_trace())
    return run, {"step_count": x, "flags": flags, "prefix_checks": changed}


def naive_merge_behavior(g, merged, plan, meta, policy_factory, alpha):
    """``validate_merge_behavior`` as five comparisons before the first
    gadget visit: the first gadget step, the memory records, the records'
    labels pushed through the merge map, the traversed edges pushed through
    it, and the penalty.  The package judges only the first two, from which
    the other three follow."""

    def map_label(v):
        return plan.gadget_map.get(v, v)

    report = ValidationReport()
    gadgets = set(meta.gadget_labels)
    merged_gadgets = set(plan.merged_even.values()) | set(plan.merged_odd.values())

    inst = Instance(graph=g, source=meta.source_label, alpha=alpha)
    policy = policy_factory(inst.alpha, inst.ecc)
    trace, run = execute(inst, policy, gadget_set=gadgets, monitors=("completion",))
    inst2 = Instance(graph=merged, source=meta.source_label, alpha=alpha)
    policy2 = policy_factory(inst2.alpha, inst2.ecc)
    trace2, run2 = execute(inst2, policy2, gadget_set=merged_gadgets, monitors=("completion",))

    t = trace.first_gadget_step
    if t is None:
        report.add("no-gadget-visit", "original run never visited a gadget")
        return report, {}
    if trace2.first_gadget_step != t:
        report.add(
            "first-gadget-step",
            f"original visits a gadget at {t}, merged at {trace2.first_gadget_step}",
        )
    upto = min(t, trace2.steps + 1)
    for i in range(upto):
        if trace.memory[i] != trace2.memory[i]:
            report.add("memory-prefix", f"records differ at index {i}")
            break
        if map_label(trace.memory[i][0]) != trace2.memory[i][0]:
            report.add("node-map", f"merge map broken at index {i}")
            break
    edges_g = {edge_key(*map(map_label, trace.edge_at(i))) for i in range(1, upto)}
    edges_m = {trace2.edge_at(i) for i in range(1, upto)}
    if edges_g != edges_m:
        report.add("traversed-map", "mapped traversed sets differ before the gadget visit")
    pen = penalty_before_step(trace, t)
    pen2 = penalty_before_step(trace2, min(t, trace2.steps))
    if pen != pen2:
        report.add("penalty", f"penalty before gadget differs: {pen} vs {pen2}")

    details = {
        "first_gadget_step": t,
        "penalty_before_gadget": pen,
        "penalty_before_gadget_merged": pen2,
        "total_steps": trace.steps,
        "total_steps_merged": trace2.steps,
        "total_penalty": run.penalty,
        "total_penalty_merged": run2.penalty,
        "complete": run.complete,
        "complete_merged": run2.complete,
    }
    return report, details


def fuel_counting_floor(params):
    """A floor on the penalty of every complete exploration of the lollipop
    ``params`` under the fuel constraint, by counting trips.

    Fuel is refilled only on arrival at the source, and one tank pays for
    at most ``F = floor(2 * (1 + alpha) * r)`` traversals, r being the
    source's eccentricity.  So a run is a sequence of trips, each leaving
    the source and returning to it, except the last, which may end
    anywhere (the lab does not require the run to end at the source).  The
    only way from the source into the clique is the path and the bridge,
    r - 1 edges, ending at the bridge node ``b``; every other clique node
    is entered from the rest of the graph only through one of ``b``'s
    ``c - 1`` clique edges.  So a trip that crosses one of the
    ``(c - 1)(c - 2) / 2`` clique edges away from ``b`` walks the path out,
    leaves ``b`` by one of its clique edges and, unless it is the last,
    comes back to ``b`` over one of them and walks the path back:
    it crosses at most ``F - 2(r - 1) - 2`` edges away from ``b``, the last
    at most ``F - (r - 1) - 1``.  Each edge away from ``b`` is crossed at
    least once, so at least T trips cross one, for the least T with
    ``(T - 1)(F - 2(r - 1) - 2) + F - (r - 1) - 1 >= (c - 1)(c - 2) / 2``
    (if the last trip is not among them, T trips of the smaller capacity
    need more of them); together they make at least ``(2T - 1)(r - 1)``
    path traversals.  Every clique edge is crossed at least once besides,
    so the penalty, the number of traversals beyond
    ``|E| = c(c - 1) / 2 + r - 1``, is at least ``2(T - 1)(r - 1)``,
    whatever the algorithm and whether or not it knows the graph.
    (``F - 2(r - 1) - 2 >= 2``, since ``alpha * r >= 1``.)
    """
    r = params.ecc
    tank = 2 * (1 + params.alpha) * r
    fuel = tank.numerator // tank.denominator
    c = params.clique_size
    away = (c - 1) * (c - 2) // 2
    beyond_last = max(0, away - (fuel - (r - 1) - 1))
    closed_trips = -(-beyond_last // (fuel - 2 * (r - 1) - 2))
    return 2 * closed_trips * (r - 1)


def graph_modification(
    graph: LabeledGraph,
    alpha: Fraction,
    policy,
    t: int,
) -> tuple[LabeledGraph, StepAudit]:
    """Replay ``policy`` for ``t`` steps on ``graph`` and rewrite the graph so
    that, when possible, the next traversal descends; the first ``t`` records
    of the agent's memory are never altered.

    Standalone form of the engine's per-step rewrite: family parameters are
    derived from the graph itself (source eccentricity, level width).
    """
    ecc = eccentricity(graph, 0)
    meta = FamilyMeta(FamilyParams(family_levels(ecc, alpha), graph.degree(0), ecc))
    cursor = ReplayCursor(graph, policy, source=0, gadgets=meta.gadget_labels)
    if cursor.run(t):
        raise ParameterError(f"policy halted before step {t + 1}")
    audit, _ = _rewrite(cursor, meta, None)
    return cursor.graph, audit


def check_eccentricity_properties(
    g: LabeledGraph,
    meta: FamilyMeta,
    sample_size: int = 100,
    seed: int = 0,
) -> ValidationReport:
    """Distance-structure checks that hold for widths >= 16: source
    eccentricity, gadget proximity of deep levels, and lower bounds on
    source-to-level distances once the critical node is removed."""
    p = meta.params
    if p.width < 16:
        raise ParameterError(f"width must be >= 16 for these checks, got {p.width}")
    report = ValidationReport()

    if eccentricity(g, meta.source_label) != p.ecc:
        report.add(
            "eccentricity",
            f"source eccentricity {eccentricity(g, meta.source_label)} != {p.ecc}",
        )

    # every node of level >= 2 within distance 2 of a gadget
    dist = {x: 0 for x in meta.gadget_labels}
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        if dist[v] == 2:
            continue
        for u in g.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    far = [
        v
        for i in range(2, p.levels + 1)
        for v in meta.level_labels(i)
        if v not in dist
    ]
    if far:
        report.add("gadget-proximity", f"levels>=2 nodes beyond distance 2: {far[:8]}")

    # BFS from the source avoiding the critical node
    pd = {meta.source_label: 0}
    queue = deque([meta.source_label])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if u != meta.critical_label and u not in pd:
                pd[u] = pd[v] + 1
                queue.append(u)
    level_nodes = [v for i in range(1, p.levels + 1) for v in meta.level_labels(i)]
    if sample_size < len(level_nodes):
        level_nodes = random.Random(seed).sample(level_nodes, sample_size)
    for v in level_nodes:
        lv = meta.level_of(v)
        if v in pd and pd[v] < lv:
            report.add(
                "punctured-distance",
                f"node {v} of level {lv} reachable in {pd[v]} without the critical node",
            )
    return report
