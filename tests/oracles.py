"""Independent brute-force oracles used to cross-check the package's search
routines.  These deliberately re-derive everything from raw adjacency and
never call the package's BFS helpers."""

from collections import deque

from explorelab.runtime import MemoryRecord


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
    memory = [MemoryRecord(source, graph.degree(source), -1, -1)]
    traversed = set()
    state.observe(memory[0])
    cur = source
    port = state.next_action()
    while port is not None:
        nxt = graph.neighbor(cur, port)
        memory.append(MemoryRecord(nxt, graph.degree(nxt), port, graph.port_of(nxt, cur)))
        traversed.add((min(cur, nxt), max(cur, nxt)))
        state.observe(memory[-1])
        cur = nxt
        port = state.next_action()
    return memory, traversed
