"""The three family-preserving graph surgeries.

Each operation returns a :class:`SurgeryResult`; when any guard fails the
input graph is returned unchanged together with the failed guard's reason.
A changed graph comes from :meth:`LabeledGraph.replace_ports`, so it records
the rows it replaced; callers read that record, for example to verify that a
surgery never disturbed an edge an agent has already traversed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .family import FamilyMeta
from .graph import LabeledGraph, edge_key


@dataclass(frozen=True)
class SurgeryResult:
    graph: LabeledGraph
    changed: bool
    reason: str | None = None
    note: str | None = None

    @classmethod
    def unchanged(cls, g: LabeledGraph, reason: str) -> "SurgeryResult":
        return cls(graph=g, changed=False, reason=reason)


def switch_ports(g: LabeledGraph, v: int, p1: int, p2: int) -> SurgeryResult:
    """Swap which incident edges carry ports p1 and p2 at node v."""
    if v not in g:
        return SurgeryResult.unchanged(g, f"node {v} not in graph")
    deg = g.degree(v)
    if p1 == p2 or not (0 <= p1 < deg) or not (0 <= p2 < deg):
        return SurgeryResult.unchanged(
            g, f"ports {p1},{p2} not distinct valid ports at {v}"
        )
    row = list(g.neighbors(v))
    row[p1], row[p2] = row[p2], row[p1]
    return SurgeryResult(graph=g.replace_ports({v: row}), changed=True)


def switch_edges(
    g: LabeledGraph, meta: FamilyMeta, v1: int, v2: int, p1: int, p2: int
) -> SurgeryResult:
    """Exchange the far endpoints of two same-layer green edges attached at
    two same-level nodes.

    The edge at port p1 of v1 is detached from v1 and reattached at port p2
    of v2, and vice versa; ports at the two far endpoints are untouched.
    """
    if v1 not in g or v2 not in g:
        return SurgeryResult.unchanged(g, "unknown node")
    if not (0 <= p1 < g.degree(v1)) or not (0 <= p2 < g.degree(v2)):
        return SurgeryResult.unchanged(g, "port out of range")
    if meta.level_of(v1) is None or meta.level_of(v1) != meta.level_of(v2):
        return SurgeryResult.unchanged(g, "nodes are not on one level")
    far1 = g.neighbor(v1, p1)
    far2 = g.neighbor(v2, p2)
    layer = meta.green_layer(v1, far1)
    if layer is None or layer != meta.green_layer(v2, far2):
        return SurgeryResult.unchanged(g, "ports are not on green edges of one layer")
    if g.has_edge(v2, far1) or g.has_edge(v1, far2):
        return SurgeryResult.unchanged(g, "would duplicate an edge")
    gadgets1 = {x for x in g.neighbors(v2) if meta.is_gadget(x)} & {
        x for x in g.neighbors(far1) if meta.is_gadget(x)
    }
    gadgets2 = {x for x in g.neighbors(v1) if meta.is_gadget(x)} & {
        x for x in g.neighbors(far2) if meta.is_gadget(x)
    }
    if gadgets1 or gadgets2:
        return SurgeryResult.unchanged(g, "new endpoints would share a gadget")

    row1 = list(g.neighbors(v1))
    row2 = list(g.neighbors(v2))
    row1[p1] = far2
    row2[p2] = far1
    rowf1 = list(g.neighbors(far1))
    rowf2 = list(g.neighbors(far2))
    rowf1[g.port_of(far1, v1)] = v2
    rowf2[g.port_of(far2, v2)] = v1
    new_g = g.replace_ports({v1: row1, v2: row2, far1: rowf1, far2: rowf2})
    return SurgeryResult(graph=new_g, changed=True)


def move_gadget(
    g: LabeledGraph, meta: FamilyMeta, edge: tuple[int, int], gadget: int
) -> SurgeryResult:
    """Relocate a gadget: its two red edges merge into a green edge between
    its former level neighbors, and the given green edge splits into two red
    edges through the gadget.

    Port bookkeeping: the merged green edge inherits the level nodes' old
    gadget ports; each new red edge inherits the split edge's port at its
    level node and, at the gadget, the old port toward the same-level former
    neighbor.
    """
    a, b = edge
    if a not in g or b not in g or not g.has_edge(a, b):
        return SurgeryResult.unchanged(g, f"no edge {{{a},{b}}} in graph")
    layer = meta.green_layer(a, b)
    if layer is None:
        return SurgeryResult.unchanged(g, f"edge {{{a},{b}}} is not green")
    if gadget not in g or not meta.is_gadget(gadget) or meta.gadget_layer(gadget) != layer:
        return SurgeryResult.unchanged(g, f"{gadget} is not a gadget of layer {layer}")
    pair = meta.gadget_level_pair(g, gadget)
    if pair is None:
        return SurgeryResult.unchanged(g, f"gadget {gadget} lacks its level neighbors")
    lo, hi = pair
    v1, v2 = (a, b) if meta.level_of(a) == layer else (b, a)
    if g.has_edge(lo, hi) and edge_key(lo, hi) != edge_key(v1, v2):
        # only possible when the family's green/gadget disjointness is broken
        return SurgeryResult.unchanged(g, f"edge {{{lo},{hi}}} already exists")

    note = None
    if v1 in (lo, hi) or v2 in (lo, hi):
        note = "moved edge shares an endpoint with the gadget's level pair"

    updates: dict[int, dict[int, int]] = {}

    def put(node: int, port: int, neighbor: int) -> None:
        updates.setdefault(node, {})[port] = neighbor

    put(lo, g.port_of(lo, gadget), hi)
    put(hi, g.port_of(hi, gadget), lo)
    put(v1, g.port_of(v1, v2), gadget)
    put(v2, g.port_of(v2, v1), gadget)
    put(gadget, g.port_of(gadget, lo), v1)
    put(gadget, g.port_of(gadget, hi), v2)

    rows: dict[int, list[int]] = {}
    for node, patch in updates.items():
        row = list(g.neighbors(node))
        for port, neighbor in patch.items():
            row[port] = neighbor
        rows[node] = row
    return SurgeryResult(graph=g.replace_ports(rows), changed=True, note=note)
