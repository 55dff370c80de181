"""Gadget merging: shrink a family member to a graph with 8k merged gadgets
while keeping the agent's behavior identical up to its first gadget visit.

Each layer is first contracted: every gadget is replaced by the edge between
its two level neighbors, recovering the layer's regular bipartite graph.  A
proper edge coloring of that graph groups gadgets whose level edges form a
matching; same-colored gadgets from same-parity layers therefore have
pairwise disjoint neighborhoods (apart from the one critical node) and can
be merged into a single vertex without creating parallel edges or changing
any port at a surviving node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, ParameterError, StructuralError
from .family import FamilyMeta, _contract_layer, validate_family_membership
from .graph import (
    LabeledGraph,
    ValidationReport,
    color_regular_bipartite_edges,
    eccentricity,
    edge_key,
    validate_consistent_labeling,
)
from .runtime import Instance, execute, penalty_before_step


@dataclass
class MergePlan:
    """How gadgets were grouped and relabeled by one merge."""

    colorings: dict[int, dict[int, int]]
    even_classes: dict[int, list[int]]
    odd_classes: dict[int, list[int]]
    merged_even: dict[int, int]
    merged_odd: dict[int, int]
    gadget_map: dict[int, int]

    def map_label(self, label: int) -> int:
        return self.gadget_map.get(label, label)

    def map_edge(self, a: int, b: int) -> tuple[int, int]:
        return edge_key(self.map_label(a), self.map_label(b))

    def to_dict(self) -> dict:
        return {
            "colorings": {
                str(layer): {str(gd): c for gd, c in m.items()}
                for layer, m in self.colorings.items()
            },
            "even_classes": {str(p): v for p, v in self.even_classes.items()},
            "odd_classes": {str(p): v for p, v in self.odd_classes.items()},
            "merged_even": {str(p): v for p, v in self.merged_even.items()},
            "merged_odd": {str(p): v for p, v in self.merged_odd.items()},
            "gadget_map": {str(k): v for k, v in self.gadget_map.items()},
        }


def _balanced_recolor(
    per_layer: dict[int, dict[int, int]], layers: list[int], colors: int
) -> dict[int, dict[int, int]]:
    """Relabel each layer's colors so gadgets spread over all classes: the
    layer's fullest original class goes to the globally emptiest color.
    Any per-layer bijection of color names keeps the coloring proper, and
    spreading guarantees every merged class is nonempty."""
    load = {c: 0 for c in range(1, colors + 1)}
    out: dict[int, dict[int, int]] = {}
    for layer in layers:
        gadgets_by_color: dict[int, list[int]] = {c: [] for c in range(1, colors + 1)}
        for gd, c in per_layer[layer].items():
            gadgets_by_color[c].append(gd)
        classes = sorted(gadgets_by_color, key=lambda c: (-len(gadgets_by_color[c]), c))
        targets = sorted(load, key=lambda c: (load[c], c))
        out[layer] = {}
        for orig, tgt in zip(classes, targets):
            for gd in gadgets_by_color[orig]:
                out[layer][gd] = tgt
            load[tgt] += len(gadgets_by_color[orig])
    return out


def merge_gadgets(
    g: LabeledGraph, meta: FamilyMeta, k: int
) -> tuple[LabeledGraph, MergePlan]:
    """Merge all gadgets of a width-16k family member into 8k vertices.

    Ports at every surviving node are preserved, except at the critical node
    where all but one edge per merged vertex are dropped (survivors keep
    their relative order).  Merged vertices take the smallest labels unused
    by the input, even-parity classes first, and order their ports by
    neighbor label with the single critical edge last.
    """
    p = meta.params
    if p.width != 16 * k:
        raise ParameterError(f"graph width {p.width} does not match 16*k = {16 * k}")
    if p.levels < 3:
        raise ParameterError("merging needs at least one layer of each parity")
    report = validate_family_membership(g, p)
    if not report.ok:
        raise StructuralError(f"input is not a family member: {report.codes()}")

    colors = 4 * k
    raw: dict[int, dict[int, int]] = {}
    pairs: dict[int, tuple[int, int]] = {}
    for layer in range(1, p.levels):
        # a member's layer contracts to a regular bipartite graph: its green
        # edges plus the level pair of each gadget
        by_gadget = _contract_layer(g, meta, layer)
        coloring = color_regular_bipartite_edges(
            meta.green_edges(g, layer) + list(by_gadget.values()),
            set(meta.level_labels(layer)),
        )
        raw[layer] = {gd: coloring[edge_key(*pair)] for gd, pair in by_gadget.items()}
        pairs.update(by_gadget)

    # one pass per layer parity, even first: each recolors its layers and
    # merges each color class into one vertex labeled after the input's labels
    crit = meta.critical_label
    recolored: dict[int, dict[int, int]] = {}
    class_maps: list[dict[int, list[int]]] = []
    merged_maps: list[dict[int, int]] = []
    gadget_map: dict[int, int] = {}
    keep_at_critical: set[int] = set()
    merged_rows: dict[int, list[int]] = {}
    for parity in (0, 1):
        layers = [i for i in range(1, p.levels) if i % 2 == parity]
        recolored.update(_balanced_recolor(raw, layers, colors))
        classes: dict[int, list[int]] = {c: [] for c in range(1, colors + 1)}
        for layer in layers:
            for gd, c in recolored[layer].items():
                classes[c].append(gd)
        merged = {c: len(g) + parity * colors + c - 1 for c in classes}
        for c, members in classes.items():
            members.sort()
            if not members:
                raise InvariantViolation(f"merged class {c} is empty")
            level_neighbors = [v for gd in members for v in pairs[gd]]
            if len(set(level_neighbors)) != len(level_neighbors):
                raise InvariantViolation(
                    f"class {c} constituents share a level neighbor"
                )
            merged_rows[merged[c]] = sorted(level_neighbors) + [crit]
            for gd in members:
                gadget_map[gd] = merged[c]
            # the single critical edge each merged vertex keeps comes from
            # its smallest-labeled constituent gadget
            keep_at_critical.add(members[0])
        class_maps.append(classes)
        merged_maps.append(merged)

    ports: dict[int, list[int]] = {}
    for v in g.labels():
        if meta.is_gadget(v):
            continue
        if v == crit:
            row = []
            for u in g.neighbors(v):
                if meta.is_gadget(u):
                    if u in keep_at_critical:
                        row.append(gadget_map[u])
                else:
                    row.append(u)
            ports[v] = row
        else:
            ports[v] = [gadget_map.get(u, u) for u in g.neighbors(v)]
    ports.update(merged_rows)

    merged_graph = LabeledGraph(ports)
    plan = MergePlan(
        colorings=recolored,
        even_classes=class_maps[0],
        odd_classes=class_maps[1],
        merged_even=merged_maps[0],
        merged_odd=merged_maps[1],
        gadget_map=gadget_map,
    )

    check = validate_consistent_labeling(merged_graph)
    if not check.ok:
        raise StructuralError(f"merged graph is not simple: {check.codes()}")
    if eccentricity(merged_graph, meta.source_label) != p.ecc:
        raise StructuralError("merged graph changed the source eccentricity")
    expected_order = 8 * k * (2 * (p.levels - 1) + 3) + p.ecc - 1
    if len(merged_graph) != expected_order:
        raise StructuralError(
            f"merged order {len(merged_graph)} != expected {expected_order}"
        )
    return merged_graph, plan


def validate_merge_behavior(
    g: LabeledGraph,
    merged: LabeledGraph,
    plan: MergePlan,
    meta: FamilyMeta,
    policy_factory,
    alpha,
) -> tuple[ValidationReport, dict]:
    """Replay the policy on both graphs and check that, before the first
    gadget visit, the merged run is the original run pushed through the
    merge map: identical memory records, mapped nodes, mapped traversed
    edges, and the same penalty.

    Behavior past the first gadget visit is reported (step counts, total
    penalties) but not judged.
    """
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
        if plan.map_label(trace.memory[i].label) != trace2.memory[i].label:
            report.add("node-map", f"merge map broken at index {i}")
            break
    edges_g = {plan.map_edge(*trace.edge_at(i)) for i in range(1, upto)}
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
