"""Construction and validation of the layered adversarial graph family and of
lollipop graphs for the fuel experiments.

A family member is built from three integer parameters: the number of levels,
the level width, and the target source eccentricity.  Levels are joined by
regular bipartite layers; most layer edges are then subdivided by degree-3
gadget nodes that also hang off a single critical node, and a tail path off
the critical node realizes the eccentricity.  All role information (level of
a node, layer of a gadget, critical node, tail) is recoverable from label
ranges alone, so :class:`FamilyMeta` carries no per-graph state.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ParameterError, StructuralError
from .graph import (
    LabeledGraph,
    ValidationReport,
    circulant_pairs,
    eccentricity,
    is_connected,
    validate_consistent_labeling,
)


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the layered family: levels >= 2, width >= 4, ecc >= 6."""

    levels: int
    width: int
    ecc: int

    def __post_init__(self):
        if self.levels < 2:
            raise ParameterError(f"levels must be >= 2, got {self.levels}")
        if self.width < 4:
            raise ParameterError(f"width must be >= 4, got {self.width}")
        if self.ecc < 6:
            # A shorter tail would leave the label/distance layout undefined.
            raise ParameterError(f"ecc must be >= 6, got {self.ecc}")

    @cached_property
    def layer_degree(self) -> int:
        """Regularity of each level-to-level bipartite layer."""
        return self.width // 4

    @cached_property
    def beta(self) -> int:
        """Number of edges of one layer before gadget subdivision."""
        return self.width * self.layer_degree

    @cached_property
    def gadgets_per_layer(self) -> int:
        return 7 * self.beta // 8

    @cached_property
    def greens_per_layer(self) -> int:
        return -(-self.beta // 8)  # ceil(beta / 8)

    @cached_property
    def reds_per_layer(self) -> int:
        return 2 * self.gadgets_per_layer

    @cached_property
    def gadget_count(self) -> int:
        return (self.levels - 1) * self.gadgets_per_layer

    @cached_property
    def order(self) -> int:
        return self.width * self.levels + self.gadget_count + self.ecc - 1

    @cached_property
    def edge_total(self) -> int:
        # source fan + layer edges + critical-to-gadget edges + tail chain
        layers = self.levels - 1
        return (
            self.width
            + layers * (self.greens_per_layer + self.reds_per_layer)
            + self.gadget_count
            + (self.ecc - 3)
        )


def family_levels(ecc: int, alpha) -> int:
    """Levels of the family that forces the return cap ``(1+alpha)*ecc``:
    ``floor((1+alpha)*ecc) + 1``, exact for rational ``alpha``."""
    cap = (1 + Fraction(alpha)) * ecc
    return cap.numerator // cap.denominator + 1


class FamilyMeta:
    """Role annotations for a family member, all derived from label ranges."""

    def __init__(self, params: FamilyParams):
        self.params = params
        p = params
        self.width = p.width
        self.gadgets_per_layer = p.gadgets_per_layer
        self.source_label = 0
        self._level_top = p.width * p.levels
        self._gadget_top = self._level_top + p.gadget_count
        self.critical_label = self._gadget_top + 1
        self.tail_labels = [self.critical_label + d for d in range(1, p.ecc - 2)]
        self._tail_chain = frozenset(self.tail_labels) | {self.critical_label}

    # -- label geometry ------------------------------------------------------

    def level_of(self, label: int) -> int | None:
        if 1 <= label <= self._level_top:
            return (label - 1) // self.width + 1
        return None

    def level_labels(self, i: int) -> range:
        w = self.params.width
        return range(w * (i - 1) + 1, w * i + 1)

    def is_gadget(self, label: int) -> bool:
        return self._level_top < label <= self._gadget_top

    @property
    def gadget_labels(self) -> range:
        return range(self._level_top + 1, self._gadget_top + 1)

    def gadget_layer(self, label: int) -> int:
        if not self.is_gadget(label):
            raise ParameterError(f"label {label} is not a gadget")
        return (label - self._level_top - 1) // self.gadgets_per_layer + 1

    @property
    def tail_tip(self) -> int:
        return self.tail_labels[-1]

    def expected_labels(self) -> set[int]:
        return set(range(self.params.order))

    # -- edge roles ------------------------------------------------------------

    def edge_kind(self, a: int, b: int) -> tuple[str, int | None]:
        """Classify edge {a, b}: green/red (with layer), source, critical,
        tail, or other."""
        la, lb = self.level_of(a), self.level_of(b)
        if la is not None and lb is not None:
            if abs(la - lb) == 1:
                return ("green", min(la, lb))
            return ("other", None)
        for x, lx, y in ((a, la, b), (b, lb, a)):
            if self.is_gadget(x):
                if lx is None and self.level_of(y) is not None:
                    return ("red", self.gadget_layer(x))
                if y == self.critical_label:
                    return ("critical", self.gadget_layer(x))
                return ("other", None)
        if a == self.source_label or b == self.source_label:
            return ("source", None)
        if a in self._tail_chain and b in self._tail_chain:
            return ("tail", None)
        return ("other", None)

    def green_edges(self, g: LabeledGraph, layer: int) -> list[tuple[int, int]]:
        """Green edges of one layer, sorted by (level-i label, level-i+1 label)."""
        lo = self.level_labels(layer)
        hi_min = self.params.width * layer + 1
        hi_max = self.params.width * (layer + 1)
        out = []
        for v in lo:
            for u in g.neighbors(v):
                if hi_min <= u <= hi_max:
                    out.append((v, u))
        out.sort()
        return out

    def gadget_level_pair(self, g: LabeledGraph, gadget: int) -> tuple[int, int] | None:
        """The (level-i node, level-i+1 node) neighbors of a gadget, or None
        when the gadget does not have the expected degree-3 shape."""
        if not self.is_gadget(gadget) or gadget not in g:
            return None
        layer = self.gadget_layer(gadget)
        lo = hi = None
        for u in g.neighbors(gadget):
            lu = self.level_of(u)
            if lu == layer:
                lo = u
            elif lu == layer + 1:
                hi = u
            elif u != self.critical_label:
                return None
        if lo is None or hi is None or g.degree(gadget) != 3:
            return None
        return (lo, hi)


# -- port assignment ----------------------------------------------------------


def assign_ports(adj: dict[int, list[int]], seed: int) -> dict[int, list[int]]:
    """Fix each node's neighbor order: seed 0 sorts by neighbor label, any
    other seed applies a per-node pseudo-random permutation derived from
    (seed, label)."""
    ports: dict[int, list[int]] = {}
    for v, ns in adj.items():
        row = sorted(ns)
        if seed != 0:
            random.Random(f"{seed}:{v}").shuffle(row)
        ports[v] = row
    return ports


# -- family construction --------------------------------------------------------


def build_family_graph(params: FamilyParams, seed: int = 0) -> tuple[LabeledGraph, FamilyMeta]:
    """Deterministically construct one family member.

    Layer edges come from the circulant regular bipartite construction; each
    layer's gadget subdivisions consume its lexicographically smallest edges;
    ports are assigned by :func:`assign_ports` with the given seed.
    """
    p = params
    meta = FamilyMeta(p)
    adj: dict[int, list[int]] = {v: [] for v in range(p.order)}

    def join(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)

    gadget = meta._level_top  # next gadget label - 1
    for layer in range(1, p.levels):
        lo0 = p.width * (layer - 1) + 1
        hi0 = p.width * layer + 1
        edges = sorted(
            (lo0 + i, hi0 + j) for i, j in circulant_pairs(p.width, p.layer_degree)
        )
        for u, v in edges[: p.gadgets_per_layer]:
            gadget += 1
            join(u, gadget)
            join(v, gadget)
            join(gadget, meta.critical_label)
        for u, v in edges[p.gadgets_per_layer :]:
            join(u, v)

    for v in meta.level_labels(1):
        join(meta.source_label, v)
    prev = meta.critical_label
    for t in meta.tail_labels:
        join(prev, t)
        prev = t

    return LabeledGraph(assign_ports(adj, seed)), meta


# -- layer contraction -------------------------------------------------------


@dataclass
class ContractedLayer:
    """A layer with its gadgets contracted back into level-to-level edges:
    the sorted green edges, then one edge per well-shaped gadget by label,
    each as a (level-i node, level-i+1 node) pair.  ``problems`` reports
    every way the result falls short of the layer-degree-regular bipartite
    graph the construction started from."""

    layer: int
    left: set[int]
    right: set[int]
    edges: list[tuple[int, int]]
    by_gadget: dict[int, tuple[int, int]]
    problems: ValidationReport


def _contract_layer(g: LabeledGraph, meta: FamilyMeta, layer: int) -> ContractedLayer:
    p = meta.params
    edges = meta.green_edges(g, layer)
    by_gadget: dict[int, tuple[int, int]] = {}
    problems = ValidationReport()
    glo = meta._level_top + (layer - 1) * p.gadgets_per_layer + 1
    for gd in range(glo, glo + p.gadgets_per_layer):
        pair = meta.gadget_level_pair(g, gd)
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
    return ContractedLayer(layer, set(left), set(right), edges, by_gadget, problems)


def contract_layer_to_bipartite(
    g: LabeledGraph, meta: FamilyMeta, layer: int
) -> ContractedLayer:
    """Replace each of the layer's gadgets by an edge between its two level
    neighbors; raises :class:`StructuralError` unless the result is the
    layer-degree-regular bipartite graph the construction started from."""
    if not 1 <= layer <= meta.params.levels - 1:
        raise ParameterError(f"layer must be in 1..{meta.params.levels - 1}, got {layer}")
    contracted = _contract_layer(g, meta, layer)
    if not contracted.problems.ok:
        raise StructuralError(
            "; ".join(v.detail for v in contracted.problems.violations)
        )
    return contracted


# -- membership validation ---------------------------------------------------


def validate_family_membership(g: LabeledGraph, params: FamilyParams) -> ValidationReport:
    """Enumerate every violated family property of ``g``; empty report means
    the graph is a member for the given parameters."""
    p = params
    meta = FamilyMeta(p)
    report = validate_consistent_labeling(g)

    expected = meta.expected_labels()
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
        contracted = _contract_layer(g, meta, layer)
        greens = len(contracted.edges) - len(contracted.by_gadget)
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
        report.violations.extend(contracted.problems.violations)

    # no green edge's endpoints may share a gadget neighbor
    for layer in range(1, p.levels):
        for u, v in meta.green_edges(g, layer):
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
    chain = [crit] + meta.tail_labels
    for a, b in zip(chain, chain[1:]):
        if not g.has_edge(a, b):
            report.add("tail", f"missing tail edge ({a},{b})")
    for t in meta.tail_labels:
        want = 1 if t == meta.tail_tip else 2
        if g.degree(t) != want:
            report.add("tail", f"tail node {t} has degree {g.degree(t)} != {want}")

    # a search would follow a listed neighbor that has no row
    if "unknown-neighbor" not in report.codes() and not is_connected(g):
        report.add("disconnected", "graph is not connected")
    return report


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


# -- lollipop graphs ------------------------------------------------------------


@dataclass(frozen=True)
class LollipopParams:
    """A clique on (8*alpha+6)*ecc*scale - (ecc-1) nodes joined by a bridge to
    a path whose free endpoint is the source."""

    scale: int
    ecc: int
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.scale < 1:
            raise ParameterError(f"scale must be >= 1, got {self.scale}")
        if self.ecc < 2:
            raise ParameterError(f"ecc must be >= 2, got {self.ecc}")
        if self.alpha <= 0 or self.ecc * self.alpha < 1:
            raise ParameterError("need alpha > 0 and ecc * alpha >= 1")
        if Fraction(self.order_exact).denominator != 1:
            raise ParameterError(
                f"(8*alpha+6)*ecc*scale = {self.order_exact} is not an integer"
            )

    @property
    def order_exact(self) -> Fraction:
        return (8 * self.alpha + 6) * self.ecc * self.scale

    @property
    def order(self) -> int:
        return int(self.order_exact)

    @property
    def clique_size(self) -> int:
        return self.order - (self.ecc - 1)

    @property
    def edge_total(self) -> int:
        c = self.clique_size
        return c * (c - 1) // 2 + (self.ecc - 1)


def build_lollipop(params: LollipopParams, seed: int = 0) -> tuple[LabeledGraph, int]:
    """Deterministically construct a lollipop graph; returns (graph, source).

    Labels 0..ecc-2 form the path with the source at 0, the rest the clique;
    the bridge joins label ecc-2 to label ecc-1.
    """
    p = params
    n = p.order
    line = list(range(p.ecc - 1))
    clique = list(range(p.ecc - 1, n))
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in zip(line, line[1:]):
        adj[a].append(b)
        adj[b].append(a)
    adj[line[-1]].append(clique[0])
    adj[clique[0]].append(line[-1])
    for i, a in enumerate(clique):
        for b in clique[i + 1 :]:
            adj[a].append(b)
            adj[b].append(a)
    return LabeledGraph(assign_ports(adj, seed)), 0
