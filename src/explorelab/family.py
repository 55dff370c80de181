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
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice

from .errors import ParameterError
from .graph import (
    LabeledGraph,
    ValidationReport,
    circulant_pairs,
    validate_consistent_labeling,
)
from .runtime import Trace, return_cap, slack


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the layered family: levels >= 2, width >= 4, ecc >= 6,
    and an order of at most ``sys.maxsize``, the most a graph can hold."""

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
        if self.order > sys.maxsize:
            raise ParameterError("family order exceeds sys.maxsize")

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
    """Levels of the family that forces the return cap: one more than
    :func:`~.runtime.return_cap`, for rational ``alpha > 0``."""
    return return_cap(slack(alpha), ecc) + 1


def width_multiplier(width: int) -> int:
    """The k of a family width ``16 * k``, refused unless ``k >= 1``."""
    if width < 16 or width % 16:
        raise ParameterError(f"width must be a positive multiple of 16, got {width}")
    return width // 16


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
        self.tail_labels = range(self.critical_label + 1, self.critical_label + p.ecc - 2)

    # -- label geometry ------------------------------------------------------

    def level_of(self, label: int) -> int | None:
        if 1 <= label <= self._level_top:
            return (label - 1) // self.width + 1
        return None

    def level_labels(self, i: int) -> range:
        """The labels of level ``i``; empty outside 1..levels."""
        if not 1 <= i <= self.params.levels:
            return range(0)
        w = self.width
        return range(w * (i - 1) + 1, w * i + 1)

    def is_gadget(self, label: int) -> bool:
        return self._level_top < label <= self._gadget_top

    @property
    def gadget_labels(self) -> range:
        return range(self._level_top + 1, self._gadget_top + 1)

    def _layer_gadgets(self, layer: int) -> range:
        """The gadget labels of ``layer``; empty outside 1..levels-1."""
        if not 1 <= layer < self.params.levels:
            return range(0)
        lo = self._level_top + (layer - 1) * self.gadgets_per_layer + 1
        return range(lo, lo + self.gadgets_per_layer)

    def gadget_layer(self, label: int) -> int:
        if not self.is_gadget(label):
            raise ParameterError(f"label {label} is not a gadget")
        return (label - self._level_top - 1) // self.gadgets_per_layer + 1

    @property
    def tail_tip(self) -> int:
        return self.tail_labels[-1]

    # -- edge roles ------------------------------------------------------------

    def green_layer(self, a: int, b: int) -> int | None:
        """The layer of green edge {a, b}: the lower level when a and b are
        level nodes on adjacent levels, else None."""
        la, lb = self.level_of(a), self.level_of(b)
        if la is None or lb is None or abs(la - lb) != 1:
            return None
        return min(la, lb)

    def green_edges(self, g: LabeledGraph, layer: int) -> list[tuple[int, int]]:
        """Green edges of one layer, sorted by (level-i label, level-i+1 label)."""
        return list(self._green_walk(g, layer))

    def _green_walk(self, g: LabeledGraph, layer: int):
        """Yield :meth:`green_edges` one level-i row at a time."""
        up = self.level_labels(layer + 1)
        lo, hi = up.start, up.stop  # a chained comparison beats range's `in`
        for v in self.level_labels(layer):
            for u in sorted([u for u in g.neighbors(v) if lo <= u < hi]):
                yield (v, u)

    def gadget_level_pair(self, g: LabeledGraph, gadget: int) -> tuple[int, int] | None:
        """The (level-i node, level-i+1 node) neighbors of a gadget, or None
        when the gadget does not have the expected degree-3 shape."""
        if not self.is_gadget(gadget) or gadget not in g:
            return None
        return self._row_level_pair(gadget, g.neighbors(gadget))

    def _row_level_pair(self, gadget: int, row: list[int]) -> tuple[int, int] | None:
        if len(row) != 3:
            return None
        w = self.width
        mid = w * self.gadget_layer(gadget)  # the last label of level i, for a gadget of layer i
        lo = hi = None
        for u in row:
            if mid - w < u <= mid:
                lo = u
            elif mid < u <= mid + w:
                hi = u
            elif u != self.critical_label:
                return None
        if lo is None or hi is None:
            return None
        return (lo, hi)


def layer_traversal_stats(trace: Trace, meta: FamilyMeta) -> dict[int, tuple[int, int]]:
    """Per-layer (descending, ascending) green-edge traversal counts, taken
    up to the first gadget visit (whole trace when no gadget was visited)."""
    cutoff = trace.first_gadget_step
    if cutoff is None:
        cutoff = trace.steps
    counts = {i: [0, 0] for i in range(1, meta.params.levels)}
    memory = trace.memory
    for i in range(1, cutoff + 1):
        a, b = memory[i - 1][0], memory[i][0]
        layer = meta.green_layer(a, b)
        if layer is not None:  # a level's labels all lie below the next level's
            counts[layer][0 if a < b else 1] += 1
    return {i: (d, u) for i, (d, u) in counts.items()}


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
        lower, upper = meta.level_labels(layer), meta.level_labels(layer + 1)
        edges = sorted((lower[i], upper[j]) for i, j in circulant_pairs(p.width, p.layer_degree))
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


# -- membership validation ---------------------------------------------------


def validate_family_membership(
    g: LabeledGraph, params: FamilyParams, *, ledger: _FamilyLedger | None = None
) -> ValidationReport:
    """Enumerate every violated family property of ``g``; empty report means
    the graph is a member for the given parameters.

    After the labeling and label-range checks, the full check is one pass of
    :meth:`_FamilyLedger._add_row` over every row.  It names each misshapen
    row and each sum off its target, which is all the ledger checks too.

    Once the labeling is consistent and every row and sum is on target, two
    more family properties follow, so neither check tests them:

    - *No green edge's ends share a gadget.*  A well-shaped gadget of layer
      i lists exactly one level pair; were that pair also a green edge of
      the lower row, the contraction would hold the edge twice.
    - *Connectivity.*  Level-1 nodes are the source's neighbours.  Every
      level-(i+1) node has ``layer_degree >= 1`` contracted edges down to
      level i, each a green edge or a gadget joined to both of its level
      nodes.  Every gadget touches a level node and the critical node; the
      critical node lists the first tail node; and the tail chain has every
      link.

    A gadget row with a level pair but no critical node needs no term of
    its own either: the critical row then still lists the gadget
    (``asymmetric-edge``) or lacks its shape (``critical-shape``).

    With a ``ledger`` for the same parameters (the adversary keeps one
    across its rewrites), a graph the ledger admits gets the empty report
    without the full pass; any other graph gets the full pass, and becomes
    the ledger's base if it passes.
    """
    if ledger is not None and ledger.admits(g):
        return ValidationReport()
    terms = ledger if ledger is not None else _FamilyLedger(params)
    report = validate_consistent_labeling(g)

    # the labels are read off the graph and compared with the range, which is
    # never built: the check costs the size of the graph it is given
    span = range(params.order)
    extra = sorted(v for v in g.labels() if v not in span)
    if extra or len(g) != params.order:
        missing = list(islice((v for v in span if v not in g), 8))
        report.add("label-range", f"missing={missing} extra={extra[:8]}")
        return report  # remaining checks assume the exact label set

    sums: Counter = Counter()
    for v, row in g._ports.items():
        for code, detail in terms._add_row(v, row, 1, sums):
            report.add(code, detail)
    terms._report_sums(sums, report)
    if ledger is not None and report.ok:
        ledger.rows, ledger.diff, ledger.sums = g._ports, g._diff, sums
    return report


class _FamilyLedger:
    """The family structure of the last graph that passed a membership
    check, as sums of per-row terms, so that the next check costs
    O(changed rows x degree) instead of O(|E|).

    :meth:`_add_row` defines what each row contributes; ``sums`` holds,
    keyed by tagged tuples:

    - ``("up", v)`` and ``("down", v)``: the contracted edges (green edges,
      listed by their lower end, and gadget level pairs) from v to the next
      and to the previous level, ``layer_degree`` each in a member;
    - ``("edge", lo, hi)``: how often the contraction holds that edge, at
      most once in a member;
    - ``("green", i)`` and ``("red", i)``: layer i's green edges and the
      gadgets of layer i that its level rows list, ``greens_per_layer`` and
      ``reds_per_layer`` in a member;
    - ``("degree",)``: the total degree, twice the edge count.

    The rows of the source, the critical node, the tail and each gadget
    must also have the shape their role asks for.

    :meth:`admits` takes the dirty rows from the graph's own record of the
    rows :meth:`LabeledGraph.replace_ports` replaced since the last member,
    whose record the ledger keeps as ``diff``; a graph that does not
    descend from that member gets no incremental check.  It re-checks the
    labeling at each dirty row, old and new, swaps its old terms for its new
    ones, and requires each changed sum on target and each dirty row in
    shape.  Any doubt answers False and leaves the ledger as it was; the
    caller then runs the full check, whose report is the only one given.

    The properties these checks leave out follow from them; see
    :func:`validate_family_membership`.
    """

    def __init__(self, params: FamilyParams):
        self.meta = FamilyMeta(params)
        self.rows: dict[int, list[int]] | None = None
        self.diff: list | None = None
        self.sums: Counter = Counter()
        ld = params.layer_degree
        self._want = dict(up=ld, down=ld, green=params.greens_per_layer, red=params.reds_per_layer)

    def admits(self, g: LabeledGraph) -> bool:
        """Whether ``g`` is a member, found from the rows replaced since the
        base; on True, ``g`` becomes the base."""
        old, new = self.rows, g._ports
        # replace_ports never drops a label, so an equal count is the same labels
        if old is None or len(new) != len(old):
            return False
        dirty = g._replaced_since(self.diff)
        if dirty is None:
            return False
        for v in dirty:
            row = new[v]
            listed = set(row)
            if len(listed) != len(row) or v in listed:
                return False  # parallel edge or self-loop
            if not all(g.has_edge(u, v) for u in row):
                return False  # unknown neighbour or one-way edge
            if any(u not in listed and g.has_edge(u, v) for u in old[v]):
                return False  # a dropped neighbour still lists v
        delta: Counter = Counter()
        for v in dirty:
            self._add_row(v, old[v], -1, delta)
            if self._add_row(v, new[v], 1, delta):
                return False
        sums = self.sums
        if not all(self._on_target(key, sums[key] + d) for key, d in delta.items() if d):
            return False
        for key, d in delta.items():
            sums[key] += d
        self.rows, self.diff = new, g._diff
        return True

    def _on_target(self, key: tuple, total: int) -> bool:
        kind = key[0]
        if kind == "edge":
            return total <= 1
        if kind == "degree":
            return total // 2 == self.meta.params.edge_total
        return total == self._want[kind]

    def _add_row(self, v: int, row: list[int], sign: int, sums: Counter) -> list:
        """Add ``sign`` times row ``v``'s terms to ``sums``; returns the
        ``(code, detail)`` pairs naming how a source, critical, tail or
        gadget row lacks its shape."""
        meta = self.meta
        sums["degree",] += sign * len(row)
        j = meta.level_of(v)
        if j is not None:
            up = meta.level_labels(j + 1)
            below, above = meta._layer_gadgets(j - 1), meta._layer_gadgets(j)
            greens = reds_below = reds_above = 0
            for u in row:
                if u in up:
                    greens += 1
                    sums["edge", v, u] += sign
                    sums["down", u] += sign
                elif u in above:
                    reds_above += 1
                elif u in below:
                    reds_below += 1
            sums["up", v] += sign * greens
            sums["green", j] += sign * greens
            sums["red", j] += sign * reds_above
            sums["red", j - 1] += sign * reds_below
            return []
        if meta.is_gadget(v):
            pair = meta._row_level_pair(v, row)
            if pair is None:
                return [("gadget-shape", f"gadget {v} lacks the degree-3 shape")]
            for key in (("edge", *pair), ("up", pair[0]), ("down", pair[1])):
                sums[key] += sign
            return []
        if v == meta.source_label:
            if sorted(row) == list(meta.level_labels(1)):
                return []
            return [("source-edges", "source is not adjacent to exactly level 1")]
        if v == meta.critical_label:
            t1 = meta.tail_labels[0]
            if (
                len(row) == meta.params.gadget_count + 1
                and len(set(row)) == len(row)
                and all(u == t1 or meta.is_gadget(u) for u in row)
            ):
                return []
            out = [("critical-shape", "critical node adjacency is not gadgets + tail")]
            links = [t1]
        else:  # a tail node: the tip lists one neighbour, any other the next too
            want = 1 if v == meta.tail_tip else 2
            out = []
            if len(row) != want:
                out.append(("tail", f"tail node {v} has degree {len(row)} != {want}"))
            links = [v + 1] if want == 2 else []
        return out + [("tail", f"missing tail edge ({v},{u})") for u in links if u not in row]

    def _report_sums(self, sums: Counter, report: ValidationReport) -> None:
        """Add to ``report`` each sum of a full pass that is off target."""
        meta, p, on = self.meta, self.meta.params, self._on_target
        if not on(("degree",), sums["degree",]):
            report.add("edge-count", f"expected {p.edge_total}, got {sums['degree',] // 2}")
        doubled = [key[1:] for key, n in sums.items() if key[0] == "edge" and not on(key, n)]
        for i in range(1, p.levels):
            for kind in ("green", "red"):
                if not on((kind, i), sums[kind, i]):
                    want = self._want[kind]
                    report.add(f"{kind}-count", f"layer {i}: expected {want}, got {sums[kind, i]}")
            if any(meta.level_of(lo) == i for lo, _ in doubled):
                report.add("layer-contraction", f"layer {i}: duplicate contracted edge")
            bad = [v for v in meta.level_labels(i) if not on(("up", v), sums["up", v])]
            bad += [v for v in meta.level_labels(i + 1) if not on(("down", v), sums["down", v])]
            if bad:
                report.add(
                    "layer-contraction",
                    f"layer {i}: nodes {bad[:8]} off {p.layer_degree}-regularity",
                )


# -- lollipop graphs ------------------------------------------------------------


@dataclass(frozen=True)
class LollipopParams:
    """A clique on (8*alpha+6)*ecc*scale - (ecc-1) nodes joined by a bridge to
    a path whose free endpoint is the source; the order is at most
    ``sys.maxsize``, the most a graph can hold."""

    scale: int
    ecc: int
    alpha: Fraction

    def __post_init__(self):
        if self.scale < 1:
            raise ParameterError(f"scale must be >= 1, got {self.scale}")
        if self.ecc < 2:
            raise ParameterError(f"ecc must be >= 2, got {self.ecc}")
        object.__setattr__(self, "alpha", slack(self.alpha, self.ecc))
        if Fraction(self.order_exact).denominator != 1:
            raise ParameterError(
                f"(8*alpha+6)*ecc*scale = {self.order_exact} is not an integer"
            )
        if self.order > sys.maxsize:
            raise ParameterError("lollipop order exceeds sys.maxsize")

    @property
    def order_exact(self) -> Fraction:
        return (8 * self.alpha + 6) * self.ecc * self.scale

    @property
    def order(self) -> int:
        return int(self.order_exact)

    @property
    def clique_size(self) -> int:
        return self.order - (self.ecc - 1)


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
