"""Span tracing of explorelab from outside the package.

:class:`Tracer` swaps the package's public functions and methods for thin
wrappers that record one span per call: the span's name, its start and end
(``time.perf_counter``), the span open at the call (its parent) and the
iteration it belongs to (its run id).  It wraps every binding of a function,
so the copies that importing modules hold (``explorelab.adversary.
validate_family_membership``, ``explorelab.experiments.make_policy``, ...) are
traced as well as the defining module's, and it wraps ``observe`` and
``next_action`` of every policy-state class.  :meth:`Tracer.uninstall` puts
every original back, so untraced runs execute the package unchanged.

A span is named ``<layer>.<qualified name>``, where the layer is the module
that defines the function.  Spans are kept in flat arrays (28 bytes each) and
written out by :meth:`Tracer.dump` when the benchmark ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass, field

LAYERS = ("graph", "family", "surgery", "runtime", "explorers", "adversary", "merge", "experiments")

# O(1) accessors whose cost is close to that of a span: a wrapper would mostly
# measure itself, so their time stays in the caller's self time.
LEAVES = frozenset(
    {
        "graph.edge_key",
        "graph.LabeledGraph.labels",
        "graph.LabeledGraph.degree",
        "graph.LabeledGraph.neighbors",
        "graph.LabeledGraph.neighbor",
        "graph.LabeledGraph.port_of",
        "graph.LabeledGraph.has_edge",
        "graph.LabeledGraph.edges",
        "graph.LabeledGraph.edge_ports",
        "family.FamilyMeta.level_of",
        "family.FamilyMeta.level_labels",
        "family.FamilyMeta.is_gadget",
        "family.FamilyMeta.gadget_labels",
        "family.FamilyMeta.gadget_layer",
        "family.FamilyMeta.tail_tip",
        "family.FamilyMeta.edge_kind",
        "family.FamilyMeta.gadget_level_pair",
        "runtime.Trace.edge_at",
        "runtime.ExploredDistances.get",
        "runtime.ExploredDistances.add_edge",
        "explorers.ExploredView.observe",
        "explorers.ExploredView.has_unexplored",
        "adversary.ReplayCursor.pending_port",
        "adversary.ReplayCursor.pending_edge",
        "adversary.ReplayCursor.pending_node",
        "merge.MergePlan.map_label",
        "merge.MergePlan.map_edge",
    }
)

POLICY_PROTOCOL = ("observe", "next_action")
ROOT = "bench.iteration"

_MISSING = object()


def span_name(fn) -> str:
    fn = inspect.unwrap(fn)
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.run_id = 0

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, runs, starts, ends = self.name, self.parent, self.run, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span of its own; returns
        ``(result, first span index, end span index)``."""
        lo = len(self.start)
        result = self.wrap(name, fn)(*args)
        return result, lo, len(self.start)

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self, modules, policy_state_classes) -> None:
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    if not inspect.unwrap(obj).__module__.startswith("explorelab."):
                        continue
                    name = span_name(obj)
                    if name not in LEAVES:
                        self._patch(mod, attr, self.wrap(name, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj)
        for cls in policy_state_classes:
            for attr in POLICY_PROTOCOL:
                name = f"explorers.{cls.__name__}.{attr}"
                self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))

    def _install_class(self, cls) -> None:
        for attr, desc in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(desc):
                name = span_name(desc)
                if name not in LEAVES:
                    self._patch(cls, attr, self.wrap(name, desc))
            elif isinstance(desc, classmethod):
                name = span_name(desc.__func__)
                if name not in LEAVES:
                    self._patch(cls, attr, classmethod(self.wrap(name, desc.__func__)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span: one JSON header line, then the five arrays as
        raw native-order bytes, gzip-compressed."""
        header = {
            "names": self.names,
            "fields": ["name", "parent", "run", "start", "end"],
            "typecodes": "iiidd",
            "count": len(self.start),
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.run, self.start, self.end):
                arr.tofile(fh)


def load_spans(path) -> tuple[list[str], dict[str, array]]:
    """Read a file written by :meth:`Tracer.dump`."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for fname, code in zip(header["fields"], header["typecodes"]):
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["count"]))
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            cols[fname] = arr
    return header["names"], cols


# -- aggregation ---------------------------------------------------------------

# Disjoint components of an iteration: every span inside one of these subtrees
# counts toward it, every other span toward its own layer.
COMPONENTS = {
    "family.validate_family_membership": "family.validate",
    "explorers.ExploredView.plan_to": "explorers.plan_to",
    "explorers.ExploredView.smallest_unexplored_port": "explorers.port_scans",
    "explorers._DfsRun.next_action": "explorers.port_scans",
}


@dataclass
class Profile:
    """Per-name totals of the spans of one iteration."""

    calls: dict[str, int] = field(default_factory=dict)
    total: dict[str, float] = field(default_factory=dict)
    self_time: dict[str, float] = field(default_factory=dict)
    layer_self: dict[str, float] = field(default_factory=dict)
    components: dict[str, float] = field(default_factory=dict)
    spans: int = 0
    wall: float = 0.0

    def calls_of(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def total_of(self, *names: str) -> float:
        return sum(self.total.get(n, 0.0) for n in names)

    def matching(self, prefix: str, suffix: str) -> list[str]:
        return [n for n in self.calls if n.startswith(prefix) and n.endswith(suffix)]


def profile(tracer: Tracer, lo: int, hi: int) -> Profile:
    """Aggregate spans ``lo..hi-1``, which must form whole trees (one
    iteration).  A span's self time is its duration minus its children's."""
    names = tracer.names
    name_a, parent_a, start_a, end_a = tracer.name, tracer.parent, tracer.start, tracer.end
    n = hi - lo
    child = [0.0] * n
    comp: list[str | None] = [None] * n
    prof = Profile(spans=n)
    calls, total, self_time = prof.calls, prof.total, prof.self_time
    durs = [end_a[i] - start_a[i] for i in range(lo, hi)]
    for j in range(n):
        p = parent_a[lo + j] - lo
        if p >= 0:
            child[p] += durs[j]
    for j in range(n):
        name = names[name_a[lo + j]]
        p = parent_a[lo + j] - lo
        c = comp[p] if p >= 0 else None
        if c is None:
            c = COMPONENTS.get(name)
        comp[j] = c
        d = durs[j]
        s = d - child[j]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + d
        self_time[name] = self_time.get(name, 0.0) + s
        layer = layer_of(name)
        prof.layer_self[layer] = prof.layer_self.get(layer, 0.0) + s
        key = c if c is not None else layer
        prof.components[key] = prof.components.get(key, 0.0) + s
        if p < 0:
            prof.wall += d
    return prof
