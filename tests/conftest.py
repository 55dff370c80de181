import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from explorelab import FamilyParams, build_family_graph
from explorelab.family import LollipopParams, build_lollipop
from explorelab.graph import LabeledGraph
from explorelab.runtime import ExploredDistances


class ScriptPolicy:
    """Plays a fixed port sequence, then halts.  Test helper."""

    def __init__(self, ports):
        self.ports = list(ports)

    def start(self):
        return _ScriptRun(self.ports)


class _ScriptRun:
    def __init__(self, ports):
        self.ports = ports
        self.idx = 0

    def observe(self, rec):
        if rec.out_port != -1:
            self.idx += 1

    def next_action(self):
        return self.ports[self.idx] if self.idx < len(self.ports) else None


def explored_return_distances(trace, source):
    """Per traversal i of ``trace``: i, the edges traversed through i, and
    the known return distance of the node reached, from an
    :class:`ExploredDistances` fed each new edge as the run makes it."""
    dists = ExploredDistances(source)
    seen = set()
    for i in range(1, trace.steps + 1):
        edge = trace.edge_at(i)
        rec = trace.memory[i]
        if edge not in seen:
            seen.add(edge)
            dists.add_edge(trace.memory[i - 1].label, rec.out_port, rec.label, rec.in_port)
        yield i, seen, dists.dist.get(rec.label)


def port_script(graph, labels):
    """Convert a label walk into the port sequence that realizes it."""
    return ScriptPolicy(
        [graph.port_of(a, b) for a, b in zip(labels, labels[1:])]
    )


@pytest.fixture
def path3():
    return LabeledGraph({0: [1], 1: [0, 2], 2: [1]})


@pytest.fixture
def single_edge():
    return LabeledGraph({0: [1], 1: [0]})


@pytest.fixture
def triangle():
    return LabeledGraph({0: [1, 2], 1: [0, 2], 2: [0, 1]})


def small_graph_corpus():
    """Every graph of at most 200 nodes exercised by the test suite, used by
    the oracle-equivalence checks."""
    corpus = [
        ("single-edge", LabeledGraph({0: [1], 1: [0]}), 0),
        ("path3", LabeledGraph({0: [1], 1: [0, 2], 2: [1]}), 1),
        ("triangle", LabeledGraph({0: [1, 2], 1: [0, 2], 2: [0, 1]}), 0),
    ]
    g, _ = build_family_graph(FamilyParams(2, 4, 6))
    corpus.append(("family-2-4-6", g, 0))
    g, _ = build_family_graph(FamilyParams(4, 8, 7))
    corpus.append(("family-4-8-7", g, 0))
    g, _ = build_family_graph(FamilyParams(4, 8, 7), seed=5)
    corpus.append(("family-4-8-7-s5", g, 0))
    g, _ = build_lollipop(LollipopParams(scale=1, ecc=2, alpha=Fraction(1)))
    corpus.append(("lollipop-1-2-1", g, 0))
    g, _ = build_lollipop(LollipopParams(scale=1, ecc=4, alpha=Fraction(1, 2)))
    corpus.append(("lollipop-1-4-half", g, 0))
    return corpus


def engine_cases():
    """Name -> (graph, source, alpha, gadget labels) of the runs on which the
    stepping engine and the policies' fast paths are checked against their
    plain counterparts."""
    cases = {}
    for seed in (0, 3):
        g, meta = build_family_graph(FamilyParams(10, 16, 6), seed=seed)
        cases[f"family-10-16-6-s{seed}"] = (g, 0, Fraction(1, 2), set(meta.gadget_labels))
    g, source = build_lollipop(LollipopParams(1, 2, 1))
    cases["lollipop-1-2-1"] = (g, source, Fraction(1), None)
    return cases


@pytest.fixture(scope="session")
def graph_corpus():
    return small_graph_corpus()
