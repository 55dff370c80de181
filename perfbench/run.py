#!/usr/bin/env python3
"""The explorelab benchmark.

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload adversary-k2 --seed 1 --seconds 20 --trace 0

One process per workload run, one thread, closed loop: each iteration starts
when the previous one ends, until ``--seconds`` have passed (and at least
``MIN_ITERATIONS`` ran).  Every iteration is verified: its output digests must
agree with the run's first iteration and, for seed 0, with the digests in
``expected.json``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (see README.md).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(checks) and ``metrics``.  ``--record`` rewrites the seed-0 entry of
``expected.json`` for the named workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

MIN_ITERATIONS = 5
MIN_TRACED_ITERATIONS = 2
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120
REFERENCE_STEPS = 120_000
REFERENCE_ROW = list(range(2000))
RECORDED_SEED = 0
SURGERY_OPS = ("switch_ports", "switch_edges", "move_gadget")
# what an untraced run reports in its result object (BENCHMARK.json end_to_end)
E2E_METRICS = ("solve_ref", "traversals_per_ref", "peak_rss_mb", "setup_s")
# Counts of the traced run that must equal their seed-0 record; later changes
# may cite them as counts.
NAMED_COUNTS = (
    "adversary.steps",
    "adversary.changed_steps",
    "family.validate_calls",
    "surgery.calls",
    "surgery.switch_ports.calls",
    "surgery.switch_ports.changed",
    "surgery.switch_edges.calls",
    "surgery.switch_edges.changed",
    "surgery.move_gadget.calls",
    "surgery.move_gadget.changed",
    "explorers.plan_to_calls",
    "runtime.traversals",
)


class BenchError(Exception):
    """The benchmark cannot run: no result is printed."""


def load_package():
    """Import explorelab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import explorelab
    except ImportError as exc:
        raise BenchError(f"cannot import explorelab from {SRC}: {exc}") from exc
    if Path(explorelab.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"explorelab was imported from {explorelab.__file__}, not {SRC}")
    global workloads
    import workloads


# -- checks ------------------------------------------------------------------------


class Verifier:
    """Counts checks: the workload's own, digests against the run's first
    iteration, and (seed 0) digests and named counts against the record."""

    def __init__(self, workload: str, seed: int, record: bool = False):
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[str, str] | None = None
        self.first_counts: dict[str, float] | None = None
        self.expected = None
        if seed == RECORDED_SEED and not record:
            recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
            self.expected = recorded.get(workload)
            self.check(self.expected is not None, f"no seed-{RECORDED_SEED} record for {workload}")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def outcome(self, out) -> None:
        self.attempted += out.checks
        self.failures.extend(out.failures)
        if self.first is None:
            self.first = out.digests
        for key in sorted(set(self.first) | set(out.digests)):
            self.check(out.digests.get(key) == self.first.get(key), f"digest {key} changed between iterations")
        if self.expected:
            want = self.expected["digests"]
            for key in sorted(set(want) | set(out.digests)):
                self.check(out.digests.get(key) == want.get(key), f"digest {key} differs from the seed-0 record")

    def counts(self, counts: dict[str, float]) -> None:
        if self.first_counts is None:
            self.first_counts = counts
        for key, value in counts.items():
            self.check(value == self.first_counts[key], f"count {key} changed between traced iterations")
        if self.expected:
            for key, value in self.expected["counts"].items():
                self.check(counts.get(key) == value, f"count {key} = {counts.get(key)}, recorded {value}")

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / self.attempted


# -- set-up --------------------------------------------------------------------------


def setup_child(name: str, seed: int) -> None:
    """Set-up alone, in a fresh interpreter: prints when it is ready."""
    w = workloads.WORKLOADS[name]
    inputs = w.setup(seed)
    ready = time.monotonic()
    print("READY", repr(ready), w.input_digest(inputs))


def measure_setup(name: str, seed: int) -> tuple[list[float], list[str]]:
    """Wall time from spawning a fresh interpreter to its inputs being ready
    (interpreter start, import, input generation), repeated."""
    times, digests = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 3 or lines[0] != "READY":
            raise BenchError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-400:]}")
        times.append(float(lines[1]) - t0)
        digests.append(lines[2])
    return times, digests


# -- statistics and output -------------------------------------------------------------


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_per_ref"):
        return "1/ref"
    if name.endswith("_ref"):
        return "ref"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio") or name.startswith("share."):
        return "ratio"
    return "count"


def report(workload: str, seed: int, samples: dict[str, list[float]], verifier: Verifier, keep=None) -> dict:
    """Print one line per metric (median, quartiles, sample count), then
    the result object with the metrics named in ``keep`` (all by default);
    returns it."""
    print(f"# {workload} seed={seed}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'n':>4}  unit")
    metrics = {}
    for name, values in samples.items():
        unit = unit_of(name)
        med, q1, q3 = summary(values)
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {min(values):14.6g} {len(values):4d}  {unit}")
        if keep is None or name in keep:
            metrics[name] = {"value": med, "unit": unit}
    print(f"{'fail_ratio':34} {verifier.fail_ratio:14.6g} {'':44} {verifier.attempted:4d}  ratio")
    for failure in verifier.failures[:20]:
        print(f"FAILED: {failure}")
    result = {
        "correct": not verifier.failures,
        "attempted": verifier.attempted,
        "failed": len(verifier.failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return result


# -- untraced run: end-to-end metrics ----------------------------------------------------


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: dict, list and tuple work
    and a ``list.count`` scan, the package's own mix.  It shares no code with
    the package, and the cyclic collector is off while it runs, so the size
    of the package's heap cannot move it: only the machine's momentary speed
    does."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        d: dict[int, int] = {}
        row: list[tuple[int, int]] = []
        acc = 0
        for i in range(REFERENCE_STEPS):
            k = i % 997
            d[k] = d.get(k, 0) + i
            row.append((k, i))
            if len(row) > 64:
                row.clear()
            acc += len(row) ^ k
            if i % 64 == 0:
                acc += REFERENCE_ROW.count(k)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    w = workloads.WORKLOADS[name]
    verifier = Verifier(name, seed)
    setup_times, child_digests = measure_setup(name, seed)
    inputs = w.setup(seed)
    digest = w.input_digest(inputs)
    for d in child_digests:
        verifier.check(d == digest, "set-up produced different inputs in a fresh process")

    # Other tenants of the host only ever slow a run down, by up to half for
    # tens of seconds at a time, so the fastest iteration is the best estimate
    # of the work's cost.  Dividing it by the fastest run of the reference
    # loop, interleaved with the iterations, also removes slowdowns that last
    # the whole run: solve_ref is the iteration's cost in reference loops.
    solve, rate = [], []
    reference = [reference_loop()]
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = w.iterate(inputs)
        dt = time.perf_counter() - t0
        reference.append(reference_loop())
        verifier.outcome(out)
        solve.append(dt)
        rate.append(out.counts["traversals"] / dt)
        elapsed = time.perf_counter() - began
        if len(solve) >= MIN_ITERATIONS and elapsed + statistics.median(solve) > seconds:
            break
    solve_ref = min(solve) / min(reference)
    samples = {
        "solve_ref": [solve_ref],
        "traversals_per_ref": [out.counts["traversals"] / solve_ref],
        "solve_s": solve,
        "traversals_per_s": rate,
        "reference_s": reference,
        "setup_s": setup_times,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
    }
    return report(name, seed, samples, verifier, E2E_METRICS)


# -- traced run: per-layer metrics -------------------------------------------------------


def layer_metrics(prof, setup_prof, out) -> dict[str, float]:
    t, c, counts = prof.total_of, prof.calls_of, out.counts
    m: dict[str, float] = {}

    def timed(key: str, *names: str) -> None:
        m[f"{key}_s"] = t(*names)
        m[f"{key}_calls"] = c(*names)

    timed("graph.labeling_check", "graph.validate_consistent_labeling")
    m["graph.json_s"] = t("graph.LabeledGraph.to_json", "graph.LabeledGraph.from_json")
    m["graph.json_bytes"] = counts.get("json_bytes", 0)
    builds = ("family.build_family_graph", "family.build_lollipop")
    m["family.build_s"] = t(*builds) + setup_prof.total_of(*builds)
    timed("family.validate", "family.validate_family_membership")

    m["surgery.s"] = t(*(f"surgery.{op}" for op in SURGERY_OPS))
    m["surgery.calls"] = c(*(f"surgery.{op}" for op in SURGERY_OPS))
    changed = 0
    for op in SURGERY_OPS:
        m[f"surgery.{op}.calls"] = counts.get(f"surgery.{op}.calls", 0)
        m[f"surgery.{op}.changed"] = counts.get(f"surgery.{op}.changed", 0)
        changed += m[f"surgery.{op}.changed"]
    m["surgery.changed_ratio"] = changed / m["surgery.calls"] if m["surgery.calls"] else 0.0

    steps = counts.get("adversary.steps", 0)
    m["adversary.s"] = t("adversary.adversary_behavior")
    m["adversary.steps"] = steps
    m["adversary.changed_steps"] = counts.get("adversary.changed_steps", 0)
    m["adversary.commit_s"] = t("adversary.ReplayCursor.commit")
    m["adversary.commits"] = c("adversary.ReplayCursor.commit")
    m["adversary.replay_commit_ratio"] = (m["adversary.commits"] - steps) / steps if steps else 0.0

    timed("explorers.plan_to", "explorers.ExploredView.plan_to")
    timed("explorers.unexplored_port", "explorers.ExploredView.smallest_unexplored_port")
    for verb in tracing.POLICY_PROTOCOL:
        timed(f"explorers.{verb}", *prof.matching("explorers._", f".{verb}"))

    timed("runtime.execute", "runtime.execute")
    m["runtime.traversals"] = counts.get("runtime.traversals", 0)

    m["merge.s"] = t("merge.merge_gadgets")
    m["merge.contract_s"] = t("merge.contract_layer_to_bipartite")
    m["merge.color_s"] = t("graph.color_regular_bipartite_edges")
    m["merge.behavior_s"] = t("merge.validate_merge_behavior")
    m["experiments.s"] = t("experiments.run_distance_experiment", "experiments.run_fuel_experiment")

    for layer in tracing.LAYERS + ("bench",):
        m[f"{layer}.self_s"] = prof.layer_self.get(layer, 0.0)
    comp = prof.components
    m["share.family_validate"] = comp.get("family.validate", 0.0) / prof.wall
    m["share.plan_to"] = comp.get("explorers.plan_to", 0.0) / prof.wall
    m["share.port_scans"] = comp.get("explorers.port_scans", 0.0) / prof.wall
    m["share.runtime_self"] = comp.get("runtime", 0.0) / prof.wall
    m["trace.spans"] = prof.spans
    return m


def print_components(name: str, prof) -> None:
    """The iteration's self time split into disjoint components, largest
    first, and whether the workload's stated hot spot is the largest."""
    print(f"# {name}: self-time shares of one traced iteration ({prof.wall:.3f} s)")
    comp = prof.components
    for key, value in sorted(comp.items(), key=lambda kv: -kv[1]):
        print(f"#   {key:28} {value / prof.wall:7.1%}")
    hot = workloads.WORKLOADS[name].hot_spot
    share = sum(comp.get(k, 0.0) for k in hot)
    largest = all(share > v for k, v in comp.items() if k not in hot)
    print(f"# {' + '.join(hot)} = {share / prof.wall:.1%}, the largest share: {'yes' if largest else 'no'}")


def run_traced(name: str, seed: int, seconds: float, record: bool = False) -> dict:
    w = workloads.WORKLOADS[name]
    verifier = Verifier(name, seed, record)
    tracer = tracing.Tracer()
    modules, states = workloads.PACKAGE_MODULES, workloads.policy_state_classes()

    tracer.install(modules, states)
    inputs, lo, hi = tracer.span("bench.setup", w.setup, seed)
    setup_prof = tracing.profile(tracer, lo, hi)
    tracer.uninstall()

    began = time.perf_counter()
    out = w.iterate(inputs)
    untraced = time.perf_counter() - began
    verifier.outcome(out)

    samples: dict[str, list[float]] = {}
    traced: list[float] = []
    tracer.install(modules, states)
    try:
        while True:
            tracer.run_id += 1
            out, lo, hi = tracer.span(tracing.ROOT, w.iterate, inputs)
            prof = tracing.profile(tracer, lo, hi)
            verifier.outcome(out)
            traced.append(prof.wall)
            m = layer_metrics(prof, setup_prof, out)
            verifier.check(
                m["surgery.calls"] == sum(m[f"surgery.{op}.calls"] for op in SURGERY_OPS),
                "traced surgery calls disagree with the adversary's audit",
            )
            verifier.counts({k: v for k, v in m.items() if unit_of(k) in ("count", "bytes")})
            for key, value in m.items():
                samples.setdefault(key, []).append(value)
            elapsed = time.perf_counter() - began
            if len(traced) >= MIN_TRACED_ITERATIONS and elapsed + statistics.median(traced) > seconds:
                break
    finally:
        tracer.uninstall()
    samples["trace.solve_s"] = traced
    samples["trace.untraced_solve_s"] = [untraced]
    samples["trace.overhead_ratio"] = [x / untraced for x in traced]

    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{name}-seed{seed}.spans.gz")
    print_components(name, prof)
    if record:
        write_record(name, verifier, m)
    return report(name, seed, samples, verifier)


def write_record(name: str, verifier: Verifier, m: dict[str, float]) -> None:
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    recorded[name] = {
        "digests": verifier.first,
        "counts": {key: m[key] for key in NAMED_COUNTS},
    }
    EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"# recorded seed-{RECORDED_SEED} digests and counts of {name} in {EXPECTED.name}")


# -- every workload from one command -------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced, each in its own process."""
    rows = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise BenchError(f"{name} --trace {trace} exited with {proc.returncode}")
            rows.append((name, trace, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("# summary")
    ok = True
    for name, trace, res in rows:
        ok &= res["correct"]
        ratio = res["failed"] / res["attempted"]
        if trace == 0:
            shown = E2E_METRICS
        else:
            shown = ("trace.solve_s", "trace.untraced_solve_s", "trace.overhead_ratio")
        cells = "  ".join(f"{k}={res['metrics'][k]['value']:.6g} {res['metrics'][k]['unit']}" for k in shown)
        print(f"{name:16} trace={trace} fail_ratio={ratio:g} ({res['attempted']} checks)  {cells}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite the seed-0 record (traced run)")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        load_package()
        if args.workload is None:
            return run_all(args.seed, args.seconds)
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
        if args.setup_child:
            setup_child(args.workload, args.seed)
        elif args.record:
            if args.seed != RECORDED_SEED:
                raise BenchError(f"--record needs --seed {RECORDED_SEED}")
            run_traced(args.workload, args.seed, args.seconds, record=True)
        elif args.trace:
            run_traced(args.workload, args.seed, args.seconds)
        else:
            run_untraced(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
