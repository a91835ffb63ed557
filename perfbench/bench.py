"""One benchmark run: set-up, the measured closed loop, the gate, the metrics.

``--trace 0`` measures the end-to-end metrics on the unmodified program.
Latencies and throughput come from the whole timed pass; ``resident_mb``
and ``index_bloat`` from the quiescent state right after the first commit
past the sample floors, a point fixed by the seed, so a faster program
that fits more operations into the budget is not charged for the extra
growth.  ``--trace 1`` measures the per-layer metrics: an untraced pass over half
the time budget fixes the operation count, then a traced pass replays
exactly that many operations of the same sequence on a freshly set-up
service, so the two passes do identical work and their difference is the
tracing overhead.
"""

from __future__ import annotations

import gc
import os
import platform
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

from driver import LoopResult, run_loop
from specs import WORKLOADS, WorkloadSpec, build_service, make_inputs
from tracing import Tracer

from repro.adaptive.controller import AdaptiveController
from repro.adaptive.ladder import build_ladder_state, invalidation_sets
from repro.adaptive.result_cache import ResultCache
from repro.adaptive.router import SAFE, QueryRouter
from repro.adaptive.service import AdaptiveIndexService
from repro.core.sizing import deep_sizeof
from repro.graph.datagraph import DataGraph
from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.oneindex import OneIndex
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.query.automaton import path_cache_info
from repro.query.evaluator import evaluate_on_graph
from repro.query.index_evaluator import (
    evaluate_on_ak,
    evaluate_on_family,
    evaluate_on_index,
)
from repro.resilience.guard import GuardedMaintainer
from repro.resilience.invariants import InvariantGuard
from repro.resilience.wire import batch_to_wire
from repro.service.queue import coalesce
from repro.service.service import IndexService
from repro.service.snapshot import IndexSnapshot, touched_leaf_tokens
from repro.store.checkpoint import Checkpointer
from repro.store.epoch import read_epoch
from repro.store.service import DurableIndexService
from repro.store.wal import WriteAheadLog

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 7
#: sample floors of an end-to-end run (p99 keeps >= 10 samples beyond it)
MIN_QUERIES = 1000
MIN_UPDATES = 200
#: the traced commit path must account for at least this share of the
#: traced commit wall time; the rest is flush glue no wrapper covers
STAGE_SUM_TOLERANCE = 0.05

#: commit-path stages -> the span names whose self time they sum
COMMIT_STAGES = {
    "coalesce": ("queue.coalesce",),
    "transaction": ("guard.apply_batch",),
    "maintenance": (
        "maintenance.insert_edge",
        "maintenance.delete_edge",
        "maintenance.rebuild",
        "index.build",
        "adaptive.reconstruct",
    ),
    "guard_check": ("guard.check",),
    "wal": (
        "wal.append",
        "wal.sync",
        "store.read_epoch",
        "store.batch_to_wire",
        "store.checkpoint",
    ),
    "publish": (
        "snapshot.evolve",
        "snapshot.capture",
        "adaptive.ladder_build",
        "adaptive.touched_tokens",
        "adaptive.invalidation_sets",
        "adaptive.cache_on_commit",
    ),
    "gauges": ("core.approx_bytes",),
    "control": ("adaptive.controller",),
}
EVALUATORS = (
    "snapshot.evaluate",
    "query.evaluate_on_index",
    "query.evaluate_on_ak",
    "query.evaluate_on_family",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "update_visible_p50_ms": "ms",
    "update_visible_p95_ms": "ms",
    "commit_p50_ms": "ms",
    "queries_per_s": "1/s",
    "updates_per_s": "1/s",
    "resident_mb": "MB",
    "index_bloat": "ratio",
}


@dataclass
class Metric:
    value: float
    unit: str
    #: samples the value was computed from (None for counts and sizes)
    samples: Optional[int] = None


@dataclass
class RunResult:
    """Everything one run reports."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    oplogs: list = field(default_factory=list)


def floor_steps(spec: WorkloadSpec) -> int:
    """Operations after which a timed pass has issued both sample floors."""
    rounds = max(
        -(-MIN_QUERIES // spec.query_sessions),
        -(-MIN_UPDATES // spec.update_sessions),
    )
    return rounds * (spec.query_sessions + spec.update_sessions)


def percentile(values: list, q: float) -> float:
    """Linear-interpolated *q*-th percentile (0..100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# ----------------------------------------------------------------------
# Set-up, resident size, correctness gate
# ----------------------------------------------------------------------


def set_up(spec: WorkloadSpec, seed: int, scale: str, workdir: str, repeats: int):
    """Build the service *repeats* times from fresh inputs; keep the last.

    Returns ``(service, inputs, seconds)``.  Generating the inputs is
    not timed; each timed set-up covers the index build and the initial
    publish (plus checkpoint 0 on a durable service).
    """
    seconds = []
    service = inputs = None
    for _ in range(repeats):
        if service is not None:
            close(service)
            service = None  # let the next build start from the same heap
        inputs = make_inputs(spec, seed, scale)
        gc.collect()
        started = time.perf_counter()
        service = build_service(spec, inputs.graph, workdir)
        seconds.append(time.perf_counter() - started)
    return service, inputs, seconds


def close(service) -> None:
    """Release the service (closes a durable service's WAL, no checkpoint)."""
    if hasattr(service, "wal"):
        service.close(checkpoint=False)
    else:
        service.close()


def resident_bytes(service) -> dict:
    """Bytes of the live graph, the live index or family, and the snapshot."""
    live_index = service.guarded.index
    if live_index is None:
        live_index = service.guarded.family
    snapshot = service.snapshot
    seen: set = set()
    snapshot_bytes = 0
    for part in (snapshot.graph, snapshot.index):
        for slot in type(part).__slots__:
            value = getattr(part, slot)
            if isinstance(value, (dict, list, tuple, set, frozenset)):
                snapshot_bytes += deep_sizeof(value, seen)
    return {
        "graph": service.graph.approx_bytes(),
        "index": live_index.approx_bytes(),
        "snapshot": snapshot_bytes,
    }


def index_bloat(service, spec: WorkloadSpec) -> float:
    """Maintained inode count over a from-scratch build on the live graph."""
    if spec.family == "one":
        maintained = service.guarded.index.num_inodes
        fresh = OneIndex.build(service.graph).num_inodes
    else:
        maintained = sum(service.guarded.family.sizes())
        fresh = sum(AkIndexFamily.build(service.graph, spec.k).sizes())
    return maintained / fresh


def verify(service, spec: WorkloadSpec, inputs) -> list:
    """The quiescent-state gate; returns the problems found.

    * nothing is left queued and ``service.check()`` passes;
    * every distinct expression of the pool is answered by the served
      snapshot (through the router and cache on the adaptive service)
      with exactly the dnode set ``evaluate_on_graph`` gives on the live
      graph.
    """
    problems = []
    if service.queue_depth():
        problems.append(f"{service.queue_depth()} updates still queued")
    try:
        service.check()
    except Exception as exc:  # noqa: BLE001 - report every failed invariant
        problems.append(f"service.check(): {type(exc).__name__}: {exc}")
    for expression in sorted(set(inputs.queries)):
        served = service.query(expression).matches
        truth = evaluate_on_graph(service.graph, expression).matches
        if served != truth:
            problems.append(
                f"{expression!r}: served {len(served)} dnodes, "
                f"ground truth {len(truth)}"
            )
    return problems


# ----------------------------------------------------------------------
# Tracing: which entry points, and the counts taken at them
# ----------------------------------------------------------------------


@dataclass
class LayerCounts:
    """Counts recorded by the ``on_return`` hooks of one traced pass."""

    splits: int = 0
    merges: int = 0
    moves: int = 0
    evaluations: int = 0
    nodes_visited: int = 0
    edges_followed: int = 0
    candidates: int = 0
    matches: int = 0
    routes: dict = field(default_factory=dict)


def install_tracing(tracer: Tracer, spec: WorkloadSpec, counts: LayerCounts) -> None:
    """Wrap the public entry points of every layer the workload reaches."""

    def on_batch(_args, stats) -> None:
        counts.splits += stats.splits
        counts.merges += stats.merges
        counts.moves += stats.moves

    def on_evaluate(_args, report) -> None:
        # count each evaluation once, at its outermost evaluator
        if tracer.current() in EVALUATORS:
            return
        counts.evaluations += 1
        counts.nodes_visited += report.nodes_visited
        counts.edges_followed += report.edges_followed
        counts.matches += len(report.matches)
        counts.candidates += (
            report.candidates_before_validation if report.validated else len(report.matches)
        )

    def on_lookup(args, _entry) -> None:
        key = args[1]
        counts.routes[key] = counts.routes.get(key, 0) + 1

    service_type = {
        "durable": DurableIndexService,
        "plain": IndexService,
        "adaptive": AdaptiveIndexService,
    }[spec.service]
    tracer.wrap_method(service_type, "query", "service.query")
    tracer.wrap_method(service_type, "flush", "service.flush")
    tracer.wrap_function(coalesce, "queue.coalesce")
    tracer.wrap_method(GuardedMaintainer, "apply_batch", "guard.apply_batch", on_batch)
    tracer.wrap_method(InvariantGuard, "check", "guard.check")
    maintainer = SplitMergeMaintainer if spec.family == "one" else AkSplitMergeMaintainer
    tracer.wrap_method(maintainer, "insert_edge", "maintenance.insert_edge")
    tracer.wrap_method(maintainer, "delete_edge", "maintenance.delete_edge")
    tracer.wrap_method(maintainer, "rebuild_from_graph", "maintenance.rebuild")
    tracer.wrap_method(OneIndex, "build", "index.build")
    tracer.wrap_method(AkIndexFamily, "build", "index.build")
    for sized in (DataGraph, StructuralIndex, AkIndexFamily):
        tracer.wrap_method(sized, "approx_bytes", "core.approx_bytes")
    tracer.wrap_method(WriteAheadLog, "append", "wal.append")
    tracer.wrap_method(WriteAheadLog, "sync", "wal.sync")
    tracer.wrap_method(Checkpointer, "checkpoint", "store.checkpoint")
    tracer.wrap_function(read_epoch, "store.read_epoch")
    tracer.wrap_function(batch_to_wire, "store.batch_to_wire")
    tracer.wrap_method(IndexSnapshot, "evolve", "snapshot.evolve")
    tracer.wrap_method(IndexSnapshot, "capture", "snapshot.capture")
    tracer.wrap_method(IndexSnapshot, "evaluate", "snapshot.evaluate", on_evaluate)
    tracer.wrap_function(evaluate_on_index, "query.evaluate_on_index", on_evaluate)
    tracer.wrap_function(evaluate_on_ak, "query.evaluate_on_ak", on_evaluate)
    tracer.wrap_function(evaluate_on_family, "query.evaluate_on_family", on_evaluate)
    tracer.wrap_method(QueryRouter, "route", "adaptive.route")
    tracer.wrap_method(ResultCache, "lookup", "adaptive.cache_lookup", on_lookup)
    tracer.wrap_method(ResultCache, "store", "adaptive.cache_store")
    tracer.wrap_method(ResultCache, "on_commit", "adaptive.cache_on_commit")
    tracer.wrap_function(build_ladder_state, "adaptive.ladder_build")
    tracer.wrap_function(invalidation_sets, "adaptive.invalidation_sets")
    tracer.wrap_function(touched_leaf_tokens, "adaptive.touched_tokens")
    tracer.wrap_method(AdaptiveController, "on_commit", "adaptive.controller")
    tracer.wrap_method(AdaptiveIndexService, "reconstruct_now", "adaptive.reconstruct")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(loop: LoopResult, setup_seconds: list, resident: dict, bloat: float) -> dict:
    """The user-visible metrics of one untraced pass."""
    ms = 1000.0
    query_rate, update_rate = loop.rates()
    return {
        "setup_s": Metric(statistics.median(setup_seconds), "s", len(setup_seconds)),
        "query_p50_ms": Metric(percentile(loop.query_latencies, 50) * ms, "ms", loop.queries),
        "query_p99_ms": Metric(percentile(loop.query_latencies, 99) * ms, "ms", loop.queries),
        "update_visible_p50_ms": Metric(
            percentile(loop.visible_latencies, 50) * ms, "ms", len(loop.visible_latencies)
        ),
        "update_visible_p95_ms": Metric(
            percentile(loop.visible_latencies, 95) * ms, "ms", len(loop.visible_latencies)
        ),
        "commit_p50_ms": Metric(
            percentile(loop.commit_latencies, 50) * ms, "ms", len(loop.commit_latencies)
        ),
        "queries_per_s": Metric(query_rate, "1/s", len(loop.windows)),
        "updates_per_s": Metric(update_rate, "1/s", len(loop.windows)),
        "resident_mb": Metric(sum(resident.values()) / 1e6, "MB"),
        "index_bloat": Metric(bloat, "ratio"),
    }


def per_layer(
    tracer: Tracer,
    counts: LayerCounts,
    traced: LoopResult,
    untraced: LoopResult,
    service,
    resident: dict,
    compile_lookups: tuple,
    wal_before: tuple,
) -> tuple[dict, list]:
    """The per-layer metrics of one traced pass, plus stage-sum problems."""
    commits = max(1, len(traced.commit_latencies))
    queries = max(1, traced.queries)
    applied = max(1, traced.drained - traced.coalesced_away)
    commit_self = tracer.self_within("service.flush")
    query_self = tracer.self_within("service.query")
    flush_total = tracer.total("service.flush")

    def commit_s(*names: str) -> float:
        return sum(commit_self.get(n, 0.0) for n in names) / commits

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    stage = {
        name: sum(commit_self.get(n, 0.0) for n in names)
        for name, names in COMMIT_STAGES.items()
    }
    coverage = ratio(sum(stage.values()), flush_total)
    problems = []
    if coverage < 1.0 - STAGE_SUM_TOLERANCE:
        problems.append(
            f"commit-path stages cover {coverage:.3f} of the traced commit time "
            f"(tolerance {STAGE_SUM_TOLERANCE})"
        )
    guard = service.guarded.stats
    reconstructions = [
        d
        for name in ("maintenance.rebuild", "adaptive.reconstruct")
        for d in tracer.durations(name)
    ]
    hits, misses = compile_lookups
    routes = counts.routes
    routed = sum(routes.values())
    k = service.config.k
    cache = getattr(service, "cache", None)
    wal = getattr(service, "wal", None)
    traced_commit = percentile(traced.commit_latencies, 50) * 1000
    untraced_commit = percentile(untraced.commit_latencies, 50) * 1000
    traced_query = percentile(traced.query_latencies, 50) * 1000
    untraced_query = percentile(untraced.query_latencies, 50) * 1000
    setup_builds = [  # top-level builds: the set-up's, not a rebuild's
        s[2] - s[1] for s in tracer.spans if s[0] == "index.build" and s[3] == -1
    ]
    values = {
        "index.build_s": (statistics.median(setup_builds) if setup_builds else 0.0, "s"),
        "queue.coalesce_s": (commit_s("queue.coalesce"), "s"),
        "queue.coalesced_frac": (ratio(traced.coalesced_away, traced.drained), "ratio"),
        "guard.txn_s": (commit_s("guard.apply_batch"), "s"),
        "guard.check_s": (commit_s("guard.check"), "s"),
        "guard.check_share": (ratio(commit_self.get("guard.check", 0.0), flush_total), "ratio"),
        "guard.checks": (guard.checks / commits, "1/commit"),
        "guard.rollbacks": (guard.rollbacks / commits, "1/commit"),
        "guard.degradations": (guard.degradations / commits, "1/commit"),
        "maintenance.apply_s": (
            commit_s("maintenance.insert_edge", "maintenance.delete_edge"),
            "s",
        ),
        "maintenance.splits_per_update": (counts.splits / applied, "1/op"),
        "maintenance.merges_per_update": (counts.merges / applied, "1/op"),
        "maintenance.moves_per_update": (counts.moves / applied, "1/op"),
        "maintenance.reconstructions": (len(reconstructions) / commits, "1/commit"),
        "maintenance.reconstruct_s": (sum(reconstructions) / commits, "s"),
        "wal.append_s": (stage["wal"] / commits, "s"),
        "wal.fsyncs": (
            ((wal.fsyncs_performed - wal_before[0]) / commits) if wal is not None else 0.0,
            "1/commit",
        ),
        "wal.bytes_per_op": (
            ((wal.appended_bytes - wal_before[1]) / applied) if wal is not None else 0.0,
            "B/op",
        ),
        "snapshot.publish_s": (commit_s(*COMMIT_STAGES["publish"]), "s"),
        "service.gauge_s": (stage["gauges"] / commits, "s"),
        "snapshot.evaluate_s": (
            sum(query_self.get(n, 0.0) for n in EVALUATORS) / queries,
            "s",
        ),
        "query.nodes_visited": (ratio(counts.nodes_visited, counts.evaluations), "1/eval"),
        "query.edges_followed": (ratio(counts.edges_followed, counts.evaluations), "1/eval"),
        "query.candidates_per_match": (ratio(counts.candidates, counts.matches), "ratio"),
        "query.compile_hit_rate": (ratio(hits, hits + misses), "ratio"),
        "adaptive.route_s": (tracer.total("adaptive.route") / queries, "s"),
        "adaptive.cache_hit_rate": (cache.stats.hit_rate if cache is not None else 0.0, "ratio"),
        "adaptive.route_share.ladder": (
            ratio(sum(n for key, n in routes.items() if key != SAFE and key < k), routed),
            "ratio",
        ),
        "adaptive.route_share.leaf": (ratio(routes.get(k, 0), routed), "ratio"),
        "adaptive.route_share.safe": (ratio(routes.get(SAFE, 0), routed), "ratio"),
        "adaptive.ladder_build_s": (commit_s("adaptive.ladder_build"), "s"),
        "adaptive.control_s": (stage["control"] / commits, "s"),
        "adaptive.revalidated_frac": (
            ratio(cache.stats.revalidated, cache.stats.revalidated + cache.stats.invalidated)
            if cache is not None
            else 0.0,
            "ratio",
        ),
        "core.graph_bytes": (resident["graph"], "bytes"),
        "core.index_bytes": (resident["index"], "bytes"),
        "snapshot.bytes": (resident["snapshot"], "bytes"),
        "trace.commit_stage_coverage": (coverage, "ratio"),
        "trace.commit_p50_ms": (traced_commit, "ms"),
        "trace.query_p50_ms": (traced_query, "ms"),
        "trace.overhead_commit_p50_ms": (traced_commit - untraced_commit, "ms"),
        "trace.overhead_query_p50_ms": (traced_query - untraced_query, "ms"),
    }
    metrics = {name: Metric(value, unit) for name, (value, unit) in values.items()}
    return metrics, problems


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def environment(spec: WorkloadSpec, inputs, scale: str) -> dict:
    """The run's environment header."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": usable,
        "workload": spec.name,
        "service": spec.service,
        "family": spec.family if spec.family == "one" else f"ak(k={spec.k})",
        "sessions": f"{spec.query_sessions} query : {spec.update_sessions} update",
        "batch": spec.batch,
        "fsync": f"{spec.fsync} (every {spec.sync_every})" if spec.fsync else "none",
        **inputs.sizes,
        "note": (
            "latencies are wall-clock on the host that ran this command, not a "
            "storage device's; fsync may complete in the page cache"
        ),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "small",
    max_steps: Optional[int] = None,
    record_ops: bool = False,
    trace_out: Optional[str] = None,
    workroot: Optional[str] = None,
) -> RunResult:
    """Run one workload once; see the module docstring for the two modes.

    With *max_steps* every pass issues exactly that many operations
    (smoke runs and the determinism tests); otherwise passes are sized
    by *seconds*.  Scratch state (the durable store) lives in a
    temporary directory under *workroot*, removed before returning.
    """
    spec = WORKLOADS[name]
    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=workroot)
    try:
        return _run(spec, seed, seconds, trace, scale, max_steps, record_ops, trace_out, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(spec, seed, seconds, trace, scale, max_steps, record_ops, trace_out, workdir):
    service, inputs, setup_seconds = set_up(
        spec, seed, scale, workdir, 1 if trace else SETUP_REPEATS
    )
    timed = not trace and max_steps is None
    floors = (MIN_QUERIES, MIN_UPDATES) if timed else (0, 0)
    quality: dict = {}

    def measure_quality() -> None:
        quality["resident"] = resident_bytes(service)
        quality["bloat"] = index_bloat(service, spec)

    gc.collect()
    untraced = run_loop(
        service,
        spec,
        inputs,
        seconds=seconds / 2 if trace else seconds,
        min_queries=floors[0],
        min_updates=floors[1],
        max_steps=max_steps,
        record_ops=record_ops,
        # size and bloat at a seed-determined point, so they do not move
        # with how many operations the time budget allowed
        checkpoint=(floor_steps(spec), measure_quality) if timed else None,
    )
    result = RunResult(
        correct=False,
        attempted=untraced.attempted,
        failed=untraced.failed,
        environment=environment(spec, inputs, scale),
        oplogs=[untraced.oplog],
    )
    if not trace and not quality:  # a pass sized by max_steps: measure at its end
        measure_quality()
    problems = verify(service, spec, inputs)
    close(service)
    if not trace:
        result.metrics = end_to_end(
            untraced, setup_seconds, quality["resident"], quality["bloat"]
        )
    else:
        traced, result.metrics, traced_problems = _traced_pass(
            spec, seed, scale, workdir, untraced, record_ops, trace_out
        )
        problems += traced_problems
        result.attempted += traced.attempted
        result.failed += traced.failed
        result.oplogs.append(traced.oplog)
    result.problems = problems
    result.correct = not problems
    return result


def _traced_pass(spec, seed, scale, workdir, untraced, record_ops, trace_out):
    """Replay the untraced pass's operations on a fresh, traced service."""
    tracer = Tracer()
    counts = LayerCounts()
    inputs = make_inputs(spec, seed, scale)
    install_tracing(tracer, spec, counts)
    try:
        service = build_service(spec, inputs.graph, workdir)
        wal = getattr(service, "wal", None)
        wal_before = (wal.fsyncs_performed, wal.appended_bytes) if wal is not None else (0, 0)
        before = path_cache_info()
        gc.collect()
        traced = run_loop(service, spec, inputs, max_steps=untraced.steps, record_ops=record_ops)
        after = path_cache_info()
    finally:
        tracer.uninstall()
    if trace_out:
        tracer.dump(trace_out)
    metrics, problems = per_layer(
        tracer,
        counts,
        traced,
        untraced,
        service,
        resident_bytes(service),
        (after.hits - before.hits, after.misses - before.misses),
        wal_before,
    )
    gate_problems = verify(service, spec, inputs)
    close(service)
    return traced, metrics, problems + gate_problems
