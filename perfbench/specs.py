"""The benchmark's workloads, their inputs, and what each layer metric should move.

Everything a workload needs is derived here from the ``--seed`` argument
and a scale preset: the dataset (XMark(1.0) or IMDB), the paper's IDREF
insert/delete pool (:class:`MixedUpdateWorkload`), the query pool and the
session roster.  Input generation is never timed.  The service under
test receives only the prepared graph and the generated operations.

``python3 perfbench/run.py --describe`` prints these records as JSON.
"""

from __future__ import annotations

import os
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Optional

from repro.adaptive.service import AdaptiveConfig, AdaptiveIndexService
from repro.experiments.config import SCALES
from repro.graph.datagraph import EdgeKind
from repro.service.service import IndexService, ServiceConfig
from repro.store.service import DurableIndexService, StoreConfig
from repro.workload.imdb import generate_imdb
from repro.workload.queries import QueryWorkload, ShiftingQueryPool
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import generate_xmark

#: queue capacity for every workload: four full batches, so the closed
#: loop (which flushes at one full batch) never reaches admission control
QUEUE_CAPACITY = 128
#: draws per phase of the shifting pool; phases alternate for the whole
#: run so the short/deep mix stays the same whatever the run length
SHIFT_PHASE_DRAWS = 250
#: generator seed of the query pools
QUERY_SEED = 11


@dataclass(frozen=True)
class WorkloadSpec:
    """One closed-loop serving workload."""

    name: str
    why: str
    #: ``xmark`` (cyclicity 1.0) or ``imdb``, at the run's scale preset
    dataset: str
    #: ``durable`` (DurableIndexService), ``plain`` (IndexService) or
    #: ``adaptive`` (AdaptiveIndexService)
    service: str
    family: str
    k: int
    query_sessions: int
    update_sessions: int
    #: updates per commit: the loop flushes whenever this many are queued
    batch: int
    #: ``uniform`` (one QueryDeck) or ``shifting`` (ShiftingQueryPool over a
    #: short child-only deck and a deep deck)
    pool: str
    #: distinct draws generated per query workload
    pool_size: int
    descendant_fraction: float
    #: WAL fsync policy and cadence (durable service only)
    fsync: Optional[str] = None
    sync_every: int = 0
    #: ``layer.metric`` -> the end-to-end metric it should move here
    layer_map: tuple = ()


COMMON_LAYERS = (
    ("index.build_s", "setup_s"),
    ("snapshot.publish_s", "commit_p50_ms"),
    ("core.graph_bytes", "resident_mb"),
    ("core.index_bytes", "resident_mb"),
    ("snapshot.bytes", "resident_mb"),
    ("guard.checks", "failed_ops_frac, commit tail"),
    ("guard.rollbacks", "failed_ops_frac, commit tail"),
    ("guard.degradations", "failed_ops_frac, commit tail"),
)

WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="xmark-write",
            why=(
                "update-heavy (3 update : 1 query sessions) 1-index on XMark(1.0) with a "
                "WAL: commits dominate and cross every write layer, guard check above all"
            ),
            dataset="xmark",
            service="durable",
            family="one",
            k=0,
            query_sessions=1,
            update_sessions=3,
            batch=32,
            pool="uniform",
            pool_size=40,
            # the write-path workload's reads are mostly short child paths;
            # with imdb-read's 35% descendant mix its query p50 sat where
            # GC-interrupted and clean cheap queries meet, and flipped by
            # up to 40% from run to run
            descendant_fraction=0.1,
            fsync="batch",
            sync_every=8,
            layer_map=COMMON_LAYERS
            + (
                ("queue.coalesce_s", "commit_p50_ms"),
                ("queue.coalesced_frac", "commit_p50_ms"),
                ("guard.check_s", "commit_p50_ms, update_visible_p95_ms"),
                ("guard.check_share", "commit_p50_ms, update_visible_p95_ms"),
                ("maintenance.apply_s", "commit_p50_ms"),
                ("maintenance.splits_per_update", "commit_p50_ms, index_bloat"),
                ("maintenance.merges_per_update", "commit_p50_ms, index_bloat"),
                ("maintenance.reconstructions", "commit tail, index_bloat"),
                ("wal.append_s", "commit_p50_ms"),
                ("wal.fsyncs", "commit_p50_ms"),
                ("wal.bytes_per_op", "commit_p50_ms"),
                ("snapshot.evaluate_s", "query_p50_ms, query_p99_ms"),
            ),
        ),
        WorkloadSpec(
            name="imdb-read",
            why=(
                "read-heavy (15 query : 1 update sessions) 1-index on IMDB: query "
                "evaluation dominates, so guard, WAL and cache changes must show no "
                "change here"
            ),
            dataset="imdb",
            service="plain",
            family="one",
            k=0,
            query_sessions=15,
            update_sessions=1,
            batch=32,
            pool="uniform",
            pool_size=40,
            descendant_fraction=0.35,
            layer_map=COMMON_LAYERS
            + (
                ("guard.check_s", "small here: bypass for commit-path changes"),
                ("snapshot.evaluate_s", "query_p50_ms, query_p99_ms"),
                ("query.nodes_visited", "query_p99_ms"),
                ("query.edges_followed", "query_p99_ms"),
                ("query.candidates_per_match", "query_p99_ms"),
                ("query.compile_hit_rate", "query_p99_ms"),
            ),
        ),
        WorkloadSpec(
            name="xmark-ak-adaptive",
            why=(
                "A(3) family behind ladder routing and the result cache over a shifting "
                "query mix: the only workload reaching repro.adaptive and A(k) "
                "maintenance"
            ),
            dataset="xmark",
            service="adaptive",
            family="ak",
            k=3,
            query_sessions=6,
            update_sessions=1,
            batch=32,
            pool="shifting",
            pool_size=24,
            descendant_fraction=0.35,
            layer_map=COMMON_LAYERS
            + (
                ("guard.check_s", "commit_p50_ms, update_visible_p95_ms"),
                ("guard.check_share", "commit_p50_ms, update_visible_p95_ms"),
                ("maintenance.apply_s", "commit_p50_ms"),
                ("maintenance.moves_per_update", "commit_p50_ms, index_bloat"),
                ("maintenance.reconstructions", "commit tail, index_bloat"),
                ("maintenance.reconstruct_s", "commit tail, index_bloat"),
                ("adaptive.route_s", "query_p50_ms, queries_per_s"),
                ("adaptive.cache_hit_rate", "query_p50_ms, queries_per_s"),
                ("adaptive.route_share.ladder", "query_p50_ms, queries_per_s"),
                ("adaptive.route_share.leaf", "query_p50_ms, queries_per_s"),
                ("adaptive.route_share.safe", "query_p50_ms, queries_per_s"),
                ("adaptive.ladder_build_s", "commit_p50_ms"),
                ("adaptive.revalidated_frac", "commit_p50_ms"),
                ("query.candidates_per_match", "query_p99_ms"),
            ),
        ),
    )
}

#: layers the benchmark does not measure, with the reason
OUT_OF_SCOPE = {
    "repro.replication": (
        "an honest measurement needs followers in separate OS processes; two "
        "cores cannot host a primary, followers and the load generator without "
        "measuring the scheduler"
    ),
    "repro.corpus": "document ingest is left to a later workload-adding change",
    "benchmarks/bench_*.py": (
        "the per-experiment benchmarks stay until a later change retires them "
        "in favour of this one"
    ),
}


@dataclass
class QueryDeck:
    """Uniform draws from a query pool, dealt in seeded shuffled rounds.

    Every round deals each pool entry exactly once, so any run draws the
    pool's mix in exact proportion and only the order depends on the
    seed.  Drawing with replacement instead lets the share of the few
    expensive expressions wander from seed to seed, and the latency
    percentiles with it.  Duck-types ``QueryWorkload`` (``sample`` plus
    iteration over the pool).
    """

    expressions: list
    rng: random.Random
    _hand: list = field(default_factory=list)

    def sample(self) -> str:
        if not self._hand:
            self._hand = list(self.expressions)
            self.rng.shuffle(self._hand)
        return self._hand.pop()

    def __iter__(self):
        return iter(self.expressions)

    def __len__(self) -> int:
        return len(self.expressions)


@dataclass
class Inputs:
    """Everything one run feeds the service, generated from the seed."""

    graph: Any
    updates: MixedUpdateWorkload
    queries: Any  # QueryDeck or ShiftingQueryPool over two decks
    sizes: dict


def dataset_config(spec: WorkloadSpec, scale: str):
    """The generator config of the workload's dataset at *scale*."""
    preset = SCALES[scale]
    if spec.dataset == "xmark":
        return replace(preset.xmark, cyclicity=1.0)
    return preset.imdb


def make_inputs(spec: WorkloadSpec, seed: int, scale: str = "small") -> Inputs:
    """Generate the dataset, update pool and query pool for *seed*.

    Deterministic: the same (spec, seed, scale) gives identical inputs.
    The dataset and the query pool are the scale preset's own (fixed
    generator seeds), so every seed serves the same queries in the same
    proportions over the same document; *seed* chooses the IDREF edges
    pooled for updates, the update sequence and the order of query draws.
    Seed-to-seed spread then measures the program, not how expensive a
    random query pool happened to be.  The update pool is removed from the graph before any index is built,
    as in the paper's protocol.
    """
    derive = random.Random(f"{spec.name}:{seed}")
    update_seed = derive.randrange(1 << 30)
    generator = dataset_config(spec, scale)
    if spec.dataset == "xmark":
        graph = generate_xmark(generator).graph
    else:
        graph = generate_imdb(generator).graph
    if spec.pool == "uniform":
        pool = QueryWorkload.generate(
            graph,
            count=spec.pool_size,
            seed=QUERY_SEED,
            descendant_fraction=spec.descendant_fraction,
        )
        queries: Any = QueryDeck(pool.expressions, random.Random(derive.randrange(1 << 30)))
    else:
        short = QueryWorkload.generate(
            graph,
            count=spec.pool_size,
            seed=QUERY_SEED,
            max_depth=max(2, spec.k // 2),
            descendant_fraction=0.0,
        )
        deep = QueryWorkload.generate(
            graph,
            count=spec.pool_size,
            seed=QUERY_SEED + 1,
            max_depth=max(3, spec.k),
            descendant_fraction=spec.descendant_fraction,
        )
        decks = [
            QueryDeck(pool.expressions, random.Random(derive.randrange(1 << 30)))
            for pool in (short, deep)
        ]
        # ShiftingQueryPool stays on its last phase, so alternate enough
        # phases that no run reaches the end of the schedule
        queries = ShiftingQueryPool(
            [(SHIFT_PHASE_DRAWS, decks[i % 2]) for i in range(2000)]
        )
    idref_edges = sum(1 for _ in graph.edges_of_kind(EdgeKind.IDREF))
    updates = MixedUpdateWorkload.prepare(graph, seed=update_seed)
    sizes = {
        "scale": scale,
        "dnodes": graph.num_nodes,
        "dedges": graph.num_edges,
        "idref_edges": idref_edges,
        "idref_pool": len(updates.pool),
        "query_pool": len(set(queries)),
    }
    return Inputs(graph=graph, updates=updates, queries=queries, sizes=sizes)


def build_service(spec: WorkloadSpec, graph, workdir: str):
    """Construct the workload's service over *graph* (the timed set-up).

    *workdir* must exist; the durable service keeps its store in a fresh
    subdirectory of it.
    """
    config = ServiceConfig(
        family=spec.family,
        k=spec.k if spec.family == "ak" else ServiceConfig().k,
        batch_max_ops=spec.batch,
        queue_capacity=QUEUE_CAPACITY,
    )
    if spec.service == "durable":
        store = os.path.join(workdir, f"store-{len(os.listdir(workdir))}")
        return DurableIndexService(
            graph,
            store,
            config,
            StoreConfig(fsync=spec.fsync, sync_every=spec.sync_every),
        )
    if spec.service == "adaptive":
        return AdaptiveIndexService(graph, config, AdaptiveConfig())
    return IndexService(graph, config)


def describe(scale: str = "small") -> dict:
    """The workload records as plain data (for ``--describe``)."""
    records = {}
    for name, spec in WORKLOADS.items():
        records[name] = {
            **{k: v for k, v in asdict(spec).items() if k != "layer_map"},
            "generator": asdict(dataset_config(spec, scale)),
            "inputs": make_inputs(spec, 0, scale).sizes,
            "queue_capacity": QUEUE_CAPACITY,
            "guard": "service default: policy=degrade, check_every=1, level=valid",
            "seed_argument": (
                "--seed chooses the pooled IDREF edges, the update sequence and "
                "the query draw order; dataset and query pool are the preset's"
            ),
            "layer_map": dict(spec.layer_map),
        }
    return {"workloads": records, "out_of_scope": OUT_OF_SCOPE}
