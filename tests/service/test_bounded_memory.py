"""Bounded serving state: heap stays flat under sustained traffic.

A long-running service must not keep per-query or per-commit state:
latency and staleness distributions live only in the fixed-memory
``service.*`` histograms, and the adaptive controller's p95 inputs in
two fixed windows.  Each test warms the service up, then measures the
traced heap growth (``tracemalloc``) over further traffic — queries
plus periodic commits that toggle one IDREF edge, so the data itself
returns to the same size — and asserts it stays under a small fixed
bound.  Any container growing per query (a few tens of bytes each)
blows through the bound by more than an order of magnitude.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

from repro.adaptive import AdaptiveIndexService
from repro.graph.datagraph import EdgeKind
from repro.service import IndexService, ServiceConfig, Update
from repro.workload.random_graphs import candidate_edges

#: heap growth allowed over the measured traffic (bytes)
BOUND = 64 * 1024
#: queries served before measuring (caches, freelists, lazy tables settle)
WARMUP_QUERIES = 10_000
#: cheap root paths: the tests measure serving state, not evaluation
EXPRESSIONS = ("/site/people", "/site/regions", "/site/categories/category")


def drive(service, graph, queries: int, commit_every: int) -> None:
    """Serve *queries* round-robin from :data:`EXPRESSIONS`, committing
    one edge toggle every *commit_every* queries."""
    ((source, target),) = candidate_edges(graph, random.Random(7), 1, acyclic=False)
    for n in range(queries):
        service.query(EXPRESSIONS[n % len(EXPRESSIONS)])
        if n % commit_every == commit_every - 1:
            if graph.has_edge(source, target):
                service.submit(Update.delete_edge(source, target))
            else:
                service.submit(Update.insert_edge(source, target, EdgeKind.IDREF))
            service.flush()


def heap_growth(service, graph, queries: int, commit_every: int) -> int:
    """Traced heap growth (bytes) over *queries* after the warm-up.

    *queries* must span an even number of commits, so the edge ends up
    as it was at the baseline.
    """
    assert queries % (2 * commit_every) == 0
    drive(service, graph, WARMUP_QUERIES, commit_every)
    tracemalloc.start()
    try:
        # two commits under tracing first: the baseline then counts a
        # traced published snapshot, just like the final reading
        drive(service, graph, 2 * commit_every, commit_every)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        drive(service, graph, queries, commit_every)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return after - before


def test_adaptive_ak_service_heap_is_flat_over_cache_hit_traffic(xmark_graph):
    service = AdaptiveIndexService(xmark_graph, ServiceConfig(family="ak", k=3))
    try:
        growth = heap_growth(service, xmark_graph, queries=100_000, commit_every=5_000)
    finally:
        service.close()
    assert service.cache.stats.hits > 90_000
    assert growth <= BOUND, f"heap grew {growth} B over 1e5 queries"


def test_index_service_heap_is_flat_over_queries_and_commits(xmark_graph):
    service = IndexService(xmark_graph, ServiceConfig(family="one"))
    try:
        growth = heap_growth(service, xmark_graph, queries=24_000, commit_every=1_000)
    finally:
        service.close()
    assert service.stats.batches >= 24
    assert growth <= BOUND, f"heap grew {growth} B over 2.4e4 queries"
