"""Shared fixtures for the serving-layer suite.

``SOAK_SEED`` (env var, default 0) shifts the seeded randomness of the
soak/differential runs so the CI matrix explores different interleavings
and fault points per run, exactly like ``CHAOS_SEED`` does for the
resilience suite.
"""

from __future__ import annotations

import os

import pytest

from repro.graph.datagraph import DataGraph, EdgeKind
from repro.workload.xmark import XMarkConfig, generate_xmark
from tests.shadow_full import shadow_full_checks  # noqa: F401 - autouse differential

#: CI soak matrix seed — shifts workload, query and injector randomness
SOAK_SEED = int(os.environ.get("SOAK_SEED", "0"))

#: small-but-nontrivial dataset for serving tests (hundreds of dnodes)
SERVICE_XMARK = XMarkConfig(
    num_items=30,
    num_persons=40,
    num_open_auctions=25,
    num_closed_auctions=15,
    num_categories=8,
)


@pytest.fixture
def xmark_graph() -> DataGraph:
    return generate_xmark(SERVICE_XMARK).graph


@pytest.fixture
def tiny_graph() -> DataGraph:
    """root -> a -> b, plus an IDREF a -> c; room to add (b, c)."""
    graph = DataGraph()
    root = graph.add_root()
    a = graph.add_node("a")
    b = graph.add_node("b")
    c = graph.add_node("c")
    graph.add_edge(root, a)
    graph.add_edge(a, b)
    graph.add_edge(root, c)
    graph.add_edge(a, c, EdgeKind.IDREF)
    return graph
