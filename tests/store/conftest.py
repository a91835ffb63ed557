"""Shared helpers for the durable-store suite.

Byte-identity is asserted through the canonical JSON wire formats, the
same discipline as the resilience suite: two structures are "the same
state" iff their sorted-key JSON dumps are equal.  ``CRASH_SEED`` (env
var, default 0) shifts the torture workload and the sampled interior
cut positions so the CI matrix explores different crash points per run.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.graph.datagraph import DataGraph
from repro.graph.serialize import graph_to_dict
from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.serialize import family_to_dict, index_to_dict
from repro.workload.xmark import XMarkConfig, generate_xmark
from tests.shadow_full import shadow_full_checks  # noqa: F401 - autouse differential

#: CI crash matrix seed — shifts workload and cut-point randomness
CRASH_SEED = int(os.environ.get("CRASH_SEED", "0"))

#: small-but-nontrivial dataset for the crash-point torture runs (the
#: full byte sweep recovers the store hundreds of times, so this stays
#: an order of magnitude below the chaos dataset)
STORE_XMARK = XMarkConfig(
    num_items=10,
    num_persons=14,
    num_open_auctions=8,
    num_closed_auctions=5,
    num_categories=4,
)


def graph_fingerprint(graph: DataGraph) -> str:
    """Canonical byte representation of a graph's full state."""
    return json.dumps(graph_to_dict(graph), sort_keys=True)


def index_fingerprint(index: StructuralIndex) -> str:
    """Canonical byte representation of an index (partition + next_id)."""
    return json.dumps(index_to_dict(index), sort_keys=True)


def family_fingerprint(family: AkIndexFamily) -> str:
    """Canonical byte representation of an A(k) family (all levels)."""
    return json.dumps(family_to_dict(family), sort_keys=True)


@pytest.fixture(scope="session")
def store_graph_dict() -> dict:
    """The torture XMark graph, as a dict template (copied per test)."""
    return graph_to_dict(generate_xmark(STORE_XMARK).graph)


@pytest.fixture
def store_dir(tmp_path) -> str:
    """A fresh, empty store directory."""
    path = tmp_path / "store"
    path.mkdir()
    return str(path)


def tiny_graph() -> DataGraph:
    """root -> (a, b), with an IDREF a -> b: enough to split an inode."""
    from repro.graph.datagraph import EdgeKind

    graph = DataGraph()
    root = graph.add_node("root")
    a = graph.add_node("x")
    b = graph.add_node("x")
    graph.add_edge(root, a)
    graph.add_edge(root, b)
    graph.add_edge(a, b, EdgeKind.IDREF)
    return graph
