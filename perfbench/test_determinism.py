"""The benchmark's own checks, at smoke size.

Run from the repository root with ``python3 -m pytest perfbench -q``.

* Two runs with the same seed issue identical operation sequences and
  report identical counts (bloat, resident bytes, maintenance counts,
  WAL bytes per op, guard checks); another seed issues another sequence.
* Every workload passes its correctness gate and the commit-path stage
  sum in a traced run.
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from bench import run_workload  # noqa: E402
from specs import WORKLOADS  # noqa: E402

STEPS = 320

#: per-layer values that depend only on the operation sequence
COUNTS = (
    "core.graph_bytes",
    "core.index_bytes",
    "snapshot.bytes",
    "maintenance.splits_per_update",
    "maintenance.merges_per_update",
    "maintenance.moves_per_update",
    "maintenance.reconstructions",
    "queue.coalesced_frac",
    "wal.bytes_per_op",
    "wal.fsyncs",
    "guard.checks",
    "guard.rollbacks",
    "guard.degradations",
    "query.nodes_visited",
    "query.edges_followed",
)


def smoke(name: str, seed: int, trace: bool, tmp_path):
    result = run_workload(
        name,
        seed,
        seconds=0,
        trace=trace,
        scale="smoke",
        max_steps=STEPS,
        record_ops=True,
        workroot=str(tmp_path),
    )
    assert result.correct, result.problems
    assert result.failed == 0
    return result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_sequence_and_counts(name, tmp_path):
    first = smoke(name, 3, True, tmp_path)
    second = smoke(name, 3, True, tmp_path)
    assert first.oplogs == second.oplogs
    # the traced pass replays the untraced pass's sequence exactly
    assert first.oplogs[0] == first.oplogs[1]
    assert len(first.oplogs[0]) == STEPS
    for key in COUNTS:
        assert first.metrics[key].value == second.metrics[key].value, key
    untraced = [smoke(name, 3, False, tmp_path) for _ in range(2)]
    for key in ("index_bloat", "resident_mb"):
        assert untraced[0].metrics[key].value == untraced[1].metrics[key].value, key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_sequence(name, tmp_path):
    assert smoke(name, 3, False, tmp_path).oplogs != smoke(name, 4, False, tmp_path).oplogs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer(name, tmp_path):
    result = smoke(name, 5, True, tmp_path)
    assert result.metrics["trace.commit_stage_coverage"].value <= 1.0
    assert result.metrics["guard.checks"].value > 0
    if WORKLOADS[name].service == "durable":
        assert result.metrics["wal.bytes_per_op"].value > 0
    if WORKLOADS[name].service == "adaptive":
        assert result.metrics["adaptive.cache_hit_rate"].value > 0


def test_metrics_match_benchmark_json(tmp_path):
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    whys = {w["name"]: w["why"] for w in declared["workloads"]}
    assert whys == {name: spec.why for name, spec in WORKLOADS.items()}
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name in WORKLOADS:
        plain = smoke(name, 6, False, tmp_path).metrics
        assert {k: m.unit for k, m in plain.items()} == end_to_end
        traced = smoke(name, 6, True, tmp_path).metrics
        assert {k: m.unit for k, m in traced.items()} == per_layer


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "imdb-read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quality_metrics_do_not_depend_on_run_length(name, tmp_path):
    short, long = (
        run_workload(name, 7, seconds, trace=False, scale="smoke", workroot=str(tmp_path))
        for seconds in (0.01, 5.0)
    )
    assert short.correct and long.correct
    assert long.attempted > short.attempted
    for key in ("index_bloat", "resident_mb"):
        assert short.metrics[key].value == long.metrics[key].value, key
