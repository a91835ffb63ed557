"""Overhead of the transactional guard (repro.resilience).

The journal hooks in :class:`DataGraph` and :class:`StructuralIndex`
cost one attribute load and an ``is not None`` test when no transaction
is open — the zero-overhead contract that lets the hooks live in the
mutation hot paths permanently.  This benchmark measures the same mixed
workload four ways — unguarded, guarded without invariant checks,
guarded with periodic checks (scoped to each batch's region, with the
full oracle on the guard's schedule), and guarded with the full oracle
run explicitly at the same cadence — and bounds the ratios.

The unguarded run *is* the hook-disabled case: no transaction ever
opens, so every hook takes the ``None`` branch.  A regression that makes
that branch allocate or journal would show up as the guarded/unguarded
gap collapsing to ~1x while the unguarded time itself inflates against
the recorded baselines (``extra_info`` keeps the absolute numbers).
"""

from __future__ import annotations

import time

from repro.index.oneindex import OneIndex
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.resilience import GuardConfig, GuardedMaintainer, InvariantGuard
from repro.workload.updates import MixedUpdateWorkload
from repro.workload.xmark import XMarkConfig, generate_xmark

CONFIG = XMarkConfig(
    num_items=60, num_persons=80, num_open_auctions=50,
    num_closed_auctions=30, num_categories=10,
)
NUM_PAIRS = 40


def _apply_workload(
    guard_config: GuardConfig | None = None, full_check_every: int = 0
) -> float:
    """Build index + run the mixed workload; return update seconds.

    ``full_check_every=N`` additionally runs the full invariant oracle
    after every N-th update, outside the guard's own cadence.
    """
    graph = generate_xmark(CONFIG).graph
    workload = MixedUpdateWorkload.prepare(graph, seed=11)
    index = OneIndex.build(graph)
    maintainer = SplitMergeMaintainer(index)
    if guard_config is not None:
        maintainer = GuardedMaintainer(maintainer, guard_config)
    oracle = InvariantGuard(level="valid")
    operations = list(workload.steps(NUM_PAIRS))
    started = time.perf_counter()
    for step, (op, source, target) in enumerate(operations, start=1):
        if op == "insert":
            maintainer.insert_edge(source, target)
        else:
            maintainer.delete_edge(source, target)
        if full_check_every and step % full_check_every == 0:
            oracle.check(graph, index=index)
    return time.perf_counter() - started


def test_guard_overhead(run_once, benchmark):
    def run() -> dict[str, float]:
        unguarded = _apply_workload()
        journaled = _apply_workload(GuardConfig(policy="raise", check_every=0))
        checked = _apply_workload(
            GuardConfig(policy="raise", check_level="valid", check_every=10)
        )
        full = _apply_workload(
            GuardConfig(policy="raise", check_every=0), full_check_every=10
        )
        return {
            "unguarded": unguarded,
            "journaled": journaled,
            "checked": checked,
            "full": full,
        }

    times = run_once(run)
    print()
    for mode, seconds in times.items():
        print(f"guard {mode:>9}: {seconds * 1000:.1f} ms "
              f"({seconds / times['unguarded']:.2f}x unguarded)")
    benchmark.extra_info.update(
        {mode: round(seconds * 1000, 2) for mode, seconds in times.items()}
    )
    # Loose sanity bounds (generous so CI jitter does not flake): full
    # journaling must stay the same order of magnitude as the bare run,
    # and even O(n + m) checks every 10th update must not blow past it.
    # A regression that puts work on the disabled-hook path inflates the
    # unguarded time itself, shrinking these ratios towards 1 while the
    # absolute extra_info numbers drift up.
    assert times["journaled"] < times["unguarded"] * 10
    assert times["checked"] < times["unguarded"] * 40
    assert times["full"] < times["unguarded"] * 40
