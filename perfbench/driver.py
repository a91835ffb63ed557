"""The closed loop: one thread round-robins a roster of logical sessions.

Query sessions call ``service.query``; update sessions ``submit`` the
next operation of the paper's IDREF insert/delete loop.  Each session
issues its next operation only after the previous one returned, and no
background writer runs: the loop itself flushes whenever a full batch is
queued (as :class:`repro.workload.sessions.ClosedLoopDriver` does), so
the operation sequence is a pure function of the seed and only the
timings vary.  A run is a prefix of that sequence: it stops at the end
of the first roster round after the time budget is spent *and* the
sample floors are met (or after exactly ``max_steps`` operations), then
flushes what is still queued so it ends quiescent.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

#: throughput is the median over windows of at least this many seconds
#: (closed at commits), so a burst of interference from other tenants of
#: the host moves a few windows instead of the whole figure
WINDOW_SECONDS = 1.0

from repro.graph.datagraph import EdgeKind
from repro.service.queue import Update


@dataclass
class LoopResult:
    """Raw samples of one closed-loop pass (seconds throughout)."""

    steps: int = 0
    wall: float = 0.0
    query_latencies: list = field(default_factory=list)
    #: submit() to the return of the flush that published the update
    visible_latencies: list = field(default_factory=list)
    commit_latencies: list = field(default_factory=list)
    queries_failed: int = 0
    updates_submitted: int = 0
    updates_shed: int = 0
    updates_failed: int = 0
    drained: int = 0
    coalesced_away: int = 0
    #: (seconds, queries, updates submitted) of each throughput window
    windows: list = field(default_factory=list)
    #: the operation sequence, when the caller asked for it
    oplog: Optional[list] = None

    @property
    def attempted(self) -> int:
        queries = len(self.query_latencies) + self.queries_failed
        return queries + self.updates_submitted + self.updates_shed

    @property
    def failed(self) -> int:
        return self.queries_failed + self.updates_shed + self.updates_failed

    @property
    def queries(self) -> int:
        return len(self.query_latencies)

    @property
    def updates_committed(self) -> int:
        return self.updates_submitted - self.updates_failed

    def rates(self) -> tuple[float, float]:
        """Queries and updates per second: the median over windows.

        Falls back to whole-pass rates when the pass spans fewer than
        three windows.
        """
        if len(self.windows) < 3:
            return self.queries / self.wall, self.updates_committed / self.wall
        return (
            statistics.median(q / t for t, q, _ in self.windows),
            statistics.median(u / t for t, _, u in self.windows),
        )


def run_loop(
    service,
    spec,
    inputs,
    seconds: float = 0.0,
    min_queries: int = 0,
    min_updates: int = 0,
    max_steps: Optional[int] = None,
    record_ops: bool = False,
    checkpoint: Optional[tuple[int, Callable[[], None]]] = None,
) -> LoopResult:
    """Drive *service* with the workload's session roster.

    With *max_steps* the pass issues exactly that many operations;
    otherwise it runs whole roster rounds until *seconds* have passed
    and at least *min_queries* queries and *min_updates* updates were
    issued.

    *checkpoint* ``(step, callback)`` calls *callback* once, right after
    the first commit at or past *step* operations.  Commits drain the
    whole queue every ``spec.batch`` updates, so that state is quiescent
    and depends only on the seed.  A timed pass runs until the checkpoint
    has been taken, and its time is left out of the pass's wall time and
    throughput windows.
    """
    roster = ["q"] * spec.query_sessions + ["u"] * spec.update_sessions
    queries = inputs.queries
    update_ops = inputs.updates.steps(1 << 40, validate=False)
    result = LoopResult(oplog=[] if record_ops else None)
    pending: list[float] = []  # submit times of queued updates
    window = [0.0, 0, 0]  # start, queries and updates issued before it
    clock = time.perf_counter

    def flush() -> None:
        started = clock()
        try:
            batch = service.flush()
        except Exception:  # noqa: BLE001 - a failed commit is a counted failure
            result.updates_failed += len(pending)
            pending.clear()
            return
        done = clock()
        if batch is None:
            return
        result.commit_latencies.append(done - started)
        result.drained += batch.drained
        result.coalesced_away += batch.coalesced_away
        published = pending[: batch.drained]
        del pending[: batch.drained]
        result.visible_latencies.extend(done - t for t in published)
        # windows close right after a commit, so each holds whole commit
        # cycles: the same mix of query and commit time
        if done - window[0] >= WINDOW_SECONDS:
            queries_done = result.queries
            updates_done = result.updates_submitted
            result.windows.append(
                (done - window[0], queries_done - window[1], updates_done - window[2])
            )
            window[:] = [done, queries_done, updates_done]

    step = 0
    started = clock()
    deadline = started + seconds
    window[:] = [started, 0, 0]
    while True:
        if max_steps is not None:
            if step >= max_steps:
                break
        elif step % len(roster) == 0 and step > 0:
            if (
                clock() >= deadline
                and result.queries >= min_queries
                and result.updates_submitted >= min_updates
                and checkpoint is None
            ):
                break
        if roster[step % len(roster)] == "q":
            expression = queries.sample()
            if result.oplog is not None:
                result.oplog.append(("query", expression))
            t0 = clock()
            try:
                service.query(expression)
            except Exception:  # noqa: BLE001 - a raised query is a counted failure
                result.queries_failed += 1
            else:
                result.query_latencies.append(clock() - t0)
        else:
            op, source, target = next(update_ops)
            if result.oplog is not None:
                result.oplog.append((op, source, target))
            if op == "insert":
                update = Update.insert_edge(source, target, EdgeKind.IDREF)
            else:
                update = Update.delete_edge(source, target)
            submitted = clock()
            if service.submit(update):
                result.updates_submitted += 1
                pending.append(submitted)
            else:
                result.updates_shed += 1
            while service.queue_depth() >= spec.batch:
                flush()
            if checkpoint is not None and step + 1 >= checkpoint[0] and not pending:
                paused = clock()
                checkpoint[1]()
                paused = clock() - paused
                started += paused
                deadline += paused
                window[0] += paused
                checkpoint = None
        step += 1
    while service.queue_depth() > 0:
        flush()
    result.wall = clock() - started
    result.steps = step
    return result
