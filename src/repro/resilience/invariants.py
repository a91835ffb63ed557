"""Post-transaction invariant checking: scoped per batch, full on a schedule.

The guard reuses the library's existing oracles instead of reimplementing
checks: :meth:`DataGraph.check_invariants` and
:meth:`StructuralIndex.check_invariants` for structural consistency,
:func:`repro.index.stability.is_valid_1index` /
:func:`is_minimal_1index` for the 1-index, and
:meth:`AkIndexFamily.check_invariants` / :meth:`is_minimum` for the
family (minimal and minimum coincide for A(k), Lemma 6).  Those *full*
oracles are O(n + m) or worse.

Most checks are *scoped* instead: they cover only the region a batch
touched, read from the batch's :class:`CheckRegion` — its journal
records folded through :meth:`TouchedSet.observe`, plus the A(k)
maintainer's token reports.  The graph part checks the adjacency of the
touched dnodes, their IDREF entries, the root and the edge counter; the
1-index part checks the extents, support tables and stability of the
touched inodes and of the inodes of touched dnodes
(:meth:`StructuralIndex.check_invariants_near`); the family part checks
the classes, at every level, of the dnodes within k hops downstream of
the touched ones plus every reported token
(:meth:`AkIndexFamily.check_invariants_near`).  A scoped verdict equals
the full one because of three facts:

* the pre-state was valid — the previous check passed and every change
  since went through the guard;
* every graph and 1-index mutation is journaled, and the A(k) maintainer
  reports every class it changes;
* split/merge is local (Sections 5 and 6): an update changes only the
  inodes of its endpoints and those its splits and merges reach, and a
  dnode's A(i) class depends only on its ancestors within i hops.

The full oracle still runs on a schedule the guard decides from what it
can observe: on its first check, whenever the region is marked full (a
rollback, degradation, rebuild or reconstruction, or any mutation made
outside the guard), when the region's extents add up to the graph size,
at ``check_level="minimal"``, and every :data:`FULL_CHECK_EVERY`-th
check.  :meth:`InvariantGuard.check` without a region is always full.

How often a check is due is configurable: every update, every N-th
update, or an independently sampled fraction (seeded, deterministic).  A
failed check raises :class:`repro.exceptions.InvariantViolationError`,
which the :class:`~repro.resilience.guard.GuardedMaintainer` treats
exactly like a mid-operation exception — roll back, then apply the
failure policy.
"""

from __future__ import annotations

import random
import time
from typing import Iterable, Optional

from repro.exceptions import InvariantViolationError
from repro.graph.datagraph import DataGraph
from repro.index.akindex import AkIndexFamily
from repro.index.base import StructuralIndex
from repro.index.stability import is_minimal_1index, is_valid_1index
from repro.obs import current as current_obs
from repro.resilience.journal import JournalRecord, TouchedSet

#: check depths, each including the previous: structural bookkeeping only,
#: + validity (stability), + minimality.
LEVELS = ("basic", "valid", "minimal")

#: every this many checks one is full, whatever the regions look like
FULL_CHECK_EVERY = 64


class CheckRegion:
    """Everything changed since the last verified state.

    The input of a scoped check.  The owner adds each committed batch's
    journal records and A(k) token reports, calls :meth:`mark_all` when
    something it cannot see the details of happened (the next check is
    then full), and :meth:`reset` once a check passed.  Records are kept
    as the journal's own lists and only folded when a check runs, so a
    batch that is not checked pays one list append.
    """

    __slots__ = ("chunks", "size", "tokens", "full", "num_edges")

    def __init__(self) -> None:
        #: journal record lists since the verified state, oldest first
        self.chunks: list[list[JournalRecord]] = []
        #: total records held in :attr:`chunks`
        self.size = 0
        #: A(k) ``(level, token)`` pairs reported since the verified state
        self.tokens: set[tuple[int, int]] = set()
        #: no verified state to scope against: the next check is full
        self.full = True
        #: the graph's edge count at the verified state
        self.num_edges = 0

    def add(
        self, records: list[JournalRecord], tokens: Iterable[tuple[int, int]] = ()
    ) -> None:
        """Append one batch's records and token reports."""
        if self.full:
            return
        self.chunks.append(records)
        self.size += len(records)
        self.tokens.update(tokens)

    def mark_all(self) -> None:
        """Forget the region: the next check must be full."""
        self._restart(full=True)

    def reset(self, graph: DataGraph) -> None:
        """Start a new region at a just-verified state."""
        self._restart(full=False)
        self.num_edges = graph.num_edges

    def _restart(self, full: bool) -> None:
        self.full = full
        self.chunks = []
        self.size = 0
        self.tokens = set()

    def touched(self) -> TouchedSet:
        """Fold the records into the dnodes and inodes they touched."""
        touched = TouchedSet()
        observe = touched.observe
        for records in self.chunks:
            for target, op, payload in records:
                observe(target, op, payload)
        return touched

    def net_edges(self) -> tuple[int, list[tuple[int, int]]]:
        """Net edge-count change and the endpoints of every edge record."""
        net = 0
        edges: list[tuple[int, int]] = []
        for records in self.chunks:
            for _target, op, payload in records:
                if op == "edge_added":
                    net += 1
                    edges.append((payload[0], payload[1]))
                elif op == "edge_removed":
                    net -= 1
                    edges.append((payload[0], payload[1]))
        return net, edges


class InvariantGuard:
    """Cadenced invariant checks over a graph and its index or family."""

    def __init__(
        self,
        level: str = "valid",
        check_every: int = 1,
        sample_rate: Optional[float] = None,
        seed: int = 0,
    ):
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}; choose from {LEVELS}")
        if sample_rate is not None and not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must lie in [0, 1]")
        self.level = level
        self.check_every = check_every
        self.sample_rate = sample_rate
        self._rng = random.Random(seed)
        self._since_check = 0
        self.checks_run = 0
        #: ``full`` or ``scoped``: what the latest check ran
        self.last_scope: Optional[str] = None
        #: scoped checks since the latest full one
        self._since_full = 0

    def due(self) -> bool:
        """Advance the cadence by one update; report whether to check now."""
        if self.sample_rate is not None:
            return self._rng.random() < self.sample_rate
        if self.check_every <= 0:
            return False
        self._since_check += 1
        if self._since_check >= self.check_every:
            self._since_check = 0
            return True
        return False

    @property
    def may_check(self) -> bool:
        """Whether any future update can be checked at this cadence."""
        return self.sample_rate is not None or self.check_every > 0

    def check(
        self,
        graph: DataGraph,
        index: Optional[StructuralIndex] = None,
        family: Optional[AkIndexFamily] = None,
        region: Optional[CheckRegion] = None,
    ) -> None:
        """Run the checks; raise :class:`InvariantViolationError`.

        With a *region* whose pre-state is verified, check only that
        region, unless the schedule in the module docstring calls for
        the full oracle; without one, always run the full oracle.
        """
        obs = current_obs()
        started = time.perf_counter()
        plan = None
        if (
            region is not None
            and self.checks_run > 0
            and self.level != "minimal"
            and self._since_full < FULL_CHECK_EVERY - 1
        ):
            plan = _plan_scoped(graph, index, family, region, limit=graph.num_nodes)
        scope = "full" if plan is None else "scoped"
        self.checks_run += 1
        self.last_scope = scope
        self._since_full = 0 if plan is None else self._since_full + 1
        with obs.span("resilience.check", scope=scope, level=self.level) as span:
            try:
                if plan is None:
                    self.check_full(graph, index, family)
                else:
                    self._check_scoped(graph, index, family, region, plan)
            except InvariantViolationError:
                raise
            except AssertionError as exc:
                raise InvariantViolationError(
                    f"structural invariant broken: {exc}"
                ) from exc
            finally:
                if plan is not None:
                    covered = plan.size
                elif index is not None:
                    covered = index.num_inodes
                else:
                    covered = sum(family.sizes()) if family is not None else 0
                span.set(region=covered)
                obs.add(f"resilience.checks_{scope}")
                obs.observe(f"resilience.check_seconds.{scope}", time.perf_counter() - started)
                obs.observe("resilience.check_region_inodes", covered)

    def check_full(
        self,
        graph: DataGraph,
        index: Optional[StructuralIndex] = None,
        family: Optional[AkIndexFamily] = None,
    ) -> None:
        """The full oracle at this guard's level (no counters, no schedule)."""
        graph.check_invariants()
        if index is not None:
            if self.level == "basic":
                index.check_invariants()
            elif not is_valid_1index(index):
                raise InvariantViolationError("index is no longer a valid 1-index")
            elif self.level == "minimal" and not is_minimal_1index(index):
                raise InvariantViolationError("index is valid but no longer minimal")
        if family is not None:
            family.check_invariants()
            if self.level == "minimal" and not family.is_minimum():
                raise InvariantViolationError("A(k) family drifted from the minimum")

    def check_scoped(
        self,
        graph: DataGraph,
        region: CheckRegion,
        index: Optional[StructuralIndex] = None,
        family: Optional[AkIndexFamily] = None,
    ) -> None:
        """The scoped check alone, however large the region (no counters).

        *region* must hold a verified state (not :attr:`CheckRegion.full`).
        Lets tests compare scoped and full verdicts on the same state even
        where the schedule would run the full oracle.
        """
        plan = _plan_scoped(graph, index, family, region, limit=None)
        if plan is None:
            raise ValueError("no verified state to scope the check against")
        try:
            self._check_scoped(graph, index, family, region, plan)
        except AssertionError as exc:
            raise InvariantViolationError(f"structural invariant broken: {exc}") from exc

    def _check_scoped(
        self,
        graph: DataGraph,
        index: Optional[StructuralIndex],
        family: Optional[AkIndexFamily],
        region: CheckRegion,
        plan: "_Plan",
    ) -> None:
        net, edges = region.net_edges()
        graph.check_invariants_near(plan.touched.dnodes, edges, region.num_edges + net)
        if index is not None:
            unstable = index.check_invariants_near(plan.inodes, plan.touched.dnodes)
            if unstable and self.level != "basic":
                raise InvariantViolationError("index is no longer a valid 1-index")
        if family is not None:
            plan.size = family.check_invariants_near(plan.dnodes, region.tokens, plan.dead)


class _Plan:
    """A scoped check's region, resolved against the post-state."""

    __slots__ = ("touched", "inodes", "dnodes", "dead", "size")

    def __init__(self, touched: TouchedSet) -> None:
        self.touched = touched
        #: 1-index inodes to check
        self.inodes: set[int] = set()
        #: live dnodes whose A(k) classes to check
        self.dnodes: set[int] = set()
        #: touched dnodes no longer in the graph
        self.dead: list[int] = []
        #: inodes (or A(k) classes) in the region
        self.size = 0


def _plan_scoped(
    graph: DataGraph,
    index: Optional[StructuralIndex],
    family: Optional[AkIndexFamily],
    region: CheckRegion,
    limit: Optional[int],
) -> Optional[_Plan]:
    """Resolve *region* against the post-state; ``None`` means "go full".

    Full wins when there is no verified state, when the structures lack
    the scoped checks, or when the region's extents (or, for a family,
    its dnodes) reach *limit* — checking it would cost as much as the
    full oracle.
    """
    if region.full or not hasattr(graph, "check_invariants_near"):
        return None
    if index is not None and not hasattr(index, "check_invariants_near"):
        return None
    plan = _Plan(region.touched())
    touched = plan.touched
    if index is not None:
        inode_of = index._inode_of
        inodes = plan.inodes
        inodes.update(touched.inodes)
        for dnode in touched.dnodes:
            inode = inode_of.get(dnode)
            if inode is not None:
                inodes.add(inode)
        plan.size = len(inodes)
        if limit is not None:
            extents = index._extent_arr
            total = 0
            for inode in inodes:
                arr = extents.get(inode)
                if arr is not None:
                    total += len(arr)
            if total >= limit:
                return None
    if family is not None:
        live = plan.dnodes
        for dnode in touched.dnodes:
            if graph.has_node(dnode):
                live.add(dnode)
            else:
                plan.dead.append(dnode)
        frontier = list(live)
        for _hop in range(family.k):
            if limit is not None and len(live) >= limit:
                return None
            reached = []
            for w in frontier:
                for c in graph.iter_succ(w):
                    if c not in live:
                        live.add(c)
                        reached.append(c)
            frontier = reached
        if limit is not None and len(live) >= limit:
            return None
    return plan
