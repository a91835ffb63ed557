"""Scoped invariant checks: same verdict as the full oracle, on schedule.

The corruption sweep injects one bug as the *last* operation of a batch
on a verified pre-state, through buggy maintainer subclasses (like
``BuggyMaintainer`` in ``test_guard.py``).  At every due check the
recorder evaluates the scoped check — however large its region — and the
full oracle on the same state; the two verdicts must agree, both when
the corruption makes them raise and in the clean control runs.  The
schedule tests then pin when the guard runs the full oracle instead.
``CHAOS_SEED`` shifts the random graph and the edges each batch uses.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import InvariantViolationError
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.index.akindex import AkIndexFamily
from repro.index.oneindex import OneIndex
from repro.maintenance.ak_split_merge import AkSplitMergeMaintainer
from repro.maintenance.base import UpdateStats
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.obs import NullSink, observed
from repro.resilience import GuardConfig, GuardedMaintainer, InvariantGuard
from repro.resilience.invariants import FULL_CHECK_EVERY
from repro.workload.imdb import IMDBConfig, generate_imdb
from repro.workload.random_graphs import candidate_edges, random_cyclic
from repro.workload.xmark import XMarkConfig, generate_xmark
from tests.resilience.conftest import CHAOS_SEED

TINY_XMARK = XMarkConfig(
    num_items=8, num_persons=10, num_open_auctions=6, num_closed_auctions=4,
    num_categories=3,
)
TINY_IMDB = IMDBConfig(num_movies=12, num_persons=16, num_communities=3)
GRAPHS = ("figure2", "random", "xmark", "imdb")
K = 2


def make_graph(name: str, request) -> DataGraph:
    if name == "figure2":
        return request.getfixturevalue("figure2_graph")
    if name == "random":
        return random_cyclic(random.Random(CHAOS_SEED), 80, 40)
    if name == "xmark":
        return generate_xmark(TINY_XMARK).graph
    return generate_imdb(TINY_IMDB).graph


def batches(graph: DataGraph) -> tuple[list, list]:
    """A clean warm-up batch and a batch ending in one insert_edge."""
    rng = random.Random(f"scoped:{CHAOS_SEED}")
    new = candidate_edges(graph, rng, 3, acyclic=False)
    old = sorted(e for e in graph.edges() if e[0] != graph.root)
    warm = [("insert_edge", (*new[0], EdgeKind.IDREF))]
    batch = [
        ("delete_edge", rng.choice(old)),
        ("insert_edge", (*new[1], EdgeKind.IDREF)),
    ]
    return warm, batch


@pytest.fixture
def verdicts(monkeypatch):
    """(scoped ok, full ok) at every due check with a verified region."""
    seen: list[tuple[bool, bool]] = []
    check = InvariantGuard.check

    def verdict(run) -> bool:
        try:
            run()
        except Exception:  # noqa: BLE001 - any raise is a verdict
            return False
        return True

    def recording(self, graph, index=None, family=None, region=None):
        if region is not None and not region.full:
            seen.append((
                verdict(lambda: self.check_scoped(graph, region, index, family)),
                verdict(lambda: self.check_full(graph, index, family)),
            ))
        return check(self, graph, index=index, family=family, region=region)

    monkeypatch.setattr(InvariantGuard, "check", recording)
    return seen


# ----------------------------------------------------------------------
# 1-index corruptions: each runs after (or instead of) a clean insert_edge
# ----------------------------------------------------------------------


def edge_added_silently(m, source, target, kind):
    m.graph.add_edge(source, target, kind)


def edge_removed_silently(m, source, target, kind):
    SplitMergeMaintainer.insert_edge(m, source, target, kind)
    m.graph.remove_edge(source, target)


def wrong_support_delta(m, source, target, kind):
    SplitMergeMaintainer.insert_edge(m, source, target, kind)
    index = m.index
    si, ti = index.inode_of(source), index.inode_of(target)
    index._bump(index._succ_support[si], ti, 1)
    index._bump(index._pred_support[ti], si, 1)
    index._journal.record(index, "support_bumped", (si, ti, 1))


def unstable_split(m, source, target, kind):
    """Split a dnode off its inode so that one of its child inodes loses
    stability: some member of that child inode is not a child of it."""
    SplitMergeMaintainer.insert_edge(m, source, target, kind)
    index, graph = m.index, m.graph
    for inode in sorted(index.inodes()):
        extent = index.extent(inode)
        if len(extent) < 2:
            continue
        for w in sorted(extent):
            kids = graph.succ(w)
            for c in sorted(kids):
                if any(x not in kids for x in index.extent(index.inode_of(c))):
                    index.split_off(inode, [w])
                    return
    pytest.skip("no inode whose split leaves a child unstable")


def non_bisimilar_merge(m, source, target, kind):
    SplitMergeMaintainer.insert_edge(m, source, target, kind)
    index = m.index
    by_label: dict[str, list[int]] = {}
    for inode in sorted(index.inodes()):
        by_label.setdefault(index.label_of(inode), []).append(inode)
    for group in by_label.values():
        for a in group:
            for b in group:
                if a < b and index.ipred_set(a) != index.ipred_set(b):
                    index.merge_inodes([a, b])
                    return
    pytest.skip("no two same-label inodes with different parents")


def dropped_but_covered(m, source, target, kind):
    SplitMergeMaintainer.insert_edge(m, source, target, kind)
    oid = m.graph.add_node("stray")
    m.index.add_dnode(oid)
    m.graph.remove_node(oid)  # the index keeps covering it


ONE_CORRUPTIONS = [
    edge_added_silently,
    edge_removed_silently,
    wrong_support_delta,
    unstable_split,
    non_bisimilar_merge,
    dropped_but_covered,
]


class BuggyOneIndex(SplitMergeMaintainer):
    corruption = None

    def insert_edge(self, source, target, kind=EdgeKind.TREE):
        if self.corruption is None:
            return super().insert_edge(source, target, kind)
        self.corruption(source, target, kind)
        return UpdateStats()


# ----------------------------------------------------------------------
# A(k) corruptions, one per level: the update target's entries
# ----------------------------------------------------------------------


def other_token(tokens, token):
    others = sorted(t for t in tokens if t != token)
    if not others:
        pytest.skip("level has a single class")
    return others[0]


def class_entry(family, level, target):
    lvl = family.levels[level]
    lvl.class_of[target] = other_token(lvl.extents, lvl.class_of[target])


def extent_member_dropped(family, level, target):
    lvl = family.levels[level]
    lvl.extents[lvl.class_of[target]].discard(target)


def extent_member_stray(family, level, target):
    lvl = family.levels[level]
    lvl.extents[other_token(lvl.extents, lvl.class_of[target])].add(target)


def parent_link(family, level, target):
    lvl, coarser = family.levels[level], family.levels[level - 1]
    token = lvl.class_of[target]
    lvl.parent[token] = other_token(coarser.extents, lvl.parent[token])


def children_link(family, level, target):
    lvl, finer = family.levels[level], family.levels[level + 1]
    lvl.children[lvl.class_of[target]].discard(finer.class_of[target])


def stale_child(family, level, target):
    lvl, finer = family.levels[level], family.levels[level + 1]
    lvl.children[lvl.class_of[target]].add(finer.next_token + 7)


#: (corruption, level) pairs: tree parents exist below level 0, tree
#: children above the leaf level
AK_CORRUPTIONS = [
    (corruption, level)
    for corruption in (class_entry, extent_member_dropped, extent_member_stray)
    for level in range(K + 1)
] + [(parent_link, level) for level in range(1, K + 1)] + [
    (corruption, level)
    for corruption in (children_link, stale_child)
    for level in range(K)
]


class BuggyAk(AkSplitMergeMaintainer):
    corruption = None
    level = 0

    def insert_edge(self, source, target, kind=EdgeKind.TREE):
        stats = super().insert_edge(source, target, kind)
        if self.corruption is not None:
            self.corruption(self.family, self.level, target)
        return stats


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------


def run_sweep(guard: GuardedMaintainer, arm, verdicts, graph) -> bool:
    """Warm up on a clean batch, arm the bug, apply the final batch.

    Returns whether the final batch raised; its one due check must have
    had equal scoped and full verdicts, and raised iff the full one did.
    """
    warm, batch = batches(graph)
    guard.apply_batch(warm)
    assert guard.stats.checks_full == 1 and not guard._region.full
    arm()
    before = len(verdicts)
    raised = False
    try:
        guard.apply_batch(batch)
    except InvariantViolationError:
        raised = True
    assert len(verdicts) == before + 1
    scoped_ok, full_ok = verdicts[-1]
    assert scoped_ok == full_ok
    assert raised == (not full_ok)
    return raised


@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("corruption", ONE_CORRUPTIONS, ids=lambda f: f.__name__)
def test_one_index_corruption_verdicts_agree(graph_name, corruption, verdicts, request):
    graph = make_graph(graph_name, request)
    maintainer = BuggyOneIndex(OneIndex.build(graph))
    guard = GuardedMaintainer(maintainer, GuardConfig(policy="raise"))

    def arm():
        maintainer.corruption = lambda *args: corruption(maintainer, *args)

    assert run_sweep(guard, arm, verdicts, graph)


@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize(
    ("corruption", "level"),
    AK_CORRUPTIONS,
    ids=[f"{c.__name__}@{level}" for c, level in AK_CORRUPTIONS],
)
def test_ak_corruption_verdicts_agree(graph_name, corruption, level, verdicts, request):
    graph = make_graph(graph_name, request)
    maintainer = BuggyAk(AkIndexFamily.build(graph, K))
    guard = GuardedMaintainer(maintainer, GuardConfig(policy="raise"))

    def arm():
        maintainer.corruption = corruption
        maintainer.level = level

    assert run_sweep(guard, arm, verdicts, graph)


@pytest.mark.parametrize("graph_name", GRAPHS)
@pytest.mark.parametrize("family", ["one", "ak"])
def test_clean_batches_pass_both_checks(graph_name, family, verdicts, request):
    graph = make_graph(graph_name, request)
    if family == "one":
        maintainer = SplitMergeMaintainer(OneIndex.build(graph))
    else:
        maintainer = AkSplitMergeMaintainer(AkIndexFamily.build(graph, K))
    guard = GuardedMaintainer(maintainer, GuardConfig(policy="raise"))
    assert not run_sweep(guard, lambda: None, verdicts, graph)
    assert verdicts and all(scoped and full for scoped, full in verdicts)


# ----------------------------------------------------------------------
# The full-check schedule
# ----------------------------------------------------------------------


def xmark_guard(config: GuardConfig, family: str = "one") -> GuardedMaintainer:
    graph = generate_xmark(TINY_XMARK).graph
    if family == "one":
        return GuardedMaintainer(SplitMergeMaintainer(OneIndex.build(graph)), config)
    return GuardedMaintainer(AkSplitMergeMaintainer(AkIndexFamily.build(graph, K)), config)


def toggle(guard: GuardedMaintainer, times: int, salt: int = 0) -> list[str]:
    """Insert and delete one IDREF edge *times* times; return each scope."""
    rng = random.Random(f"toggle:{CHAOS_SEED}:{salt}")
    edge = candidate_edges(guard.graph, rng, 1, acyclic=False)[0]
    scopes = []
    for i in range(times):
        if i % 2 == 0:
            guard.insert_edge(*edge, EdgeKind.IDREF)
        else:
            guard.delete_edge(*edge)
        scopes.append(guard.invariants.last_scope)
    return scopes


class TestSchedule:
    def test_first_check_is_full_then_scoped(self):
        guard = xmark_guard(GuardConfig(policy="raise"))
        assert toggle(guard, 4) == ["full", "scoped", "scoped", "scoped"]
        assert guard.stats.checks == 4
        assert (guard.stats.checks_full, guard.stats.checks_scoped) == (1, 3)

    def test_every_full_check_every_th_check_is_full(self):
        guard = xmark_guard(GuardConfig(policy="raise"))
        scopes = toggle(guard, 2 * FULL_CHECK_EVERY + 1)
        full_at = [i for i, scope in enumerate(scopes) if scope == "full"]
        assert full_at == [0, FULL_CHECK_EVERY, 2 * FULL_CHECK_EVERY]

    def test_minimal_level_is_always_full(self):
        guard = xmark_guard(GuardConfig(policy="raise", check_level="minimal"))
        assert toggle(guard, 3) == ["full"] * 3

    @pytest.mark.parametrize("family", ["one", "ak"])
    def test_check_after_rollback_is_full(self, family):
        guard = xmark_guard(GuardConfig(policy="raise"), family)
        toggle(guard, 2)
        with pytest.raises(Exception):
            guard.apply_batch([("delete_edge", (guard.graph.root, guard.graph.root))])
        assert guard.stats.rollbacks == 1
        assert toggle(guard, 2, salt=1) == ["full", "scoped"]

    def test_check_after_degrade_rebuild_is_full(self):
        class FailOnce(SplitMergeMaintainer):
            failed = False

            def insert_edge(self, source, target, kind=EdgeKind.TREE):
                if not self.failed:
                    self.failed = True
                    raise RuntimeError("transient maintainer bug")
                return super().insert_edge(source, target, kind)

        graph = generate_xmark(TINY_XMARK).graph
        guard = GuardedMaintainer(
            FailOnce(OneIndex.build(graph)), GuardConfig(policy="degrade")
        )
        rng = random.Random(f"degrade:{CHAOS_SEED}")
        a, b = candidate_edges(graph, rng, 2, acyclic=False)
        guard.delete_edge(*sorted(e for e in graph.edges() if e[0] != graph.root)[0])
        guard.insert_edge(*a, EdgeKind.IDREF)  # fails, degrades, re-applies
        assert guard.stats.degradations == 1
        assert guard.invariants.last_scope == "full"
        guard.insert_edge(*b, EdgeKind.IDREF)
        assert guard.invariants.last_scope == "scoped"

    def test_check_after_mark_all_is_full(self):
        guard = xmark_guard(GuardConfig(policy="raise"), "ak")
        toggle(guard, 2)
        guard.maintainer.rebuild_from_graph()  # reports TouchedSet.full
        assert toggle(guard, 2, salt=1) == ["full", "scoped"]

    def test_mutation_outside_the_guard_forces_full(self):
        guard = xmark_guard(GuardConfig(policy="raise"))
        toggle(guard, 2)
        guard.maintainer.rebuild_from_graph()  # bumps the index generation
        assert toggle(guard, 2, salt=1) == ["full", "scoped"]

    def test_oversize_region_is_full(self):
        graph = DataGraph()
        root = graph.add_root()
        xs = [graph.add_node("X") for _ in range(5)]
        for x in xs:
            graph.add_edge(root, x)
        guard = GuardedMaintainer(
            SplitMergeMaintainer(OneIndex.build(graph)), GuardConfig(policy="raise")
        )
        guard.insert_edge(xs[0], xs[1], EdgeKind.IDREF)
        # x1 rejoins its siblings: the region's extents cover all six dnodes
        guard.delete_edge(xs[0], xs[1])
        assert (guard.stats.checks_full, guard.stats.checks_scoped) == (2, 0)

    def test_unchecked_commits_join_the_next_region(self, verdicts):
        guard = xmark_guard(GuardConfig(policy="raise", check_every=3))
        scopes = toggle(guard, 9)
        assert guard.stats.checks == 3
        assert (guard.stats.checks_full, guard.stats.checks_scoped) == (1, 2)
        assert scopes[-1] == "scoped"
        assert len(verdicts) == 2 and all(scoped and full for scoped, full in verdicts)

    def test_corruption_in_an_unchecked_commit_fails_the_next_check(self, verdicts):
        graph = generate_xmark(TINY_XMARK).graph
        maintainer = BuggyOneIndex(OneIndex.build(graph))
        guard = GuardedMaintainer(maintainer, GuardConfig(policy="raise", check_every=2))
        rng = random.Random(f"unchecked:{CHAOS_SEED}")
        edges = candidate_edges(graph, rng, 4, acyclic=False)
        guard.insert_edge(*edges[0], EdgeKind.IDREF)
        guard.insert_edge(*edges[1], EdgeKind.IDREF)  # due: the first, full check
        maintainer.corruption = lambda *args: wrong_support_delta(maintainer, *args)
        guard.insert_edge(*edges[2], EdgeKind.IDREF)  # not due: commits unchecked
        maintainer.corruption = None
        with pytest.raises(InvariantViolationError):
            guard.insert_edge(*edges[3], EdgeKind.IDREF)  # due: covers both commits
        assert guard.invariants.last_scope == "scoped"
        assert verdicts == [(False, False)]


def test_check_counters_histograms_and_spans():
    with observed(NullSink()) as obs:
        guard = xmark_guard(GuardConfig(policy="raise"))
        toggle(guard, 3)
    counters = obs.metrics.snapshot()["counters"]
    assert counters["resilience.checks_full"] == 1
    assert counters["resilience.checks_scoped"] == 2
    histograms = obs.metrics.histograms
    assert histograms["resilience.check_seconds.full"].count == 1
    assert histograms["resilience.check_seconds.scoped"].count == 2
    assert histograms["resilience.check_region_inodes"].count == 3
    assert guard.stats.last_full_check == (1, True)
