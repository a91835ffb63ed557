"""The shadow-full differential: every scoped check re-run as a full one.

:class:`~repro.resilience.invariants.InvariantGuard` checks most batches
only over the region they touched.  The suites that exercise the guard
hardest (chaos, soak, crash-point) keep the full oracle on every batch
through :func:`shadow_full_checks`: each scoped check also runs the full
oracle on the same state, and the test fails if the two verdicts (raise
or pass) ever disagree.  The scoped verdict is the one the guard acts
on, so the suites' own behaviour is unchanged.
"""

from __future__ import annotations

import pytest

from repro.resilience.invariants import InvariantGuard


@pytest.fixture(autouse=True)
def shadow_full_checks(monkeypatch):
    """Fail the test if a scoped check and the full oracle ever disagree."""
    disagreements: list[str] = []
    scoped = InvariantGuard._check_scoped

    def shadowed(self, graph, index, family, region, plan):
        scoped_error = full_error = None
        try:
            scoped(self, graph, index, family, region, plan)
        except Exception as exc:  # noqa: BLE001 - any raise is a verdict
            scoped_error = exc
        try:
            self.check_full(graph, index, family)
        except Exception as exc:  # noqa: BLE001 - any raise is a verdict
            full_error = exc
        if (scoped_error is None) != (full_error is None):
            disagreements.append(f"scoped: {scoped_error!r}, full: {full_error!r}")
        if scoped_error is not None:
            raise scoped_error

    monkeypatch.setattr(InvariantGuard, "_check_scoped", shadowed)
    yield disagreements
    assert not disagreements, f"scoped and full checks disagreed: {disagreements}"
