"""The live telemetry plane: fixed-memory, time-windowed aggregation.

The registry half of ``repro.obs`` answers "what happened over the whole
run" — cumulative counters and histograms, snapshotted at exit.  A
*serving* process never exits, and the questions change: what is commit
p95 **right now**, what is the shed rate **over the last minute**, is
fsync tail latency burning through its budget?  This module answers
those with sliding-window instruments layered over the same metric
stream:

* every instrument divides time into fixed **frames** (sub-windows) and
  keeps one small aggregate per frame — for histograms a
  :class:`~repro.obs.metrics.Digest`, the very digest each cumulative
  :class:`~repro.obs.metrics.Histogram` is built on; plain sums for
  counters; last-value + per-frame max for gauges;
* frames older than the **retention horizon** are pruned on the next
  write or read, so memory is bounded by ``retained frames × bucket
  cap`` regardless of traffic;
* aggregation merges the frames inside any window up to the horizon
  (``Digest.merge``) — the SLO watchdog reads the same instrument over
  a fast *and* a slow window (burn-rate alerting) without extra state.

Only metric *streams* live here.  Derived sizes such as the graph and
index byte counts are not pushed at all: ``/metrics`` reads them from
the service's ``health()`` when it is scraped.

Feeding the plane is the :class:`~repro.obs.Observer` facade's job:
``attach_live(plane)`` mirrors every ``add``/``observe``/``set``/
``set_max`` into the windows, so the instrumented hot paths need no
changes.  All operations take one lock per call — the exporter thread,
the SLO watchdog, reader threads and the writer thread all touch the
plane concurrently.

Timebase: the plane's clock is injectable (default ``time.monotonic``)
and every read method takes an optional ``now`` so tests drive windows
deterministically.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.metrics import Digest

__all__ = [
    "WindowConfig",
    "WindowStats",
    "SlidingHistogram",
    "SlidingCounter",
    "SlidingGauge",
    "LivePlane",
]


@dataclass(frozen=True)
class WindowConfig:
    """Shape of the sliding windows: width, granularity, retention.

    The default — a 60 s window in 5 s frames, retained for 5 windows —
    gives the SLO watchdog a 60 s fast window and up to a 300 s slow
    window from one set of frames.
    """

    #: the primary aggregation window (seconds)
    width_seconds: float = 60.0
    #: sub-windows per window; rotation granularity = width / frames
    frames: int = 12
    #: how many window-widths of frames to retain (the slow-burn horizon)
    retention_factor: int = 5

    def __post_init__(self) -> None:
        if self.width_seconds <= 0:
            raise ValueError("window width_seconds must be > 0")
        if self.frames < 1:
            raise ValueError("window frames must be >= 1")
        if self.retention_factor < 1:
            raise ValueError("window retention_factor must be >= 1")

    @property
    def frame_seconds(self) -> float:
        """Duration of one frame."""
        return self.width_seconds / self.frames

    @property
    def retention_seconds(self) -> float:
        """Oldest lookback any aggregation can ask for."""
        return self.width_seconds * self.retention_factor

    @property
    def retained_frames(self) -> int:
        """Hard cap on live frames per instrument."""
        return self.frames * self.retention_factor + 1


@dataclass
class WindowStats:
    """Aggregate of one instrument over one window (JSON-able)."""

    window_seconds: float
    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def rate(self) -> float:
        """Observations (or counter increments) per second."""
        return self.count / self.window_seconds if self.window_seconds else 0.0

    def stat(self, name: str) -> float:
        """Look up a statistic by name (the SLO rule vocabulary)."""
        if name == "mean":
            return self.mean
        if name == "rate":
            return self.rate
        try:
            return getattr(self, name)
        except AttributeError:
            raise ValueError(f"unknown window statistic {name!r}") from None

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "rate": self.rate,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class _FrameRing:
    """Frame bookkeeping shared by the sliding instruments.

    Frames are keyed by ``int(now / frame_seconds)`` and pruned lazily —
    on every write and aggregation — against the retention horizon, so
    an idle instrument costs nothing and a busy one never exceeds
    :attr:`WindowConfig.retained_frames` entries.
    """

    __slots__ = ("config", "frames")

    def __init__(self, config: WindowConfig):
        self.config = config
        self.frames: dict[int, object] = {}

    def frame_no(self, now: float) -> int:
        return int(now / self.config.frame_seconds)

    def prune(self, now: float) -> None:
        horizon = self.frame_no(now) - self.config.retained_frames
        if len(self.frames) > self.config.retained_frames or (
            self.frames and min(self.frames) <= horizon
        ):
            for key in [k for k in self.frames if k <= horizon]:
                del self.frames[key]

    def live_frames(self, seconds: float, now: float) -> list:
        """Frames covering the last *seconds* (clamped to retention)."""
        seconds = min(seconds, self.config.retention_seconds)
        newest = self.frame_no(now)
        # the current frame is partial; windows span whole frames back
        # from it so a window of W seconds sees >= W seconds of data
        span = max(1, int(round(seconds / self.config.frame_seconds)))
        oldest = newest - span
        return [frame for no, frame in self.frames.items() if oldest <= no <= newest]


class SlidingHistogram:
    """A histogram whose aggregates slide with time."""

    __slots__ = ("name", "_ring")

    def __init__(self, name: str, config: WindowConfig):
        self.name = name
        self._ring = _FrameRing(config)

    def observe(self, value: float, now: float) -> None:
        ring = self._ring
        ring.prune(now)
        no = ring.frame_no(now)
        frame = ring.frames.get(no)
        if frame is None:
            frame = ring.frames[no] = Digest()
        frame.observe(value)

    def window(self, now: float, seconds: Optional[float] = None) -> WindowStats:
        """Merged statistics over the last *seconds* (default: one window)."""
        ring = self._ring
        seconds = seconds if seconds is not None else ring.config.width_seconds
        ring.prune(now)
        merged = Digest()
        for frame in ring.live_frames(seconds, now):
            merged.merge(frame)
        return WindowStats(
            window_seconds=min(seconds, ring.config.retention_seconds),
            count=merged.count,
            total=merged.total,
            min=merged.min,
            max=merged.max,
            p50=merged.quantile(50),
            p95=merged.quantile(95),
            p99=merged.quantile(99),
        )

    def approx_bytes(self) -> int:
        """Approximate heap footprint of the retained frames."""
        frames = self._ring.frames
        return sys.getsizeof(frames) + sum(f.approx_bytes() for f in frames.values())


class SlidingCounter:
    """A counter whose per-window sum and rate slide with time."""

    __slots__ = ("name", "_ring", "lifetime")

    def __init__(self, name: str, config: WindowConfig):
        self.name = name
        self._ring = _FrameRing(config)
        self.lifetime = 0

    def add(self, n: int, now: float) -> None:
        ring = self._ring
        ring.prune(now)
        no = ring.frame_no(now)
        ring.frames[no] = ring.frames.get(no, 0) + n
        self.lifetime += n

    def window(self, now: float, seconds: Optional[float] = None) -> WindowStats:
        ring = self._ring
        seconds = seconds if seconds is not None else ring.config.width_seconds
        ring.prune(now)
        stats = WindowStats(window_seconds=min(seconds, ring.config.retention_seconds))
        stats.count = sum(ring.live_frames(seconds, now))
        stats.total = float(stats.count)
        return stats


class SlidingGauge:
    """Last value plus a sliding per-window maximum."""

    __slots__ = ("name", "_ring", "value")

    def __init__(self, name: str, config: WindowConfig):
        self.name = name
        self._ring = _FrameRing(config)
        self.value: float = 0.0

    def set(self, value: float, now: float) -> None:
        self.value = value
        ring = self._ring
        ring.prune(now)
        no = ring.frame_no(now)
        current = ring.frames.get(no)
        if current is None or value > current:
            ring.frames[no] = value

    def set_max(self, value: float, now: float) -> None:
        if value > self.value:
            self.value = value
        self.set(max(self.value, value), now)

    def window_max(self, now: float, seconds: Optional[float] = None) -> float:
        ring = self._ring
        seconds = seconds if seconds is not None else ring.config.width_seconds
        ring.prune(now)
        live = ring.live_frames(seconds, now)
        return max(live) if live else self.value


class LivePlane:
    """Create-on-demand sliding-window instruments, one lock, one clock.

    The windowed mirror of :class:`~repro.obs.metrics.MetricsRegistry`:
    attach it to an observer (``obs.attach_live(plane)``) and every
    metric the instrumented code reports grows a sliding window here.
    The exporter (:mod:`repro.obs.export`) and the SLO watchdog
    (:mod:`repro.obs.slo`) read it; nothing in the hot path ever reads
    it back.
    """

    def __init__(
        self,
        config: Optional[WindowConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config if config is not None else WindowConfig()
        self.clock = clock
        self._lock = threading.Lock()
        self._histograms: dict[str, SlidingHistogram] = {}
        self._counters: dict[str, SlidingCounter] = {}
        self._gauges: dict[str, SlidingGauge] = {}
        self.started_at = clock()

    # -- write side (called via the Observer facade) -------------------

    def observe(self, name: str, value: float) -> None:
        now = self.clock()
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = SlidingHistogram(
                    name, self.config
                )
            instrument.observe(value, now)

    def add(self, name: str, n: int = 1) -> None:
        now = self.clock()
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = SlidingCounter(name, self.config)
            instrument.add(n, now)

    def set_gauge(self, name: str, value: float) -> None:
        now = self.clock()
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = SlidingGauge(name, self.config)
            instrument.set(value, now)

    def set_max_gauge(self, name: str, value: float) -> None:
        now = self.clock()
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = SlidingGauge(name, self.config)
            instrument.set_max(value, now)

    # -- read side (exporter, watchdog, tests) -------------------------

    def window(
        self, name: str, seconds: Optional[float] = None, now: Optional[float] = None
    ) -> Optional[WindowStats]:
        """Windowed stats of histogram-or-counter *name* (``None`` if the
        metric has never been reported)."""
        now = now if now is not None else self.clock()
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is not None:
                return histogram.window(now, seconds)
            counter = self._counters.get(name)
            if counter is not None:
                return counter.window(now, seconds)
        return None

    def gauge_value(self, name: str) -> Optional[float]:
        with self._lock:
            gauge = self._gauges.get(name)
            return gauge.value if gauge is not None else None

    def stat(
        self,
        name: str,
        statistic: str,
        seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """One statistic of one metric over one window — the SLO hook.

        ``statistic`` is a :class:`WindowStats` field (``p50``/``p95``/
        ``p99``/``max``/``mean``/``rate``/``count``/…) for histograms and
        counters, or ``value``/``max`` for gauges.  Returns ``None``
        when the metric has never been reported.
        """
        now = now if now is not None else self.clock()
        with self._lock:
            gauge = self._gauges.get(name)
        if gauge is not None:
            if statistic == "value":
                return gauge.value
            if statistic == "max":
                with self._lock:
                    return gauge.window_max(now, seconds)
            raise ValueError(
                f"gauge {name!r} supports statistics 'value' and 'max', "
                f"not {statistic!r}"
            )
        stats = self.window(name, seconds, now)
        return stats.stat(statistic) if stats is not None else None

    def snapshot(self, now: Optional[float] = None) -> dict:
        """Every instrument's primary-window stats as a JSON-able dict."""
        now = now if now is not None else self.clock()
        with self._lock:
            histograms = {
                name: h.window(now).to_dict() for name, h in sorted(self._histograms.items())
            }
            counters = {
                name: {
                    "window_count": c.window(now).count,
                    "rate": c.window(now).rate,
                    "lifetime": c.lifetime,
                }
                for name, c in sorted(self._counters.items())
            }
            gauges = {
                name: {"value": g.value, "window_max": g.window_max(now)}
                for name, g in sorted(self._gauges.items())
            }
        return {
            "window_seconds": self.config.width_seconds,
            "uptime_seconds": now - self.started_at,
            "histograms": histograms,
            "counters": counters,
            "gauges": gauges,
        }

    def approx_bytes(self) -> int:
        """Approximate heap footprint of every instrument's frames."""
        with self._lock:
            size = sum(h.approx_bytes() for h in self._histograms.values())
            size += sum(
                sys.getsizeof(c._ring.frames) for c in self._counters.values()
            )
            size += sum(
                sys.getsizeof(g._ring.frames) for g in self._gauges.values()
            )
        return size
