"""Serving telemetry: counters, latency sketches, streaming export.

:class:`ServeCounters` declares a service's cumulative counts on the
shared :class:`~repro.counters.Counters` base, which snapshots, diffs and
merges them; a multi-worker front end sums workers' counters with
``ServeCounters.merged`` (``max_queue_depth``, a high-water mark, takes
the max).

:class:`LatencySketch` is the one latency record: a mergeable
log-bucketed quantile sketch (DDSketch-style, relative error ``alpha``).
A service records every request into one, reports p50/p95 from it, and
ships its bucket counts so a front end reports fleet-wide percentiles by
summing buckets instead of shipping raw latencies.  In-process and fleet
percentiles therefore carry the same error bound.

:class:`TelemetryExporter` journals periodic snapshots (counters +
latency summary + sketch state) as append-only JSONL through the
crash-safe :class:`~repro.runner.ledger.Ledger`, so a long-running
service leaves a replayable record of its tail behaviour over time;
:func:`read_telemetry` replays it.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from ..counters import Counters

__all__ = [
    "ServeCounters",
    "LatencySketch",
    "TelemetryExporter",
    "read_telemetry",
    "rotated_segment",
]

#: Snapshot records in the telemetry journal carry this event name.
TELEMETRY_EVENT = "serve-telemetry"


@dataclass
class ServeCounters(Counters):
    """Cumulative work counters of one :class:`~repro.serve.DCNService`."""

    HIGH_WATER: ClassVar[frozenset[str]] = frozenset({"max_queue_depth"})

    requests: int = 0  # requests admitted (shed requests excluded)
    examples: int = 0  # rows admitted across those requests
    batches: int = 0  # coalesced dispatches executed
    coalesced_requests: int = 0  # requests that shared a dispatch with another
    pad_rows: int = 0  # bucket-padding rows pushed through the engine
    flagged: int = 0  # rows the detector routed to the corrector
    corrected: int = 0  # flagged rows actually corrected (not degraded)
    shed: int = 0  # requests rejected by admission control
    degraded: int = 0  # requests served detector-only under overload
    slo_shed: int = 0  # sheds decided by the SLO wait estimate (not the backstop)
    slo_degraded: int = 0  # degrades decided by the SLO wait estimate
    deadline_shed: int = 0  # sheds because the request's deadline was un-meetable
    respawns: int = 0  # dead serving workers respawned by supervision
    crash_loops: int = 0  # workers abandoned after exhausting the restart budget
    queue_depth: int = 0  # gauge: requests waiting right now
    queued_rows: int = 0  # gauge: rows across those waiting requests
    max_queue_depth: int = 0  # high-water mark of the queue
    plan_hits: int = 0  # engine plan-LRU hits attributed to serving
    plan_misses: int = 0  # engine plan compilations attributed to serving
    seconds: float = 0.0  # wall clock inside dispatches

    @property
    def flagged_fraction(self) -> float:
        """Fraction of served rows that activated the corrector."""
        return self.flagged / self.examples if self.examples else 0.0


class LatencySketch:
    """Mergeable quantile sketch with bounded relative error (DDSketch-style).

    Values land in logarithmic buckets ``gamma**k`` with
    ``gamma = (1 + alpha) / (1 - alpha)``, so any reported quantile is
    within relative error ``alpha`` of the true value.  Two sketches with
    the same ``alpha`` merge by summing bucket counts — the whole point:
    a fleet of workers each ship a small dict of counts and the front end
    reports exact-rank, bounded-error fleet percentiles without ever
    seeing a raw latency.
    """

    #: Latencies below this (seconds) collapse into one underflow bucket.
    MIN_VALUE = 1e-9

    def __init__(self, alpha: float = 0.01):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._buckets: dict[int, int] = {}
        self._underflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, seconds: float) -> None:
        """Fold one latency in; non-finite or negative values are dropped."""
        value = float(seconds)
        if not math.isfinite(value) or value < 0.0:
            return
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if value < self.MIN_VALUE:
            self._underflow += 1
        else:
            key = math.ceil(math.log(value) / self._log_gamma)
            self._buckets[key] = self._buckets.get(key, 0) + 1

    def percentile(self, q: float) -> float:
        """Value at percentile ``q`` (0-100); NaN when empty.

        Exact in rank, within ``alpha`` relative error in value; clamped
        to the observed ``[min, max]``.
        """
        if self.count == 0:
            return float("nan")
        rank = (q / 100.0) * (self.count - 1)
        seen = self._underflow
        if rank < seen:
            return self.min
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if rank < seen:
                value = 2.0 * self._gamma**key / (self._gamma + 1.0)
                return min(max(value, self.min), self.max)
        return self.max

    def summary(self) -> dict[str, float]:
        """Millisecond percentiles in benchcmp-gateable naming (``*_ms``)."""
        if self.count == 0:
            return {"count": 0.0, "p50_ms": float("nan"), "p95_ms": float("nan"),
                    "mean_ms": float("nan")}
        return {
            "count": float(self.count),
            "p50_ms": self.percentile(50) * 1e3,
            "p95_ms": self.percentile(95) * 1e3,
            "mean_ms": (self.sum / self.count) * 1e3,
        }

    # -- merging / wire format -------------------------------------------------

    def state(self) -> dict:
        """JSON-able snapshot: bucket counts keyed by stringified index."""
        return {
            "alpha": self.alpha,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "underflow": self._underflow,
            "buckets": {str(key): count for key, count in self._buckets.items()},
        }

    def merge_state(self, state: dict) -> "LatencySketch":
        """Fold another sketch's :meth:`state` into this one (same alpha)."""
        if abs(float(state["alpha"]) - self.alpha) > 1e-12:
            raise ValueError(
                f"cannot merge sketches with different alpha "
                f"({state['alpha']} != {self.alpha})"
            )
        count = int(state["count"])
        if count == 0:
            return self
        self.count += count
        self.sum += float(state["sum"])
        self.min = min(self.min, float(state["min"]))
        self.max = max(self.max, float(state["max"]))
        self._underflow += int(state.get("underflow", 0))
        for key, bucket_count in state["buckets"].items():
            key = int(key)
            self._buckets[key] = self._buckets.get(key, 0) + int(bucket_count)
        return self

    def merge(self, other: "LatencySketch") -> "LatencySketch":
        return self.merge_state(other.state())

    @classmethod
    def from_state(cls, state: dict) -> "LatencySketch":
        return cls(alpha=float(state["alpha"])).merge_state(state)


class TelemetryExporter:
    """Journal periodic telemetry snapshots of a service as append-only JSONL.

    ``source`` is anything with a ``telemetry_snapshot() -> dict`` method
    (:class:`~repro.serve.DCNService` and :class:`~repro.serve.ServePool`
    both qualify).  Every ``interval_s`` a snapshot is appended through
    the crash-safe :class:`~repro.runner.ledger.Ledger` — single
    ``O_APPEND`` writes, group-commit fsync — as an event record::

        {"kind": "event", "event": "serve-telemetry", "seq": n,
         "time": <unix>, "final": bool, ...snapshot...}

    so a long overload run leaves a time series of counters and tail
    percentiles that survives the process dying mid-run.  A final
    snapshot is written on :meth:`stop`.

    ``max_bytes`` bounds the live journal: once an append pushes the file
    past it, the journal **rotates** logrotate-style — ``path`` becomes
    ``path.1``, the old ``path.1`` becomes ``path.2``, and so on up to
    ``keep`` rotated segments (the oldest is dropped) — so a long-running
    server's telemetry disk footprint is bounded at roughly
    ``(keep + 1) * max_bytes``.  :func:`read_telemetry` loads across the
    rotated segments transparently, oldest records first.
    """

    def __init__(self, source, path: str | Path, interval_s: float = 1.0,
                 fsync_every: int = 16, max_bytes: int | None = None,
                 keep: int = 5):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        from ..runner.ledger import Ledger  # stdlib-only module; no cycle

        self.source = source
        self.path = Path(path)
        self.interval_s = interval_s
        self.max_bytes = max_bytes
        self.keep = keep
        self.rotations = 0
        self._fsync_every = fsync_every
        self._ledger = Ledger(self.path, fsync_every=fsync_every)
        self._seq = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def snapshot_now(self, final: bool = False) -> dict:
        """Journal one snapshot immediately; returns the record written."""
        record = {
            "event": TELEMETRY_EVENT,
            "seq": self._seq,
            "time": round(time.time(), 3),
            "final": bool(final),
            **self.source.telemetry_snapshot(),
        }
        with self._lock:
            self._seq += 1
            self._ledger.event(**record)
            self._maybe_rotate_locked()
        return record

    def _maybe_rotate_locked(self) -> None:
        if self.max_bytes is None:
            return
        try:
            size = self.path.stat().st_size
        except OSError:  # pragma: no cover - journal vanished underneath us
            return
        if size < self.max_bytes:
            return
        from ..runner.ledger import Ledger

        self._ledger.flush()
        self._ledger.close()
        oldest = rotated_segment(self.path, self.keep)
        oldest.unlink(missing_ok=True)
        for index in range(self.keep - 1, 0, -1):
            segment = rotated_segment(self.path, index)
            if segment.exists():
                os.replace(segment, rotated_segment(self.path, index + 1))
        os.replace(self.path, rotated_segment(self.path, 1))
        self._ledger = Ledger(self.path, fsync_every=self._fsync_every)
        self.rotations += 1

    def start(self) -> "TelemetryExporter":
        if self._thread is not None:
            raise RuntimeError("exporter already started")
        self._stop.clear()

        def loop():
            while not self._stop.wait(self.interval_s):
                self.snapshot_now()

        self._thread = threading.Thread(target=loop, name="serve-telemetry", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the export thread, write a final snapshot, flush to disk."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.snapshot_now(final=True)
        with self._lock:
            self._ledger.flush()
            self._ledger.close()

    def __enter__(self) -> "TelemetryExporter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def rotated_segment(path: str | Path, index: int) -> Path:
    """Path of rotated segment ``index`` (1 = most recently rotated)."""
    path = Path(path)
    return path.with_name(f"{path.name}.{index}")


def read_telemetry(path: str | Path) -> list[dict]:
    """Replay a telemetry journal: the snapshot records, oldest first.

    Loads across rotated segments (``path.N`` … ``path.1``, then the live
    file) so a size-rotated journal replays as one time series.  Tolerates
    a torn trailing line (crash mid-append) exactly like the runner's
    ledger replay — everything before it is returned.
    """
    from ..runner.ledger import Ledger

    path = Path(path)
    segments: list[Path] = []
    index = 1
    while rotated_segment(path, index).exists():
        segments.append(rotated_segment(path, index))
        index += 1
    segments.reverse()  # highest index = oldest
    if path.exists():
        segments.append(path)
    records: list[dict] = []
    for segment in segments:
        state = Ledger(segment).replay()
        records.extend(
            rec for rec in state.events if rec.get("event") == TELEMETRY_EVENT
        )
    return records
