"""Arithmetic of the end-to-end benchmark: schedules, streams, percentiles,
and the host probe that scales its times to a nominal host speed.

Shared by the workloads, ``run.py``'s ``--compare`` and the self-tests.
Nothing here imports the program under test.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

#: A window-p99 needs at least this many samples, so ten lie beyond it.
MIN_WINDOW = 1000

#: Seconds the host probe's kernel takes on one core of the 2-vCPU Xeon
#: host the benchmark was calibrated on, in its quieter stretches.  A
#: probe's time over this is the host factor the metrics are scaled by.
PROBE_NOMINAL_S = 0.0025

_PROBE_MATRIX = np.random.default_rng(0).random((128, 128), dtype=np.float32)
_PROBE_VECTOR = np.random.default_rng(1).random(4096, dtype=np.float32)


def probe_kernel() -> float:
    """Seconds one pass of a fixed kernel takes on the calling thread.

    Interpreter work and small and mid-sized NumPy calls, the mix the
    program's serving and inference paths run.  Nothing in it comes from
    the program, so a change to the program cannot change its cost.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i & 7
    for _ in range(4):
        _PROBE_MATRIX @ _PROBE_MATRIX
    for _ in range(200):
        (_PROBE_VECTOR * 2.0 + 1.0).sum()
    return time.perf_counter() - start


class HostProbe:
    """How fast the shared host runs right now.

    The host's cores slow down by up to 2x for seconds to minutes at a
    time while other tenants run, with no steal time to show for it, so
    neither wall nor CPU time of the program alone is steady.  A probe
    runs :func:`probe_kernel` pinned to each core this process may use
    (best of two passes per core) and keeps the mean; its factor is that
    over :data:`PROBE_NOMINAL_S`.  A rate measured between two probes,
    times the mean of their factors, is the rate at the nominal host
    speed.  Probes run only while the program is idle, so what they time
    is the host, not the program.
    """

    def __init__(self, max_age_s: float = 0.25):
        self.max_age_s = max_age_s
        self.samples: list[float] = []
        self._at = -math.inf
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []

    def mark(self) -> int:
        """Probe now and return the sample's index; the probe opens a phase
        that the next probe closes (see :meth:`around`)."""
        self.probe()
        return len(self.samples) - 1

    def around(self, mark: int) -> float:
        """Factor of the phase opened at ``mark``: the mean of the probes
        just before and just after it."""
        return (self.samples[mark] + self.samples[mark + 1]) / 2.0 / PROBE_NOMINAL_S

    def probe(self) -> float:
        """Time the kernel on every core; returns the factor."""
        times = []
        if self.cpus:
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})  # the calling thread only
                    times.append(min(probe_kernel(), probe_kernel()))
            finally:
                os.sched_setaffinity(0, self.cpus)
        else:
            times.append(min(probe_kernel(), probe_kernel()))
        self.samples.append(sum(times) / len(times))
        self._at = time.perf_counter()
        return self.factor()

    def factor(self) -> float:
        """The last probe's factor, probing first if it is older than max_age_s."""
        if time.perf_counter() - self._at > self.max_age_s:
            return self.probe()
        return self.samples[-1] / PROBE_NOMINAL_S


def poisson_schedule(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Send offsets (seconds from phase start) of a Poisson arrival process.

    Inter-arrival gaps are exponential with mean ``1 / rate``; arrivals at
    or past ``duration`` are dropped.  The same generator state gives the
    same schedule.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be > 0")
    expected = int(rate * duration)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(math.sqrt(expected)) + 16)
    offsets = np.cumsum(gaps)
    while offsets[-1] < duration:  # vanishingly rare: draw more
        more = np.cumsum(rng.exponential(1.0 / rate, size=expected + 16)) + offsets[-1]
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


def mixed_rows(
    count: int, benign: int, adversarial: int, adv_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Row indices into ``concat(benign_pool, adversarial_pool)``.

    Exactly ``round(adv_fraction * count)`` positions draw from the
    adversarial pool, one at a random place in each of that many equal
    stretches of the sequence; every other position draws a benign row.
    Fixing the count, and spreading it evenly, rather than flipping a coin
    per row keeps the corrector's share of the work the same from seed to
    seed and from one half-second slice of a run to the next.
    """
    rows = rng.integers(0, benign, size=count)
    n_adv = int(round(adv_fraction * count))
    if n_adv:
        if adversarial < 1:
            raise ValueError("adv_fraction > 0 needs adversarial rows")
        edges = np.linspace(0, count, n_adv + 1).astype(np.int64)
        where = edges[:-1] + (rng.random(n_adv) * np.diff(edges)).astype(np.int64)
        rows[where] = benign + rng.integers(0, adversarial, size=n_adv)
    return rows


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.percentile(arr, q)) if arr.size else float("nan")


def windowed(latencies, q: float, min_window: int = MIN_WINDOW) -> tuple[float, list[float]]:
    """Median over consecutive windows of each window's ``q``-th percentile.

    The sequence (in send order) splits into ``max(1, n // min_window)``
    equal windows, so each holds at least ``min_window`` samples when
    there are that many.  A slow stretch of the host then moves the
    windows it covers, not the reported value.  Returns ``(value,
    per-window values)``.
    """
    arr = np.asarray(latencies, dtype=np.float64)
    if arr.size == 0:
        return float("nan"), []
    windows = max(1, arr.size // min_window)
    values = [percentile(chunk, q) for chunk in np.array_split(arr, windows)]
    return float(statistics.median(values)), values


def nominal_latencies(seconds, factors, window_s: float) -> np.ndarray:
    """Latencies at the nominal host speed.

    A request that finds the service idle waits out its batching window,
    ``window_s`` (the service's ``max_delay``), on a timer: wall-clock time
    no host speed changes.  That part stays as measured and the rest, which
    the host's speed stretches, is divided by the host factor.
    """
    seconds = np.asarray(seconds, dtype=np.float64)
    return window_s + (seconds - window_s) / np.asarray(factors, dtype=np.float64)


def due_latencies(due: np.ndarray, done: np.ndarray) -> np.ndarray:
    """Open-loop latency: completion time minus the time a request was due.

    Timing from the *due* time, not the send time, charges a generator
    stall to every request it delayed.
    """
    return np.asarray(done, dtype=np.float64) - np.asarray(due, dtype=np.float64)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Positive means worse in the metric's direction; negative means better.
    """
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change
