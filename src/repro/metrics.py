"""Serving metrics: counters, gauges, latency histograms, one registry.

Every serving layer — the :class:`~repro.serving.DeploymentFleet`, the
asyncio :class:`~repro.gateway.GatewayServer`, and the benchmark
harnesses — needs
the same three primitives: monotonic counters, point-in-time gauges, and
latency distributions summarized as p50/p95/p99.  They live here once
(stdlib + numpy only), at the top of the dependency graph, so the
:class:`~repro.runtime.ServingEngine` can instrument the canonical round
loop without any layer importing the gateway.  :class:`LatencyHistogram`
keeps a bounded reservoir of raw samples (uniform reservoir sampling once
full), which is exact for benchmark-sized runs and O(1) memory under
sustained load.

This module was promoted from ``repro.gateway.metrics``, which remains as
a deprecation re-export shim.

:func:`percentile` is the shared guard around ``np.percentile``: an
empty sample list raises a :class:`ValueError` that names the phase
being summarized instead of numpy's bare ``IndexError``.
"""

from __future__ import annotations

import random
import threading
from array import array

import numpy as np

__all__ = ["percentile", "Counter", "Gauge", "LatencyHistogram",
           "MetricsRegistry"]


def percentile(samples, q: float, phase: str = "latency") -> float:
    """``np.percentile`` with a clear error when there is nothing to
    summarize; ``phase`` names the benchmark phase in the message."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError(
            f"no latency samples recorded for benchmark phase {phase!r}; "
            "cannot compute percentiles over an empty sample set")
    return float(np.percentile(samples, q))


class Counter:
    """A monotonically increasing count (thread-safe)."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (thread-safe set/add)."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        return self._value


class LatencyHistogram:
    """Latency distribution summarized as count/mean/p50/p95/p99.

    Samples are seconds in, milliseconds out (the convention of every
    ``BENCH_*.json`` in this repo); another ``unit`` (``"bytes"``) is
    summarized as observed, as ``p50_<unit>``.  A bounded reservoir keeps
    memory constant under sustained serving load (unboxed float64, 8 B
    a sample); up to ``max_samples`` observations the summary is exact.
    ``count`` is always the true number of observations (never the
    reservoir size); ``summary()`` reports both, plus ``sampled``, so
    percentile uncertainty is assessable when the reservoir has saturated.

    Thread safety: every mutation and read of ``_samples``/``_seen``
    happens under ``_lock``, including the reservoir's ``randrange``
    draw — ``random.Random`` instances are not safe for concurrent
    mutation, so the RNG must never be touched outside the lock.
    """

    def __init__(self, max_samples: int = 65536, seed: int = 0,
                 unit: str = "ms"):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.max_samples = max_samples
        self.unit = unit
        self._samples = array("d")
        self._seen = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._seen += 1
            if len(self._samples) < self.max_samples:
                self._samples.append(float(seconds))
            else:
                slot = self._rng.randrange(self._seen)
                if slot < self.max_samples:
                    self._samples[slot] = float(seconds)

    @property
    def count(self) -> int:
        with self._lock:
            return self._seen

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` into this histogram.

        True counts add exactly; samples pool up to this reservoir's
        bound, with uniform random replacement past it (an approximate
        merge — exact weighted reservoir merging is not worth the
        machinery for summary percentiles).  This is how parallel
        load-generator clients aggregate without under-reporting
        ``count`` once a per-client reservoir has saturated.
        """
        with other._lock:
            samples = array("d", other._samples)
            seen = other._seen
        with self._lock:
            self._seen += seen
            for value in samples:
                if len(self._samples) < self.max_samples:
                    self._samples.append(value)
                else:
                    slot = self._rng.randrange(len(self._samples) + 1)
                    if slot < self.max_samples:
                        self._samples[slot] = value

    def summary(self, phase: str = "latency") -> dict:
        """``{count, sampled, mean_ms, p50_ms, p95_ms, p99_ms}``:
        ``count`` is true observations, ``sampled`` the reservoir size
        the percentiles were computed from.  An empty histogram
        summarizes to ``{"count": 0}`` rather than raising, so the
        ``stats`` op stays serveable on an idle gateway."""
        with self._lock:
            samples = np.array(self._samples)
            seen = self._seen
        if not samples.size:
            return {"count": 0}
        unit, scale = self.unit, 1e3 if self.unit == "ms" else 1.0
        return {"count": seen, "sampled": len(samples),
                f"mean_{unit}": float(np.mean(samples)) * scale,
                **{f"p{q}_{unit}": percentile(samples, q, phase) * scale
                   for q in (50, 95, 99)}}


class MetricsRegistry:
    """Named metrics, created on first touch, dumped as one dict.

    ``counter``/``gauge``/``histogram`` are get-or-create (the same name
    always returns the same instance; a name cannot change kind), so
    instrumentation points never need registration order.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {kind.__name__}")
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str, max_samples: int = 65536, unit: str = "ms") -> LatencyHistogram:
        return self._get(name, LatencyHistogram,
                         lambda: LatencyHistogram(max_samples, unit=unit))

    def to_dict(self) -> dict:
        """JSON-ready snapshot: ``{counters: {...}, gauges: {...},
        histograms: {...}}`` (what the gateway's ``stats`` op returns)."""
        with self._lock:
            items = list(self._metrics.items())
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, metric in items:
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = metric.summary(phase=name)
        return out
