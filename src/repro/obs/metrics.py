"""Typed metrics registry: counters, gauges, log-bucket histograms.

One :class:`MetricsRegistry` serves every layer of the stack — gateway
queue waits, server batch histograms, kernel stage profiles, durability
counters — and one scrape reads them all.  It is not the owner of the
counts the serving objects keep (tenant ledgers, server and shard
counters, cache counters): registries are shared by several servers and
gateways, so :mod:`repro.obs.bridge` exports those counts into it at
scrape time instead.  Two properties drive the design:

* **Snapshots that subtract exactly.**  Histograms share one fixed
  log-scale bucket layout (:data:`DEFAULT_BUCKETS`), so two plain-data
  :meth:`~MetricsRegistry.snapshot` calls subtract bucket by bucket
  into the exact distribution of the window between them — the deltas
  :mod:`repro.obs.slo` judges.

* **Ambient but overridable.**  Library code records against
  :func:`get_registry`; a server scopes its own registry over a region
  with :func:`scoped_registry` (thread-local), so tests and benchmarks
  isolate their counts without threading a registry argument through
  every call site.

Instruments are identified by name; labels are free-form string pairs
declared once per instrument (Prometheus-style), and each distinct
label-value tuple owns an independent series.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager

__all__ = [
    "DEFAULT_BUCKETS",
    "BATCH_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "scoped_registry",
    "set_global_registry",
]

#: Shared histogram layout: 22 log-scale (×2) upper bounds from 10 µs to
#: ~21 s, covering everything from a single arena pass to a full drain.
#: One fixed layout for every duration histogram is what makes snapshot
#: deltas exact — counts over identical bounds simply subtract.
DEFAULT_BUCKETS = tuple(1e-5 * 2.0 ** i for i in range(22))

#: Power-of-two layout for size-valued histograms (micro-batch sizes).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class _HistogramSeries:
    """One label combination's bucket counts + running sum."""

    __slots__ = ("counts", "total", "count")

    def __init__(self, num_buckets: int):
        self.counts = [0] * (num_buckets + 1)  # +1: overflow (+Inf)
        self.total = 0.0
        self.count = 0


class _Instrument:
    """Shared series bookkeeping for every instrument kind."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: tuple):
        self.registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: dict = {}

    def _key(self, labels: dict) -> tuple:
        if (len(labels) != len(self.labelnames)
                or any(name not in labels for name in self.labelnames)):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def series(self) -> dict:
        """Snapshot ``{label-values tuple: series}`` (shallow copy)."""
        with self.registry._lock:
            return dict(self._series)

    def sum(self, **labels) -> float:
        """Total over every series matching the given label subset."""
        positions = {self.labelnames.index(name): str(value)
                     for name, value in labels.items()}
        total = 0.0
        for key, value in self.series().items():
            if all(key[i] == want for i, want in positions.items()):
                total += (value.total
                          if isinstance(value, _HistogramSeries) else value)
        return total


class Counter(_Instrument):
    """Monotonically increasing count (Prometheus ``counter``)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self.registry._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def set(self, value: float, **labels) -> None:
        """Export a monotonic count its owner keeps elsewhere.

        Used by the bridge collectors that export the serving objects'
        own counts (``ServerStats``/``TenantLedger``/shard counters) at
        scrape time.
        """
        key = self._key(labels)
        with self.registry._lock:
            self._series[key] = float(value)

    def value(self, **labels) -> float:
        return float(self._series.get(self._key(labels), 0.0))


class Gauge(_Instrument):
    """Point-in-time value that may go up or down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self.registry._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self.registry._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return float(self._series.get(self._key(labels), 0.0))


class Histogram(_Instrument):
    """Fixed-bucket distribution (exact snapshot deltas)."""

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: tuple, buckets: tuple = DEFAULT_BUCKETS):
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("buckets must be strictly increasing")
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        index = bisect_left(self.buckets, value)
        with self.registry._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets))
                self._series[key] = series
            series.counts[index] += 1
            series.total += value
            series.count += 1

    def count(self, **labels) -> int:
        series = self._series.get(self._key(labels))
        return series.count if series is not None else 0

    def total(self, **labels) -> float:
        series = self._series.get(self._key(labels))
        return series.total if series is not None else 0.0

    def mean(self, **labels) -> float:
        series = self._series.get(self._key(labels))
        if series is None or not series.count:
            return 0.0
        return series.total / series.count

    def quantile(self, q: float, **labels) -> float:
        """Estimate the q-quantile by interpolating within its bucket.

        Exact to bucket resolution (±1 log-2 step): the observation's
        bucket is known, its position inside the bucket is interpolated
        linearly.  Values beyond the last bound clamp to that bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        series = self._series.get(self._key(labels))
        if series is None or not series.count:
            return 0.0
        rank = q * series.count
        cumulative = 0.0
        for index, bucket_count in enumerate(series.counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.buckets[index - 1] if index > 0 else 0.0
                hi = (self.buckets[index] if index < len(self.buckets)
                      else self.buckets[-1])
                fraction = (rank - cumulative) / bucket_count
                return lo + min(max(fraction, 0.0), 1.0) * (hi - lo)
            cumulative += bucket_count
        return self.buckets[-1]


class MetricsRegistry:
    """Thread-safe home of every instrument."""

    def __init__(self):
        self._lock = threading.RLock()
        self._instruments: dict[str, _Instrument] = {}

    # -- instrument access (get-or-create, idempotent) -----------------
    def _get_or_create(self, cls, name: str, help: str, labelnames: tuple,
                       **kwargs) -> _Instrument:
        instrument = self._instruments.get(name)
        if instrument is not None:
            if instrument.kind != cls.kind:
                raise TypeError(
                    f"{name} is registered as a {instrument.kind}, "
                    f"not a {cls.kind}")
            return instrument
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls(self, name, help, tuple(labelnames),
                                 **kwargs)
                self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                labelnames: tuple = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: tuple = (),
                  buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def instruments(self) -> list:
        """Every registered instrument, sorted by name."""
        with self._lock:
            return [self._instruments[name]
                    for name in sorted(self._instruments)]

    # -- snapshot ------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data (picklable, JSON-safe) copy of every series."""
        out: dict = {}
        with self._lock:
            for name, instrument in self._instruments.items():
                entry: dict = {
                    "kind": instrument.kind,
                    "help": instrument.help,
                    "labelnames": list(instrument.labelnames),
                    "series": [],
                }
                if instrument.kind == "histogram":
                    entry["buckets"] = list(instrument.buckets)
                    for key, series in instrument._series.items():
                        entry["series"].append([list(key), {
                            "counts": list(series.counts),
                            "sum": series.total,
                            "count": series.count,
                        }])
                else:
                    for key, value in instrument._series.items():
                        entry["series"].append([list(key), value])
                out[name] = entry
        return out


# ----------------------------------------------------------------------
# Ambient registry: one process-global default, thread-local override.
# ----------------------------------------------------------------------
_GLOBAL = MetricsRegistry()
_SCOPE = threading.local()


def get_registry() -> MetricsRegistry:
    """The ambient registry: the scoped override if active, else global."""
    scoped = getattr(_SCOPE, "registry", None)
    return scoped if scoped is not None else _GLOBAL


def set_global_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-global registry; returns the previous one."""
    global _GLOBAL
    previous, _GLOBAL = _GLOBAL, registry
    return previous


@contextmanager
def scoped_registry(registry: MetricsRegistry):
    """Route :func:`get_registry` to ``registry`` inside the block.

    Thread-local, so concurrent servers with private registries never
    cross-record.  Nested scopes restore correctly.
    """
    previous = getattr(_SCOPE, "registry", None)
    _SCOPE.registry = registry
    try:
        yield registry
    finally:
        _SCOPE.registry = previous

