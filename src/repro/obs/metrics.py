"""Metrics registry: probes and histograms sampled every interval.

A run records two kinds of metric:

- **probes** — :meth:`MetricsRegistry.probe` registers a zero-argument
  callable that reads a counter the component *already maintains* (for
  example ``MemoryHierarchy.demand_misses``);
- **histograms** — :class:`HistogramMetric`, a distribution over fixed
  bucket bounds that its owner pushes observations into (miss latency).

:meth:`MetricsRegistry.sample` reads every histogram total and probe
into a time series at fixed cycle boundaries.  The hot paths therefore
carry no instrumentation beyond the histogram's ``observe`` — sampling
is a pure read between core ``advance`` calls, which is also why
results are bit-identical with metrics on or off.

A registry exists only while metrics are on: a simulator without one
holds ``None``, and its components then hold no histogram.  Observers
never ride a simulation snapshot; :mod:`repro.integrity.snapshot`
detaches them while it pickles the machine.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import ConfigError


def metric_name(component: str, name: str) -> str:
    """The fully qualified ``component.name`` key a metric is stored under."""
    return f"{component}.{name}"


class HistogramMetric:
    """A distribution over fixed, inclusive upper-bound buckets.

    ``bounds`` must be strictly increasing.  An observation ``v`` lands
    in the first bucket whose bound satisfies ``v <= bound``; values
    above the last bound land in the implicit overflow bucket.  The
    bucket layout is fixed at construction so two histograms with the
    same bounds are directly comparable.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "total", "sum")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError(f"histogram {name!r}: bounds must be non-empty")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r}: bounds must be strictly increasing, "
                f"got {tuple(bounds)}"
            )
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        self.total += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        if self.total == 0:
            return 0.0
        return self.sum / self.total

    def reset(self) -> None:
        """Zero every bucket.

        The warm-up boundary calls this so the histogram shadows the
        component statistics it sits next to.
        """
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0
        self.sum = 0.0

    def read(self) -> float:
        """Total observation count (the scalar a time series samples)."""
        return float(self.total)

    def buckets(self) -> Dict[str, int]:
        """Bucket label -> count, including the overflow bucket."""
        out = {
            f"le_{bound:g}": count
            for bound, count in zip(self.bounds, self.counts)
        }
        out["overflow"] = self.overflow
        return out

    def __repr__(self) -> str:
        return f"HistogramMetric({self.name}: n={self.total})"


class MetricsRegistry:
    """Histograms and probes registered by component, sampled over time.

    One registry serves a whole simulator, which samples it every
    ``interval`` cycles.  Metrics are namespaced as ``component.name``
    (``hierarchy.demand_misses``, ``sb3.priority``), and :meth:`sample`
    appends one row — every histogram total and probe value at one
    cycle — to :attr:`samples`.
    """

    def __init__(self, interval: int) -> None:
        if interval <= 0:
            raise ConfigError(
                f"metrics_interval: must be positive, got {interval}",
                field="metrics_interval",
            )
        self.interval = interval
        self._histograms: Dict[str, HistogramMetric] = {}
        self._probes: Dict[str, Callable[[], float]] = {}
        #: One dict per sampling boundary: ``{"cycle": int, "values": {...}}``.
        self.samples: List[Dict[str, Any]] = []

    # -- registration --------------------------------------------------

    def histogram(
        self, component: str, name: str, bounds: Sequence[float]
    ) -> HistogramMetric:
        """Create (or fetch) the histogram ``component.name``."""
        key = metric_name(component, name)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = HistogramMetric(key, bounds)
        return instrument

    def probe(
        self, component: str, name: str, read: Callable[[], float]
    ) -> None:
        """Register ``read`` to be sampled as ``component.name``.

        Re-registering the same name replaces the callable, so run-scoped
        probes (core progress, bound to one run's state) can simply be
        re-bound at the start of each run.
        """
        self._probes[metric_name(component, name)] = read

    # -- sampling ------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Current value of every histogram and probe, one flat dict."""
        values: Dict[str, float] = {}
        for key, hist in self._histograms.items():
            values[key] = hist.read()
        for key, read in self._probes.items():
            values[key] = float(read())
        return values

    def sample(self, cycle: int) -> None:
        """Append one time-series row for ``cycle``.

        Re-sampling the same cycle (e.g. a final sample landing exactly
        on a periodic boundary) is a no-op, so boundary bookkeeping in
        callers stays simple.
        """
        if self.samples and self.samples[-1]["cycle"] == cycle:
            return
        self.samples.append({"cycle": cycle, "values": self.snapshot()})

    def series(self, key: str) -> List[Tuple[int, float]]:
        """The ``(cycle, value)`` time series of one metric."""
        return [
            (row["cycle"], row["values"][key])
            for row in self.samples
            if key in row["values"]
        ]

    # -- persistence ---------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """A JSON-able dump: interval, final values, histograms, series."""
        return {
            "interval": self.interval,
            "final": self.snapshot(),
            "histograms": {
                key: {
                    "bounds": list(hist.bounds),
                    "buckets": hist.buckets(),
                    "total": hist.total,
                    "mean": hist.mean,
                }
                for key, hist in self._histograms.items()
            },
            "samples": [dict(row) for row in self.samples],
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(every {self.interval} cycles, "
            f"{len(self._histograms)} histograms, {len(self._probes)} probes, "
            f"{len(self.samples)} samples)"
        )


#: Miss-latency histogram bucket bounds (cycles): L1-ish, L2-ish, and
#: memory-ish regimes of the Section 5.1 machine.
MISS_LATENCY_BOUNDS: Tuple[float, ...] = (
    2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0,
)
