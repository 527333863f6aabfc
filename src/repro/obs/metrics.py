"""A unified metric registry: counters, gauges, quantile sketches.

One :class:`MetricRegistry` per process collects what the instrumented
layers emit — pipeline cache hits, fastsim replications/sec, optimize
candidate-budget evaluations, serving race outcomes. The registry is
*mergeable* exactly like :class:`~repro.serving.metrics.ServingMetrics`:
counters add, quantile sketches merge through
:class:`~repro.structures.tdigest.TDigest`, and the pool hand-off in
``pipeline.executor.run_jobs`` ships each worker's registry back with
its results so a parallel run's metrics equal the serial run's.

Metric types
------------
* :class:`Counter` — monotonically increasing int (``inc``); merge adds.
* :class:`Gauge` — last-set float (``set``); merge is last-writer-wins
  in merge order (the merged-in gauge takes precedence when it has ever
  been set), with the update count summed so staleness is visible.
* :class:`Quantile` — a t-digest plus min/max/sum (``observe``); merge
  combines sketches, so tail quantiles of the merged metric match a
  single combined stream within the digest's documented tolerance.

Everything here is picklable (plain objects over numpy arrays), which is
what lets worker registries ride home inside ``SweepResult``.
"""

from __future__ import annotations

import json

from ..structures.tdigest import TDigest

__all__ = [
    "Counter",
    "Gauge",
    "Quantile",
    "MetricRegistry",
    "get_metrics",
    "set_metrics",
    "metrics_scope",
]


class Counter:
    """A summed event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-set value (e.g. replications/sec of the latest batch)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def merge(self, other: "Gauge") -> None:
        if other.updates:
            self.value = other.value
        self.updates += other.updates

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value, "updates": self.updates}


class Quantile:
    """A mergeable latency/duration sketch (t-digest + exact extremes)."""

    __slots__ = ("name", "digest", "count", "total", "min", "max")

    def __init__(self, name: str, compression: float = 100.0):
        self.name = name
        self.digest = TDigest(compression)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.digest.add(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def quantile(self, p: float) -> float:
        return self.digest.quantile(p)

    def merge(self, other: "Quantile") -> None:
        if other.count == 0:
            return
        self.digest = self.digest.merge(other.digest)
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def as_dict(self) -> dict:
        out = {"type": "quantile", "count": self.count}
        if self.count:
            out.update(
                mean=self.total / self.count,
                min=self.min,
                max=self.max,
                p50=self.quantile(0.50),
                p99=self.quantile(0.99),
                p999=self.quantile(0.999),
            )
        return out


class MetricRegistry:
    """Get-or-create access to named metrics, with whole-registry merge."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Quantile] = {}

    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def quantile(self, name: str, compression: float = 100.0) -> Quantile:
        return self._get(name, Quantile, compression)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str):
        return self._metrics.get(name)

    def merge(self, other: "MetricRegistry") -> None:
        """Fold ``other`` into this registry in place (worker → parent)."""
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                self._metrics[name] = metric
            else:
                mine.merge(metric)

    def as_dict(self) -> dict:
        """JSON-able summary, sorted by metric name."""
        return {name: self._metrics[name].as_dict() for name in self.names()}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, default=float)

    def render(self) -> str:
        """An ASCII table of every metric (via ``repro.viz``)."""
        from ..viz import format_table

        rows = []
        for name in self.names():
            d = self._metrics[name].as_dict()
            kind = d.pop("type")
            if kind == "quantile" and d.get("count"):
                detail = (
                    f"n={d['count']} mean={d['mean']:.3g} "
                    f"p50={d['p50']:.3g} p99={d['p99']:.3g} "
                    f"max={d['max']:.3g}"
                )
            elif kind == "gauge":
                v = d["value"]
                detail = "unset" if v is None else f"{v:.4g}"
            else:
                detail = str(d.get("value", d.get("count", "")))
            rows.append((name, kind, detail))
        return format_table(("metric", "type", "value"), rows, title="metrics")


_METRICS = MetricRegistry()


def get_metrics() -> MetricRegistry:
    """The process-wide registry."""
    return _METRICS


def set_metrics(registry: MetricRegistry) -> MetricRegistry:
    """Install ``registry`` process-wide; returns the previous one."""
    global _METRICS
    previous, _METRICS = _METRICS, registry
    return previous


class metrics_scope:
    """``with metrics_scope() as m:`` — a fresh registry for the block.

    Used by ``repro trace`` (and the worker-side pool hand-off) so one
    command's metrics don't mix with whatever the process accumulated
    before.
    """

    def __init__(self):
        self.registry = MetricRegistry()
        self._previous: MetricRegistry | None = None

    def __enter__(self) -> MetricRegistry:
        self._previous = set_metrics(self.registry)
        return self.registry

    def __exit__(self, *exc) -> bool:
        set_metrics(self._previous)
        return False
