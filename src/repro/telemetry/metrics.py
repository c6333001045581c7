"""The metrics registry: counters, gauges and fixed-bucket histograms.

Paper section 9 names "instrumentation for performance monitoring,
analysis, and visualization" as future work; this module is the
continuous half of that instrumentation (``repro.core.instrumentation``
is the post-mortem half).  The registry renders every instrument to a
JSONL stream, a flat totals dict, or a human-readable table.

The protocol's own metrics -- the twelve-metric catalogue of
docs/OBSERVABILITY.md -- have one owner, :class:`ProtocolMetrics`: a
fold over the protocol's observer list (``repro.core.trace``), which
counts each published fault, transfer, shootdown, thaw and defrost run.

Design constraints, in order:

* **free when disabled** -- a disabled registry's fold never joins the
  observer list, so the protocol pays nothing for it; the catalogue is
  still registered, so it lists at zero.  Enabled, each action costs
  one call into the fold, whose writes go straight to pre-bound
  instruments: a counter through :meth:`Metric.add`, the fault
  histograms binned inline;
* **deterministic output** -- values derive only from simulated work, so
  two same-seed runs emit byte-identical JSONL (collection order is
  registration order, label children in first-bound order);
* **label support** without cardinality surprises -- labels are bound
  positionally via :meth:`Metric.labels`, children are cached per value
  tuple, and the catalog (docs/OBSERVABILITY.md) bounds each metric's
  label set to processors, cpages or event kinds.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional, Sequence

from ..doc import DocError, expect, jsonl, read_jsonl

#: default histogram bucket upper bounds for nanosecond durations
#: (1 us .. 100 ms, roughly logarithmic; +Inf is implicit)
DEFAULT_NS_BUCKETS = (
    1e3, 1e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 1e8,
)

_INF = float("inf")


class MetricError(ValueError):
    """Misuse of the metrics registry (type clash, bad labels...)."""


def _normalize_buckets(buckets: Sequence[float]) -> tuple[float, ...]:
    """Validated, sorted, deduplicated finite bucket bounds.

    An explicit ``+Inf`` bound is dropped (the overflow bucket always
    exists); NaN bounds and an empty result are registration errors,
    caught here rather than as silent misbinning at observe time.
    """
    finite = []
    for bound in buckets:
        bound = float(bound)
        if bound != bound:
            raise MetricError("histogram bucket bound is NaN")
        if bound == _INF:
            continue  # the implicit overflow bucket
        finite.append(bound)
    if not finite:
        raise MetricError("histogram needs at least one finite bucket")
    return tuple(sorted(set(finite)))


class _Child:
    """One labeled series of a counter or gauge."""

    __slots__ = ("registry", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self.registry = registry
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if self.registry.enabled:
            self.value += amount

    def set(self, value: float) -> None:
        if self.registry.enabled:
            self.value = value

    def get(self) -> float:
        return self.value


class _HistogramChild:
    """One labeled series of a histogram."""

    __slots__ = ("registry", "buckets", "counts", "sum", "count")

    def __init__(
        self, registry: "MetricsRegistry", buckets: Sequence[float]
    ) -> None:
        self.registry = registry
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self.registry.enabled:
            return
        self.count += 1
        if value != value:  # NaN: unbinnable -> explicit overflow
            self.counts[-1] += 1
            return
        if -_INF < value < _INF:
            self.sum += value  # non-finite values must not poison sum
        # the first bound >= value; past the last one is the +Inf bucket
        self.counts[bisect_left(self.buckets, value)] += 1


class Metric:
    """One named metric; holds its label children."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help: str = "",
        labels: Sequence[str] = (),
        unit: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(labels)
        self.unit = unit
        self.buckets = tuple(buckets) if buckets is not None else None
        self._children: dict[tuple, object] = {}
        if not self.label_names:
            # the unlabeled series exists from birth so zero values render
            self.labels()

    def _new_child(self):
        if self.kind == "histogram":
            assert self.buckets is not None
            return _HistogramChild(self.registry, self.buckets)
        return _Child(self.registry)

    def labels(self, *values):
        """The child series for one label-value tuple (cached)."""
        if len(values) != len(self.label_names):
            raise MetricError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {values!r}"
            )
        child = self._children.get(values)
        if child is None:
            child = self._new_child()
            self._children[values] = child
        return child

    def add(self, *values, amount: float = 1.0) -> None:
        """``labels(*values).inc(amount)`` in one call and without the
        ``enabled`` check, for a hot-path writer that has already made
        it.  A series seen for the first time is bound through
        :meth:`labels`, so children keep their first-bound order."""
        child = self._children.get(values)
        if child is None:
            child = self.labels(*values)
        child.value += amount

    # unlabeled convenience passthroughs ------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def get(self, *values) -> float:
        child = self.labels(*values)
        if isinstance(child, _HistogramChild):
            return child.sum
        return child.value

    @property
    def total(self) -> float:
        """Sum over every label child (histograms: total observations)."""
        if self.kind == "histogram":
            return float(sum(c.count for c in self._children.values()))
        return float(sum(c.value for c in self._children.values()))

    def series(self) -> Iterator[tuple[dict, object]]:
        """Yield ``({label: value}, child)`` in first-bound order."""
        for values, child in self._children.items():
            yield dict(zip(self.label_names, values)), child


class MetricsRegistry:
    """Creates, owns and renders instruments.

    Disabled by default (``MetricsRegistry()``): instruments can be
    created and bound, but every write is a no-op branch.  Enable at
    construction (``MetricsRegistry(enabled=True)``) or any time later
    with :meth:`enable`.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Metric] = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- instrument creation -------------------------------------------------

    def _register(
        self, name: str, kind: str, help: str, labels: Sequence[str],
        unit: str, buckets: Optional[Sequence[float]] = None,
    ) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != kind or metric.label_names != tuple(labels):
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}{metric.label_names}, cannot "
                    f"re-register as {kind}{tuple(labels)}"
                )
            return metric
        metric = Metric(self, name, kind, help=help, labels=labels,
                        unit=unit, buckets=buckets)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = (),
        unit: str = "",
    ) -> Metric:
        """A monotonically increasing count (faults, shootdowns...)."""
        return self._register(name, "counter", help, labels, unit)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = (),
        unit: str = "",
    ) -> Metric:
        """A point-in-time value (queue depth, frozen pages...)."""
        return self._register(name, "gauge", help, labels, unit)

    def histogram(
        self, name: str, help: str = "", labels: Sequence[str] = (),
        unit: str = "", buckets: Sequence[float] = DEFAULT_NS_BUCKETS,
    ) -> Metric:
        """A fixed-bucket distribution (fault-handler latency...)."""
        return self._register(name, "histogram", help, labels, unit,
                              buckets=_normalize_buckets(buckets))

    # -- introspection -------------------------------------------------------

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def collect(self) -> list[dict]:
        """Every (metric, label set) as one flat JSON-able record."""
        records: list[dict] = []
        for metric in self._metrics.values():
            for label_dict, child in metric.series():
                record: dict = {
                    "record": "metric",
                    "name": metric.name,
                    "type": metric.kind,
                    "labels": label_dict,
                }
                if metric.unit:
                    record["unit"] = metric.unit
                if isinstance(child, _HistogramChild):
                    record["buckets"] = list(child.buckets)
                    record["counts"] = list(child.counts)
                    record["sum"] = child.sum
                    record["count"] = child.count
                else:
                    record["value"] = child.value
                records.append(record)
        return records

    def totals(self) -> dict[str, float]:
        """Per-metric totals summed over labels (histograms: counts)."""
        return {m.name: m.total for m in self._metrics.values()}

    def summary(self) -> dict:
        """Compact deterministic summary for BENCH document embedding."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self._metrics.values():
            if metric.kind == "counter":
                out["counters"][metric.name] = metric.total
            elif metric.kind == "gauge":
                out["gauges"][metric.name] = metric.total
            else:
                total_sum = sum(
                    c.sum for _, c in metric.series()
                )
                out["histograms"][metric.name] = {
                    "count": metric.total,
                    "sum": total_sum,
                }
        return out

    def to_jsonl(self) -> str:
        """One sorted-key JSON object per line; byte-deterministic for a
        given simulated run."""
        return jsonl(self.collect())

    def format(self, max_series: int = 12) -> str:
        """A human-readable metrics table."""
        lines = [f"metrics registry ({len(self._metrics)} metrics, "
                 f"{'enabled' if self.enabled else 'disabled'})"]
        for metric in self._metrics.values():
            unit = f" {metric.unit}" if metric.unit else ""
            if metric.kind == "histogram":
                lines.append(
                    f"  {metric.name} (histogram): "
                    f"count={metric.total:.0f}"
                )
                continue
            lines.append(
                f"  {metric.name} ({metric.kind}): "
                f"{metric.total:g}{unit}"
            )
            series = list(metric.series())
            if len(series) > 1:
                shown = series[:max_series]
                for label_dict, child in shown:
                    label = ",".join(
                        f"{k}={v}" for k, v in label_dict.items()
                    )
                    lines.append(f"    {{{label}}} {child.value:g}")
                if len(series) > max_series:
                    lines.append(
                        f"    ... and {len(series) - max_series} more "
                        "series"
                    )
        return "\n".join(lines)


class ProtocolMetrics:
    """The protocol metric catalogue, folded from the observer list.

    Registers the twelve protocol metrics on ``registry`` in catalogue
    order (a disabled registry still lists them at zero) and implements
    the observer methods of ``repro.core.trace.Observers``;
    ``CoherentMemorySystem`` puts it on the list only when the registry
    is enabled.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = m = registry
        self._shootdowns = m.counter(
            "shootdowns_total", "mapping shootdown operations",
            labels=("directive",))
        self._ipis = m.counter(
            "shootdown_ipis_total",
            "IPIs sent to targets with the address space active",
            labels=("target",))
        self._deferred = m.counter(
            "shootdown_deferred_total",
            "shootdown updates deferred to address-space activation")
        self._faults = m.counter(
            "faults_total", "coherent memory faults taken",
            labels=("processor", "kind"))
        self._actions = m.counter(
            "fault_actions_total", "completed fault-handler actions",
            labels=("action",))
        self._handler_ns = m.histogram(
            "fault_handler_ns",
            "fault-handler latency including lock wait", unit="ns").labels()
        self._wait_ns = m.histogram(
            "fault_wait_ns", "per-cpage handler-lock wait",
            unit="ns").labels()
        self._freezes = m.counter(
            "freezes_total", "cpages frozen by the replication policy",
            labels=("cpage",))
        self._thaws = m.counter(
            "thaws_total", "cpages thawed", labels=("via",))
        self._transfers = m.counter(
            "transfers_total", "whole-page block transfers",
            labels=("src", "dst"))
        self._decisions = m.counter(
            "policy_decisions_total",
            "replication-policy decisions on policy-consulted misses",
            labels=("policy", "action"))
        self._runs = m.counter(
            "defrost_runs_total", "defrost daemon activations")

    def fault(self, now, cpage, proc, write, eid, action, end, wait,
              fixed, state, frozen, last_inval, decision) -> None:
        self._faults.add(proc, "write" if write else "read")
        if decision is not None:
            self._decisions.add(*decision)
        if action is None:
            return  # raised: taken, but it completed nothing
        self._actions.add(action)
        # _HistogramChild.observe inlined for the two whole ns values a
        # fault ends with, never NaN nor infinite; held to it by
        # tests/test_telemetry_metrics.py
        for h, ns in ((self._handler_ns, end - now), (self._wait_ns, wait)):
            h.count += 1
            h.sum += ns
            h.counts[bisect_left(h.buckets, ns)] += 1
        if cpage.frozen and not frozen:
            self._freezes.add(cpage.index)
        elif frozen and not cpage.frozen:
            self._thaws.add("fault")

    def transfer(self, now, cpage, src, dst, end, cause) -> None:
        self._transfers.add(src, dst)

    def shootdown(self, now, cpage, directive, initiator, cause, cost,
                  interrupted, deferred, hits) -> None:
        # one IPI per binding, lowest processor first, as they were sent
        ipis = self._ipis
        for mask in hits:
            while mask:
                bit = mask & -mask
                mask ^= bit
                ipis.add(bit.bit_length() - 1)
        self._shootdowns.add(directive._value_)  # not the property
        if deferred:
            self._deferred.add(amount=deferred.bit_count())

    def apply_pending(self, cmap, proc, messages) -> None:
        pass

    def thaw(self, now, cpage, initiator, eid, cause, cost) -> None:
        self._thaws.add("defrost")

    def defrost_run(self, now, eid, thawed) -> None:
        self._runs.add()


# -- reading a metrics JSONL file back -----------------------------------------

_NUMBER = (int, float)
_SERIES = {"record": str, "name": str, "type?": str, "labels?": dict,
           "unit?": str}

#: what the readers touch of one ``collect()`` record, by metric type
SCALAR_SHAPE = {**_SERIES, "value": _NUMBER}
HISTOGRAM_SHAPE = {**_SERIES, "buckets": [_NUMBER], "counts": [int],
                   "sum": _NUMBER, "count": int}


def read_metric_records(path) -> tuple[list[dict], int]:
    """The metric records of a ``--metrics-out`` / ``repro metrics
    --out`` file and the number of sampler records beside them."""
    metrics: list[dict] = []
    samples = 0
    for lineno, record in read_jsonl(path):
        kind = record.get("record")
        if kind == "sample":
            samples += 1
        elif kind == "metric":
            histogram = record.get("type") == "histogram"
            metrics.append(expect(
                record, f"{path}:{lineno}",
                shape=HISTOGRAM_SHAPE if histogram else SCALAR_SHAPE))
        else:
            raise DocError(
                f"{path}:{lineno}: not a metric/sample record; is this "
                "a metrics JSONL file from --metrics-out or repro "
                "metrics --out?")
    if not metrics and not samples:
        raise DocError(f"{path}: no metric or sample records")
    return metrics, samples
