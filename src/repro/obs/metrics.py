"""Live metrics for the compile service: counters, gauges, histograms.

The tracer (:mod:`repro.obs.tracer`) answers *"what happened during this
run"* — a post-hoc, per-request record.  This module answers *"what is
the daemon doing right now"*: always-on aggregates cheap enough to leave
enabled in production, scraped over the wire via the ``metrics`` op and
rendered by ``repro metrics`` (plain, ``--prom``, or ``--watch``).

Design mirrors the tracer deliberately:

- **Instruments** (:class:`Counter`, :class:`Gauge`, :class:`Histogram`)
  are registered once on a :class:`MetricsRegistry` and bound to label
  children with :meth:`~_Family.labels`.  Children are memoized, so the
  hot path is one dict update — no allocation, no locking (CPython dict
  ops are atomic enough for monotonic counters, the same bet
  ``Tracer.count`` makes).
- **Snapshot/merge** parallels :class:`~repro.obs.tracer.TraceShard`:
  worker processes cannot ship the registry itself, so they ship
  :meth:`MetricsRegistry.to_dict` and the daemon folds it in with
  :meth:`MetricsRegistry.merge_snapshot` (counters and histogram buckets
  sum; gauges are last-writer-wins).
- **One counter store.**  A service fact is counted once, here; the
  daemon's text outputs and shutdown record read it back through
  :func:`digest`.  Time is measured by tracer spans, and the worker
  derives its histograms from them (see
  :func:`repro.service.worker.service_work`).

Naming follows Prometheus conventions: ``snake_case``, unit suffix
(``_seconds``, ``_bytes``), ``_total`` for counters.  Keep label sets
tiny and closed (op names, stage names, fault kinds — never request ids,
sources, or paths): every label combination materializes a child.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field


#: Latency buckets (seconds): 1ms .. 10s, roughly log-spaced.  Chosen so
#: the service SLO targets (tens to hundreds of ms) land mid-range and
#: the loadgen percentile cross-check has boundaries to agree on.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _Child:
    """One labeled series of a counter or gauge family."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: "_Family", key: tuple) -> None:
        self._family = family
        self._key = key

    def inc(self, amount: float = 1) -> None:
        values = self._family.values
        values[self._key] = values.get(self._key, 0) + amount

    def dec(self, amount: float = 1) -> None:
        values = self._family.values
        values[self._key] = values.get(self._key, 0) - amount

    def set(self, value: float) -> None:
        self._family.values[self._key] = value

    @property
    def value(self) -> float:
        return self._family.values.get(self._key, 0)


class _HistogramChild:
    """One labeled histogram series: per-bucket counts + sum + count.

    Buckets store *non-cumulative* counts internally (mergeable by plain
    addition); exposition cumulates them on the way out.
    """

    __slots__ = ("boundaries", "counts", "sum", "count")

    def __init__(self, boundaries: tuple) -> None:
        self.boundaries = boundaries
        self.counts = [0] * (len(boundaries) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1


class _Family:
    """A registered metric family: fixed type, help, label names."""

    __slots__ = ("name", "type", "help", "label_names", "buckets", "values", "_children")

    def __init__(
        self,
        name: str,
        type_: str,
        help_: str,
        label_names: tuple,
        buckets: tuple | None = None,
    ) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        self.label_names = label_names
        self.buckets = buckets
        #: counter/gauge: label-tuple -> number.
        #: histogram: label-tuple -> _HistogramChild.
        self.values: dict[tuple, object] = {}
        self._children: dict[tuple, object] = {}

    def labels(self, **kw: str) -> object:
        key = tuple(str(kw[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._make_child(key)
            self._children[key] = child
        return child

    def _make_child(self, key: tuple) -> object:
        if self.type == "histogram":
            series = self.values.get(key)
            if series is None:
                series = _HistogramChild(self.buckets)
                self.values[key] = series
            return series
        return _Child(self, key)

    # Unlabeled families are used directly as the instrument.
    def inc(self, amount: float = 1) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        """Sum across all series (counters/gauges); tests and digests."""
        return sum(v for v in self.values.values() if isinstance(v, (int, float)))


class MetricsRegistry:
    """Holds metric families; snapshot/merge across processes.

    Re-registering a name returns the existing family; a type, label-set,
    or bucket mismatch raises ``ValueError`` — a silent merge of
    incompatible series would corrupt the exposition.
    """

    def __init__(self) -> None:
        self.families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # Registration.

    def counter(self, name: str, help: str = "", labels: tuple = ()) -> _Family:
        return self._register(name, "counter", help, tuple(labels), None)

    def gauge(self, name: str, help: str = "", labels: tuple = ()) -> _Family:
        return self._register(name, "gauge", help, tuple(labels), None)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple = DEFAULT_LATENCY_BUCKETS,
        labels: tuple = (),
    ) -> _Family:
        boundaries = tuple(sorted(float(b) for b in buckets))
        if not boundaries:
            raise ValueError(f"histogram {name!r} needs at least one bucket boundary")
        return self._register(name, "histogram", help, tuple(labels), boundaries)

    def _register(
        self, name: str, type_: str, help_: str, labels: tuple, buckets: tuple | None
    ) -> _Family:
        family = self.families.get(name)
        if family is not None:
            if family.type != type_ or family.label_names != labels or (
                buckets is not None and family.buckets != buckets
            ):
                raise ValueError(
                    f"metric {name!r} re-registered with a different "
                    f"type/labels/buckets"
                )
            if not family.help and help_:
                family.help = help_
            return family
        family = _Family(name, type_, help_, labels, buckets)
        self.families[name] = family
        return family

    # ------------------------------------------------------------------
    # Snapshot / merge (the TraceShard of metrics).

    def to_dict(self) -> dict:
        """A canonical, JSON-serializable snapshot of every family."""
        out: dict = {}
        for name in sorted(self.families):
            family = self.families[name]
            series = []
            for key in sorted(family.values):
                labels = dict(zip(family.label_names, key))
                value = family.values[key]
                if family.type == "histogram":
                    series.append(
                        {
                            "labels": labels,
                            "counts": list(value.counts),
                            "sum": value.sum,
                            "count": value.count,
                        }
                    )
                else:
                    series.append({"labels": labels, "value": value})
            entry: dict = {
                "type": family.type,
                "help": family.help,
                "labels": list(family.label_names),
                "series": series,
            }
            if family.buckets is not None:
                entry["buckets"] = list(family.buckets)
            out[name] = entry
        return out

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`to_dict` payload in: sum counters and histogram
        buckets, last-writer-wins gauges.  Unknown families are created
        from the snapshot's own type info, so a worker-only family (e.g.
        pipeline stage timings) surfaces in the daemon registry."""
        for name, entry in snapshot.items():
            type_ = entry.get("type", "counter")
            labels = tuple(entry.get("labels", ()))
            buckets = tuple(entry.get("buckets", ())) or None
            if type_ == "histogram":
                family = self.histogram(
                    name, entry.get("help", ""), buckets or DEFAULT_LATENCY_BUCKETS, labels
                )
            elif type_ == "gauge":
                family = self.gauge(name, entry.get("help", ""), labels)
            else:
                family = self.counter(name, entry.get("help", ""), labels)
            for item in entry.get("series", ()):
                key = tuple(str(item["labels"].get(n, "")) for n in family.label_names)
                if family.type == "histogram":
                    child = family.values.get(key)
                    if child is None:
                        child = _HistogramChild(family.buckets)
                        family.values[key] = child
                    counts = item.get("counts", ())
                    if len(counts) == len(child.counts):
                        for i, c in enumerate(counts):
                            child.counts[i] += c
                        child.sum += item.get("sum", 0.0)
                        child.count += item.get("count", 0)
                elif family.type == "gauge":
                    family.values[key] = item.get("value", 0)
                else:
                    family.values[key] = family.values.get(key, 0) + item.get("value", 0)


# ----------------------------------------------------------------------
# Derivations and exposition.


def quantile_from_buckets(boundaries: list, counts: list, q: float) -> float | None:
    """The histogram-derived ``q``-quantile: the upper boundary of the
    bucket containing the target rank (``counts`` non-cumulative, with a
    trailing +Inf bucket).  Observations in the overflow bucket report
    the highest finite boundary — the best the histogram can say.
    Returns ``None`` for an empty series."""
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    seen = 0.0
    for i, count in enumerate(counts):
        seen += count
        if seen >= rank and count:
            return float(boundaries[i]) if i < len(boundaries) else float(boundaries[-1])
    return float(boundaries[-1])


def bucket_index(boundaries: list, value: float) -> int:
    """Which bucket a value falls into (len(boundaries) = +Inf overflow)."""
    return bisect_left([float(b) for b in boundaries], value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_str(labels: dict, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prom(snapshot: dict) -> str:
    """Prometheus text exposition (version 0.0.4) of a registry snapshot.

    Histogram buckets are cumulated here and closed with ``+Inf``, so
    ``histogram_quantile()`` works out of the box.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        type_ = entry.get("type", "counter")
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {type_}")
        for item in entry.get("series", ()):
            labels = item.get("labels", {})
            if type_ == "histogram":
                boundaries = entry.get("buckets", [])
                counts = item.get("counts", [])
                cumulative = 0
                for boundary, count in zip(boundaries, counts):
                    cumulative += count
                    le = _label_str(labels, f'le="{_format_value(float(boundary))}"')
                    lines.append(f"{name}_bucket{le} {cumulative}")
                cumulative += counts[len(boundaries)] if len(counts) > len(boundaries) else 0
                inf_label = _label_str(labels, 'le="+Inf"')
                lines.append(f"{name}_bucket{inf_label} {cumulative}")
                lines.append(f"{name}_sum{_label_str(labels)} {_format_value(item.get('sum', 0.0))}")
                lines.append(f"{name}_count{_label_str(labels)} {item.get('count', 0)}")
            else:
                lines.append(f"{name}{_label_str(labels)} {_format_value(item.get('value', 0))}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Digest helpers shared by `repro metrics` (watch mode) and chaos triage.


def _series_value(snapshot: dict, name: str, match: dict | None = None) -> float:
    entry = snapshot.get(name)
    if not entry:
        return 0.0
    total = 0.0
    for item in entry.get("series", ()):
        labels = item.get("labels", {})
        if match is not None and any(labels.get(k) != v for k, v in match.items()):
            continue
        total += item.get("value", 0)
    return total


def _histogram_series(snapshot: dict, name: str, match: dict | None = None):
    """Merged (boundaries, counts, sum, count) across matching series."""
    entry = snapshot.get(name)
    if not entry or entry.get("type") != "histogram":
        return None
    boundaries = entry.get("buckets", [])
    counts = [0] * (len(boundaries) + 1)
    total_sum, total_count = 0.0, 0
    for item in entry.get("series", ()):
        labels = item.get("labels", {})
        if match is not None and any(labels.get(k) != v for k, v in match.items()):
            continue
        for i, c in enumerate(item.get("counts", ())):
            if i < len(counts):
                counts[i] += c
        total_sum += item.get("sum", 0.0)
        total_count += item.get("count", 0)
    if total_count == 0:
        return None
    return boundaries, counts, total_sum, total_count


@dataclass(slots=True)
class MetricsDigest:
    """The handful of numbers a human wants first (watch mode, triage)."""

    uptime_s: float = 0.0
    requests: float = 0.0
    errors: float = 0.0
    req_per_s: float = 0.0
    error_rate: float = 0.0
    p50_s: float | None = None
    p95_s: float | None = None
    p99_s: float | None = None
    cache_hits: float = 0.0
    cache_misses: float = 0.0
    hit_rate: float = 0.0
    store_entries: float = 0.0
    store_evictions: float = 0.0
    faults: dict = field(default_factory=dict)
    slo_p99_s: float | None = None
    slo_error_rate: float | None = None

    def to_dict(self) -> dict:
        return {
            "uptime_s": round(self.uptime_s, 3),
            "requests": self.requests,
            "errors": self.errors,
            "req_per_s": round(self.req_per_s, 2),
            "error_rate": round(self.error_rate, 4),
            "p50_ms": None if self.p50_s is None else round(self.p50_s * 1e3, 3),
            "p95_ms": None if self.p95_s is None else round(self.p95_s * 1e3, 3),
            "p99_ms": None if self.p99_s is None else round(self.p99_s * 1e3, 3),
            "cache_hit_rate": round(self.hit_rate, 4),
            "store_entries": self.store_entries,
            "store_evictions": self.store_evictions,
            "faults": dict(self.faults),
        }


def digest(snapshot: dict) -> MetricsDigest:
    """Summarize a registry snapshot into a :class:`MetricsDigest`."""
    d = MetricsDigest()
    d.uptime_s = _series_value(snapshot, "service_uptime_seconds")
    d.requests = _series_value(snapshot, "service_requests_total")
    d.errors = _series_value(snapshot, "service_errors_total")
    if d.uptime_s > 0:
        d.req_per_s = d.requests / d.uptime_s
    if d.requests > 0:
        d.error_rate = d.errors / d.requests
    merged = _histogram_series(snapshot, "service_request_seconds", {"code": "ok"})
    if merged is None:
        merged = _histogram_series(snapshot, "service_request_seconds")
    if merged is not None:
        boundaries, counts, _, _ = merged
        d.p50_s = quantile_from_buckets(boundaries, counts, 0.50)
        d.p95_s = quantile_from_buckets(boundaries, counts, 0.95)
        d.p99_s = quantile_from_buckets(boundaries, counts, 0.99)
    d.cache_hits = _series_value(snapshot, "service_store_hits_total")
    d.cache_misses = _series_value(snapshot, "service_store_misses_total")
    looked = d.cache_hits + d.cache_misses
    if looked > 0:
        d.hit_rate = d.cache_hits / looked
    d.store_entries = _series_value(snapshot, "service_store_entries")
    d.store_evictions = _series_value(snapshot, "service_store_evictions_total")
    faults_entry = snapshot.get("service_faults_total", {})
    for item in faults_entry.get("series", ()):
        kind = item.get("labels", {}).get("kind", "?")
        d.faults[kind] = d.faults.get(kind, 0) + item.get("value", 0)
    slo_p99 = _series_value(snapshot, "service_slo_p99_seconds")
    slo_err = _series_value(snapshot, "service_slo_error_rate")
    d.slo_p99_s = slo_p99 or None
    d.slo_error_rate = slo_err or None
    return d


def render_digest(snapshot: dict) -> str:
    """The human-readable metrics panel (plain `repro metrics`, --watch)."""
    d = digest(snapshot)

    def _ms(v: float | None) -> str:
        return "-" if v is None else f"{v * 1e3:.1f}ms"

    lines = [
        f"uptime      {d.uptime_s:.1f}s",
        f"requests    {d.requests:.0f}  ({d.req_per_s:.1f} req/s)",
        f"errors      {d.errors:.0f}  ({d.error_rate * 100:.2f}%)",
        f"latency     p50 {_ms(d.p50_s)}  p95 {_ms(d.p95_s)}  p99 {_ms(d.p99_s)}",
        f"cache       {d.cache_hits:.0f} hits / {d.cache_misses:.0f} misses"
        f"  ({d.hit_rate * 100:.1f}% hit rate)",
    ]
    if d.faults:
        injected = "  ".join(f"{k}={v:.0f}" for k, v in sorted(d.faults.items()))
        lines.append(f"faults      {injected}")
    if d.slo_p99_s is not None or d.slo_error_rate is not None:
        burn = []
        if d.slo_p99_s is not None and d.p99_s is not None:
            ratio = d.p99_s / d.slo_p99_s if d.slo_p99_s else 0.0
            state = "OK" if d.p99_s <= d.slo_p99_s else "BURNING"
            burn.append(f"p99 {ratio * 100:.0f}% of {d.slo_p99_s * 1e3:.0f}ms [{state}]")
        if d.slo_error_rate is not None:
            state = "OK" if d.error_rate <= d.slo_error_rate else "BURNING"
            burn.append(
                f"errors {d.error_rate * 100:.2f}% vs {d.slo_error_rate * 100:.2f}% [{state}]"
            )
        if burn:
            lines.append("slo         " + "  ".join(burn))
    depth = _series_value(snapshot, "service_queue_depth")
    inflight = _series_value(snapshot, "service_inflight_dispatches")
    coalesced = _series_value(snapshot, "service_coalesced_total")
    lines.append(
        f"work        queue {depth:.0f}  inflight {inflight:.0f}  coalesced {coalesced:.0f}"
    )
    return "\n".join(lines)
