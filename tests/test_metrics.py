"""The metrics registry: instruments, snapshot/merge, exposition.

The registry is the live half of the observability plane (the tracer is
the post-hoc half), so these tests pin its contracts hard: snapshots
merge like trace shards, bucket counts stay non-cumulative internally
but cumulate (and close with ``+Inf``) in the Prometheus text rendering,
and the digest reads what the daemon's text outputs print.
"""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    bucket_index,
    digest,
    quantile_from_buckets,
    render_digest,
    render_prom,
)


class TestInstruments:
    def test_counter_inc_and_labels(self):
        m = MetricsRegistry()
        c = m.counter("requests_total", "reqs", labels=("op",))
        c.labels(op="optimize").inc()
        c.labels(op="optimize").inc(2)
        c.labels(op="run").inc()
        assert c.labels(op="optimize").value == 3
        assert c.value == 4  # sum across series

    def test_label_children_are_memoized(self):
        m = MetricsRegistry()
        c = m.counter("x_total", labels=("k",))
        assert c.labels(k="a") is c.labels(k="a")

    def test_unlabeled_family_is_the_instrument(self):
        m = MetricsRegistry()
        g = m.gauge("depth")
        g.set(7)
        g.dec(2)
        assert g.value == 5

    def test_histogram_bucket_placement(self):
        m = MetricsRegistry()
        h = m.histogram("lat_seconds", buckets=(0.01, 0.1, 1.0))
        h.observe(0.005)  # bucket 0
        h.observe(0.1)    # exactly on a boundary -> that bucket (le=0.1)
        h.observe(0.5)    # bucket 2
        h.observe(99.0)   # +Inf overflow
        series = m.to_dict()["lat_seconds"]["series"][0]
        assert series["counts"] == [1, 1, 1, 1]
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(99.605)

    def test_reregistration_returns_same_family(self):
        m = MetricsRegistry()
        a = m.counter("c_total", labels=("op",))
        b = m.counter("c_total", labels=("op",))
        assert a is b

    def test_type_or_label_mismatch_raises(self):
        m = MetricsRegistry()
        m.counter("c_total", labels=("op",))
        with pytest.raises(ValueError, match="re-registered"):
            m.gauge("c_total", labels=("op",))
        with pytest.raises(ValueError, match="re-registered"):
            m.counter("c_total", labels=("other",))
        m.histogram("h_seconds", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="re-registered"):
            m.histogram("h_seconds", buckets=(1.0, 5.0))

    def test_empty_histogram_buckets_rejected(self):
        with pytest.raises(ValueError, match="bucket"):
            MetricsRegistry().histogram("h_seconds", buckets=())


class TestSnapshotMerge:
    def _loaded(self):
        m = MetricsRegistry()
        m.counter("reqs_total", "r", labels=("op",)).labels(op="a").inc(3)
        m.gauge("depth").set(4)
        h = m.histogram("lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        return m

    def test_snapshot_round_trips_through_json(self):
        snapshot = self._loaded().to_dict()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_merge_sums_counters_and_buckets(self):
        m = self._loaded()
        snapshot = self._loaded().to_dict()
        m.merge_snapshot(snapshot)
        out = m.to_dict()
        assert out["reqs_total"]["series"][0]["value"] == 6
        assert out["lat_seconds"]["series"][0]["counts"] == [2, 4, 2]
        assert out["lat_seconds"]["series"][0]["count"] == 8

    def test_merge_gauges_last_writer_wins(self):
        m = self._loaded()
        other = MetricsRegistry()
        other.gauge("depth").set(9)
        m.merge_snapshot(other.to_dict())
        assert m.to_dict()["depth"]["series"][0]["value"] == 9

    def test_merge_creates_unknown_families(self):
        # A worker-only family (e.g. pipeline stage timings) must surface
        # in the daemon registry with its own type and buckets intact.
        worker = MetricsRegistry()
        worker.histogram(
            "pipeline_stage_seconds", buckets=(0.1, 1.0), labels=("stage",)
        ).labels(stage="inline").observe(0.2)
        daemon = MetricsRegistry()
        daemon.merge_snapshot(worker.to_dict())
        entry = daemon.to_dict()["pipeline_stage_seconds"]
        assert entry["type"] == "histogram"
        assert entry["buckets"] == [0.1, 1.0]
        assert entry["series"][0]["counts"] == [0, 1, 0]


class TestQuantiles:
    def test_quantile_reports_bucket_upper_boundary(self):
        boundaries = [0.01, 0.1, 1.0]
        counts = [5, 3, 2, 0]
        assert quantile_from_buckets(boundaries, counts, 0.50) == 0.01
        assert quantile_from_buckets(boundaries, counts, 0.95) == 1.0

    def test_quantile_empty_series_is_none(self):
        assert quantile_from_buckets([0.1], [0, 0], 0.5) is None

    def test_overflow_reports_highest_finite_boundary(self):
        assert quantile_from_buckets([0.1, 1.0], [0, 0, 4], 0.99) == 1.0

    def test_bucket_index_matches_observe(self):
        m = MetricsRegistry()
        h = m.histogram("h_seconds", buckets=DEFAULT_LATENCY_BUCKETS)
        for value in (0.0001, 0.001, 0.07, 42.0):
            h.observe(value)
            counts = m.to_dict()["h_seconds"]["series"][0]["counts"]
            assert counts[bucket_index(list(DEFAULT_LATENCY_BUCKETS), value)] >= 1


class TestPromRendering:
    def test_exposition_shape(self):
        m = MetricsRegistry()
        m.counter("reqs_total", "Requests", labels=("op",)).labels(op="a").inc(3)
        h = m.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = render_prom(m.to_dict())
        assert "# HELP reqs_total Requests" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{op="a"} 3' in text
        assert "# TYPE lat_seconds histogram" in text
        # Cumulated buckets, closed with +Inf, plus _sum/_count.
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert text.endswith("\n")

    def test_bucket_counts_are_monotone(self):
        m = MetricsRegistry()
        h = m.histogram("h_seconds", buckets=(0.01, 0.1, 1.0), labels=("op",))
        for v in (0.005, 0.05, 0.5, 2.0, 0.05):
            h.labels(op="x").observe(v)
        last = -1
        for line in render_prom(m.to_dict()).splitlines():
            if line.startswith("h_seconds_bucket"):
                value = int(line.rsplit(" ", 1)[1])
                assert value >= last
                last = value
        assert last == 5

    def test_label_values_are_escaped(self):
        m = MetricsRegistry()
        m.counter("c_total", labels=("k",)).labels(k='a"b\\c\nd').inc()
        text = render_prom(m.to_dict())
        assert 'k="a\\"b\\\\c\\nd"' in text


class TestDigest:
    def _snapshot(self):
        m = MetricsRegistry()
        m.gauge("service_uptime_seconds").set(10.0)
        m.counter("service_requests_total", labels=("op",)).labels(op="optimize").inc(20)
        m.counter("service_errors_total", labels=("op",)).labels(op="optimize").inc(1)
        h = m.histogram(
            "service_request_seconds", buckets=(0.01, 0.1, 1.0), labels=("op", "code")
        )
        for _ in range(19):
            h.labels(op="optimize", code="ok").observe(0.05)
        h.labels(op="optimize", code="error").observe(0.5)
        m.counter("service_store_hits_total", labels=("path",)).labels(
            path="artifact"
        ).inc(15)
        m.counter("service_store_misses_total").inc(5)
        m.counter("service_store_evictions_total").inc(3)
        m.gauge("service_store_entries").set(12)
        m.counter("service_faults_total", labels=("kind",)).labels(kind="crash").inc(2)
        m.gauge("service_slo_p99_seconds").set(0.25)
        m.gauge("service_slo_error_rate").set(0.01)
        return m.to_dict()

    def test_digest_numbers(self):
        d = digest(self._snapshot())
        assert d.requests == 20
        assert d.errors == 1
        assert d.req_per_s == pytest.approx(2.0)
        assert d.error_rate == pytest.approx(0.05)
        # ok-series only: the error observation (0.5s) must not move p99.
        assert d.p99_s == 0.1
        assert d.hit_rate == pytest.approx(0.75)
        assert (d.store_entries, d.store_evictions) == (12, 3)
        assert d.faults == {"crash": 2}
        assert d.slo_p99_s == 0.25

    def test_render_digest_flags_slo_burn(self):
        text = render_digest(self._snapshot())
        assert "requests    20" in text
        # error rate 5% > 1% target -> burning; p99 100ms <= 250ms -> ok.
        assert "[BURNING]" in text and "[OK]" in text
        assert "cache" in text and "75.0% hit rate" in text


class TestPercentileCrosscheck:
    def _snapshot(self, op="optimize"):
        m = MetricsRegistry()
        h = m.histogram(
            "service_request_seconds", buckets=(0.01, 0.1, 1.0), labels=("op", "code")
        )
        for v in (0.005, 0.05, 0.05, 0.05):
            h.labels(op=op, code="ok").observe(v)
        # Scrape traffic on another op must not skew the comparison.
        h.labels(op="metrics", code="ok").observe(0.0001)
        return m.to_dict()

    def test_agreement_within_one_bucket(self):
        from repro.service.loadgen import LatencySummary, percentile_crosscheck

        client = LatencySummary.from_samples([0.006, 0.04, 0.05, 0.06])
        daemon, check = percentile_crosscheck(client, self._snapshot(), op="optimize")
        assert daemon["count"] == 4
        assert daemon["p50_s"] == 0.1
        assert check["ok"]
        assert all(item["ok"] for item in check["quantiles"].values())

    def test_disagreement_is_flagged(self):
        from repro.service.loadgen import LatencySummary, percentile_crosscheck

        # Client thinks everything took seconds; daemon recorded tens of ms.
        client = LatencySummary.from_samples([3.0, 4.0, 5.0, 6.0])
        _, check = percentile_crosscheck(client, self._snapshot(), op="optimize")
        assert not check["ok"]

    def test_no_histogram_returns_none(self):
        from repro.service.loadgen import LatencySummary, percentile_crosscheck

        client = LatencySummary.from_samples([0.01])
        assert percentile_crosscheck(client, {}, op="optimize") == (None, None)
