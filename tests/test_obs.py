"""Tests for the telemetry plane (repro.obs) and its serve-stack wiring."""

import json
import re

import numpy as np
import pytest

from repro import JoinService, PolygonIndex
from repro.core import DynamicPolygonIndex
from repro.geo.polygon import regular_polygon
from repro.obs import (
    Counter,
    EventLog,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    Observability,
    Tracer,
    format_trace,
    render_prometheus,
    stats_json,
)
from repro.obs.trace import NULL_SPAN
from repro.serve import ShardedJoinService


def _grid_polygons(origin_lng=-74.0, origin_lat=40.70):
    return [
        regular_polygon((origin_lng + gx * 0.02, origin_lat + gy * 0.02), 0.011, 16)
        for gx in range(3)
        for gy in range(3)
    ]


@pytest.fixture(scope="module")
def index():
    return PolygonIndex.build(_grid_polygons(), precision_meters=30.0)


@pytest.fixture(scope="module")
def swap_index(index):
    # Built after ``index`` so its version is strictly greater.
    polygons = [
        regular_polygon((-74.0 + gx * 0.04, 40.70 + gy * 0.04), 0.02, 12)
        for gx in range(2)
        for gy in range(2)
    ]
    return PolygonIndex.build(polygons, precision_meters=60.0)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(7)
    lngs = rng.uniform(-74.03, -73.93, 3_000)
    lats = rng.uniform(40.67, 40.77, 3_000)
    return lats, lngs


def _by_name(records):
    out = {}
    for record in records:
        out.setdefault(record.name, []).append(record)
    return out


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_parentage(self):
        tracer = Tracer()
        with tracer.dispatch("dispatch", layer="zones") as root:
            with tracer.span("probe") as probe:
                with tracer.span("inner"):
                    pass
            tracer.emit("refine", 0.004, pip_tests=9)
        trace = tracer.take_last_trace()
        names = _by_name(trace)
        assert set(names) == {"dispatch", "probe", "inner", "refine"}
        dispatch = names["dispatch"][0]
        assert dispatch.parent_id == 0
        assert dispatch.meta == {"layer": "zones"}
        assert names["probe"][0].parent_id == dispatch.span_id
        assert names["refine"][0].parent_id == dispatch.span_id
        assert names["refine"][0].seconds == pytest.approx(0.004)
        assert names["inner"][0].parent_id == probe.span_id
        assert all(r.trace_id == root.trace_id for r in trace)
        # Root finishes last, so it is the final record of the trace.
        assert trace[-1].name == "dispatch"

    def test_disabled_tracer_is_null(self):
        tracer = Tracer(enabled=False)
        assert tracer.dispatch("dispatch") is NULL_SPAN
        with tracer.dispatch("dispatch"):
            assert tracer.span("probe") is NULL_SPAN
            tracer.emit("refine", 0.1)
            assert tracer.context() is None
        assert tracer.spans() == []
        assert tracer.take_last_trace() == []
        assert NULL_TRACER.dispatch("x") is NULL_SPAN

    def test_span_outside_dispatch_is_null(self):
        tracer = Tracer()
        assert tracer.span("probe") is NULL_SPAN
        tracer.emit("refine", 0.1)  # no active dispatch: dropped
        assert tracer.spans() == []

    def test_unsampled_dispatch_disables_children(self):
        tracer = Tracer(sample_rate=0.5)
        tracer._random = lambda: 0.99  # above the rate: drop
        with tracer.dispatch("dispatch"):
            assert tracer.span("probe") is NULL_SPAN
        assert tracer.spans() == []
        tracer._random = lambda: 0.01  # below the rate: keep
        with tracer.dispatch("dispatch"):
            with tracer.span("probe"):
                pass
        assert len(tracer.take_last_trace()) == 2

    def test_ring_bound(self):
        tracer = Tracer(ring_size=8)
        for _ in range(20):
            with tracer.dispatch("dispatch"):
                pass
        assert len(tracer.spans()) == 8
        tracer.reset()
        assert tracer.spans() == []

    def test_nested_dispatch_becomes_child(self):
        tracer = Tracer()
        with tracer.dispatch("outer") as outer:
            with tracer.dispatch("inner") as inner:
                assert inner.trace_id == outer.trace_id
        names = _by_name(tracer.take_last_trace())
        assert names["inner"][0].parent_id == outer.span_id

    def test_remote_root_adopt_roundtrip(self):
        front, worker = Tracer(), Tracer()
        with front.dispatch("dispatch"):
            ctx = front.context()
            assert ctx is not None
            with worker.remote_root("shard", ctx, shard=1):
                with worker.span("probe"):
                    pass
            shipped = worker.take_last_trace()
            front.adopt(shipped)
        trace = front.take_last_trace()
        names = _by_name(trace)
        assert set(names) == {"dispatch", "shard", "probe"}
        dispatch = names["dispatch"][0]
        assert names["shard"][0].parent_id == dispatch.span_id
        assert names["shard"][0].trace_id == dispatch.trace_id
        assert names["probe"][0].parent_id == names["shard"][0].span_id
        # Worker ids are salted differently only across real processes,
        # but must at least be unique within the merged trace.
        assert len({r.span_id for r in trace}) == len(trace)
        assert worker.remote_root("shard", None) is NULL_SPAN

    def test_phase_histograms_fed(self):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        with tracer.dispatch("dispatch"):
            tracer.emit("probe", 0.002)
        assert registry.value("serve_phase_seconds", {"phase": "probe"}) == 1
        assert registry.value("serve_phase_seconds", {"phase": "dispatch"}) == 1

    def test_slow_threshold_hands_full_trace(self):
        got = []
        tracer = Tracer(slow_threshold=0.0, on_slow=got.append)
        with tracer.dispatch("dispatch"):
            with tracer.span("probe"):
                pass
        assert len(got) == 1
        assert [r.name for r in got[0]] == ["probe", "dispatch"]

    def test_format_trace_tree(self):
        tracer = Tracer()
        with tracer.dispatch("dispatch"):
            with tracer.span("probe"):
                pass
        text = format_trace(tracer.take_last_trace())
        lines = text.splitlines()
        assert lines[0].startswith("dispatch ")
        assert lines[1].startswith("  probe ")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter(self):
        counter = Counter("ops_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge(self):
        gauge = Gauge("depth")
        gauge.set(7)
        gauge.dec(2)
        gauge.inc()
        assert gauge.value == 6

    def test_histogram_buckets_and_percentiles(self):
        hist = Histogram("lat", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.005, 0.05, 5.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(5.0605)
        samples = dict(
            ((suffix, labels.get("le")), value)
            for suffix, labels, value in hist.samples()
        )
        assert samples[("_bucket", "0.001")] == 1
        assert samples[("_bucket", "0.01")] == 3
        assert samples[("_bucket", "0.1")] == 4
        assert samples[("_bucket", "+Inf")] == 5
        assert samples[("_count", None)] == 5
        assert 0.001 <= hist.percentile(50.0) <= 0.01
        assert hist.percentile(100.0) == 0.1  # clamped to the last bound
        with pytest.raises(ValueError):
            hist.percentile(101.0)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(0.1, 0.1))
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(0.1, float("inf")))

    def test_registry_get_or_create_and_isolation(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        assert a.counter("x_total") is a.counter("x_total")
        assert a.counter("x_total") is not b.counter("x_total")
        assert a.counter("x_total", labels={"k": "1"}) is not a.counter("x_total")
        a.counter("x_total").inc()
        assert a.value("x_total") == 1
        assert b.value("x_total") == 0
        assert a.value("missing") is None

    def test_registry_kind_mismatch(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name")


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

#: One Prometheus exposition sample: name{labels} value
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" -?[0-9+][0-9a-zA-Z+.e-]*$"
)


def _assert_prometheus_wellformed(text):
    assert text.endswith("\n")
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"


class TestPrometheus:
    def test_registry_rendering_parses(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", "operations").inc(3)
        registry.gauge("depth", labels={"layer": "zones"}).set(2)
        registry.histogram("lat", buckets=(0.001, 0.1)).observe(0.05)
        text = render_prometheus(registry)
        _assert_prometheus_wellformed(text)
        assert "# TYPE repro_ops_total counter" in text
        assert "repro_ops_total 3" in text
        assert 'repro_depth{layer="zones"} 2' in text
        # HELP/TYPE emitted once per family even with many label sets.
        registry.gauge("depth", labels={"layer": "other"}).set(1)
        text = render_prometheus(registry)
        assert text.count("# TYPE repro_depth gauge") == 1

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 5.0):
            hist.observe(value)
        text = render_prometheus(registry)
        buckets = re.findall(r'repro_lat_bucket\{le="([^"]+)"\} (\d+)', text)
        assert [b[0] for b in buckets] == ["0.001", "0.01", "0.1", "+Inf"]
        values = [int(b[1]) for b in buckets]
        assert values == sorted(values)
        assert values[-1] == 4
        assert "repro_lat_count 4" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.gauge("g", labels={"k": 'a"b\\c\nd'}).set(1)
        text = render_prometheus(registry)
        assert 'repro_g{k="a\\"b\\\\c\\nd"} 1' in text
        _assert_prometheus_wellformed(text)

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestEventLog:
    def test_ring_and_filter(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("tick", i=i)
        log.emit("other")
        assert len(log) == 3
        assert [e["i"] for e in log.events("tick")] == [3, 4]
        assert all("ts" in e for e in log.events())
        log.clear()
        assert log.events() == [] and log.to_jsonl() == ""

    def test_jsonl_roundtrip(self):
        log = EventLog()
        log.emit("swap", layer="zones", version=3)
        lines = log.to_jsonl().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["swap"]

    def test_file_persistence(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(capacity=2, path=path)
        for i in range(4):
            log.emit("tick", i=i)
        log.close()
        # The ring is bounded; the file keeps everything.
        written = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["i"] for e in written] == [0, 1, 2, 3]
        assert len(log) == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


# ----------------------------------------------------------------------
# JoinService integration
# ----------------------------------------------------------------------


class TestServiceIntegration:
    def test_join_trace_has_phase_children(self, index, points):
        lats, lngs = points
        obs = Observability()
        with JoinService(index, obs=obs) as svc:
            svc.join(lats, lngs, exact=True)
            trace = obs.tracer.take_last_trace()
        names = _by_name(trace)
        dispatch = names["dispatch"][0]
        assert dispatch.parent_id == 0
        assert dispatch.meta["points"] == len(lats)
        for phase in ("cache_lookup", "probe", "refine"):
            assert phase in names, f"missing {phase} span"
            assert all(r.parent_id == dispatch.span_id for r in names[phase])
            assert all(r.trace_id == dispatch.trace_id for r in names[phase])

    def test_join_feeds_dispatch_meters(self, index, points):
        lats, lngs = points
        obs = Observability()
        with JoinService(index, obs=obs) as svc:
            result = svc.join(lats, lngs, exact=True)
        assert obs.metrics.value("serve_dispatches_total") == 1
        assert obs.metrics.value("serve_points_total") == len(lats)
        assert obs.metrics.value("serve_pairs_total") == result.num_pairs
        assert obs.metrics.value("serve_pip_tests_total") == result.num_pip_tests
        assert obs.metrics.value("serve_dispatch_seconds") == 1
        assert (
            obs.metrics.value("serve_phase_seconds", {"phase": "dispatch"}) == 1
        )

    def test_lookup_path_traced_and_metered(self, index):
        obs = Observability()
        with JoinService(index, obs=obs) as svc:
            svc.lookup(40.70, -74.0)
        spans = obs.tracer.spans()
        dispatches = [
            r for r in spans
            if r.name == "dispatch" and (r.meta or {}).get("kind") == "lookup"
        ]
        assert dispatches
        scatter = [r for r in spans if r.name == "scatter"]
        assert scatter and scatter[0].parent_id == dispatches[0].span_id
        assert obs.metrics.value("serve_batch_size") >= 1  # MicroBatcher hist

    def test_disabled_tracing_keeps_metrics(self, index, points):
        lats, lngs = points
        obs = Observability(tracing=False)
        with JoinService(index, obs=obs) as svc:
            svc.join(lats, lngs)
        assert obs.tracer.spans() == []
        assert obs.metrics.value("serve_dispatches_total") == 1

    def test_swap_and_add_layer_events(self, index, swap_index):
        obs = Observability()
        with JoinService(index, obs=obs) as svc:
            svc.add_layer("extra", swap_index)
            svc.swap_layer("default", swap_index)
        kinds = [e["kind"] for e in obs.events.events()]
        assert "add_layer" in kinds and "swap" in kinds
        swap = obs.events.events("swap")[0]
        assert swap["layer"] == "default"
        assert swap["version"] == swap_index.version

    def test_slow_dispatch_exemplar(self, index, points):
        lats, lngs = points
        obs = Observability(slow_trace_ms=0.0)
        with JoinService(index, obs=obs) as svc:
            svc.join(lats, lngs)
        exemplars = obs.events.events("slow_dispatch")
        assert exemplars
        trace = exemplars[0]["trace"]
        assert exemplars[0]["name"] == "dispatch"
        assert trace[-1]["name"] == "dispatch"
        json.dumps(exemplars[0])  # exemplar is JSON-safe verbatim

    def test_compaction_event_and_counter(self):
        obs = Observability()
        polygons = _grid_polygons()
        dyn = DynamicPolygonIndex.build(
            polygons[:4],
            precision_meters=60.0,
            compact_threshold=None,
            events=obs.events,
            metrics=obs.metrics,
        )
        dyn.insert(polygons[5])
        dyn.compact()
        assert obs.metrics.value("index_compactions_total") == 1
        event = obs.events.events("compaction")[0]
        assert event["compactions"] == 1
        assert event["live_polygons"] == 5
        # What the rebuild cost: the snapshot's build timings, and how
        # many polygons it had to cover (none: the four were covered by
        # the build, the fifth by its insert).
        timings = dyn.base.timings
        assert event["cover_seconds"] == timings.individual_coverings_seconds > 0
        assert event["store_seconds"] == timings.store_build_seconds > 0
        assert event["covered"] == timings.covered == 0

    def test_prometheus_export_with_service_stats(self, index, points):
        lats, lngs = points
        obs = Observability()
        with JoinService(index, obs=obs) as svc:
            svc.join(lats, lngs, exact=True)
            text = obs.prometheus(stats=svc.stats())
        _assert_prometheus_wellformed(text)
        assert "repro_service_points 3000" in text
        assert "repro_service_throughput_wall_pps " in text
        assert 'repro_service_cache_hits{layer="default"}' in text
        assert 'repro_service_layer_version{layer="default"}' in text

    def test_stats_json_and_to_dict_roundtrip(self, index, points):
        lats, lngs = points
        with JoinService(index) as svc:
            svc.join(lats, lngs)
            stats = svc.stats()
        data = stats.to_dict()
        assert json.loads(stats_json(stats)) == json.loads(json.dumps(data))
        assert data["points"] == stats.points
        assert data["latency_window"] == stats.latency_window
        assert data["layers"]["default"]["compactions"] == 0


# ----------------------------------------------------------------------
# Sharded integration
# ----------------------------------------------------------------------


class TestShardedIntegration:
    def _assert_shard_trace(self, trace, num_shards):
        names = _by_name(trace)
        roots = [r for r in names["dispatch"] if r.parent_id == 0]
        assert len(roots) == 1  # one front root; worker dispatches nest
        dispatch = roots[0]
        for phase in ("scatter", "gather", "merge"):
            assert names[phase][0].parent_id == dispatch.span_id
        assert names["scatter"][0].meta["shards"] == num_shards
        shard_roots = names["shard"]
        assert len(shard_roots) == num_shards  # every lane is messaged
        shard_ids = set()
        for root in shard_roots:
            assert root.parent_id == dispatch.span_id
            assert root.trace_id == dispatch.trace_id
            shard_ids.add(root.span_id)
        # Each lane's id computation for its positional share came across
        # too, under its shard root — never under the front's dispatch.
        id_spans = names["cell_ids"]
        assert sorted(r.parent_id for r in id_spans) == sorted(shard_ids)
        assert sum(r.meta["points"] for r in id_spans) == dispatch.meta["points"]
        (gather,) = names["gather"]
        assert gather.meta["lane_ids_seconds_max"] == max(r.seconds for r in id_spans)
        # Worker-side children (the shard's own dispatch) came across the
        # boundary and are parented under their shard roots.
        worker_dispatches = [
            r for r in names["dispatch"] if r.parent_id in shard_ids
        ]
        assert len(worker_dispatches) == len(shard_roots)

    def test_inline_trace_contains_worker_spans(self, index, points):
        lats, lngs = points
        obs = Observability()
        with ShardedJoinService(
            index, num_shards=2, backend="inline", obs=obs
        ) as svc:
            svc.join(lats, lngs, exact=True)
            trace = obs.tracer.take_last_trace()
        self._assert_shard_trace(trace, num_shards=2)
        # The gather span names its slowest lane's busy time, so "wake-ups
        # + pipe" reads as gather - lane_seconds_max, no subtraction of
        # sums: the largest probe + refine among the lanes' own spans.
        names = _by_name(trace)
        (gather,) = names["gather"]
        lane_busy = {}
        for record in names["probe"] + names["refine"]:
            lane_busy[record.parent_id] = (
                lane_busy.get(record.parent_id, 0.0) + record.seconds
            )
        assert gather.meta["lane_seconds_max"] == max(lane_busy.values())
        assert 0.0 < gather.meta["lane_seconds_max"] <= gather.seconds
        assert obs.metrics.value("serve_dispatches_total") == 1
        assert obs.metrics.value("serve_points_total") == len(lats)
        # The phase histogram sees the lanes' id time by adoption: one
        # observation per lane, and none from a front that computes none.
        cell_ids_phase = {"phase": "cell_ids"}
        assert obs.metrics.value("serve_phase_seconds", cell_ids_phase) == 2
        plain = Observability()
        with JoinService(index, obs=plain) as svc:
            svc.join(lats, lngs, exact=True)
        assert plain.metrics.value("serve_phase_seconds", cell_ids_phase) is None
        spawns = obs.events.events("shard_spawn")
        assert [e["shard"] for e in spawns] == [0, 1]
        assert {key for e in spawns for key in e} == {
            "ts", "kind", "shard", "backend", "spawn_seconds",
        }

    def test_inline_one_point_join_runs_one_cell_id_kernel(self, index, points):
        # A dispatch smaller than num_shards leaves a lane an empty share:
        # that lane computes no ids, so the trace holds one cell_ids span.
        lats, lngs = points
        obs = Observability()
        with ShardedJoinService(
            index, num_shards=2, backend="inline", obs=obs
        ) as svc:
            result = svc.join(lats[:1], lngs[:1], exact=True)
            trace = obs.tracer.take_last_trace()
        names = _by_name(trace)
        assert len(names["shard"]) == 2  # both lanes are still messaged
        (id_span,) = names["cell_ids"]
        assert id_span.meta["points"] == 1
        assert np.array_equal(
            result.counts, index.join(lats[:1], lngs[:1], exact=True).counts
        )

    def test_process_trace_contains_worker_spans(self, index, points):
        lats, lngs = points
        obs = Observability()
        with ShardedJoinService(
            index, num_shards=2, backend="process", obs=obs
        ) as svc:
            svc.join(lats[:1500], lngs[:1500], exact=True)
            trace = obs.tracer.take_last_trace()
        self._assert_shard_trace(trace, num_shards=2)
        # Process-worker span ids are salted with the worker pid.
        assert len({r.span_id for r in trace}) == len(trace)

    def test_untraced_sharded_results_unaffected(self, index, points):
        lats, lngs = points
        direct = index.join(lats, lngs, exact=True)
        obs = Observability(tracing=False)
        with ShardedJoinService(
            index, num_shards=2, backend="inline", obs=obs
        ) as svc:
            served = svc.join(lats, lngs, exact=True)
        assert np.array_equal(served.counts, direct.counts)
        assert obs.tracer.spans() == []

    def test_sharded_stats_roundtrip_and_export(self, index, points):
        lats, lngs = points
        obs = Observability()
        with ShardedJoinService(
            index, num_shards=2, backend="inline", obs=obs
        ) as svc:
            svc.join(lats, lngs)
            stats = svc.stats()
            text = obs.prometheus(stats=stats)
        data = json.loads(stats_json(stats))
        assert [s["shard"] for s in data["shards"]] == [0, 1]
        assert all("points" in s["stats"] for s in data["shards"])
        _assert_prometheus_wellformed(text)
        assert "repro_service_shards 2" in text
        assert 'repro_service_shard_points{shard="0"}' in text

    def test_sharded_swap_event(self, index, swap_index, points):
        obs = Observability()
        with ShardedJoinService(
            index, num_shards=2, backend="inline", obs=obs
        ) as svc:
            svc.swap_layer("default", swap_index)
        swap = obs.events.events("swap")[0]
        assert swap["layer"] == "default"
        assert swap["shards"] == 2


# ----------------------------------------------------------------------
# Observability bundle
# ----------------------------------------------------------------------


class TestObservabilityBundle:
    def test_isolated(self):
        a, b = Observability(), Observability()
        assert a.metrics is not b.metrics
        assert a.events is not b.events

    @pytest.mark.parametrize(
        "option",
        [("ring_size", 64), ("event_capacity", 8), ("registry", None), ("events", None)],
        ids=lambda option: option[0],
    )
    def test_retired_options_raise(self, option):
        """Sizes are the Tracer's and the EventLog's defaults, and a
        bundle shares nothing."""
        name, value = option
        with pytest.raises(TypeError, match=name):
            Observability(**{name: value})

    @pytest.mark.parametrize("tracing", [None, False, True])
    def test_lane_traces_exactly_when_the_front_does(self, index, tracing):
        """A lane builds ``Observability(tracing=...)`` from its payload:
        the front's switch, every dispatch traced (the front sampled) and
        no exemplars (the front judges slowness)."""
        obs = (
            None
            if tracing is None
            else Observability(tracing=tracing, sample_rate=0.25, slow_trace_ms=5.0)
        )
        with ShardedJoinService(index, num_shards=2, backend="inline", obs=obs) as svc:
            lanes = [client._service.obs for client in svc._clients]
        for lane in lanes:
            if tracing is None:
                assert lane is None
                continue
            assert lane is not obs
            assert lane.tracer.enabled is tracing
            assert lane.tracer.sample_rate == 1.0
            assert lane.slow_trace_ms is None
