"""Observability layer: registry semantics, tracing, per-method metrics,
worker metric merging under faults, and the --metrics-out schema."""

import json

import pytest

from repro import FaultPlan, find_mpmb
from repro.core import (
    mc_vp,
    ordering_listing_sampling,
    reference_search,
)
from repro.graph import save_graph
from repro.observability import (
    NULL_OBSERVER,
    MetricsRegistry,
    Observer,
    PhaseTracer,
    ensure_observer,
)
from repro.runtime import run_parallel_trials
from repro.__main__ import main


class TestCounterGaugeSemantics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        registry.inc("a", 3)
        assert registry.counter("a").value == 5.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            MetricsRegistry().inc("a", -1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set("g", 10.0)
        registry.set("g", 3.0)
        assert registry.gauge("g").value == 3.0

    def test_name_cannot_change_kind(self):
        registry = MetricsRegistry()
        registry.inc("x")
        with pytest.raises(ValueError, match="already used by a counter"):
            registry.set("x", 1.0)
        with pytest.raises(ValueError, match="already used by a counter"):
            registry.observe("x", 1.0)


class TestHistogramSemantics:
    def test_edges_are_inclusive_upper_bounds(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.0, 2.0, 3.0, 7.0):
            registry.observe("h", value, edges=(1.0, 2.0, 5.0))
        hist = registry.histogram("h", (1.0, 2.0, 5.0))
        # buckets: <=1, <=2, <=5, overflow
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.total == pytest.approx(13.5)
        assert hist.mean == pytest.approx(2.7)

    def test_rejects_bad_edges_and_nan(self):
        with pytest.raises(ValueError, match="increasing"):
            MetricsRegistry().histogram("h", (2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            MetricsRegistry().histogram("h", ())
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="NaN"):
            registry.observe("h", float("nan"), edges=(1.0,))

    def test_existing_histogram_requires_same_edges(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError, match="different edges"):
            registry.histogram("h", (1.0, 3.0))


class TestMergeAndRoundTrip:
    def _registry(self, trials, rate, winners):
        registry = MetricsRegistry()
        registry.inc("sampling.trials", trials)
        registry.set("sampling.trials_per_second", rate)
        for value in winners:
            registry.observe("trial.winners", value, edges=(1.0, 2.0))
        return registry

    def test_merge_rules(self):
        a = self._registry(100, 50.0, [1, 1, 2])
        b = self._registry(40, 80.0, [1, 5])
        a.merge(b)
        # counters sum, gauges max, histogram buckets add.
        assert a.counter("sampling.trials").value == 140.0
        assert a.gauge("sampling.trials_per_second").value == 80.0
        hist = a.histogram("trial.winners", (1.0, 2.0))
        assert hist.counts == [3, 1, 1]
        assert hist.count == 5

    def test_merge_rejects_mismatched_edges(self):
        a = MetricsRegistry()
        a.observe("h", 1.0, edges=(1.0, 2.0))
        b = MetricsRegistry()
        b.observe("h", 1.0, edges=(1.0, 3.0))
        with pytest.raises(ValueError, match="different edges"):
            a.merge(b)

    def test_to_dict_from_dict_round_trip(self):
        registry = self._registry(7, 3.5, [1, 2, 9])
        clone = MetricsRegistry.from_dict(registry.to_dict())
        assert clone.to_dict() == registry.to_dict()

    def test_summary_table_lists_every_instrument(self):
        table = self._registry(7, 3.5, [1]).summary_table()
        assert "sampling.trials" in table
        assert "counter" in table and "gauge" in table
        assert "histogram" in table


class TestPhaseTracer:
    def test_nesting_paths_and_depths(self):
        tracer = PhaseTracer()
        with tracer.span("sampling", method="os"):
            with tracer.span("trial-loop"):
                pass
        outer, inner = tracer.spans
        assert (outer.path, outer.depth) == ("sampling", 0)
        assert (inner.path, inner.depth) == ("sampling/trial-loop", 1)
        assert outer.meta == {"method": "os"}
        assert outer.duration_ns >= inner.duration_ns >= 0

    def test_exception_still_closes_span(self):
        tracer = PhaseTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("sampling"):
                raise RuntimeError("boom")
        assert tracer.spans[0].duration_ns is not None

    def test_slash_in_name_rejected(self):
        with pytest.raises(ValueError, match="must not contain"):
            with PhaseTracer().span("a/b"):
                pass

    def test_merge_grafts_under_prefix_header(self):
        worker = PhaseTracer()
        with worker.span("sampling"):
            with worker.span("trial-loop"):
                pass
        pool = PhaseTracer()
        pool.merge(worker.to_list(), prefix="worker-0")
        header, outer, inner = pool.spans
        assert (header.name, header.depth) == ("worker-0", 0)
        assert header.meta == {"merged": True}
        assert header.duration_ns == worker.spans[0].duration_ns
        assert (outer.path, outer.depth) == ("worker-0/sampling", 1)
        assert inner.path == "worker-0/sampling/trial-loop"
        assert inner.depth == 2

    def test_span_record_schema(self):
        tracer = PhaseTracer()
        with tracer.span("graph-load"):
            pass
        (record,) = tracer.to_list()
        assert sorted(record) == [
            "depth", "duration_ns", "meta", "name", "path", "start_ns",
        ]


class TestNullObserver:
    def test_ensure_observer_resolves_none(self):
        assert ensure_observer(None) is NULL_OBSERVER
        real = Observer()
        assert ensure_observer(real) is real

    def test_null_observer_is_disabled_and_inert(self):
        assert NULL_OBSERVER.enabled is False
        assert Observer.enabled is True
        NULL_OBSERVER.inc("x")
        NULL_OBSERVER.set("y", 1.0)
        NULL_OBSERVER.observe("z", 1.0)
        with NULL_OBSERVER.span("phase"):
            pass
        assert NULL_OBSERVER.metrics.to_dict()["counters"] == {}
        assert NULL_OBSERVER.tracer.to_list() == []


class TestPerMethodMetrics:
    def test_mc_vp_records_trials_and_winner_sizes(self, figure1):
        observer = Observer()
        result = mc_vp(figure1, 30, rng=1, observer=observer)
        snapshot = observer.metrics.to_dict()
        assert snapshot["counters"]["sampling.trials"] == result.n_trials
        assert snapshot["counters"]["engine.trials.completed"] == 30.0
        assert snapshot["gauges"]["sampling.trials_per_second"] > 0
        winners = snapshot["histograms"]["trial.winners"]
        assert winners["count"] == 30
        names = [s["name"] for s in observer.tracer.to_list()]
        assert "sampling" in names and "trial-loop" in names

    def test_os_records_prune_rate(self, figure1):
        observer = Observer()
        result = reference_search(
            figure1, "os", 50, rng=2, observer=observer
        )
        snapshot = observer.metrics.to_dict()
        assert snapshot["counters"]["sampling.trials"] == result.n_trials
        assert "os.trials_pruned" in snapshot["counters"]
        assert 0.0 <= snapshot["gauges"]["os.prune_rate"] <= 1.0
        names = [s["name"] for s in observer.tracer.to_list()]
        assert "edge-ordering" in names

    def test_ols_records_candidates_and_cache_hit_rate(self, figure1):
        observer = Observer()
        result = ordering_listing_sampling(
            figure1, 200, n_prepare=20, estimator="optimized", rng=3,
            observer=observer,
        )
        snapshot = observer.metrics.to_dict()
        assert snapshot["counters"]["prepare.trials"] == 20.0
        assert snapshot["gauges"]["candidates.listed"] == float(
            len(result.estimates)
        )
        hit_rate = snapshot["gauges"]["ols.lazy_cache.hit_rate"]
        # Candidates share edges, so memoisation must actually hit.
        assert 0.0 < hit_rate < 1.0
        names = [s["name"] for s in observer.tracer.to_list()]
        assert "candidate-generation" in names and "sampling" in names

    def test_ols_kl_records_per_candidate_budgets(self, figure1):
        observer = Observer()
        result = ordering_listing_sampling(
            figure1, 40, n_prepare=20, estimator="karp-luby", rng=4,
            observer=observer,
        )
        snapshot = observer.metrics.to_dict()
        budgets = snapshot["histograms"]["ols-kl.trials_per_candidate"]
        assert budgets["count"] == len(result.estimates)
        assert budgets["sum"] == snapshot["counters"]["sampling.trials"]

    def test_find_mpmb_forwards_observer(self, figure1):
        observer = Observer()
        find_mpmb(figure1, method="os", n_trials=20, rng=0,
                  observer=observer)
        assert observer.metrics.to_dict()["counters"][
            "sampling.trials"
        ] == 20.0

    def test_exact_methods_record_a_span(self, figure1):
        observer = Observer()
        find_mpmb(figure1, method="exact-worlds", observer=observer)
        (span,) = observer.tracer.to_list()
        assert span["name"] == "exact-solve"
        assert span["meta"] == {"method": "exact-worlds"}

    def test_without_observer_nothing_is_recorded(self, figure1):
        # The shared NULL_OBSERVER keeps no state across runs.
        mc_vp(figure1, 5, rng=0)
        assert NULL_OBSERVER.metrics.to_dict()["counters"] == {}


class TestWorkerMetricMerge:
    def test_retried_worker_metrics_match_faultfree_pool(self, figure1):
        clean = Observer()
        run_parallel_trials(figure1, 60, 3, method="os", rng=5,
                            observer=clean)
        faulty = Observer()
        result = run_parallel_trials(
            figure1, 60, 3, method="os", rng=5,
            faults=FaultPlan(worker_crash_attempts={0: 1}),
            sleep=lambda _s: None, observer=faulty,
        )
        assert not result.degraded
        snapshot = faulty.metrics.to_dict()
        # Summed per-worker counters equal the pooled trial count, and a
        # retried worker replays its stream, so the counters match a
        # fault-free pool exactly.
        assert snapshot["counters"]["sampling.trials"] == 60.0
        assert snapshot["counters"]["sampling.trials"] == result.n_trials
        assert snapshot["counters"]["pool.worker.attempts"] == 4.0
        assert snapshot["counters"]["pool.workers.dropped"] == 0.0
        clean_counters = clean.metrics.to_dict()["counters"]
        assert snapshot["counters"]["engine.trials.completed"] == (
            clean_counters["engine.trials.completed"]
        )
        # Per-worker gauges take the max: the largest per-worker share.
        assert snapshot["gauges"]["sampling.target_trials"] == 20.0

    def test_dropped_worker_ships_no_metrics(self, figure1):
        observer = Observer()
        result = run_parallel_trials(
            figure1, 60, 3, method="os", rng=5, max_attempts=2,
            faults=FaultPlan(worker_crash_attempts={0: 2}),
            sleep=lambda _s: None, observer=observer,
        )
        assert result.degraded
        assert result.degraded_reason == "workers-dropped"
        snapshot = observer.metrics.to_dict()
        # The dropped worker's 20 trials appear in neither the pooled
        # result nor the pooled counters — merge consistency.
        assert result.n_trials == 40
        assert snapshot["counters"]["sampling.trials"] == 40.0
        assert snapshot["counters"]["engine.trials.completed"] == 40.0
        assert snapshot["counters"]["pool.workers.total"] == 3.0
        assert snapshot["counters"]["pool.workers.dropped"] == 1.0

    def test_worker_spans_graft_under_headers(self, figure1):
        observer = Observer()
        run_parallel_trials(figure1, 30, 2, method="os", rng=6,
                            observer=observer)
        names = [s["name"] for s in observer.tracer.to_list()]
        assert "fan-out" in names and "merge" in names
        assert "worker-0" in names and "worker-1" in names
        paths = [s["path"] for s in observer.tracer.to_list()]
        assert any(p.startswith("worker-0/") for p in paths)


class TestCliMetricsOut:
    #: The pinned --metrics-out schema; changing it is a format bump.
    TOP_LEVEL_KEYS = [
        "counters", "format", "gauges", "graph", "histograms", "kind",
        "method", "spans",
    ]

    def _run(self, figure1, tmp_path, extra=()):
        graph_path = tmp_path / "g.tsv"
        save_graph(figure1, graph_path)
        out = tmp_path / "metrics.json"
        code = main([
            "search", str(graph_path), "--method", "os",
            "--trials", "50", "--seed", "0",
            "--metrics-out", str(out), *extra,
        ])
        assert code == 0
        return json.loads(out.read_text(encoding="utf-8"))

    def test_schema_is_stable(self, figure1, tmp_path, capsys):
        document = self._run(figure1, tmp_path)
        assert sorted(document) == self.TOP_LEVEL_KEYS
        assert document["format"] == 1
        assert document["kind"] == "repro-metrics"
        assert document["method"] == "os"
        assert document["counters"]["sampling.trials"] == 50.0
        span_names = [s["name"] for s in document["spans"]]
        assert "graph-load" in span_names
        assert "trial-loop" in span_names
        for span in document["spans"]:
            assert sorted(span) == [
                "depth", "duration_ns", "meta", "name", "path",
                "start_ns",
            ]

    def test_trace_prints_summary(self, figure1, tmp_path, capsys):
        self._run(figure1, tmp_path, extra=("--trace",))
        out = capsys.readouterr().out
        assert "graph-load" in out
        assert "sampling.trials" in out

    def test_profile_out_writes_report(self, figure1, tmp_path):
        graph_path = tmp_path / "g.tsv"
        save_graph(figure1, graph_path)
        report = tmp_path / "profile.txt"
        code = main([
            "search", str(graph_path), "--method", "os",
            "--trials", "20", "--seed", "0",
            "--profile-out", str(report),
        ])
        assert code == 0
        assert "cumulative" in report.read_text(encoding="utf-8")
