"""The traced run: per-layer metrics measured from outside each layer.

:class:`CallLog` wraps, from the benchmark's own files, the public entry
points of each layer at the module where the caller binds them, and
logs every call's start and duration.  The served Observer's own spans
and counters supply the rest.  A layer's self time is its span's
duration minus the time its direct child spans cover.  Wrappers in the
parent cannot reach pool workers; their numbers come from the
``worker-<id>`` spans the pool grafts into the parent trace.

End-to-end numbers never come from a traced pass: the traced run makes
an untraced pass and a traced pass over the same requests and reports
the difference in mean request time as the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: ``(module, attribute path, label)`` of every wrapped entry point.
WRAPPED = (
    ("repro.service.schemas", "QueryRequest.from_dict", "parse"),
    ("repro.service.broker", "QueryBroker.handle", "handle"),
    ("repro.service.schemas", "QueryResponse.to_dict", "encode"),
    ("repro.observability.observer", "Observer.export_document", "export"),
    ("repro.service.registry", "load_dataset", "build"),
    ("repro.service.registry", "graph_checksum", "checksum"),
    ("repro.kernels.wedge_block", "build_wedge_index", "wedge_index"),
    ("repro.core.ordering_sampling", "build_wedge_index", "wedge_index"),
    ("repro.core.mc_vp", "build_wedge_index", "wedge_index"),
    ("repro.adaptive.prescreen", "build_wedge_index", "wedge_index"),
    ("repro.adaptive.racing", "prescreen_candidates", "prescreen"),
)

Call = Tuple[str, int, int]  # label, start_ns, duration_ns


class CallLog:
    """Timed wrappers around the layers' public entry points."""

    def __init__(self) -> None:
        self.calls: List[Call] = []

    def _wrap(self, label: str, function):
        calls = self.calls
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def timed(*args, **kwargs):
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                calls.append((label, started, clock() - started))

        return timed

    @contextmanager
    def installed(self) -> Iterator["CallLog"]:
        """Wrap every entry point in :data:`WRAPPED`; restore on exit."""
        undo = []
        try:
            for module_name, path, label in WRAPPED:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = vars(owner)[attribute]
                undo.append((owner, attribute, raw))
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(label, raw.__func__))
                else:
                    wrapped = self._wrap(label, raw)
                setattr(owner, attribute, wrapped)
            yield self
        finally:
            for owner, attribute, raw in reversed(undo):
                setattr(owner, attribute, raw)

    def take(self) -> List[Call]:
        """The calls logged since the last take."""
        taken = list(self.calls)
        self.calls.clear()
        return taken


def _seconds(calls: List[Call], label: str) -> float:
    return sum(duration for name, _, duration in calls if name == label) / 1e9


def _inside(calls: List[Call], label: str, spans) -> float:
    """Seconds of ``label`` calls that started inside one of ``spans``."""
    windows = [(span.start_ns, span.start_ns + span.duration_ns)
               for span in spans]
    return sum(
        duration for name, started, duration in calls
        if name == label
        and any(low <= started < high for low, high in windows)
    ) / 1e9


def _children(spans) -> Dict[int, List]:
    """Direct child spans of each span (keyed by ``id``)."""
    latest = {}
    children: Dict[int, List] = defaultdict(list)
    for span in spans:
        parent_path, _, _ = span.path.rpartition("/")
        parent = latest.get(parent_path) if parent_path else None
        if parent is not None:
            children[id(parent)].append(span)
        latest[span.path] = span
    return children


class LayerStats:
    """Attributes each traced request's layer work and sums it up."""

    def __init__(self, service, log: CallLog) -> None:
        self.observer = service.observer
        self.log = log
        self.sums: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.scrapes: List[float] = []
        self._span_mark = len(self.observer.tracer.spans)
        self._counters_before = self._counters()
        self._vectorized = self._counters_before.get(
            "kernel.trials_vectorized", 0.0
        )
        self.setup = self._setup_layers(log.take())

    def _counters(self) -> Dict[str, float]:
        return dict(self.observer.metrics.to_dict()["counters"])

    def _add(self, key: str, value: float) -> None:
        self.sums[key] += value
        self.counts[key] += 1

    def _setup_layers(self, calls: List[Call]) -> Dict[str, float]:
        loads = [
            span.seconds for span in self.observer.tracer.spans
            if span.name == "registry-load"
        ]
        graphs = max(1, len(loads))
        build = _seconds(calls, "build")
        checksum = _seconds(calls, "checksum")
        return {
            "service.registry.load_s": sum(loads) / graphs,
            "graph.build_s": build / graphs,
            "graph.warm_s": (sum(loads) - build - checksum) / graphs,
        }

    def observe(self, payload: Dict, document: Dict) -> None:
        """Attribute the request just answered (outside its timing)."""
        calls = self.log.take()
        self.scrapes.extend(
            duration / 1e9 for name, _, duration in calls if name == "export"
        )
        tracer_spans = self.observer.tracer.spans
        spans = tracer_spans[self._span_mark:]
        self._span_mark = len(tracer_spans)
        self._add("parse", _seconds(calls, "parse"))
        self._add("encode", _seconds(calls, "encode"))
        children = _children(spans)
        engine = [
            child
            for span in spans if span.name == "service-request"
            for child in children[id(span)]
        ]
        # The pre-screen runs outside every span of the engine; it is
        # engine work all the same.
        unspanned = _seconds(calls, "prescreen") - _inside(
            calls, "prescreen", engine
        )
        self._add("handle_self", _seconds(calls, "handle") - unspanned
                  - sum(child.seconds for child in engine))
        self._add("wedge_builds", sum(
            1 for name, _, _ in calls if name == "wedge_index"
        ))
        self._add("wedge_index", _seconds(calls, "wedge_index"))
        if document["cache_hit"] or document["status"] != "ok":
            return
        self._engine_layers(payload, document, spans, children, calls)

    def _engine_layers(self, payload, document, spans, children, calls):
        method = document["method"]
        adaptive = payload.get("mode") == "adaptive"
        batched = payload.get("block_size") is not None

        def self_time(name: str) -> float:
            return sum(
                span.seconds - sum(c.seconds for c in children[id(span)])
                for span in spans if span.name == name
            )

        def total(name: str) -> float:
            return sum(span.seconds for span in spans if span.name == name)

        prescreen = _seconds(calls, "prescreen")
        snapshot = self.observer.metrics.to_dict()
        gauges = snapshot["gauges"]
        total_vectorized = snapshot["counters"].get(
            "kernel.trials_vectorized", 0.0
        )
        vectorized = total_vectorized - self._vectorized
        self._vectorized = total_vectorized
        if method in ("ols", "ols-kl"):
            self._add("candidate_generation", self_time(
                "candidate-generation"
            ))
            self._add("candidates_listed", gauges.get(
                "candidates.listed", 0.0
            ))
        if method == "os":
            self.sums["os_trials"] += document["n_trials"]
        sampling = [span for span in spans if span.name == "sampling"]
        self._add("sampling_self", self_time("sampling") - _inside(
            calls, "prescreen", sampling
        ))
        loop = total("trial-loop")
        if batched:
            self._add("block_bytes", gauges.get("kernel.block_bytes", 0.0))
        if vectorized:
            self.sums["vectorized"] += vectorized
            self.sums["vectorized_loop"] += loop
        if adaptive:
            self._add("prescreen", prescreen)
            self._add("race", loop)
            self.sums["adaptive_trials"] += document["n_trials"]
        else:
            self._add("trial_loop_self", self_time("trial-loop"))
        if payload.get("workers", 1) > 1:
            fan_out = total("fan-out")
            workers = [
                span.seconds for span in spans
                if span.depth == 0 and span.name.startswith("worker-")
            ]
            self._add("fan_out", fan_out)
            self._add("merge", total("merge"))
            self._add("worker_busy", sum(workers))
            self._add("dispatch_wait", fan_out - max(workers, default=0.0))

    def mean(self, key: str) -> float:
        count = self.counts.get(key, 0)
        return self.sums[key] / count if count else 0.0

    def metrics(self, record, overhead: float) -> Dict[str, float]:
        """Every per-layer metric of the traced pass.

        A metric with no such work on the workload (no pooled request,
        no adaptive request, ...) reads 0.
        """
        self.scrapes.extend(
            duration / 1e9 for name, _, duration in self.log.take()
            if name == "export"
        )
        after = self._counters()
        delta = {
            name: after.get(name, 0.0) - self._counters_before.get(name, 0.0)
            for name in set(after) | set(self._counters_before)
        }
        lookups = delta.get("service.cache.hits", 0.0) + delta.get(
            "service.cache.misses", 0.0
        )
        queried = delta.get("ols.edges_queried", 0.0)
        workers = delta.get("pool.workers.total", 0.0)
        saved = delta.get("adaptive.trials_saved", 0.0)
        static = self.sums["adaptive_trials"] + saved
        values = dict(self.setup)
        values.update({
            "service.parse_s": self.mean("parse"),
            "service.handle_self_s": self.mean("handle_self"),
            "service.encode_s": self.mean("encode"),
            "service.cache.hit_ratio": (
                delta.get("service.cache.hits", 0.0) / lookups
                if lookups else 0.0
            ),
            "service.rejected": delta.get("service.admission.rejected", 0.0)
            + delta.get("service.breaker.rejected", 0.0),
            "observability.spans_retained": float(
                len(self.observer.tracer.spans)
            ),
            "observability.export_s": (
                sum(self.scrapes) / len(self.scrapes) if self.scrapes
                else 0.0
            ),
            "observability.export_bytes": (
                sum(record.scrape_bytes) / len(record.scrape_bytes)
                if record.scrape_bytes else 0.0
            ),
            "core.candidate_generation_s": self.mean("candidate_generation"),
            "core.candidates_listed": self.mean("candidates_listed"),
            "core.sampling_self_s": self.mean("sampling_self"),
            "core.os.prune_rate": (
                delta.get("os.trials_pruned", 0.0) / self.sums["os_trials"]
                if self.sums["os_trials"] else 0.0
            ),
            "core.ols.lazy_cache_hit_rate": (
                1.0 - delta.get("ols.edges_sampled", 0.0) / queried
                if queried else 0.0
            ),
            "kernels.wedge_index.builds": self.mean("wedge_builds"),
            "kernels.wedge_index_s": self.mean("wedge_index"),
            "kernels.trials_per_s": (
                self.sums["vectorized"] / self.sums["vectorized_loop"]
                if self.sums["vectorized_loop"] else 0.0
            ),
            "kernels.block_bytes": self.mean("block_bytes"),
            "adaptive.prescreen_s": self.mean("prescreen"),
            "adaptive.race_s": self.mean("race"),
            "adaptive.trials_saved_ratio": saved / static if static else 0.0,
            "adaptive.candidates_eliminated": (
                delta.get("adaptive.candidates_eliminated", 0.0)
                / self.counts["race"] if self.counts.get("race") else 0.0
            ),
            "runtime.trial_loop_self_s": self.mean("trial_loop_self"),
            "runtime.fan_out_s": self.mean("fan_out"),
            "runtime.dispatch_wait_s": self.mean("dispatch_wait"),
            "runtime.worker_busy_s": self.mean("worker_busy"),
            "runtime.merge_s": self.mean("merge"),
            "runtime.worker.retry_ratio": (
                delta.get("pool.worker.attempts", 0.0) / workers - 1.0
                if workers else 0.0
            ),
            "bench.tracing_overhead": overhead,
            "bench.host_factor": record.probe.factor,
        })
        return values
