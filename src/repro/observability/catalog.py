"""The canonical catalog of metric and span names.

Single source of truth for every name the stack records: the table in
``docs/observability.md`` mirrors this module, and the static analyzer's
MET001 rule (see ``docs/static-analysis.md``) rejects any call site that
records a name not declared here.  Adding an instrument therefore means
adding a spec below *and* a row to the docs table — the analyzer's
catalog-sync rule keeps the two from drifting.

Names may contain ``<placeholder>`` segments for families recorded with
dynamic names (``<method>.<stat>``, ``worker-<id>``); a placeholder
matches one dot-free (for metrics) or slash-free (for spans) token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: Instrument kinds a metric spec may declare.
METRIC_KINDS = ("counter", "gauge", "histogram")

#: ``<placeholder>`` segment inside a catalog name.
_PLACEHOLDER = re.compile(r"<[a-z_]+>")


@dataclass(frozen=True)
class MetricSpec:
    """One canonical metric name (or name family).

    Attributes:
        name: Dotted name, possibly with ``<placeholder>`` segments.
        kind: ``"counter"``, ``"gauge"``, or ``"histogram"``.
        description: One-line meaning, mirrored in the docs table.
    """

    name: str
    kind: str
    description: str


@dataclass(frozen=True)
class SpanSpec:
    """One canonical phase-span name (or name family)."""

    name: str
    description: str


#: Every metric the stack records, sorted roughly by layer.
METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("engine.trials.completed", "counter",
               "trials executed by the runtime engine"),
    MetricSpec("engine.trials.resumed", "counter",
               "trials restored from a --resume checkpoint"),
    MetricSpec("engine.checkpoints.written", "counter",
               "snapshots written"),
    MetricSpec("engine.checkpoints.errors", "counter",
               "snapshot writes that failed (injected or real)"),
    MetricSpec("sampling.trials", "counter",
               "trials contributing to the returned estimate"),
    MetricSpec("sampling.trials_per_second", "gauge",
               "achieved trial rate of the sampling phase"),
    MetricSpec("sampling.target_trials", "gauge",
               "planned budget (per worker, in pooled runs)"),
    MetricSpec("trial.winners", "histogram",
               "maximum-butterfly set size per trial"),
    MetricSpec("kernel.block_size", "gauge",
               "trials per vectorised kernel call"),
    MetricSpec("kernel.trials_vectorized", "counter",
               "trials executed through the batched kernel layer"),
    MetricSpec("kernel.bytes_budget", "gauge",
               "peak working-set bytes one kernel block may use"),
    MetricSpec("kernel.block_bytes", "gauge",
               "estimated working-set bytes of the resolved block"),
    MetricSpec("kernel.wedges", "gauge",
               "backbone wedges in the vectorised kernel's index"),
    MetricSpec("prepare.trials", "counter",
               "OLS preparing-phase trials (Alg. 3)"),
    MetricSpec("candidates.listed", "gauge",
               "|C_MB| after the preparing phase"),
    MetricSpec("<method>.<stat>", "counter",
               "every entry of result.stats (e.g. os.trials_pruned)"),
    MetricSpec("<method>.prune_rate", "gauge",
               "fraction of trials ended by the early-exit bound "
               "(Alg. 2, line 5)"),
    MetricSpec("<method>.lazy_cache.hit_rate", "gauge",
               "1 - edges_sampled / edges_queried: the candidate set's "
               "edge-sharing ratio (the reference: Alg. 5's lazy memo)"),
    MetricSpec("ols-kl.trials_per_candidate", "histogram",
               "dynamic Lemma VI.4 budgets spent per candidate (Alg. 4)"),
    MetricSpec("adaptive.trials_saved", "counter",
               "trials the anytime racing stop avoided, measured "
               "against the static budget"),
    MetricSpec("adaptive.candidates_eliminated", "counter",
               "candidates removed by pre-screen or racing elimination"),
    MetricSpec("adaptive.realized_epsilon", "gauge",
               "relative error the winner's interval certified at the "
               "stop"),
    MetricSpec("pool.workers.total", "counter",
               "worker pool size"),
    MetricSpec("pool.workers.dropped", "counter",
               "workers dropped permanently"),
    MetricSpec("pool.worker.attempts", "counter",
               "total worker attempts including retries"),
    MetricSpec("worker.shm.published", "counter",
               "shared-memory graph/index segments created"),
    MetricSpec("worker.shm.attached", "counter",
               "worker attachments to a shared-memory segment"),
    MetricSpec("worker.shm.reused", "counter",
               "pooled runs that reused an already-published segment"),
    MetricSpec("worker.shm.bytes", "gauge",
               "size of the published shared-memory segment"),
    MetricSpec("harness.<method>.seconds", "gauge",
               "experiment-harness wall time of the full call"),
    MetricSpec("harness.<method>.peak_bytes", "gauge",
               "experiment-harness peak allocation of the full call"),
    MetricSpec("service.requests.total", "counter",
               "query requests received by the broker"),
    MetricSpec("service.requests.ok", "counter",
               "requests answered with a full-budget result"),
    MetricSpec("service.requests.degraded", "counter",
               "requests answered with a degraded (re-widened) result"),
    MetricSpec("service.requests.rejected", "counter",
               "requests rejected (admission or breaker)"),
    MetricSpec("service.requests.failed", "counter",
               "requests that resolved to an explicit failure response"),
    MetricSpec("service.admission.rejected", "counter",
               "requests shed by token-bucket admission control"),
    MetricSpec("service.queue.depth", "gauge",
               "requests currently admitted and in flight"),
    MetricSpec("service.breaker.rejected", "counter",
               "requests refused by an open circuit breaker"),
    MetricSpec("service.breaker.opened", "counter",
               "circuit-breaker open transitions"),
    MetricSpec("service.breaker.state", "gauge",
               "breaker state of the last routed dataset "
               "(0 closed / 1 half-open / 2 open)"),
    MetricSpec("service.deadline.degraded", "counter",
               "requests degraded by deadline expiry"),
    MetricSpec("service.retries", "counter",
               "transient worker-pool failures retried by the broker"),
    MetricSpec("service.cache.hits", "counter",
               "result-cache hits"),
    MetricSpec("service.cache.misses", "counter",
               "result-cache misses"),
    MetricSpec("service.cache.hit_rate", "gauge",
               "hits / (hits + misses) over the service lifetime"),
    MetricSpec("service.registry.loads", "counter",
               "graph artifacts loaded (including reloads)"),
    MetricSpec("service.registry.quarantined", "counter",
               "graph artifacts quarantined by checksum validation"),
)

#: Every phase-span name the stack records.
SPANS: Tuple[SpanSpec, ...] = (
    SpanSpec("graph-load", "dataset/graph construction"),
    SpanSpec("edge-ordering",
             "Alg. 2 weight-ordered edge index build (reference OS)"),
    SpanSpec("wedge-index",
             "vectorised kernel wedge-CSR build (or shared reuse)"),
    SpanSpec("candidate-generation",
             "OLS preparing phase (Alg. 3 lines 2-4)"),
    SpanSpec("sampling", "the Monte-Carlo trial phase"),
    SpanSpec("trial-loop", "the runtime engine's checkpointable loop"),
    SpanSpec("exact-solve", "exponential oracle methods"),
    SpanSpec("fan-out", "worker-pool dispatch"),
    SpanSpec("merge", "worker-pool result/metric merge"),
    SpanSpec("worker-<id>", "synthetic header grafted per worker"),
    SpanSpec("registry-load", "graph registry artifact load + warmup"),
    SpanSpec("service-request", "one query request through the broker"),
)


def _compile(name: str, separator: str) -> "re.Pattern[str]":
    """Regex matching concrete instances of a catalog ``name``."""
    parts: List[str] = []
    last = 0
    for match in _PLACEHOLDER.finditer(name):
        parts.append(re.escape(name[last:match.start()]))
        parts.append(f"[^{separator}]+")
        last = match.end()
    parts.append(re.escape(name[last:]))
    return re.compile("^" + "".join(parts) + "$")


_METRIC_PATTERNS = tuple(
    (spec, _compile(spec.name, ".")) for spec in METRICS
)
_SPAN_PATTERNS = tuple(
    (spec, _compile(spec.name, "/")) for spec in SPANS
)


def find_metric(
    name: str, kind: Optional[str] = None
) -> Optional[MetricSpec]:
    """The catalog spec matching a concrete metric ``name``, if any.

    Args:
        name: Concrete dotted name (``"os.trials_pruned"``).
        kind: Restrict the match to one instrument kind.
    """
    for spec, pattern in _METRIC_PATTERNS:
        if kind is not None and spec.kind != kind:
            continue
        if pattern.match(name):
            return spec
    return None


def is_canonical_metric(name: str, kind: Optional[str] = None) -> bool:
    """Whether ``name`` instantiates a cataloged metric."""
    return find_metric(name, kind) is not None


def is_canonical_span(name: str) -> bool:
    """Whether ``name`` instantiates a cataloged span name."""
    return any(pattern.match(name) for _, pattern in _SPAN_PATTERNS)


def unknown_metric_names(names: Iterable[str]) -> List[str]:
    """The subset of ``names`` missing from the catalog, sorted."""
    return sorted(n for n in set(names) if not is_canonical_metric(n))


def unknown_span_names(names: Iterable[str]) -> List[str]:
    """The subset of span ``names`` missing from the catalog, sorted."""
    return sorted(n for n in set(names) if not is_canonical_span(n))


def sample_names() -> Dict[str, str]:
    """One concrete instantiation per metric spec (placeholders filled).

    Used by tests and by MET001's f-string compatibility check to prove
    that a dynamic call-site template can produce cataloged names.
    """
    concrete = {}
    for spec in METRICS:
        concrete[_PLACEHOLDER.sub("x", spec.name)] = spec.kind
    return concrete
