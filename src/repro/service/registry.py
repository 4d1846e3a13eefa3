"""Load-once graph registry with checksum validation and quarantine.

The service never rebuilds a graph per request: a :class:`GraphRegistry`
loads each configured dataset once, validates the built artifact
against a SHA-256 checksum of its edge arrays and labels, lists a small
top-weight candidate backbone, and serves the result to every request
until an explicit :meth:`~GraphRegistry.reload`.  It warms nothing a
request reads: the kernels read the wedge index, which the broker
builds on a dataset's first request.

Failure containment is the point: a dataset whose artifact fails
checksum validation is **quarantined** — the entry records the failure,
requests for it get an explicit
:class:`~repro.errors.GraphUnavailableError`, and every other dataset
keeps serving.  A corrupt artifact never crashes the process.  Loads
are versioned; the result cache keys on the version, so a reload
invalidates stale cached answers without a flush protocol.

Chaos hooks: the injectable ``sleep``/``clock`` and the consulted
:class:`~repro.runtime.faults.ServiceFaultPlan` (slow loads, transient
load failures, corrupt artifacts) make every failure path
deterministic in tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..butterfly.top_weight import top_weight_butterflies
from ..datasets import load_dataset
from ..errors import GraphUnavailableError, ReproError
from ..graph import UncertainBipartiteGraph
from ..observability import Observer, ensure_observer
from ..runtime.faults import ServiceFaultPlan
from ..runtime.shm import graph_checksum

__all__ = [
    "DEFAULT_BACKBONE_K",
    "DEFAULT_LOAD_ATTEMPTS",
    "GraphRegistry",
    "RegistryEntry",
    "graph_checksum",
]

#: How many top-weight butterflies the warm backbone keeps per graph.
DEFAULT_BACKBONE_K = 8

#: Load attempts per dataset before the entry is marked failed.
DEFAULT_LOAD_ATTEMPTS = 3


@dataclass
class RegistryEntry:
    """One dataset slot: its graph, warm artifacts, and health.

    Attributes:
        dataset: Registered dataset name.
        status: ``"ready"``, ``"quarantined"``, or ``"failed"``.
        graph: The served graph (``None`` unless ready).
        version: Monotone load counter; bumped by every (re)load so
            version-keyed caches self-invalidate.
        checksum: Content hash the artifact validated against.
        backbone: Top-weight candidate butterflies kept warm for
            diagnostics and future warm-start strategies.
        error: Why the entry is quarantined/failed (``None`` if ready).
        load_seconds: Wall time of the last load (includes injected
            delays — surfaced so slow-load chaos is observable).
    """

    dataset: str
    status: str = "failed"
    graph: Optional[UncertainBipartiteGraph] = None
    version: int = 0
    checksum: Optional[str] = None
    backbone: Tuple = ()
    error: Optional[str] = None
    load_seconds: float = 0.0

    #: Keys of :meth:`describe`, pinned for probe-payload stability.
    DESCRIBE_KEYS = (
        "dataset", "status", "version", "checksum", "error",
        "load_seconds", "n_edges",
    )

    def describe(self) -> Dict[str, object]:
        """JSON-ready health row for the readiness probe."""
        return {
            "dataset": self.dataset,
            "status": self.status,
            "version": self.version,
            "checksum": self.checksum,
            "error": self.error,
            "load_seconds": round(self.load_seconds, 6),
            "n_edges": None if self.graph is None else self.graph.n_edges,
        }


class GraphRegistry:
    """Load-once, versioned home of every servable graph.

    Args:
        datasets: Dataset names to manage (loaded by :meth:`load_all`
            or lazily on first :meth:`get`).
        profile: Dataset profile for every load.
        dataset_seed: Generation seed for every load.
        backbone_k: Size of the warm top-weight backbone.
        max_load_attempts: Attempts per load before the entry fails.
        faults: Optional chaos plan (slow loads, transient load
            failures, corrupt artifacts).
        observer: Metrics/span sink (``service.registry.*``,
            ``registry-load``).
        sleep: Injectable sleep used for injected load delays.
        clock: Injectable monotonic clock for load timing.
    """

    def __init__(
        self,
        datasets: Sequence[str],
        profile: str = "bench",
        dataset_seed: int = 0,
        backbone_k: int = DEFAULT_BACKBONE_K,
        max_load_attempts: int = DEFAULT_LOAD_ATTEMPTS,
        faults: Optional[ServiceFaultPlan] = None,
        observer: Optional[Observer] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.profile = profile
        self.dataset_seed = dataset_seed
        self.backbone_k = int(backbone_k)
        self.max_load_attempts = max(1, int(max_load_attempts))
        self.faults = faults or ServiceFaultPlan()
        self.observer = ensure_observer(observer)
        self._sleep = sleep
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: Dict[str, RegistryEntry] = {
            name: RegistryEntry(dataset=name) for name in datasets
        }

    @property
    def datasets(self) -> List[str]:
        """Managed dataset names, in configuration order."""
        return list(self._entries)

    def load_all(self) -> None:
        """Load (or reload) every managed dataset.

        Never raises: per-dataset failures are contained in the
        entries' status so one bad artifact cannot take down startup.
        """
        for name in self._entries:
            self._load(name)

    def reload(self, dataset: Optional[str] = None) -> None:
        """Reload one dataset (or all), bumping version(s).

        Version-keyed result caches are invalidated implicitly: cached
        answers for the old version can no longer be looked up.
        """
        names = self._entries.keys() if dataset is None else (dataset,)
        for name in names:
            self._require_known(name)
            self._load(name)

    def get(self, dataset: str) -> RegistryEntry:
        """The ready entry for ``dataset``, loading lazily if needed.

        Raises:
            GraphUnavailableError: Unknown, quarantined, or failed
                datasets — the caller turns this into an explicit
                response, never a crash.
        """
        entry = self._require_known(dataset)
        if entry.version == 0 or entry.status != "ready":
            # The version/status pair mutates under the registry lock
            # but this check runs outside it, so a racer can observe
            # the version bump before the status flip of an in-flight
            # first load.  Re-entering _load serialises us behind
            # that load; its under-lock ``only_if_unloaded`` re-check
            # then returns the winner's finished entry (and for a
            # genuinely failed dataset, the same failed entry —
            # loads are never retried here).
            entry = self._load(dataset, only_if_unloaded=True)
        if entry.status != "ready" or entry.graph is None:
            raise GraphUnavailableError(
                f"dataset {dataset!r} is {entry.status}: {entry.error}"
            )
        return entry

    def ready(self) -> bool:
        """Whether every managed dataset is loaded and servable."""
        return all(
            entry.status == "ready" for entry in self._entries.values()
        )

    def describe(self) -> List[Dict[str, object]]:
        """Health rows for all entries (readiness probe payload)."""
        return [entry.describe() for entry in self._entries.values()]

    def _require_known(self, dataset: str) -> RegistryEntry:
        entry = self._entries.get(dataset)
        if entry is None:
            known = ", ".join(self._entries) or "none"
            raise GraphUnavailableError(
                f"unknown dataset {dataset!r}; serving: {known}"
            )
        return entry

    def _load(
        self, dataset: str, only_if_unloaded: bool = False
    ) -> RegistryEntry:
        """(Re)load one dataset under the registry lock.

        All failure modes — injected or real — end in a quarantined or
        failed entry, never an exception.  ``only_if_unloaded`` makes
        the call idempotent for lazy first loads: :meth:`get` checks
        ``version == 0`` outside the lock, so two concurrent first
        requests can both reach here — the loser of that race must
        reuse the winner's load instead of redoing it (and bumping the
        version, which would orphan version-keyed cache entries).
        """
        with self._lock:
            entry = self._entries[dataset]
            if only_if_unloaded and entry.version > 0:
                return entry
            started = self._clock()
            with self.observer.span("registry-load", dataset=dataset):
                delay = self.faults.load_delay(dataset)
                if delay > 0.0:
                    # Deliberate: the load-once registry serialises
                    # (re)loads of ALL datasets under one lock, chaos
                    # delay included — get() of an already-loaded
                    # dataset never takes this lock, so requests only
                    # queue behind a load when they need its result.
                    self._sleep(delay)  # repro: noqa[LCK003]
                graph, error = self._build(dataset)
                entry.version += 1
                entry.load_seconds = self._clock() - started
                if graph is None:
                    entry.status = "failed"
                    entry.graph = None
                    entry.checksum = None
                    entry.backbone = ()
                    entry.error = error
                    return entry
                checksum = graph_checksum(graph)
                if self.faults.artifact_is_corrupt(dataset):
                    # The chaos plan simulates an artifact corrupted
                    # after manifest time: the recorded hash disagrees
                    # with the served bytes.
                    recorded = "0" * len(checksum)
                else:
                    recorded = checksum
                if recorded != checksum:
                    entry.status = "quarantined"
                    entry.graph = None
                    entry.checksum = None
                    entry.backbone = ()
                    entry.error = (
                        f"checksum mismatch: artifact hashes to "
                        f"{checksum[:12]}..., manifest records "
                        f"{recorded[:12]}..."
                    )
                    self.observer.inc("service.registry.quarantined")
                    return entry
                entry.backbone = tuple(
                    top_weight_butterflies(graph, self.backbone_k)
                )
                entry.status = "ready"
                entry.graph = graph
                entry.checksum = checksum
                entry.error = None
                self.observer.inc("service.registry.loads")
                return entry

    def _build(
        self, dataset: str
    ) -> Tuple[Optional[UncertainBipartiteGraph], Optional[str]]:
        """Build the graph, retrying transient (injected) load faults."""
        last_error: Optional[str] = None
        for attempt in range(1, self.max_load_attempts + 1):
            if self.faults.load_should_fail(dataset, attempt):
                last_error = (
                    f"injected transient load failure "
                    f"(attempt {attempt})"
                )
                continue
            try:
                return (
                    load_dataset(
                        dataset, self.profile, rng=self.dataset_seed
                    ),
                    None,
                )
            except ReproError as error:
                last_error = str(error)
        return None, (
            f"load failed after {self.max_load_attempts} attempts: "
            f"{last_error}"
        )
