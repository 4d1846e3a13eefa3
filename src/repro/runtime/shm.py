"""Shared-memory graph/wedge-index publication for the worker pool.

The worker pool used to ship the whole graph to every worker process as
pickled ``Process`` arguments — per attempt, per retry.  This module
replaces that with a publish-once/attach-many protocol built on
:mod:`multiprocessing.shared_memory`:

* :func:`publish_graph` copies the graph's edge arrays and every array
  of its wedge index into **one** shared segment and returns a tiny
  picklable :class:`SharedGraphHandle` (segment name + per-array
  shapes/dtypes/offsets + the registry checksum).  The handle is the *only* object that crosses the process
  seam; the MPS001/PKL001 analyzer rules enforce that no raw buffer or
  array ever does.
* :func:`attach_shared_graph` runs inside a worker: it opens the
  segment by name and reconstructs the graph and wedge index as
  zero-copy read-only NumPy views over the shared mapping, so a
  persistent worker pays the attachment cost once and every task after
  that touches the same physical pages as its siblings.

Segments are versioned by :func:`graph_checksum` (the same SHA-256 the
service registry validates artifacts with), which is how
``repro.service`` decides a cached pool may be reused across requests
and must be torn down on reload.  Instrumentation:
``worker.shm.published`` / ``worker.shm.attached`` /
``worker.shm.reused`` counters and the ``worker.shm.bytes`` gauge (see
``docs/observability.md``).
"""

from __future__ import annotations

import hashlib
import pickle
import weakref
from dataclasses import dataclass, fields
from multiprocessing import shared_memory
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..graph import UncertainBipartiteGraph
from ..observability import Observer, ensure_observer

#: Byte alignment of every array inside the segment (cache-line sized,
#: and a multiple of every element size we store).
_ALIGN = 64

#: Graph arrays published for every pool.
GRAPH_ARRAYS = ("edge_left", "edge_right", "weights", "probs")

#: Name prefix of the wedge index's arrays inside the segment.
_INDEX = "index."

#: Reserved in-segment name of the pickled metadata blob (labels, graph
#: name, wedge-index scalars) — data that is not array-shaped but still
#: belongs inside the segment rather than in the handle.
_META = "__meta__"

#: One array inside the segment: (name, shape, dtype string, offset).
ArraySpec = Tuple[str, Tuple[int, ...], str, int]


def graph_checksum(graph: UncertainBipartiteGraph) -> str:
    """SHA-256 over the graph's edge arrays and vertex labels.

    A stable content hash of everything the estimators consume: edge
    endpoints, weights, probabilities, and both label tuples.  The
    service registry validates artifacts against it and the worker pool
    versions shared segments with it, so "same checksum" means "same
    bytes in shared memory".
    """
    digest = hashlib.sha256()
    for array in (
        graph.edge_left, graph.edge_right, graph.weights, graph.probs
    ):
        digest.update(array.tobytes())
    for labels in (graph.left_labels, graph.right_labels):
        digest.update(repr(labels).encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable description of one published segment.

    This is the only object allowed across the worker process seam:
    segment *name* plus per-array shapes/dtypes/offsets — never the
    arrays or the buffer itself (a raw buffer does not pickle, and
    shipping array payloads would defeat the sharing).

    Attributes:
        segment: The ``shared_memory`` segment name to attach by.
        specs: Per-array ``(name, shape, dtype, offset)`` layout.
        checksum: :func:`graph_checksum` of the published graph — the
            version key the service pool cache compares.
        total_bytes: Segment size (the ``worker.shm.bytes`` gauge).
    """

    segment: str
    specs: Tuple[ArraySpec, ...]
    checksum: str
    total_bytes: int


def _cleanup_segment(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink one owned segment, tolerating repeats."""
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - defensive
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - defensive
        pass


class SharedGraphPublication:
    """Coordinator-side ownership of one published segment.

    Owns the segment's lifetime: :meth:`close` (or garbage collection,
    via ``weakref.finalize``) closes and unlinks it.  Workers never
    unlink — they only attach and close.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, handle: SharedGraphHandle
    ) -> None:
        self._shm = shm
        self.handle = handle
        self._finalizer = weakref.finalize(self, _cleanup_segment, shm)

    def close(self) -> None:
        """Unlink the segment (idempotent)."""
        if self._finalizer.detach() is not None:
            _cleanup_segment(self._shm)


def publish_graph(
    graph: UncertainBipartiteGraph,
    index: Any,
    checksum: Optional[str] = None,
    observer: Optional[Observer] = None,
) -> SharedGraphPublication:
    """Publish a graph and its wedge index into one shared segment.

    Args:
        graph: The backbone graph whose edge arrays workers will share.
        index: The graph's
            :class:`~repro.kernels.wedge_block.WedgeIndex`, which every
            poolable method reads.
        checksum: Version key for the handle; defaults to
            :func:`graph_checksum` (pass the registry's recorded
            checksum to skip rehashing).
        observer: Metric sink for ``worker.shm.published`` /
            ``worker.shm.bytes``.
    """
    observer = ensure_observer(observer)
    arrays: Dict[str, np.ndarray] = {
        name: np.ascontiguousarray(getattr(graph, name))
        for name in GRAPH_ARRAYS
    }
    # Every array field of the index goes in the segment; its scalars
    # and chunk ranges ride in the metadata blob.
    index_meta: Dict[str, Any] = {}
    for item in fields(index):
        value = getattr(index, item.name)
        if isinstance(value, np.ndarray):
            arrays[_INDEX + item.name] = np.ascontiguousarray(value)
        else:
            index_meta[item.name] = value
    meta = {
        "name": graph.name,
        "left_labels": list(graph.left_labels),
        "right_labels": list(graph.right_labels),
        "index": index_meta,
    }
    arrays[_META] = np.frombuffer(pickle.dumps(meta), dtype=np.uint8)

    specs = []
    offset = 0
    for name, array in arrays.items():
        offset = -(-offset // _ALIGN) * _ALIGN
        specs.append((name, tuple(array.shape), array.dtype.str, offset))
        offset += array.nbytes
    total_bytes = max(offset, 1)
    shm = shared_memory.SharedMemory(create=True, size=total_bytes)
    try:
        for (name, shape, dtype, start), array in zip(
            specs, arrays.values()
        ):
            view = np.ndarray(
                shape, dtype=dtype, buffer=shm.buf, offset=start
            )
            view[...] = array
            del view
        handle = SharedGraphHandle(
            segment=shm.name,
            specs=tuple(specs),
            checksum=checksum or graph_checksum(graph),
            total_bytes=total_bytes,
        )
        observer.inc("worker.shm.published")
        observer.set("worker.shm.bytes", float(total_bytes))
        return SharedGraphPublication(shm, handle)
    except BaseException:
        _cleanup_segment(shm)
        raise


class SharedGraphAttachment:
    """Worker-side view of one published segment.

    Reconstructs the graph and its wedge index as read-only zero-copy
    views over the shared mapping.  Keep the attachment alive for as
    long as the graph is used; :meth:`close` releases the worker's
    mapping (never unlinking the segment, which the coordinator owns).
    """

    def __init__(self, handle: SharedGraphHandle) -> None:
        self._shm = shared_memory.SharedMemory(name=handle.segment)
        try:
            views: Dict[str, np.ndarray] = {}
            for name, shape, dtype, offset in handle.specs:
                view = np.ndarray(
                    shape, dtype=dtype,
                    buffer=self._shm.buf, offset=offset,
                )
                view.flags.writeable = False
                views[name] = view
            meta = pickle.loads(views[_META].tobytes())
            self.graph = UncertainBipartiteGraph(
                meta["left_labels"],
                meta["right_labels"],
                views["edge_left"],
                views["edge_right"],
                views["weights"],
                views["probs"],
                name=meta["name"],
            )
            # Imported here: repro.kernels pulls in the runtime package
            # (the blocked loops ride the runtime engine), so a module
            # level import would cycle during package initialisation.
            from ..kernels.wedge_block import WedgeIndex

            self.index = WedgeIndex(
                **meta["index"],
                **{
                    name[len(_INDEX):]: view
                    for name, view in views.items()
                    if name.startswith(_INDEX)
                },
            )
        except BaseException:
            # A stale handle (wrong specs, truncated segment, garbled
            # metadata) must not leak this worker's mapping: views are
            # droppable, the attachment never existed.
            del views
            self._shm.close()
            raise

    def close(self) -> None:
        """Release this worker's mapping of the segment."""
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - views still referenced
            pass


def attach_shared_graph(handle: SharedGraphHandle) -> SharedGraphAttachment:
    """Attach to a published segment (the worker side of the seam)."""
    return SharedGraphAttachment(handle)
