"""Monte-Carlo sampling of possible worlds.

:class:`WorldSampler` draws independent possible worlds with vectorised
Bernoulli sampling — each edge ``e`` is kept with probability ``p(e)``
independently, exactly the process of Definition 2.  It also provides the
*lazy* per-edge sampler used by the OLS sampling phase (Algorithm 5 lines
7 and Algorithm 4 line 7), where a trial touches only the few edges that
candidate butterflies reference.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

import numpy as np

from ..graph import UncertainBipartiteGraph
from ..sampling.rng import (
    RngLike,
    ensure_rng,
    restore_rng_state,
    rng_state_payload,
)
from .possible_world import PossibleWorld

#: Uniforms :meth:`WorldSampler.sample_mask_block` draws per chunk
#: (1 MiB of float64 scratch), rounded down to whole rows of ``n_edges``
#: but never below one row.  A block's uniforms never exist all at
#: once: each chunk is compared straight into the boolean mask matrix,
#: so a block costs one byte per mask entry plus one chunk of
#: ``max(DRAW_CHUNK, n_edges)`` uniforms at most.
DRAW_CHUNK = 1 << 17


class WorldSampler:
    """Seeded sampler of possible worlds for one uncertain graph.

    Args:
        graph: The uncertain network.
        rng: Seed or generator.
        antithetic: Draw worlds in antithetic pairs — each uniform vector
            ``u`` is followed by ``1 - u``.  Marginals are unchanged (so
            every estimator stays unbiased) while negatively correlating
            consecutive trials, a classic Monte-Carlo variance-reduction
            technique (an optional extension beyond the paper).
    """

    def __init__(
        self,
        graph: UncertainBipartiteGraph,
        rng: RngLike = None,
        antithetic: bool = False,
    ) -> None:
        self.graph = graph
        self.rng = ensure_rng(rng)
        self.antithetic = antithetic
        self._pending: np.ndarray | None = None

    def sample_mask(self) -> np.ndarray:
        """One boolean edge-presence mask (vectorised Bernoulli draw)."""
        if not self.antithetic:
            return self.rng.random(self.graph.n_edges) < self.graph.probs
        if self._pending is None:
            uniforms = self.rng.random(self.graph.n_edges)
            self._pending = 1.0 - uniforms
        else:
            uniforms = self._pending
            self._pending = None
        return uniforms < self.graph.probs

    def sample_mask_block(self, count: int) -> np.ndarray:
        """A ``(count, n_edges)`` block of edge-presence masks.

        The batched-kernel fast path (``docs/performance.md``).  The
        block is *stream-equivalent* to ``count`` successive
        :meth:`sample_mask` calls: NumPy's ``Generator.random`` consumes
        doubles sequentially, so drawing the block's uniforms in row
        chunks of at most ``max(DRAW_CHUNK, n_edges)`` values (see
        :data:`DRAW_CHUNK`) reads the exact bits ``count`` separate
        ``(n_edges,)`` draws would, and antithetic pairing — including
        a buffered half-pair in :attr:`_pending` from earlier scalar
        calls or an odd-length block — is carried across the block
        boundary.  Consequently the world sequence is identical for
        every block partition of the same trial budget.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        probs = self.graph.probs
        masks = np.empty((count, self.graph.n_edges), dtype=bool)
        if not self.antithetic:
            for first, uniforms in self._uniform_chunks(count):
                np.less(
                    uniforms, probs,
                    out=masks[first:first + uniforms.shape[0]],
                )
            return masks
        filled = 0
        if self._pending is not None:
            np.less(self._pending, probs, out=masks[0])
            self._pending = None
            filled = 1
        n_pairs, odd = divmod(count - filled, 2)
        # Draw d fills row filled + 2d; its complement fills the next
        # row, or — for the odd block's last draw — waits in _pending.
        for first, uniforms in self._uniform_chunks(n_pairs + odd):
            row = filled + 2 * first
            drawn = uniforms.shape[0]
            np.less(uniforms, probs, out=masks[row:row + 2 * drawn:2])
            np.subtract(1.0, uniforms, out=uniforms)
            paired = min(drawn, n_pairs - first)
            np.less(
                uniforms[:paired], probs,
                out=masks[row + 1:row + 2 * paired:2],
            )
            if paired < drawn:
                self._pending = uniforms[paired].copy()
        return masks

    def _uniform_chunks(self, rows: int) -> Iterator[Tuple[int, np.ndarray]]:
        """``(first row, uniforms)`` chunks covering ``rows`` rows of
        ``n_edges`` uniforms, drawn in order into one reused buffer of
        at most ``max(DRAW_CHUNK, n_edges)`` values (a chunk is valid
        only until the next one is drawn)."""
        n_edges = self.graph.n_edges
        step = max(1, DRAW_CHUNK // max(n_edges, 1))
        buffer = np.empty((min(step, rows), n_edges))
        for first in range(0, rows, step):
            chunk = buffer[:min(step, rows - first)]
            self.rng.random(out=chunk)
            yield first, chunk

    def sample_world(self) -> PossibleWorld:
        """One :class:`PossibleWorld`."""
        return PossibleWorld(self.graph, self.sample_mask())

    def sample_worlds(self, count: int) -> Iterator[PossibleWorld]:
        """Generator of ``count`` independent possible worlds."""
        for _ in range(count):
            yield self.sample_world()

    def lazy_trial(self) -> "LazyEdgeTrial":
        """A fresh lazy per-edge sampler sharing this sampler's RNG."""
        return LazyEdgeTrial(self.graph, self.rng)

    def state_payload(self) -> Dict:
        """JSON-serialisable snapshot of the sampler's stream position.

        Covers both the RNG state and the buffered antithetic uniforms,
        so a restored sampler reproduces the exact world sequence an
        uninterrupted run would have drawn (JSON round-trips ``repr``
        floats losslessly).
        """
        return {
            "rng": rng_state_payload(self.rng),
            "pending": (
                None
                if self._pending is None
                else [float(u) for u in self._pending]
            ),
        }

    def restore_state(self, payload: Dict) -> None:
        """Restore a snapshot captured by :meth:`state_payload`."""
        restore_rng_state(self.rng, payload["rng"])
        pending = payload.get("pending")
        self._pending = (
            None if pending is None else np.asarray(pending, dtype=float)
        )


class LazyEdgeTrial:
    """Memoised per-edge Bernoulli sampling within a single trial.

    The OLS sampling phase never materialises a full world: each trial asks
    about at most a few dozen edges (those of the candidate butterflies it
    walks before the weight-order early exit).  This class samples each
    queried edge exactly once per trial, so the answers within a trial are
    mutually consistent — together they describe one possible world
    restricted to the queried edges.

    Attributes:
        n_queries: Total :meth:`edge_present` calls this trial (memoised
            hits included); with :attr:`n_sampled` it yields the lazy
            cache hit rate ``1 - n_sampled / n_queries``.
    """

    __slots__ = ("_graph", "_rng", "_state", "n_queries")

    def __init__(
        self, graph: UncertainBipartiteGraph, rng: np.random.Generator
    ) -> None:
        self._graph = graph
        self._rng = rng
        self._state: Dict[int, bool] = {}
        self.n_queries = 0

    def edge_present(self, edge: int) -> bool:
        """Whether ``edge`` exists in this trial's implicit world."""
        self.n_queries += 1
        state = self._state.get(edge)
        if state is None:
            state = bool(self._rng.random() < self._graph.probs[edge])
            self._state[edge] = state
        return state

    def force_present(self, edges: Iterable[int]) -> None:
        """Condition this trial's world on the given edges being present.

        Used by the Karp–Luby estimator (Algorithm 4 line 7), which samples
        a world *given* that a chosen butterfly's extra edges exist.

        Raises:
            ValueError: If an edge was already sampled absent — the caller
                must force edges before querying them.
        """
        for edge in edges:
            previous = self._state.get(edge)
            if previous is False:
                raise ValueError(
                    f"edge {edge} was already sampled absent; conditioning "
                    "must happen before the edge is queried"
                )
            self._state[edge] = True

    def all_present(self, edges: Iterable[int]) -> bool:
        """Whether every edge in ``edges`` exists in this trial's world."""
        return all(self.edge_present(e) for e in edges)

    @property
    def n_sampled(self) -> int:
        """How many distinct edges this trial has touched."""
        return len(self._state)
