"""Monte-Carlo sampling of possible worlds.

:class:`WorldSampler` draws independent possible worlds with vectorised
Bernoulli sampling — each edge ``e`` is kept with probability ``p(e)``
independently, exactly the process of Definition 2.
:func:`bernoulli_rows` draws such rows over any edge subset (the OLS
kernel draws only the candidate edges).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from ..graph import UncertainBipartiteGraph
from ..sampling.rng import (
    RngLike,
    ensure_rng,
    restore_rng_state,
    rng_state_payload,
)
from .possible_world import PossibleWorld

#: Uniforms a block draw (:meth:`WorldSampler.sample_mask_block`,
#: :func:`bernoulli_rows`) takes per chunk (1 MiB of float64 scratch),
#: rounded down to whole rows but never below one row.  A block's
#: uniforms never exist all at once: each chunk is compared straight
#: into the boolean mask matrix, so a block costs one byte per mask
#: entry plus one chunk of ``max(DRAW_CHUNK, row length)`` uniforms at
#: most.
DRAW_CHUNK = 1 << 17


def bernoulli_rows(
    rng: np.random.Generator, probs: np.ndarray, count: int
) -> np.ndarray:
    """A ``(count, probs.size)`` block of independent Bernoulli rows.

    Entry ``(i, j)`` is present with probability ``probs[j]``.  The
    uniforms are read row-major in bounded chunks (:data:`DRAW_CHUNK`),
    so the block is the one ``count`` successive ``(probs.size,)`` draws
    would give: any partition of the same rows into blocks reads the
    same stream.
    """
    masks = np.empty((count, probs.size), dtype=bool)
    for first, uniforms in _uniform_chunks(rng, count, probs.size):
        np.less(uniforms, probs, out=masks[first:first + uniforms.shape[0]])
    return masks


def _uniform_chunks(
    rng: np.random.Generator, rows: int, columns: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """``(first row, uniforms)`` chunks covering ``rows`` rows of
    ``columns`` uniforms, drawn in order into one reused buffer of at
    most ``max(DRAW_CHUNK, columns)`` values (a chunk is valid only
    until the next one is drawn)."""
    step = max(1, DRAW_CHUNK // max(columns, 1))
    buffer = np.empty((min(step, rows), columns))
    for first in range(0, rows, step):
        chunk = buffer[:min(step, rows - first)]
        rng.random(out=chunk)
        yield first, chunk


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
        if not self.antithetic:
            return bernoulli_rows(self.rng, probs, count)
        masks = np.empty((count, self.graph.n_edges), dtype=bool)
        filled = 0
        if self._pending is not None:
            np.less(self._pending, probs, out=masks[0])
            self._pending = None
            filled = 1
        n_pairs, odd = divmod(count - filled, 2)
        # Draw d fills row filled + 2d; its complement fills the next
        # row, or — for the odd block's last draw — waits in _pending.
        for first, uniforms in _uniform_chunks(
            self.rng, n_pairs + odd, self.graph.n_edges
        ):
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

    def sample_world(self) -> PossibleWorld:
        """One :class:`PossibleWorld`."""
        return PossibleWorld(self.graph, self.sample_mask())

    def sample_worlds(self, count: int) -> Iterator[PossibleWorld]:
        """Generator of ``count`` independent possible worlds."""
        for _ in range(count):
            yield self.sample_world()

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

