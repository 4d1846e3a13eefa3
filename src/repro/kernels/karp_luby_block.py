"""Vectorised Karp-Luby union trials (Algorithm 4's inner loop).

One scalar Karp-Luby trial picks an event ``j`` from the normalised
weight distribution, samples a world conditioned on ``A_j`` holding, and
accepts iff no earlier event also holds.  :class:`UnionBlockKernel` runs
a whole block of those trials in NumPy:

1. the event table and the atom probability vector are built once per
   event family: row ``j`` of the ``(events, width)`` table lists event
   ``j``'s atom columns, padded to the widest event with the column
   ``n_atoms`` of one extra, always-present sentinel atom (Algorithm 4's
   events are edge differences of two butterflies, so ``width ≤ 4``);
2. the block's event picks are one ``searchsorted`` over a ``(block,)``
   uniform vector, its worlds one ``(block, n_atoms)`` Bernoulli matrix;
   the sentinel column is appended and each world is conditioned on its
   picked event by setting the picked row's table entries;
3. the first satisfied event of each world is
   ``argmax(present[:, table].all(axis=2))`` — a ``(block, events,
   width)`` gather and an all-reduce — and acceptance is
   ``first == picked``.

The kernel draws the same *kind* of randomness as the scalar
:meth:`~repro.sampling.karp_luby.KarpLubyUnionSampler.trial` (one
uniform for the event pick, atom-level Bernoullis for the world) but
materialises every atom instead of lazily sampling earlier events'
atoms — distributionally identical (the extra atoms are independent of
the acceptance indicator) and deterministic for a fixed block size.
"""

from __future__ import annotations

import numpy as np

from ..sampling.karp_luby import KarpLubyUnionSampler


class UnionBlockKernel:
    """Blocked trial driver for one :class:`KarpLubyUnionSampler`.

    The kernel draws from the wrapped sampler's generator and leaves its
    ``n_trials``/``accepted`` counters alone: callers count the returned
    acceptance vectors themselves.

    Attributes:
        atom_probs: ``(n_atoms,)`` probabilities of the events' atoms in
            ascending atom order — the order a block draws them in.
        table: ``(events, width)`` atom columns of each event, ascending
            and padded with the sentinel column ``n_atoms``.
    """

    def __init__(self, sampler: KarpLubyUnionSampler) -> None:
        self.sampler = sampler
        atoms = sorted({atom for event in sampler.events for atom in event})
        column = {atom: index for index, atom in enumerate(atoms)}
        self.atom_probs = np.asarray(
            [float(sampler.prob_of(atom)) for atom in atoms], dtype=float
        )
        width = max((len(event) for event in sampler.events), default=0)
        self.table = np.full(
            (len(sampler.events), width), len(atoms), dtype=np.intp
        )
        for row, event in enumerate(sampler.events):
            self.table[row, :len(event)] = sorted(
                column[atom] for atom in event
            )

    def run_block(self, count: int) -> np.ndarray:
        """Run ``count`` trials at once; returns per-trial acceptance.

        The returned ``(count,)`` boolean vector lets callers reconstruct
        running estimates at any trial index inside the block (for
        convergence traces).
        """
        sampler = self.sampler
        if sampler.is_empty:
            return np.zeros(count, dtype=bool)
        if sampler.is_certain:
            return np.ones(count, dtype=bool)
        picks = np.searchsorted(
            sampler._cumulative, sampler.rng.random(count), side="right"
        )
        picks = np.minimum(picks, len(sampler.events) - 1)
        n_atoms = self.atom_probs.size
        present = np.ones((count, n_atoms + 1), dtype=bool)
        np.less(
            sampler.rng.random((count, n_atoms)), self.atom_probs,
            out=present[:, :n_atoms],
        )
        present[np.arange(count)[:, None], self.table[picks]] = True
        # The conditioned pick is always satisfied, so argmax finds a
        # satisfied event in every row.
        first = np.argmax(present[:, self.table].all(axis=2), axis=1)
        return first == picks
