"""The candidate maximum-butterfly set ``C_MB`` (Section VI).

The OLS preparing phase collects every butterfly that was maximum in at
least one trial; the sampling phase then estimates probabilities over this
small, weight-sorted collection.  :class:`CandidateSet` owns the
deduplication, the descending weight order, the strictly-heavier prefix
``L(i)``, the edge-difference events ``B_j \\ B_i`` and their probability
mass ``S_i`` — everything Algorithms 4 and 5 consume.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Sequence

from ..butterfly import Butterfly, ButterflyKey
from ..errors import CheckpointError
from ..graph import UncertainBipartiteGraph
from ..sampling.karp_luby import Event


class CandidateSet:
    """An immutable, weight-sorted, deduplicated butterfly collection.

    Candidates are ordered by weight descending; ties break by canonical
    key so that the Karp-Luby priority order (which index "claims" a
    world) is deterministic.  Indices are 0-based: ``heavier_count(i)`` is
    the paper's ``L(i)`` — candidates ``0 .. L(i)-1`` are strictly heavier
    than candidate ``i``.
    """

    def __init__(
        self,
        graph: UncertainBipartiteGraph,
        butterflies: Iterable[Butterfly],
    ) -> None:
        self.graph = graph
        unique: Dict[ButterflyKey, Butterfly] = {}
        for butterfly in butterflies:
            unique.setdefault(butterfly.key, butterfly)
        self._items: List[Butterfly] = sorted(
            unique.values(), key=lambda b: (-b.weight, b.key)
        )
        # Negated weights are ascending, enabling bisect for L(i).
        self._neg_weights = [-b.weight for b in self._items]

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Butterfly]:
        return iter(self._items)

    def __getitem__(self, index: int) -> Butterfly:
        return self._items[index]

    def __contains__(self, butterfly: Butterfly) -> bool:
        return any(item.key == butterfly.key for item in self._items)

    @property
    def butterflies(self) -> Sequence[Butterfly]:
        """The candidates in descending weight order."""
        return tuple(self._items)

    def index_of(self, butterfly: Butterfly | ButterflyKey) -> int:
        """Position of a butterfly in the sorted order.

        Raises:
            KeyError: If the butterfly is not a candidate.
        """
        key = butterfly.key if isinstance(butterfly, Butterfly) else butterfly
        for index, item in enumerate(self._items):
            if item.key == key:
                return index
        raise KeyError(f"butterfly {key} is not in the candidate set")

    def require_checkpoint_keys(self, raw: Iterable[Sequence[int]]) -> None:
        """Raise :class:`CheckpointError` unless ``raw`` — a state
        payload's ``"candidates"`` keys — lists exactly these candidates
        in this order (else resumed counts would land on the wrong
        butterflies)."""
        keys = [tuple(int(part) for part in key) for key in raw]
        current = [b.key for b in self._items]
        if keys != current:
            raise CheckpointError(
                "checkpointed candidate set does not match the current "
                f"candidate set ({len(keys)} vs {len(current)} candidates)"
            )

    # ------------------------------------------------------------------
    # Paper quantities
    # ------------------------------------------------------------------

    def heavier_count(self, index: int) -> int:
        """``L(i)``: number of candidates strictly heavier than ``i``.

        Because candidates are weight-sorted, this is the position of the
        first candidate in ``i``'s weight class.
        """
        return bisect_left(self._neg_weights, self._neg_weights[index])

    def existence_probability(self, index: int) -> float:
        """``Pr[E(B_i)]`` for candidate ``i``."""
        return self._items[index].existence_probability(self.graph)

    def difference_events(self, index: int) -> List[Event]:
        """The blocking events ``E(B_j \\ B_i)`` for all ``j < L(i)``.

        Each event is the set of edge indices of a strictly-heavier
        candidate minus the edges shared with candidate ``i``.  Given
        ``E(B_i)``, candidate ``i`` fails to be maximum *within the
        candidate set* iff at least one of these events holds, which is
        exactly the union Algorithm 4 estimates.

        Events whose probability is zero (some edge has ``p = 0``) are
        dropped: the corresponding heavier butterfly can never exist, so
        it never blocks anything, and zero-weight events would break the
        Karp-Luby weighting.
        """
        base = self._items[index].edge_set()
        probs = self.graph.probs
        events: List[Event] = []
        for j in range(self.heavier_count(index)):
            difference = self._items[j].edge_set() - base
            if all(probs[e] > 0.0 for e in difference):
                events.append(frozenset(difference))
        return events

    def blocking_mass(self, index: int) -> float:
        """``S_i = Σ_{j ≤ L(i)} Pr[E(B_j \\ B_i)]`` (Algorithm 4 line 4)."""
        probs = self.graph.probs
        total = 0.0
        for event in self.difference_events(index):
            mass = 1.0
            for edge in event:
                mass *= float(probs[edge])
            total += mass
        return total

    def weight_classes(self) -> List[List[int]]:
        """Indices grouped by equal weight, heaviest class first."""
        classes: List[List[int]] = []
        for index, butterfly in enumerate(self._items):
            if classes and self._items[classes[-1][0]].weight == butterfly.weight:
                classes[-1].append(index)
            else:
                classes.append([index])
        return classes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self._items:
            return "<CandidateSet empty>"
        return (
            f"<CandidateSet n={len(self._items)} "
            f"w_max={self._items[0].weight:g} "
            f"w_min={self._items[-1].weight:g}>"
        )
