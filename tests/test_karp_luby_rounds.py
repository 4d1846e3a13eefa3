"""OLS-KL's one production loop: union-kernel rounds.

Round ``k`` hands every candidate that still needs trials one
:class:`~repro.kernels.UnionBlockKernel` block of ``min(block, budget −
done)`` trials; fixed budgets run as un-raced rounds and adaptive mode
wraps the same loop with the racer.  Pinned here: the rounds run the
reference's per-candidate trial counts, round-major, one engine unit per
round; seeded estimates stay inside an exact-oracle band; a deadline
after the first round leaves every candidate sampled and ε finite, one
inside it stops before the next block; a crash before round ``k``
resumes bit-identically; and fixed and adaptive runs refuse each
other's round checkpoints.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import FaultPlan, RuntimePolicy
from repro.adaptive import prescreen_candidates
from repro.butterfly.model import butterfly_from_labels
from repro.core import (
    CandidateSet,
    backbone_butterflies,
    estimate_probabilities_karp_luby,
    exact_mpmb_by_inclusion_exclusion,
    ordering_listing_sampling,
    reference_listing_sampling,
    result_to_dict,
)
from repro.core.karp_luby_estimator import KarpLubyRounds, union_samplers
from repro.errors import CheckpointError
from repro.kernels import UnionBlockKernel
from repro.observability import Observer
from repro.runtime import InjectedCrash
from repro.runtime.checkpoint import read_checkpoint, write_checkpoint
from repro.sampling import KarpLubyUnionSampler
from repro.sampling.karp_luby import exact_union_probability

from .conftest import build_graph, random_small_graph

#: A complete 3x3 graph with three weight classes and varied edge
#: probabilities: six of its nine butterflies have heavier blockers.
BLOCKED_EDGES = [
    (f"u{i}", f"v{j}", 1.0 + ((i + j) % 3), 0.35 + 0.1 * ((2 * i + j) % 5))
    for i in range(3) for j in range(3)
]


@pytest.fixture
def graph():
    return build_graph(BLOCKED_EDGES, name="blocked")


@pytest.fixture
def candidates(graph):
    return CandidateSet(graph, backbone_butterflies(graph))


@pytest.fixture
def block_calls(monkeypatch):
    """The trial count of every union-kernel block, in call order."""
    calls = []
    run_block = UnionBlockKernel.run_block

    def recording(kernel, count):
        calls.append(count)
        return run_block(kernel, count)

    monkeypatch.setattr(UnionBlockKernel, "run_block", recording)
    return calls


def _reference_trials(monkeypatch, graph, candidates, n_kl):
    """Union trials the reference ran for each candidate that needed
    some, in candidate order (one sampler per candidate)."""
    counts = {}
    trial = KarpLubyUnionSampler.trial

    def counting(sampler):
        counts[sampler] = counts.get(sampler, 0) + 1
        return trial(sampler)

    with monkeypatch.context() as patch:
        patch.setattr(KarpLubyUnionSampler, "trial", counting)
        reference_listing_sampling(
            graph, n_kl or 0, estimator="karp-luby", rng=3,
            candidates=candidates,
        )
    return list(counts.values())


def _budgets(candidates, n_kl):
    """The static per-candidate budgets at the default ε-δ target."""
    return union_samplers(candidates, None, n_kl, 0.05, 0.1, 0.1)[1]


def _round_major(trials, block):
    """Block lengths of ``trials`` per candidate, round by round."""
    order = []
    for start in range(0, max(trials), block):
        order.extend(min(block, t - start) for t in trials if t > start)
    return order


class TestFixedRounds:
    @pytest.mark.parametrize("n_kl", [None, 64])
    @pytest.mark.parametrize("block", [1, 7, 512])
    def test_rounds_run_the_reference_trials(
        self, monkeypatch, block_calls, graph, candidates, block, n_kl
    ):
        expected = _reference_trials(monkeypatch, graph, candidates, n_kl)
        observer = Observer()
        outcome = estimate_probabilities_karp_luby(
            candidates, rng=3, n_trials=n_kl, block_size=block,
            observer=observer,
        )
        trials = outcome.trials_per_candidate
        assert [t for t in trials if t] == expected
        budgets = _budgets(candidates, n_kl)
        assert trials == budgets
        assert outcome.total_trials == sum(expected)
        # One engine unit per round, each candidate's blocks interleaved
        # round-major.
        rounds = max(-(-t // block) for t in trials)
        counters = observer.metrics.to_dict()["counters"]
        assert counters["engine.trials.completed"] == rounds
        assert block_calls == _round_major(trials, block)

    def test_estimates_within_exact_band(self, graph, candidates):
        n_kl = 20_000
        outcome = estimate_probabilities_karp_luby(
            candidates, rng=5, n_trials=n_kl
        )
        exact = exact_mpmb_by_inclusion_exclusion(graph).estimates
        assert set(outcome.estimates) == set(exact)
        samplers, _ = union_samplers(candidates, None, n_kl, 0.05, 0.1, 0.1)
        for index, butterfly in enumerate(candidates):
            truth = exact[butterfly.key]
            existence = candidates.existence_probability(index)
            mass = samplers[index].weight_sum
            if mass == 0.0:
                assert outcome.estimates[butterfly.key] == existence
                continue
            # Five standard errors of E·(1 − S·X̄), X̄ the acceptance
            # rate of trials accepting at rate (1 − P/E)/S.
            rate = (1.0 - truth / existence) / mass
            band = 5.0 * existence * mass * math.sqrt(
                rate * (1.0 - rate) / n_kl
            )
            assert abs(outcome.estimates[butterfly.key] - truth) <= band, (
                butterfly.key, outcome.estimates[butterfly.key], truth,
            )

    def test_spent_candidates_free_their_kernels(self, candidates):
        generator = np.random.default_rng(0)
        samplers, budgets = union_samplers(
            candidates, generator, None, 0.05, 0.1, 0.1
        )
        smallest = min(b for b in budgets if b)
        loop = KarpLubyRounds(
            candidates, generator, samplers, budgets, block=smallest
        )
        loop.run_trial(1)
        assert sorted(loop._kernels) == [
            i for i, b in enumerate(budgets) if b > smallest
        ]
        doomed = max(loop._kernels)
        loop.retire(doomed)
        assert doomed not in loop._kernels
        assert not loop.needs_trials(doomed)


    def test_rounds_cover_the_live_budgets(self, candidates):
        generator = np.random.default_rng(0)
        samplers, budgets = union_samplers(
            candidates, generator, None, 0.05, 0.1, 0.1
        )
        loop = KarpLubyRounds(
            candidates, generator, samplers, budgets, block=8
        )
        assert loop.rounds() == max(-(-b // 8) for b in budgets)
        longest = budgets.index(max(budgets))
        loop.retire(longest)
        assert loop.rounds() == max(
            -(-b // 8) for i, b in enumerate(budgets) if i != longest
        )


class TestRacedRounds:
    """The racer retires candidates between rounds; its eliminations
    ride in the checkpoint, so a resumed race replays them exactly."""

    @staticmethod
    def _run(graph, candidates, **kwargs):
        return ordering_listing_sampling(
            graph, 0, estimator="karp-luby", rng=1, candidates=candidates,
            adaptive={"prescreen": False}, block_size=8, **kwargs,
        )

    def test_race_eliminates_and_resumes_exactly(
        self, graph, candidates, tmp_path
    ):
        baseline = self._run(graph, candidates)
        # With the pre-screen off every elimination is the race's.
        assert baseline.stats["candidates_eliminated"] > 0
        assert baseline.n_trials < sum(_budgets(candidates, None))
        path = tmp_path / "kl.json"
        with pytest.raises(InjectedCrash):
            self._run(graph, candidates, runtime=RuntimePolicy(
                checkpoint_path=path, checkpoint_every=1,
                faults=FaultPlan(crash_before_trial=5),
            ))
        race = read_checkpoint(path)["state"]["race"]
        assert any(bound is not None for bound in race["eliminated_upper"])
        resumed = self._run(graph, candidates, runtime=RuntimePolicy(
            checkpoint_path=path, checkpoint_every=1, resume_from=path,
        ))
        assert result_to_dict(resumed) == result_to_dict(baseline)

    def test_resume_recomputes_the_prescreen(self, tmp_path):
        """The pre-screen depends on ``C_MB`` alone, so a resumed run,
        which rebuilds ``C_MB`` from the checkpoint and skips the
        preparing phase, drops the same candidates.  A checkpoint is
        refused when the resume switches the pre-screen the other way,
        or when it still carries the sampled pre-screen's outcome."""
        graph = random_small_graph(np.random.default_rng(50))

        def run(adaptive=True, **kwargs):
            return ordering_listing_sampling(
                graph, 0, n_prepare=30, estimator="karp-luby", rng=3,
                adaptive=adaptive, block_size=8, **kwargs,
            )

        baseline = run()
        candidates = CandidateSet(graph, baseline.butterflies.values())
        dropped = prescreen_candidates(candidates).eliminated
        assert dropped
        assert len(candidates) - len(dropped) >= 2
        path = tmp_path / "kl.json"
        with pytest.raises(InjectedCrash):
            run(runtime=RuntimePolicy(
                checkpoint_path=path, checkpoint_every=1,
                faults=FaultPlan(crash_before_trial=2),
            ))
        document = read_checkpoint(path)
        live = document["state"]["live"]
        assert [i for i, flag in enumerate(live) if not flag] == dropped
        resumed = result_to_dict(run(runtime=RuntimePolicy(
            checkpoint_path=path, checkpoint_every=1, resume_from=path,
        )))
        assert resumed["stats"].pop("resumed_candidates") == 1.0
        assert resumed == result_to_dict(baseline)

        write_checkpoint(path, document)
        with pytest.raises(CheckpointError, match="pre-screen setting"):
            run({"prescreen": False}, runtime=RuntimePolicy(
                resume_from=path,
            ))
        document["state"]["race"].update(
            pre_eliminated=dropped, pre_lower=[0.0] * len(live)
        )
        write_checkpoint(path, document)
        with pytest.raises(CheckpointError, match="older adaptive run"):
            run(runtime=RuntimePolicy(resume_from=path))

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_sole_survivor_stop_covers_its_estimate(self, seed):
        """One light butterfly ``B`` that four heavier candidates block:
        the pre-screen drops the four and leaves ``B`` alone.  Stopping
        before any union trial reported ``Pr[E(B)] = 0.8009`` with
        realised ε 0.5, where the candidate-relative ``P(B)`` is
        0.3745; the survivor now runs a round first, and the realised
        ε covers the estimate's error."""
        light = [("u1", "v1"), ("u1", "v2"), ("u2", "v1"), ("u2", "v2")]
        edges = [(u, v, 1.0, 0.946) for u, v in light] + [
            (f"u{j}", v, 10.0, 0.416)
            for j in range(3, 7) for v in ("v1", "v2")
        ]
        graph = build_graph(edges, name="blocked-survivor")
        butterflies = [
            butterfly_from_labels(graph, "u1", f"u{j}", "v1", "v2")
            for j in range(2, 7)
        ]
        candidates = CandidateSet(graph, butterflies)
        assert prescreen_candidates(candidates).eliminated == [0, 1, 2, 3]
        light_key = candidates[4].key
        exact = candidates.existence_probability(4) * (
            1.0 - exact_union_probability(
                candidates.difference_events(4),
                lambda edge: float(graph.probs[edge]),
            )
        )
        assert exact == pytest.approx(0.3745, abs=1e-4)
        result = ordering_listing_sampling(
            graph, 0, estimator="karp-luby", rng=seed,
            candidates=candidates, adaptive=True,
        )
        estimate = result.estimates[light_key]
        epsilon = result.guarantee.epsilon
        assert abs(estimate - exact) <= epsilon * max(estimate, 0.05)
        assert result.n_trials > 0


class TestDeadlines:
    def test_every_candidate_sampled_and_epsilon_finite(
        self, block_calls, candidates
    ):
        budgets = _budgets(candidates, 64)
        needing = sum(1 for b in budgets if b)

        def clock():
            # Expires once every trial-needing candidate ran one block.
            return 100.0 if len(block_calls) >= needing else 0.0

        outcome = estimate_probabilities_karp_luby(
            candidates, rng=3, n_trials=64, block_size=8,
            runtime=RuntimePolicy(timeout_seconds=50.0, clock=clock),
        )
        assert outcome.stop_reason == "deadline"
        guarantee = outcome.guarantee
        assert 0.0 < guarantee.epsilon < math.inf
        assert outcome.trials_per_candidate == [min(b, 8) for b in budgets]
        assert set(outcome.estimates) == {b.key for b in candidates}
        assert guarantee.achieved_trials == 8 * needing
        assert guarantee.target_trials == sum(budgets)

    def test_deadline_inside_the_first_round(self, block_calls, candidates):
        """The deadline is checked before every block of a round: one
        that expires after the first block leaves the other candidates
        unsampled, unranked, and ε infinite."""
        budgets = _budgets(candidates, 64)
        first = budgets.index(64)

        def clock():
            return 100.0 if block_calls else 0.0

        outcome = estimate_probabilities_karp_luby(
            candidates, rng=3, n_trials=64, block_size=8,
            runtime=RuntimePolicy(timeout_seconds=50.0, clock=clock),
        )
        assert outcome.stop_reason == "deadline"
        assert outcome.guarantee.epsilon == math.inf
        trials = [0] * len(budgets)
        trials[first] = 8
        assert outcome.trials_per_candidate == trials
        assert set(outcome.estimates) == {
            b.key for i, b in enumerate(candidates)
            if budgets[i] == 0 or i == first
        }


class TestRoundCheckpoints:
    @staticmethod
    def _run(graph, **kwargs):
        return ordering_listing_sampling(
            graph, 64, n_prepare=30, estimator="karp-luby", rng=13,
            block_size=8, **kwargs,
        )

    @pytest.mark.parametrize("crash_round, every", [(2, 1), (6, 2)])
    def test_crash_then_resume_is_bit_identical(
        self, graph, tmp_path, crash_round, every
    ):
        baseline = result_to_dict(self._run(graph))
        path = tmp_path / "kl.json"
        with pytest.raises(InjectedCrash):
            self._run(graph, runtime=RuntimePolicy(
                checkpoint_path=path, checkpoint_every=every,
                faults=FaultPlan(crash_before_trial=crash_round),
            ))
        document = read_checkpoint(path)
        assert document["unit"] == "round"
        # --checkpoint-every counts rounds.
        assert document["completed"] == (crash_round - 1) // every * every
        resumed = result_to_dict(self._run(graph, runtime=RuntimePolicy(
            checkpoint_path=path, checkpoint_every=every, resume_from=path,
        )))
        assert resumed["stats"].pop("resumed_candidates") == 1.0
        assert resumed == baseline

    @pytest.mark.parametrize("written, resumed", [
        (None, {"prescreen": False}),
        ({"prescreen": False}, None),
    ])
    def test_fixed_and_adaptive_refuse_each_other(
        self, graph, tmp_path, written, resumed
    ):
        path = tmp_path / "kl.json"
        with pytest.raises(InjectedCrash):
            self._run(graph, adaptive=written, runtime=RuntimePolicy(
                checkpoint_path=path, checkpoint_every=1,
                faults=FaultPlan(crash_before_trial=2),
            ))
        with pytest.raises(CheckpointError, match="adaptive"):
            self._run(graph, adaptive=resumed, runtime=RuntimePolicy(
                checkpoint_path=path, resume_from=path,
            ))

    @pytest.mark.parametrize("adaptive, missing", [
        ({"prescreen": False}, "'race'"),
        (None, "'live', 'accepted'"),
    ])
    def test_checkpoint_of_the_old_adaptive_loop_refused(
        self, graph, tmp_path, adaptive, missing
    ):
        """Adaptive round checkpoints written before the loop was shared
        hold ``alive``, ``intervals`` and ``race_eliminated`` and no
        ``race``: both modes refuse them, naming what is missing."""
        path = tmp_path / "kl.json"
        with pytest.raises(InjectedCrash):
            self._run(graph, adaptive={"prescreen": False},
                      runtime=RuntimePolicy(
                          checkpoint_path=path, checkpoint_every=1,
                          faults=FaultPlan(crash_before_trial=2),
                      ))
        document = read_checkpoint(path)
        state = document["state"]
        document["state"] = {
            "candidates": state["candidates"],
            "alive": state["live"],
            "done": state["done"],
            "intervals": [
                {"range_width": 1.0, "count": done, "total": float(hits),
                 "total_sq": float(hits)}
                for done, hits in zip(state["done"], state["accepted"])
            ],
            "eliminated_upper": [None] * len(state["done"]),
            "race_eliminated": 0,
            "traces": state["traces"],
            "rng": state["rng"],
        }
        write_checkpoint(path, document)
        with pytest.raises(CheckpointError, match=missing):
            self._run(graph, adaptive=adaptive, runtime=RuntimePolicy(
                checkpoint_path=path, resume_from=path,
            ))
