"""Checkpoint/resume determinism and graceful degradation (runtime engine).

The acceptance bar for the resilient runtime: a run killed mid-sampling
and resumed from its checkpoint must produce the *same* estimate as an
uninterrupted run with the same seed — for all four sampling methods —
and a deadline-expired run must come back flagged ``degraded=True`` with
its ε-δ guarantee recomputed from the trials actually completed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import CheckpointError, FaultPlan, RuntimePolicy, TrialBudgetExceeded
from repro.core import (
    load_result,
    mc_vp,
    ordering_listing_sampling,
    ordering_sampling,
    reference_listing_sampling,
    reference_search,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.runtime import (
    InjectedCrash,
    LoopReport,
    read_checkpoint,
    recompute_guarantee,
    require_complete,
    write_checkpoint,
)
from repro.sampling import rng_state_payload, restore_rng_state
from repro.sampling.bounds import achievable_epsilon
from repro.worlds import WorldSampler

from .conftest import FIGURE_1_EDGES, build_graph


@pytest.fixture
def graph():
    return build_graph(FIGURE_1_EDGES, name="figure-1")


def _crash_policy(path, crash_at, every=5):
    return RuntimePolicy(
        checkpoint_path=path,
        checkpoint_every=every,
        faults=FaultPlan(crash_before_trial=crash_at),
    )


def _resume_policy(path, every=5):
    return RuntimePolicy(
        checkpoint_path=path, checkpoint_every=every, resume_from=path
    )


class TestResumeDeterminism:
    """Crash mid-run, resume, and compare bit-for-bit with a clean run."""

    def test_mc_vp(self, graph, tmp_path):
        baseline = result_to_dict(mc_vp(graph, 40, rng=7, block_size=1))
        path = tmp_path / "mc.json"
        with pytest.raises(InjectedCrash):
            mc_vp(
                graph, 40, rng=7, block_size=1,
                runtime=_crash_policy(path, 23),
            )
        resumed = mc_vp(
            graph, 40, rng=7, block_size=1, runtime=_resume_policy(path)
        )
        assert result_to_dict(resumed) == baseline

    def test_os(self, graph, tmp_path):
        baseline = result_to_dict(
            ordering_sampling(graph, 40, rng=3, block_size=1)
        )
        path = tmp_path / "os.json"
        with pytest.raises(InjectedCrash):
            ordering_sampling(
                graph, 40, rng=3, block_size=1, runtime=_crash_policy(path, 17)
            )
        resumed = ordering_sampling(
            graph, 40, rng=3, block_size=1, runtime=_resume_policy(path)
        )
        assert result_to_dict(resumed) == baseline

    def test_default_blocks_snapshot_every_n_trials(self, graph, tmp_path):
        """``checkpoint_every`` counts trials on block runs too: with
        256-trial blocks and ``checkpoint_every=1_000`` the snapshot
        lands after block 4 (1 024 trials), so a crash before block 7
        resumes from there."""
        baseline = result_to_dict(ordering_sampling(graph, 3_000, rng=3))
        path = tmp_path / "os.json"
        with pytest.raises(InjectedCrash):
            ordering_sampling(
                graph, 3_000, rng=3,
                runtime=_crash_policy(path, 7, every=1_000),
            )
        assert read_checkpoint(path)["completed"] == 4
        resumed = ordering_sampling(
            graph, 3_000, rng=3, runtime=_resume_policy(path, every=1_000)
        )
        assert result_to_dict(resumed) == baseline

    def test_os_antithetic_pending_uniforms(self, graph, tmp_path):
        """A crash between antithetic pair halves must not lose the
        buffered uniforms."""
        baseline = result_to_dict(
            ordering_sampling(graph, 30, rng=9, block_size=1, antithetic=True)
        )
        path = tmp_path / "anti.json"
        # Odd checkpoint interval so snapshots land mid-pair.
        with pytest.raises(InjectedCrash):
            ordering_sampling(
                graph, 30, rng=9, block_size=1, antithetic=True,
                runtime=_crash_policy(path, 12, every=3),
            )
        resumed = ordering_sampling(
            graph, 30, rng=9, block_size=1, antithetic=True,
            runtime=_resume_policy(path, every=3),
        )
        assert result_to_dict(resumed) == baseline

    def test_ols_optimized(self, graph, tmp_path):
        # One-trial blocks, so the crash lands mid-run (OLS gives the
        # same result at every block size).
        baseline = result_to_dict(
            ordering_listing_sampling(
                graph, 60, n_prepare=20, estimator="optimized", rng=11,
                block_size=1,
            )
        )
        path = tmp_path / "ols.json"
        with pytest.raises(InjectedCrash):
            ordering_listing_sampling(
                graph, 60, n_prepare=20, estimator="optimized", rng=11,
                block_size=1, runtime=_crash_policy(path, 41, every=10),
            )
        # Resume rebuilds the candidate set from the checkpoint itself
        # and skips the preparing phase entirely.
        resumed = ordering_listing_sampling(
            graph, 60, n_prepare=20, estimator="optimized", rng=11,
            block_size=1, runtime=_resume_policy(path, every=10),
        )
        payload = result_to_dict(resumed)
        assert resumed.stats["resumed_candidates"] == 1.0
        del payload["stats"]["resumed_candidates"]
        assert payload == baseline

    def test_ols_karp_luby(self, graph, tmp_path):
        baseline = result_to_dict(
            ordering_listing_sampling(
                graph, 50, n_prepare=20, estimator="karp-luby", rng=13,
                block_size=10,
            )
        )
        path = tmp_path / "kl.json"
        # Crash before the second of five rounds; checkpoints are per
        # round.
        with pytest.raises(InjectedCrash):
            ordering_listing_sampling(
                graph, 50, n_prepare=20, estimator="karp-luby", rng=13,
                block_size=10, runtime=_crash_policy(path, 2, every=1),
            )
        document = read_checkpoint(path)
        assert document["unit"] == "round"
        resumed = ordering_listing_sampling(
            graph, 50, n_prepare=20, estimator="karp-luby", rng=13,
            block_size=10, runtime=_resume_policy(path, every=1),
        )
        payload = result_to_dict(resumed)
        del payload["stats"]["resumed_candidates"]
        assert payload == baseline

    def test_missing_resume_file_starts_fresh(self, graph, tmp_path):
        path = tmp_path / "never-written.json"
        result = mc_vp(
            graph, 20, rng=7,
            runtime=RuntimePolicy(resume_from=path, checkpoint_path=None),
        )
        assert result.n_trials == 20
        assert not result.degraded


class TestCheckpointValidation:
    def test_method_mismatch_rejected(self, graph, tmp_path):
        path = tmp_path / "os.json"
        ordering_sampling(
            graph, 10, rng=1,
            runtime=RuntimePolicy(checkpoint_path=path),
        )
        with pytest.raises(CheckpointError, match="method"):
            mc_vp(graph, 10, rng=1, runtime=_resume_policy(path))

    def test_target_mismatch_rejected(self, graph, tmp_path):
        path = tmp_path / "os.json"
        ordering_sampling(
            graph, 10, rng=1, block_size=1,
            runtime=RuntimePolicy(checkpoint_path=path),
        )
        with pytest.raises(CheckpointError, match="target"):
            ordering_sampling(
                graph, 99, rng=1, block_size=1,
                runtime=_resume_policy(path),
            )

    @pytest.mark.parametrize(
        "search",
        [
            mc_vp,
            ordering_sampling,
            lambda graph, n, **kw: ordering_listing_sampling(
                graph, n, n_prepare=20, estimator="optimized",
                block_size=256, **kw
            ),
        ],
        ids=["mc-vp", "os", "ols-batched"],
    )
    def test_block_target_mismatch_rejected(self, graph, tmp_path, search):
        """300 and 400 trials are both two 256-trial blocks, so the
        engine's block-count target matches; the trial target must not."""
        path = tmp_path / "run.json"
        search(graph, 300, rng=1, runtime=RuntimePolicy(checkpoint_path=path))
        assert read_checkpoint(path)["target"] == 2
        with pytest.raises(CheckpointError, match="300 trials"):
            search(graph, 400, rng=1, runtime=_resume_policy(path))

    def test_foreign_block_payload_rejected(self, graph, tmp_path):
        """A block checkpoint without a trial target (as written before
        block checkpoints stored one), or with Alg. 1's counters instead
        of the wedge kernel's, is a CheckpointError, not a KeyError."""
        path = tmp_path / "mc.json"
        mc_vp(graph, 300, rng=1, runtime=RuntimePolicy(checkpoint_path=path))
        document = read_checkpoint(path)
        document["state"]["stats"] = {
            "angles_processed": 1.0,
            "angles_stored_peak": 1.0,
            "butterflies_checked": 1.0,
        }
        write_checkpoint(path, document)
        with pytest.raises(CheckpointError, match="wedge kernel"):
            mc_vp(graph, 300, rng=1, runtime=_resume_policy(path))
        del document["state"]["n_trials"]
        write_checkpoint(path, document)
        with pytest.raises(CheckpointError, match="no trial target"):
            mc_vp(graph, 300, rng=1, runtime=_resume_policy(path))

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": 1}), encoding="utf-8")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_missing_file_is_none(self, tmp_path):
        assert read_checkpoint(tmp_path / "absent.json") is None


class TestReferenceKernelResume:
    """The reference counts trials, the wedge kernel counts blocks: a
    checkpoint resumes only through the entry point that wrote it."""

    KERNELS = {"mc-vp": mc_vp, "os": ordering_sampling}

    @pytest.mark.parametrize("method", ["mc-vp", "os"])
    def test_reference_checkpoint(self, graph, tmp_path, method):
        baseline = result_to_dict(reference_search(graph, method, 40, rng=3))
        path = tmp_path / "reference.json"
        with pytest.raises(InjectedCrash):
            reference_search(
                graph, method, 40, rng=3, runtime=_crash_policy(path, 17)
            )
        assert read_checkpoint(path)["unit"] == "trial"
        with pytest.raises(CheckpointError, match="unit"):
            self.KERNELS[method](
                graph, 40, rng=3, runtime=_resume_policy(path)
            )
        resumed = reference_search(
            graph, method, 40, rng=3, runtime=_resume_policy(path)
        )
        assert result_to_dict(resumed) == baseline

    @pytest.mark.parametrize("method", ["mc-vp", "os"])
    def test_kernel_checkpoint(self, graph, tmp_path, method):
        kernel = self.KERNELS[method]
        baseline = result_to_dict(kernel(graph, 40, rng=3, block_size=8))
        path = tmp_path / "kernel.json"
        with pytest.raises(InjectedCrash):
            kernel(
                graph, 40, rng=3, block_size=8,
                runtime=_crash_policy(path, 3, every=1),
            )
        assert read_checkpoint(path)["unit"] == "block"
        with pytest.raises(CheckpointError, match="unit"):
            reference_search(
                graph, method, 40, rng=3,
                runtime=_resume_policy(path, every=1),
            )
        resumed = kernel(
            graph, 40, rng=3, block_size=8,
            runtime=_resume_policy(path, every=1),
        )
        assert result_to_dict(resumed) == baseline


class TestReferenceKernelOlsResume:
    """The OLS reference counts trials, its kernel counts blocks of
    candidate-edge draws: a checkpoint resumes only through the entry
    point that wrote it, and a block checkpoint from the full-graph
    draw is refused rather than resumed on another stream."""

    @staticmethod
    def _run(entry, graph, **kwargs):
        return entry(
            graph, 60, n_prepare=20, estimator="optimized", rng=11,
            **kwargs,
        )

    @staticmethod
    def _resumed(result):
        payload = result_to_dict(result)
        assert payload["stats"].pop("resumed_candidates") == 1.0
        return payload

    def _kernel_checkpoint(self, graph, path):
        with pytest.raises(InjectedCrash):
            self._run(
                ordering_listing_sampling, graph, block_size=8,
                runtime=_crash_policy(path, 4, every=1),
            )
        document = read_checkpoint(path)
        assert document["unit"] == "block"
        return document

    def test_reference_checkpoint(self, graph, tmp_path):
        baseline = result_to_dict(
            self._run(reference_listing_sampling, graph)
        )
        path = tmp_path / "reference.json"
        with pytest.raises(InjectedCrash):
            self._run(
                reference_listing_sampling, graph,
                runtime=_crash_policy(path, 41, every=10),
            )
        assert read_checkpoint(path)["unit"] == "trial"
        with pytest.raises(CheckpointError, match="unit"):
            self._run(
                ordering_listing_sampling, graph,
                runtime=_resume_policy(path, every=10),
            )
        resumed = self._run(
            reference_listing_sampling, graph,
            runtime=_resume_policy(path, every=10),
        )
        assert self._resumed(resumed) == baseline

    def test_kernel_checkpoint(self, graph, tmp_path):
        baseline = result_to_dict(
            self._run(ordering_listing_sampling, graph, block_size=8)
        )
        path = tmp_path / "kernel.json"
        self._kernel_checkpoint(graph, path)
        with pytest.raises(CheckpointError, match="unit"):
            self._run(
                reference_listing_sampling, graph,
                runtime=_resume_policy(path, every=1),
            )
        resumed = self._run(
            ordering_listing_sampling, graph, block_size=8,
            runtime=_resume_policy(path, every=1),
        )
        assert self._resumed(resumed) == baseline

    def test_full_graph_draw_checkpoint_rejected(self, graph, tmp_path):
        """A block checkpoint as the full-graph draw wrote it: no draw
        tag, and the stream position inside a ``sampler`` payload."""
        path = tmp_path / "kernel.json"
        document = self._kernel_checkpoint(graph, path)
        state = document["state"]
        del state["draw"]
        state["sampler"] = {"rng": state.pop("rng"), "pending": None}
        write_checkpoint(path, document)
        with pytest.raises(CheckpointError, match="full-graph"):
            self._run(
                ordering_listing_sampling, graph, block_size=8,
                runtime=_resume_policy(path, every=1),
            )


class TestReferenceKernelOlsKlResume:
    """Production OLS-KL checkpoints rounds and the reference's
    per-trial loop candidates, over different streams: neither resumes
    the other's checkpoint.  A reference checkpoint records its runner,
    so one written by an older candidate-unit production run (runner
    ``"union-kernel"``) is refused by both."""

    UNITS = {
        reference_listing_sampling: "candidate",
        ordering_listing_sampling: "round",
    }

    @staticmethod
    def _run(entry, graph, **kwargs):
        return entry(
            graph, 50, n_prepare=20, estimator="karp-luby", rng=13,
            **kwargs,
        )

    def _checkpoint(self, entry, graph, path):
        # Crash before the second unit, so the first one is on disk
        # (production runs five 10-trial rounds).
        kwargs = {}
        if entry is ordering_listing_sampling:
            kwargs["block_size"] = 10
        with pytest.raises(InjectedCrash):
            self._run(
                entry, graph, runtime=_crash_policy(path, 2, every=1),
                **kwargs,
            )
        document = read_checkpoint(path)
        assert document["unit"] == self.UNITS[entry]
        return document

    @pytest.mark.parametrize("writer, reader", [
        (reference_listing_sampling, ordering_listing_sampling),
        (ordering_listing_sampling, reference_listing_sampling),
    ])
    def test_other_runner_refuses_the_checkpoint(
        self, graph, tmp_path, writer, reader
    ):
        path = tmp_path / "kl.json"
        document = self._checkpoint(writer, graph, path)
        with pytest.raises(CheckpointError, match="unit"):
            self._run(reader, graph, runtime=_resume_policy(path, every=1))
        assert document["state"].get("runner") == (
            "per-trial" if writer is reference_listing_sampling else None
        )

    @pytest.mark.parametrize(
        "entry", [reference_listing_sampling, ordering_listing_sampling]
    )
    def test_same_runner_resumes(self, graph, tmp_path, entry):
        kwargs = {}
        if entry is ordering_listing_sampling:
            kwargs["block_size"] = 10
        baseline = result_to_dict(self._run(entry, graph, **kwargs))
        path = tmp_path / "kl.json"
        self._checkpoint(entry, graph, path)
        payload = result_to_dict(self._run(
            entry, graph, runtime=_resume_policy(path, every=1), **kwargs
        ))
        assert payload["stats"].pop("resumed_candidates") == 1.0
        assert payload == baseline

    def test_untagged_checkpoint_is_refused(self, graph, tmp_path):
        path = tmp_path / "kl.json"
        document = self._checkpoint(reference_listing_sampling, graph, path)
        del document["state"]["runner"]
        write_checkpoint(path, document)
        with pytest.raises(CheckpointError, match="untagged"):
            self._run(
                reference_listing_sampling, graph,
                runtime=_resume_policy(path, every=1),
            )

    @pytest.mark.parametrize("reader, refusal", [
        (reference_listing_sampling, "union-kernel"),
        (ordering_listing_sampling, "unit"),
    ])
    def test_old_production_checkpoint_is_refused(
        self, graph, tmp_path, reader, refusal
    ):
        path = tmp_path / "kl.json"
        document = self._checkpoint(reference_listing_sampling, graph, path)
        document["state"]["runner"] = "union-kernel"
        write_checkpoint(path, document)
        with pytest.raises(CheckpointError, match=refusal):
            self._run(reader, graph, runtime=_resume_policy(path, every=1))


class TestAtomicWrites:
    def test_injected_write_failure_keeps_previous_snapshot(
        self, graph, tmp_path
    ):
        path = tmp_path / "cp.json"
        policy = RuntimePolicy(
            checkpoint_path=path,
            checkpoint_every=5,
            on_checkpoint_error="continue",
            faults=FaultPlan(checkpoint_failures=(2, 3)),
        )
        result = mc_vp(graph, 30, rng=7, block_size=1)
        faulty = mc_vp(graph, 30, rng=7, block_size=1, runtime=policy)
        # Failed writes were tolerated and the run still completed.
        assert result_to_dict(faulty) == result_to_dict(result)
        document = read_checkpoint(path)
        assert document["completed"] in (5, 20, 25, 30)

    def test_write_failure_raises_by_default(self, graph, tmp_path):
        policy = RuntimePolicy(
            checkpoint_path=tmp_path / "cp.json",
            checkpoint_every=5,
            faults=FaultPlan(checkpoint_failures=(1,)),
        )
        with pytest.raises(CheckpointError):
            mc_vp(graph, 30, rng=7, runtime=policy)

    def test_failed_write_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "cp.json"

        def boom():
            raise OSError("disk full")

        with pytest.raises(CheckpointError):
            write_checkpoint(path, {"x": 1}, fail_hook=boom)
        assert list(tmp_path.iterdir()) == []


class TestDeadlineDegradation:
    def _ticking_clock(self, step):
        state = {"now": 0.0}

        def clock():
            state["now"] += step
            return state["now"]

        return clock

    def test_os_degrades_with_rewidened_epsilon(self, graph):
        policy = RuntimePolicy(
            timeout_seconds=10.0, clock=self._ticking_clock(1.0)
        )
        result = ordering_sampling(
            graph, 1000, rng=5, block_size=1, runtime=policy
        )
        assert result.degraded
        assert result.degraded_reason == "deadline"
        assert 0 < result.n_trials < 1000
        assert result.target_trials == 1000
        guarantee = result.guarantee
        assert guarantee is not None
        assert guarantee.achieved_trials == result.n_trials
        assert guarantee.target_trials == 1000
        assert guarantee.epsilon == pytest.approx(
            achievable_epsilon(0.05, result.n_trials, 0.1)
        )
        assert not guarantee.complete

    def test_degraded_estimates_normalise_over_achieved(self, graph):
        policy = RuntimePolicy(
            timeout_seconds=10.0, clock=self._ticking_clock(1.0)
        )
        result = ordering_sampling(graph, 1000, rng=5, runtime=policy)
        # Winner frequencies must divide by achieved trials, not target.
        total = sum(result.estimates.values())
        assert total <= len(result.estimates) * 1.0
        baseline = ordering_sampling(graph, result.n_trials, rng=5)
        assert baseline.estimates == result.estimates

    def test_ols_kl_degrades_mid_candidate(self, graph):
        policy = RuntimePolicy(
            timeout_seconds=3.0, clock=self._ticking_clock(1.0)
        )
        result = ordering_listing_sampling(
            graph, 5000, n_prepare=20, estimator="karp-luby", rng=13,
            runtime=policy,
        )
        assert result.degraded
        assert result.degraded_reason == "deadline"
        assert result.guarantee is not None
        assert result.guarantee.achieved_trials == result.n_trials
        assert result.n_trials < result.guarantee.target_trials

    def test_interrupt_degrades_gracefully(self, graph):
        policy = RuntimePolicy(
            faults=FaultPlan(interrupt_before_trial=8)
        )
        result = ordering_sampling(
            graph, 100, rng=5, block_size=1, runtime=policy
        )
        assert result.degraded
        assert result.degraded_reason == "interrupted"
        assert result.n_trials == 7

    def test_zero_trial_deadline_certifies_nothing(self, graph):
        policy = RuntimePolicy(
            timeout_seconds=0.5, clock=self._ticking_clock(1.0)
        )
        result = ordering_sampling(graph, 100, rng=5, runtime=policy)
        assert result.n_trials == 0
        assert result.estimates == {}
        assert result.guarantee.epsilon == float("inf")


class TestDegradedSerialisation:
    def test_round_trip_preserves_degradation(self, graph, tmp_path):
        policy = RuntimePolicy(
            faults=FaultPlan(interrupt_before_trial=10)
        )
        result = ordering_sampling(
            graph, 100, rng=5, block_size=1, runtime=policy
        )
        target = tmp_path / "degraded.json"
        save_result(result, target)
        loaded = load_result(target, graph)
        assert loaded.degraded
        assert loaded.degraded_reason == "interrupted"
        assert loaded.target_trials == 100
        assert loaded.guarantee == result.guarantee

    def test_complete_results_stay_format_compatible(self, graph):
        payload = result_to_dict(ordering_sampling(graph, 20, rng=5))
        assert payload["format"] == 1
        assert "degraded" not in payload
        rebuilt = result_from_dict(payload, graph)
        assert not rebuilt.degraded
        assert rebuilt.guarantee is None


class TestRngStatePayload:
    def test_generator_round_trip(self):
        generator = np.random.default_rng(42)
        generator.random(17)
        payload = json.loads(json.dumps(rng_state_payload(generator)))
        expected = generator.random(8).tolist()
        fresh = np.random.default_rng(0)
        restore_rng_state(fresh, payload)
        assert fresh.random(8).tolist() == expected

    def test_world_sampler_antithetic_round_trip(self, graph):
        sampler = WorldSampler(graph, 7, antithetic=True)
        sampler.sample_mask()  # leaves the antithetic half pending
        payload = json.loads(json.dumps(sampler.state_payload()))
        expected = [sampler.sample_mask().tolist() for _ in range(4)]
        fresh = WorldSampler(graph, 0, antithetic=True)
        fresh.restore_state(payload)
        assert [fresh.sample_mask().tolist() for _ in range(4)] == expected


class TestEngineContracts:
    def test_non_positive_target_rejected(self, graph):
        with pytest.raises(ValueError, match="must be positive"):
            mc_vp(graph, 0, rng=1)

    def test_require_complete_raises_on_degraded(self):
        report = LoopReport(completed=5, target=10, stop_reason="deadline")
        with pytest.raises(TrialBudgetExceeded):
            require_complete(report)
        assert require_complete(LoopReport(completed=10, target=10)) is not None

    def test_recompute_guarantee_matches_inverted_bound(self):
        guarantee = recompute_guarantee(500, 2000, mu=0.05, delta=0.1)
        assert guarantee.epsilon == pytest.approx(
            achievable_epsilon(0.05, 500, 0.1)
        )
        assert not guarantee.complete
        round_tripped = type(guarantee).from_dict(guarantee.to_dict())
        assert round_tripped == guarantee
