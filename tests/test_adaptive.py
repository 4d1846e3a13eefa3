"""Anytime adaptive mode: bit-identity off, racing stops, pre-screen,
checkpoint/resume exactness, and the guarantee-math bugfix regressions.

The contract under test (``docs/performance.md`` / ``docs/runtime.md``):

* ``adaptive=False`` is inert — every method is bit-identical to the
  fixed-budget path, result document included — and ``adaptive=``
  takes nothing but ``True`` or ``False``;
* with the racing rule on, an early stop is *certified*: not degraded,
  same argmax as the fixed run, realised guarantee attached at the
  run's ``mu`` and ``delta`` (a pool's merged at its ``delta``), savings
  in the stats and ``adaptive.*`` metrics;
* the racer's survivor/interval state rides the engine checkpoint, so
  kill-and-resume reproduces a continuous adaptive run exactly;
* eliminations are sound: whenever the intervals cover the truth, the
  true incumbent is never eliminated (hypothesis property), and the
  pre-screen's bounds hold against the exact candidate-relative oracle;
* the array race core both racers call equals, bit for bit, the
  per-arm Maurer-Pontil arithmetic it replaced.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.__main__ as cli
from repro import FaultPlan, RuntimePolicy
from repro.adaptive import (
    RacingFrequencyLoop,
    bernstein_limits,
    prescreen_candidates,
    racing,
)
from repro.core import (
    CandidateSet,
    backbone_butterflies,
    find_mpmb,
    mc_vp,
    ordering_listing_sampling,
    ordering_sampling,
    prepare_candidates,
    result_to_dict,
)
from repro.core.bounds import preparing_trials_for_recall
from repro.errors import ConfigurationError
from repro.graph import save_graph
from repro.kernels import UnionBlockKernel, memory
from repro.kernels.memory import kernel_row_bytes
from repro.kernels.wedge_block import build_wedge_index
from repro.observability import Observer
from repro.runtime import InjectedCrash, run_parallel_trials
from repro.runtime.degradation import Guarantee
from repro.runtime.engine import LoopInterrupt
from repro.sampling.bounds import MAX_TRIAL_BOUND, monte_carlo_trial_bound
from repro.sampling.karp_luby import exact_union_probability
from repro.service import GraphRegistry, QueryBroker, QueryRequest

from .conftest import FIGURE_1_EDGES, build_graph, random_small_graph

#: Two disjoint butterflies, one clearly dominant (P ~ 0.656 vs ~ 0.24
#: conditional on winning ~ 0.083), so the racing rule separates within
#: a few hundred trials while the preparing phase still lists both.
DOMINANT_EDGES = [
    ("a1", "b1", 5.0, 0.9),
    ("a1", "b2", 5.0, 0.9),
    ("a2", "b1", 5.0, 0.9),
    ("a2", "b2", 5.0, 0.9),
    ("c1", "d1", 1.0, 0.7),
    ("c1", "d2", 1.0, 0.7),
    ("c2", "d1", 1.0, 0.7),
    ("c2", "d2", 1.0, 0.7),
]

@pytest.fixture
def graph():
    return build_graph(FIGURE_1_EDGES, name="figure-1")


@pytest.fixture
def dominant():
    return build_graph(DOMINANT_EDGES, name="dominant")


def _best_key(result):
    return result.best.key


class TestAdaptiveOffBitIdentical:
    """``adaptive=False`` must be a no-op on every method."""

    def test_mc_vp(self, graph):
        baseline = result_to_dict(mc_vp(graph, 40, rng=7))
        assert result_to_dict(mc_vp(graph, 40, rng=7, adaptive=False)) \
            == baseline

    def test_os_scalar_and_blocked(self, graph):
        baseline = result_to_dict(ordering_sampling(graph, 40, rng=3))
        assert result_to_dict(
            ordering_sampling(graph, 40, rng=3, adaptive=False)
        ) == baseline
        blocked = result_to_dict(
            ordering_sampling(graph, 40, rng=3, block_size=16)
        )
        assert result_to_dict(
            ordering_sampling(
                graph, 40, rng=3, block_size=16, adaptive=False
            )
        ) == blocked

    def test_ols_both_estimators(self, graph):
        for estimator in ("optimized", "karp-luby"):
            baseline = result_to_dict(ordering_listing_sampling(
                graph, 60, n_prepare=20, estimator=estimator, rng=11
            ))
            assert result_to_dict(ordering_listing_sampling(
                graph, 60, n_prepare=20, estimator=estimator, rng=11,
                adaptive=False,
            )) == baseline

    def test_adaptive_run_that_never_checks_is_bit_identical(self, graph):
        """40 trials never reach the 64-trial first check, so an
        adaptive-on run must produce the fixed run's document."""
        baseline = result_to_dict(ordering_sampling(graph, 40, rng=3))
        assert result_to_dict(
            ordering_sampling(graph, 40, rng=3, adaptive=True)
        ) == baseline

    def test_find_mpmb_rejects_adaptive_on_exact_methods(self, graph):
        with pytest.raises(ConfigurationError, match="adaptive"):
            find_mpmb(graph, method="exact-worlds", adaptive=True)

    def test_adaptive_takes_only_true_or_false(self, graph):
        """``adaptive=`` is a switch.  ``None``, a string, a number or
        a knob dict (the retired ``{"delta": ...}`` form included) is a
        ``ConfigurationError`` — CLI exit 2, HTTP 400 — never a bare
        ``TypeError``, and a pool refuses it before it starts a
        worker."""
        runs = (
            lambda value: mc_vp(graph, 40, rng=3, adaptive=value),
            lambda value: ordering_sampling(
                graph, 40, rng=3, adaptive=value
            ),
            lambda value: ordering_listing_sampling(
                graph, 40, n_prepare=20, rng=3, adaptive=value
            ),
            lambda value: ordering_listing_sampling(
                graph, 0, n_prepare=20, estimator="karp-luby", rng=3,
                adaptive=value,
            ),
            lambda value: run_parallel_trials(
                graph, 40, 2, method="os", rng=3, adaptive=value
            ),
        )
        for value in (None, "yes", 1, {"delta": 0.1}, {"check_evry": 5}):
            for run in runs:
                with pytest.raises(ConfigurationError, match="True or False"):
                    run(value)


class TestCertifiedRacingStops:
    """Dominant-winner runs must stop early, certified, same argmax."""

    @pytest.mark.parametrize("block_size", [None, 64])
    def test_os(self, dominant, block_size):
        fixed = ordering_sampling(
            dominant, 2_000, rng=5, block_size=block_size
        )
        adaptive = ordering_sampling(
            dominant, 2_000, rng=5, block_size=block_size,
            adaptive=True,
        )
        assert adaptive.n_trials < 2_000
        assert not adaptive.degraded
        assert adaptive.degraded_reason is None
        assert _best_key(adaptive) == _best_key(fixed)
        assert adaptive.stats["trials_saved"] > 0
        guarantee = adaptive.guarantee
        assert guarantee is not None
        assert guarantee.realized_trials == adaptive.n_trials
        assert guarantee.eliminated >= 0
        assert 0.0 < guarantee.epsilon < float("inf")

    def test_os_stops_on_the_capped_block_grid(self, dominant, monkeypatch):
        """Without ``block_size`` OS still runs in blocks, and the stop
        rule runs at every block boundary.  With the bytes budget
        capping the default 256-trial block to 56, the run stops after
        block 3 (168 trials) — where ``block_size=56`` stops."""
        index = build_wedge_index(dominant)
        row = kernel_row_bytes(
            dominant.n_edges, index.n_wedges, index.n_groups
        )
        monkeypatch.setattr(memory, "DEFAULT_BYTES_BUDGET", 56 * row)
        observer = Observer()
        adaptive = ordering_sampling(
            dominant, 2_000, rng=5, adaptive=True, observer=observer
        )
        assert observer.metrics.to_dict()["gauges"]["kernel.block_size"] \
            == 56.0
        assert adaptive.n_trials == 168
        assert result_to_dict(adaptive) == result_to_dict(
            ordering_sampling(
                dominant, 2_000, rng=5, block_size=56, adaptive=True
            )
        )

    def test_mc_vp_blocked(self, dominant):
        fixed = mc_vp(dominant, 1_024, rng=2, block_size=64)
        adaptive = mc_vp(
            dominant, 1_024, rng=2, block_size=64, adaptive=True
        )
        assert adaptive.n_trials < 1_024
        assert not adaptive.degraded
        assert _best_key(adaptive) == _best_key(fixed)
        assert adaptive.guarantee is not None

    def test_ols_optimized(self, dominant):
        """The certified guarantee states the ``mu`` the run was given
        (it used to state 0.05 whatever ``mu`` said)."""
        fixed = ordering_listing_sampling(
            dominant, 2_000, n_prepare=40, estimator="optimized", rng=9
        )
        adaptive = find_mpmb(
            dominant, method="ols", n_trials=2_000, n_prepare=40, rng=9,
            mu=0.2, adaptive=True,
        )
        assert adaptive.n_trials < 2_000
        assert not adaptive.degraded
        assert _best_key(adaptive) == _best_key(fixed)
        guarantee = adaptive.guarantee
        assert (guarantee.mu, guarantee.delta) == (0.2, 0.1)
        assert guarantee.realized_trials == adaptive.n_trials

    def test_pooled_os_merges_to_the_run_delta(self, dominant):
        """Each of two workers races its shard at ``δ/2``; the merged
        certified guarantee states the run's ``mu`` and ``delta``."""
        pooled = run_parallel_trials(
            dominant, 2_000, 2, method="os", rng=5, block_size=64,
            mu=0.2, delta=0.01, adaptive=True,
        )
        assert pooled.n_trials < 2_000
        assert not pooled.degraded
        assert pooled.stats["trials_saved"] > 0
        guarantee = pooled.guarantee
        assert (guarantee.mu, guarantee.delta) == (0.2, 0.01)
        assert guarantee.realized_trials == pooled.n_trials

    def test_ols_kl_prescreen_and_racing(self, dominant):
        fixed = ordering_listing_sampling(
            dominant, 0, n_prepare=40, estimator="karp-luby", rng=13
        )
        adaptive = ordering_listing_sampling(
            dominant, 0, n_prepare=40, estimator="karp-luby", rng=13,
            adaptive=True,
        )
        assert not adaptive.degraded
        assert _best_key(adaptive) == _best_key(fixed)
        assert adaptive.stats["trials_saved"] > 0
        assert adaptive.n_trials < fixed.n_trials
        guarantee = adaptive.guarantee
        assert guarantee is not None
        assert guarantee.realized_trials == adaptive.n_trials
        assert guarantee.eliminated >= 1

    def test_metrics_recorded(self, dominant):
        observer = Observer()
        ordering_sampling(
            dominant, 2_000, rng=5, adaptive=True,
            observer=observer,
        )
        snapshot = observer.metrics.to_dict()
        assert snapshot["counters"]["adaptive.trials_saved"] > 0
        assert snapshot["counters"]["adaptive.candidates_eliminated"] >= 1
        assert snapshot["gauges"]["adaptive.realized_epsilon"] > 0
        # Stats counters surface through the generic <method>.<stat> path.
        assert snapshot["counters"]["os.trials_saved"] > 0

    def test_prescreen_metrics_recorded(self, dominant, monkeypatch):
        """The pre-screen's eliminations reach the metrics, and it
        draws nothing from the run's generator."""
        generator = np.random.default_rng(13)
        screens = []
        prescreen = racing.prescreen_candidates

        def recording(candidates):
            before = generator.bit_generator.state
            report = prescreen(candidates)
            screens.append((report, before == generator.bit_generator.state))
            return report

        monkeypatch.setattr(racing, "prescreen_candidates", recording)
        observer = Observer()
        ordering_listing_sampling(
            dominant, 0, n_prepare=40, estimator="karp-luby",
            rng=generator, adaptive=True, observer=observer,
        )
        [(report, unchanged)] = screens
        assert unchanged
        assert report.eliminated
        counters = observer.metrics.to_dict()["counters"]
        assert counters["adaptive.candidates_eliminated"] >= len(
            report.eliminated
        )
        assert counters["adaptive.trials_saved"] > 0


class TestAdaptiveCheckpointResume:
    """Crash-and-resume must replay the racing decisions exactly."""

    def test_os_adaptive(self, dominant, tmp_path):
        baseline = result_to_dict(ordering_sampling(
            dominant, 2_000, rng=5, block_size=1, adaptive=True
        ))
        path = tmp_path / "os-adaptive.json"
        with pytest.raises(InjectedCrash):
            ordering_sampling(
                dominant, 2_000, rng=5, block_size=1, adaptive=True,
                runtime=RuntimePolicy(
                    checkpoint_path=path, checkpoint_every=10,
                    faults=FaultPlan(crash_before_trial=43),
                ),
            )
        resumed = ordering_sampling(
            dominant, 2_000, rng=5, block_size=1, adaptive=True,
            runtime=RuntimePolicy(
                checkpoint_path=path, checkpoint_every=10,
                resume_from=path,
            ),
        )
        assert result_to_dict(resumed) == baseline

    def test_ols_kl_adaptive(self, tmp_path):
        # A dense 3x3 graph lists several candidates with blocking mass
        # and close probabilities, so the race spans many rounds, and
        # the pre-screen drops none of them; small rounds (8-trial
        # blocks) so the crash lands mid-race with live interval state
        # in the checkpoint payload.
        edges = [
            (f"u{i}", f"v{j}", 1.0 + ((i + j) % 3), 0.5)
            for i in range(3) for j in range(3)
        ]
        dense = build_graph(edges, name="dense")
        baseline = result_to_dict(ordering_listing_sampling(
            dense, 200, n_prepare=30, estimator="karp-luby", rng=13,
            adaptive=True, block_size=8,
        ))
        path = tmp_path / "kl-adaptive.json"
        with pytest.raises(InjectedCrash):
            ordering_listing_sampling(
                dense, 200, n_prepare=30, estimator="karp-luby",
                rng=13, adaptive=True, block_size=8,
                runtime=RuntimePolicy(
                    checkpoint_path=path, checkpoint_every=1,
                    faults=FaultPlan(crash_before_trial=4),
                ),
            )
        resumed = ordering_listing_sampling(
            dense, 200, n_prepare=30, estimator="karp-luby", rng=13,
            adaptive=True, block_size=8,
            runtime=RuntimePolicy(
                checkpoint_path=path, checkpoint_every=1,
                resume_from=path,
            ),
        )
        payload = result_to_dict(resumed)
        # The resume marker is the only permitted divergence.
        assert payload["stats"].pop("resumed_candidates") == 1.0
        assert payload == baseline


class TestAdaptiveKarpLubyBlocks:
    """Adaptive OLS-KL hands each survivor one kernel block of
    ``block_size`` trials per round (it used to run 256-trial rounds
    whatever ``block_size`` said)."""

    def test_rounds_run_block_size_blocks(self, monkeypatch):
        edges = [
            (f"u{i}", f"v{j}", 1.0 + ((i + j) % 3), 0.5)
            for i in range(3) for j in range(3)
        ]
        dense = build_graph(edges, name="dense")
        lengths = []
        run_block = UnionBlockKernel.run_block

        def recording(kernel, count):
            lengths.append(count)
            return run_block(kernel, count)

        monkeypatch.setattr(UnionBlockKernel, "run_block", recording)
        observer = Observer()
        result = ordering_listing_sampling(
            dense, 0, n_prepare=30, estimator="karp-luby", rng=13,
            adaptive=True, block_size=8, observer=observer,
        )
        gauges = observer.metrics.to_dict()["gauges"]
        assert result.n_trials == sum(lengths) > 8
        assert max(lengths) == gauges["kernel.block_size"] == 8.0


#: Winners each replayed engine unit hands out.
REPLAY_UNIT = 100


class _ReplayLoop:
    """Minimal block loop replaying a fixed winner sequence,
    :data:`REPLAY_UNIT` winners per engine unit."""

    def __init__(self, winners, counts):
        self.winners = winners
        self.counts = counts

    def run_trial(self, unit):
        block = self.winners[(unit - 1) * REPLAY_UNIT:unit * REPLAY_UNIT]
        for winner in block:
            self.counts[winner] += 1

    def state_payload(self, completed):
        return {}

    def restore_state(self, payload):
        pass


def _scalar_limits(successes, trials, delta, check, arms):
    """One arm's limits by the per-arm Maurer-Pontil arithmetic the
    array core replaced, operation for operation: the check's share
    ``δ·6/(π²k²)`` split over the arms, the unbiased variance of 0/1
    observations (floored at 0, and 0 below two trials), the radius
    with range 1, and clamping to ``[0, 1]``."""
    basel = math.pi * math.pi / 6.0
    delta_arm = delta / (basel * check * check) / arms
    total = float(successes)
    mean = total / trials
    variance = 0.0
    if trials >= 2:
        variance = max(0.0, (total - trials * mean * mean) / (trials - 1))
    log_term = math.log(3.0 / delta_arm)
    radius = (
        math.sqrt(2.0 * variance * log_term / trials)
        + 3.0 * 1.0 * log_term / trials
    )
    return max(0.0, mean - radius), min(1.0, mean + radius)


@st.composite
def _core_inputs(draw):
    """Arms with successes in ``[0, t]`` over one shared trial count or
    one per arm, the ends 0, t and t = 1, 2 drawn explicitly."""
    trial_counts = st.sampled_from([1, 2]) | st.integers(1, 100_000)
    arms = draw(st.integers(1, 6))
    per_arm = draw(st.booleans())
    shared = draw(trial_counts)
    trials = [draw(trial_counts) if per_arm else shared for _ in range(arms)]
    successes = [
        draw(st.sampled_from([0, t]) | st.integers(0, t)) for t in trials
    ]
    return (
        successes,
        trials if per_arm else shared,
        trials,
        draw(st.floats(1e-9, 0.5)),
        draw(st.integers(1, 10_000)),
        arms + draw(st.integers(0, 50)),
    )


class TestEliminationSoundness:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100_000), arms=st.integers(2, 5))
    def test_covered_incumbent_never_dropped(self, seed, arms):
        """Whenever the intervals cover the true winner frequencies at
        the stopping check, the declared incumbent IS the true argmax —
        the certified-δ claim, conditioned on coverage so the property
        is deterministic rather than probabilistic."""
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(arms))
        winners = rng.choice(arms, size=1_500, p=probs)
        counts = [0] * arms
        delta = 0.05
        units = len(winners) // REPLAY_UNIT
        racer = RacingFrequencyLoop(
            _ReplayLoop(winners, counts), counts_fn=lambda: counts,
            delta=delta, mu=0.05, unit_lengths=[REPLAY_UNIT] * units,
            phantom=False,
        )
        for unit in range(1, units + 1):
            try:
                racer.run_trial(unit)
            except LoopInterrupt:
                break
        else:
            return  # never separated: nothing was eliminated
        done = racer.stopped_at
        lower, upper = bernstein_limits(
            counts, done, delta, done // REPLAY_UNIT, arms
        )
        if not np.all((lower <= probs) & (probs <= upper)):
            return  # probability <= delta; claim doesn't apply
        # The incumbent is the first arm of the largest lower limit.
        assert probs[np.argmax(lower)] == probs.max()

    @settings(max_examples=25, deadline=None)
    @given(
        count=st.integers(0, 500),
        total=st.integers(1, 500),
        delta=st.floats(1e-6, 0.5),
        check=st.integers(1, 1_000),
        arms=st.integers(1, 100),
    )
    def test_interval_well_formed(self, count, total, delta, check, arms):
        count = min(count, total)
        [lower], [upper] = bernstein_limits(
            [count], total, delta, check, arms
        )
        assert 0.0 <= lower <= count / total <= upper <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(inputs=_core_inputs())
    def test_core_matches_scalar_formula(self, inputs):
        """Both racers' stop and elimination decisions read these
        limits, so the core must reproduce the per-arm formula exactly,
        not approximately."""
        successes, trials, per_arm, delta, check, arms = inputs
        lower, upper = bernstein_limits(successes, trials, delta, check, arms)
        expected = [
            _scalar_limits(s, t, delta, check, arms)
            for s, t in zip(successes, per_arm)
        ]
        assert lower.dtype == upper.dtype == np.float64
        assert lower.tolist() == [low for low, _ in expected]
        assert upper.tolist() == [high for _, high in expected]

    def test_core_rejects_empty_split(self):
        for check, arms in ((0, 1), (1, 0)):
            with pytest.raises(ConfigurationError, match=">= 1"):
                bernstein_limits([1], 2, 0.1, check, arms)


class TestPrescreenAgainstExact:
    """The pre-screen is a deterministic function of ``C_MB``, so the
    exact candidate-relative ``P(B_j) = E_j·(1 − Pr[∪ E(B_i \\ B_j)])``
    (heavier ``B_i``) pins it: every lower bound lies below ``P(B_j)``,
    which lies below ``E_j``, and no eliminated candidate reaches the
    best ``P``."""

    def test_bounds_and_eliminations_hold(self):
        sets = eliminated = 0
        for seed in range(300):
            graph = random_small_graph(np.random.default_rng(seed))

            def prob_of(edge):
                return float(graph.probs[edge])

            for candidates in (
                CandidateSet(graph, backbone_butterflies(graph)),
                prepare_candidates(graph, 20, rng=seed),
            ):
                m = len(candidates)
                if m < 2:
                    continue
                existence = [
                    candidates.existence_probability(j) for j in range(m)
                ]
                exact = [
                    existence[j] * (1.0 - exact_union_probability(
                        candidates.difference_events(j), prob_of
                    ))
                    for j in range(m)
                ]
                report = prescreen_candidates(candidates)
                for j in range(m):
                    assert report.lower_bounds[j] <= exact[j] + 1e-12
                    assert exact[j] <= existence[j] + 1e-12
                for j in report.eliminated:
                    assert exact[j] < max(exact), (seed, j)
                sets += 1
                eliminated += len(report.eliminated)
        assert sets >= 100 and eliminated >= 200


class TestBugfixRegressions:
    def test_preparing_trials_floor_at_one(self):
        # Denormal recall underflows log(1 - r) to exactly 0.0; the
        # pre-fix code then reported a zero-trial preparing phase.
        assert preparing_trials_for_recall(0.5, 1e-300) == 1
        assert preparing_trials_for_recall(0.05, 0.994) >= 99

    def test_trial_bound_cap(self):
        with pytest.raises(ConfigurationError, match="cap"):
            monte_carlo_trial_bound(1e-12, 1e-6, 0.1)
        assert monte_carlo_trial_bound(0.05, 0.1, 0.1) <= MAX_TRIAL_BOUND

    def test_trial_bound_cap_reaches_cli_as_exit_2(self, tmp_path, capsys):
        graph_file = str(tmp_path / "g.tsv")
        save_graph(build_graph(FIGURE_1_EDGES, name="g"), graph_file)
        code = cli.main([
            "search", graph_file, "--method", "ols-kl", "--trials", "0",
            "--mu", "1e-12", "--epsilon", "1e-6",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cap" in err

    def test_trial_bound_cap_rejected_at_service_admission(self):
        with pytest.raises(ConfigurationError, match="cap"):
            QueryRequest(
                dataset="abide", method="os", trials=None,
                mu=1e-12, epsilon=1e-6, delta=0.1,
            )

    def test_cache_key_includes_mode(self):
        fixed = QueryRequest(dataset="abide", method="os", trials=40)
        adaptive = QueryRequest(
            dataset="abide", method="os", trials=40, mode="adaptive"
        )
        assert fixed.canonical_params() != adaptive.canonical_params()
        # Every guarantee states the target, so it is identity too, in
        # every mode.
        loose = QueryRequest(
            dataset="abide", method="os", trials=40, mode="adaptive",
            delta=None, mu=0.1,
        )
        assert loose.canonical_params() != adaptive.canonical_params()
        assert QueryRequest(
            dataset="abide", method="os", trials=40, mu=0.1
        ).canonical_params() != fixed.canonical_params()

    def test_mode_validation(self):
        with pytest.raises(ConfigurationError, match="mode"):
            QueryRequest(dataset="abide", method="os", trials=40,
                         mode="turbo")
        with pytest.raises(ConfigurationError, match="adaptive"):
            QueryRequest(dataset="abide", method="exact-worlds",
                         mode="adaptive")

    def test_guarantee_payload_round_trip(self):
        plain = Guarantee(
            mu=0.05, epsilon=0.1, delta=0.1,
            achieved_trials=10, target_trials=20,
        )
        payload = plain.to_dict()
        assert "realized_trials" not in payload
        assert "eliminated" not in payload
        assert Guarantee.from_dict(payload) == plain

        realised = Guarantee(
            mu=0.05, epsilon=0.02, delta=0.1,
            achieved_trials=10, target_trials=20,
            realized_trials=10, eliminated=3,
        )
        round_tripped = Guarantee.from_dict(realised.to_dict())
        assert round_tripped == realised
        assert round_tripped.realized_trials == 10
        assert round_tripped.eliminated == 3


class TestServiceAdaptiveMode:
    @pytest.fixture()
    def broker(self):
        registry = GraphRegistry(["abide"])
        registry.load_all()
        return QueryBroker(registry, sleep=lambda _: None)

    def test_adaptive_request_flows_and_misses_fixed_cache(self, broker):
        fixed = broker.handle(QueryRequest(
            dataset="abide", method="os", trials=40, seed=7
        ))
        assert fixed.status == "ok"
        adaptive = broker.handle(QueryRequest(
            dataset="abide", method="os", trials=40, seed=7,
            mode="adaptive",
        ))
        assert adaptive.status == "ok"
        assert not adaptive.cache_hit  # the mode is part of the key
        assert adaptive.ranking == fixed.ranking  # 40 trials never check
