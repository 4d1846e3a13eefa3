"""Anytime adaptive mode: bit-identity off, racing stops, pre-screen,
checkpoint/resume exactness, and the guarantee-math bugfix regressions.

The contract under test (``docs/performance.md`` / ``docs/runtime.md``):

* ``adaptive=None``/``False`` is inert — every method is bit-identical
  to the fixed-budget path, result document included;
* with the racing rule on, an early stop is *certified*: not degraded,
  same argmax as the fixed run, realised guarantee attached, savings in
  the stats and ``adaptive.*`` metrics;
* the racer's survivor/interval state rides the engine checkpoint, so
  kill-and-resume reproduces a continuous adaptive run exactly;
* eliminations are sound: whenever the intervals cover the truth, the
  true incumbent is never eliminated (hypothesis property).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.__main__ as cli
from repro import FaultPlan, RuntimePolicy
from repro.adaptive import (
    AdaptiveConfig,
    EBInterval,
    RacingFrequencyLoop,
    anytime_delta,
    resolve_adaptive,
    split_delta,
)
from repro.adaptive.prescreen import _pair_slots
from repro.butterfly.bfc_vp import count_butterflies
from repro.core import (
    find_mpmb,
    mc_vp,
    ordering_listing_sampling,
    ordering_sampling,
    reference_search,
    result_to_dict,
)
from repro.core.bounds import preparing_trials_for_recall
from repro.datasets.synthetic import random_bipartite
from repro.errors import ConfigurationError
from repro.graph import save_graph
from repro.kernels import UnionBlockKernel, memory
from repro.kernels.memory import kernel_row_bytes
from repro.kernels.wedge_block import build_wedge_index
from repro.observability import Observer
from repro.runtime import InjectedCrash
from repro.runtime.degradation import Guarantee
from repro.runtime.engine import LoopInterrupt
from repro.sampling.bounds import MAX_TRIAL_BOUND, monte_carlo_trial_bound
from repro.service import GraphRegistry, QueryBroker, QueryRequest

from .conftest import FIGURE_1_EDGES, build_graph

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

#: Racing knobs sized for the small test graphs.
FAST_RACE = {"check_every": 64, "min_trials": 64}


@pytest.fixture
def graph():
    return build_graph(FIGURE_1_EDGES, name="figure-1")


@pytest.fixture
def dominant():
    return build_graph(DOMINANT_EDGES, name="dominant")


def _best_key(result):
    return result.best.key


class TestAdaptiveOffBitIdentical:
    """``adaptive=None``/``False`` must be a no-op on every method."""

    def test_mc_vp(self, graph):
        baseline = result_to_dict(mc_vp(graph, 40, rng=7))
        assert result_to_dict(mc_vp(graph, 40, rng=7, adaptive=None)) \
            == baseline
        assert result_to_dict(mc_vp(graph, 40, rng=7, adaptive=False)) \
            == baseline

    def test_os_scalar_and_blocked(self, graph):
        baseline = result_to_dict(reference_search(graph, "os", 40, rng=3))
        assert result_to_dict(
            reference_search(graph, "os", 40, rng=3, adaptive=False)
        ) == baseline
        blocked = result_to_dict(
            ordering_sampling(graph, 40, rng=3, block_size=16)
        )
        assert result_to_dict(
            ordering_sampling(
                graph, 40, rng=3, block_size=16, adaptive=None
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
        """40 trials never reach the default ``min_trials=64`` boundary,
        so an adaptive-on run must produce the fixed run's document."""
        baseline = result_to_dict(ordering_sampling(graph, 40, rng=3))
        assert result_to_dict(
            ordering_sampling(graph, 40, rng=3, adaptive=True)
        ) == baseline

    def test_find_mpmb_rejects_adaptive_on_exact_methods(self, graph):
        with pytest.raises(ConfigurationError, match="adaptive"):
            find_mpmb(graph, method="exact-worlds", adaptive=True)

    def test_resolve_adaptive_forms(self):
        assert resolve_adaptive(None) is None
        assert resolve_adaptive(False) is None
        assert resolve_adaptive(True) == AdaptiveConfig()
        config = resolve_adaptive({"delta": 0.05, "check_every": 32})
        assert config.delta == 0.05 and config.check_every == 32
        assert resolve_adaptive(config) is config
        with pytest.raises(ConfigurationError):
            resolve_adaptive("yes")
        with pytest.raises(ConfigurationError):
            resolve_adaptive({"delta": 2.0})


class TestCertifiedRacingStops:
    """Dominant-winner runs must stop early, certified, same argmax."""

    @pytest.mark.parametrize("block_size", [None, 64])
    def test_os(self, dominant, block_size):
        fixed = ordering_sampling(
            dominant, 2_000, rng=5, block_size=block_size
        )
        adaptive = ordering_sampling(
            dominant, 2_000, rng=5, block_size=block_size,
            adaptive=FAST_RACE,
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
        rule runs at every block boundary, not every ``check_every``
        trials.  With the bytes budget capping the default 256-trial
        block to 56, the run stops after block 3 (168 trials) — where
        ``block_size=56`` stops — while the reference, checking every
        64 trials, stops at 128."""
        index = build_wedge_index(dominant)
        row = kernel_row_bytes(
            dominant.n_edges, index.n_wedges, index.n_groups
        )
        monkeypatch.setattr(memory, "DEFAULT_BYTES_BUDGET", 56 * row)
        observer = Observer()
        adaptive = ordering_sampling(
            dominant, 2_000, rng=5, adaptive=FAST_RACE, observer=observer
        )
        assert observer.metrics.to_dict()["gauges"]["kernel.block_size"] \
            == 56.0
        assert adaptive.n_trials == 168
        assert result_to_dict(adaptive) == result_to_dict(
            ordering_sampling(
                dominant, 2_000, rng=5, block_size=56, adaptive=FAST_RACE
            )
        )
        assert reference_search(
            dominant, "os", 2_000, rng=5, adaptive=FAST_RACE
        ).n_trials == 128

    def test_mc_vp_blocked(self, dominant):
        fixed = mc_vp(dominant, 1_024, rng=2, block_size=64)
        adaptive = mc_vp(
            dominant, 1_024, rng=2, block_size=64, adaptive=FAST_RACE
        )
        assert adaptive.n_trials < 1_024
        assert not adaptive.degraded
        assert _best_key(adaptive) == _best_key(fixed)
        assert adaptive.guarantee is not None

    def test_ols_optimized(self, dominant):
        fixed = ordering_listing_sampling(
            dominant, 2_000, n_prepare=40, estimator="optimized", rng=9
        )
        adaptive = ordering_listing_sampling(
            dominant, 2_000, n_prepare=40, estimator="optimized", rng=9,
            adaptive=FAST_RACE,
        )
        assert adaptive.n_trials < 2_000
        assert not adaptive.degraded
        assert _best_key(adaptive) == _best_key(fixed)
        assert adaptive.guarantee is not None

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
            dominant, 2_000, rng=5, adaptive=FAST_RACE,
            observer=observer,
        )
        snapshot = observer.metrics.to_dict()
        assert snapshot["counters"]["adaptive.trials_saved"] > 0
        assert snapshot["counters"]["adaptive.candidates_eliminated"] >= 1
        assert snapshot["gauges"]["adaptive.realized_epsilon"] > 0
        # Stats counters surface through the generic <method>.<stat> path.
        assert snapshot["counters"]["os.trials_saved"] > 0

    def test_prescreen_metrics_recorded(self, dominant):
        observer = Observer()
        ordering_listing_sampling(
            dominant, 0, n_prepare=40, estimator="karp-luby", rng=13,
            adaptive=True, observer=observer,
        )
        snapshot = observer.metrics.to_dict()
        assert snapshot["counters"]["adaptive.prescreen.samples"] > 0
        assert snapshot["counters"]["adaptive.trials_saved"] > 0


class TestAdaptiveCheckpointResume:
    """Crash-and-resume must replay the racing decisions exactly."""

    def test_os_adaptive(self, dominant, tmp_path):
        baseline = result_to_dict(ordering_sampling(
            dominant, 2_000, rng=5, block_size=1, adaptive=FAST_RACE
        ))
        path = tmp_path / "os-adaptive.json"
        with pytest.raises(InjectedCrash):
            ordering_sampling(
                dominant, 2_000, rng=5, block_size=1, adaptive=FAST_RACE,
                runtime=RuntimePolicy(
                    checkpoint_path=path, checkpoint_every=10,
                    faults=FaultPlan(crash_before_trial=43),
                ),
            )
        resumed = ordering_sampling(
            dominant, 2_000, rng=5, block_size=1, adaptive=FAST_RACE,
            runtime=RuntimePolicy(
                checkpoint_path=path, checkpoint_every=10,
                resume_from=path,
            ),
        )
        assert result_to_dict(resumed) == baseline

    def test_ols_kl_adaptive(self, tmp_path):
        # A dense 3x3 graph lists several candidates with blocking mass
        # and close probabilities, so the race spans many rounds; small
        # rounds (8-trial blocks) and no pre-screen so the crash lands
        # mid-race with live interval state in the checkpoint payload.
        edges = [
            (f"u{i}", f"v{j}", 1.0 + ((i + j) % 3), 0.5)
            for i in range(3) for j in range(3)
        ]
        dense = build_graph(edges, name="dense")
        knobs = {"prescreen": False}
        baseline = result_to_dict(ordering_listing_sampling(
            dense, 200, n_prepare=30, estimator="karp-luby", rng=13,
            adaptive=knobs, block_size=8,
        ))
        path = tmp_path / "kl-adaptive.json"
        with pytest.raises(InjectedCrash):
            ordering_listing_sampling(
                dense, 200, n_prepare=30, estimator="karp-luby",
                rng=13, adaptive=knobs, block_size=8,
                runtime=RuntimePolicy(
                    checkpoint_path=path, checkpoint_every=1,
                    faults=FaultPlan(crash_before_trial=4),
                ),
            )
        resumed = ordering_listing_sampling(
            dense, 200, n_prepare=30, estimator="karp-luby", rng=13,
            adaptive=knobs, block_size=8,
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
            adaptive={"prescreen": False}, block_size=8,
            observer=observer,
        )
        gauges = observer.metrics.to_dict()["gauges"]
        assert result.n_trials == sum(lengths) > 8
        assert max(lengths) == gauges["kernel.block_size"] == 8.0


class _ReplayLoop:
    """Minimal engine loop replaying a fixed winner sequence."""

    def __init__(self, winners, counts):
        self.winners = winners
        self.counts = counts

    def run_trial(self, trial):
        self.counts[self.winners[trial - 1]] += 1

    def state_payload(self, completed):
        return {}

    def restore_state(self, payload):
        pass


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
        config = AdaptiveConfig(check_every=100, min_trials=100)
        racer = RacingFrequencyLoop(
            _ReplayLoop(winners, counts), counts_fn=lambda: counts,
            config=config, delta=delta, mu=0.05, phantom=False,
        )
        for trial in range(1, len(winners) + 1):
            try:
                racer.run_trial(trial)
            except LoopInterrupt:
                break
        else:
            return  # never separated: nothing was eliminated
        done = racer.stopped_at
        check = done // config.check_every
        delta_arm = split_delta(anytime_delta(delta, check), arms)
        intervals = [
            EBInterval(1.0, done, float(c), float(c)) for c in counts
        ]
        covered = all(
            interval.lower(delta_arm) <= p <= interval.upper(delta_arm)
            for interval, p in zip(intervals, probs)
        )
        if not covered:  # probability <= delta; claim doesn't apply
            return
        best = max(
            range(arms),
            key=lambda i: (intervals[i].lower(delta_arm), -i),
        )
        assert probs[best] == probs.max()

    @settings(max_examples=25, deadline=None)
    @given(
        count=st.integers(0, 500),
        total=st.integers(1, 500),
        delta=st.floats(1e-6, 0.5),
    )
    def test_interval_well_formed(self, count, total, delta):
        count = min(count, total)
        interval = EBInterval(1.0, total, float(count), float(count))
        lower, upper = interval.lower(delta), interval.upper(delta)
        assert 0.0 <= lower <= interval.mean <= upper <= 1.0


class TestPrescreenPairDraw:
    """The pre-screen numbers every same-group wedge pair of the scan
    layout once, and those pairs are the graph's butterflies: a uniform
    draw over the numbers is a uniform draw over butterflies, which is
    what keeps the heavier-mass estimator unbiased."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_left=st.integers(2, 8),
        n_right=st.integers(2, 8),
        density=st.floats(0.3, 1.0),
    )
    def test_numbers_every_butterfly_once(
        self, seed, n_left, n_right, density
    ):
        graph = random_bipartite(
            n_left, n_right, max(1, int(density * n_left * n_right)),
            rng=seed,
        )
        index = build_wedge_index(graph)
        starts = index.scan_start.tolist()
        expected = sorted(
            (a, b)
            for lo, hi in zip(starts, starts[1:])
            for a in range(lo, hi)
            for b in range(a + 1, hi)
        )
        assert len(expected) == count_butterflies(graph)
        first, second = _pair_slots(
            index, np.arange(len(expected), dtype=np.int64)
        )
        assert sorted(zip(first.tolist(), second.tolist())) == expected


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
        # The anytime knobs shape the stop rule, so they are identity
        # too — but only in adaptive mode.
        loose = QueryRequest(
            dataset="abide", method="os", trials=40, mode="adaptive",
            delta=None, mu=0.1,
        )
        assert loose.canonical_params() != adaptive.canonical_params()
        assert QueryRequest(
            dataset="abide", method="os", trials=40, mu=0.1
        ).canonical_params() == fixed.canonical_params()

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
