"""Command-line MPMB search.

Usage::

    # On a graph file (TSV format, see repro.graph.io):
    python -m repro search graph.tsv --method ols --trials 20000 --top 5

    # On a bundled dataset stand-in:
    python -m repro search --dataset movielens --profile bench --top 10

    # Observability: metrics JSON, phase-trace summary, cProfile dump
    # ("search" and a default dataset are implied when flags lead):
    python -m repro --method ols --metrics-out m.json --trace

    # Dataset statistics (the Table III columns):
    python -m repro stats --dataset abide
    python -m repro stats graph.tsv
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import List, Optional

from .core import find_mpmb
from .core.mpmb import METHODS
from .errors import CheckpointError, ConfigurationError
from .core.results import MPMBResult
from .datasets import dataset_names, load_dataset
from .experiments.report import format_seconds, format_table
from .graph import UncertainBipartiteGraph, compute_stats, load_graph
from .observability import Observer, ensure_observer
from .observability.profiling import maybe_cprofile
from .runtime import POOLABLE_METHODS, RuntimePolicy, run_parallel_trials

#: Dataset generated when a command is given no graph source at all.
DEFAULT_DATASET = "abide"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Most Probable Maximum Weighted Butterfly search.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    search = commands.add_parser(
        "search", help="find the top-k MPMBs of a graph"
    )
    _add_source_arguments(search)
    search.add_argument(
        "--method", default="ols", choices=METHODS,
        help="MPMB method (default: ols)",
    )
    search.add_argument(
        "--trials", type=int, default=20_000,
        help="sampling trials (default: 20000, the paper setting)",
    )
    search.add_argument(
        "--prepare", type=int, default=100,
        help="preparing trials for OLS variants (default: 100)",
    )
    search.add_argument(
        "--adaptive", action="store_true",
        help="anytime adaptive allocation: race candidates with "
             "empirical-Bernstein intervals and stop early once the "
             "winner is certified (sampling methods only; the realised "
             "epsilon is reported in place of the worst-case target; "
             "see docs/performance.md)",
    )
    search.add_argument(
        "--mu", type=float, default=0.05, metavar="MU",
        help="smallest probability the epsilon-delta guarantee covers "
             "(default: 0.05; sizes ols-kl dynamic budgets and scales "
             "the adaptive stop rule)",
    )
    search.add_argument(
        "--epsilon", type=float, default=0.1, metavar="EPS",
        help="relative error target for ols-kl dynamic sizing "
             "(default: 0.1)",
    )
    search.add_argument(
        "--delta", type=float, default=0.1, metavar="DELTA",
        help="failure probability of the guarantee (default: 0.1; "
             "also the adaptive mode's total failure budget)",
    )
    search.add_argument(
        "--block-size", type=int, default=None, metavar="N",
        help="trials per batched-kernel call (sampling methods only; "
             "default: 256-trial blocks; see docs/performance.md)",
    )
    search.add_argument(
        "--top", type=int, default=1, help="how many MPMBs to report"
    )
    search.add_argument("--seed", type=int, default=None, help="RNG seed")
    search.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="periodically snapshot the trial loop to PATH (atomic JSON)",
    )
    search.add_argument(
        "--checkpoint-every", type=int, default=1000, metavar="N",
        help="trials between checkpoint snapshots; blocked runs snapshot "
             "at the first block boundary past each multiple "
             "(default: 1000)",
    )
    search.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume the trial loop from a checkpoint written by "
             "--checkpoint (bit-identical to an uninterrupted run)",
    )
    search.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; on expiry the partial result is "
             "reported as degraded with a re-widened guarantee",
    )
    search.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fault-tolerant parallel worker processes (poolable "
             "methods only; default: 1 = in-process)",
    )
    search.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics and phase spans to PATH as JSON "
             "(schema: docs/observability.md)",
    )
    search.add_argument(
        "--trace", action="store_true",
        help="print the phase-span tree and metric table after the run",
    )
    search.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="profile the search with cProfile and write the pstats "
             "report to PATH (opt-in: profiling distorts timings)",
    )

    stats = commands.add_parser(
        "stats", help="print dataset statistics (Table III columns)"
    )
    _add_source_arguments(stats)

    serve = commands.add_parser(
        "serve",
        help="run the fault-tolerant MPMB query service "
             "(docs/service.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port", type=int, default=8642,
        help="bind port (0 = ephemeral; default: 8642)",
    )
    serve.add_argument(
        "--datasets", nargs="+", default=None, metavar="NAME",
        choices=dataset_names(),
        help="datasets to load and serve (default: all registered)",
    )
    serve.add_argument(
        "--profile", default="bench", choices=("bench", "paper"),
        help="dataset profile served by the registry",
    )
    serve.add_argument(
        "--dataset-seed", type=int, default=0,
        help="generation seed for every served dataset",
    )
    serve.add_argument(
        "--rate", type=float, default=50.0,
        help="sustained admissions per second (token-bucket refill)",
    )
    serve.add_argument(
        "--burst", type=float, default=10.0,
        help="instantaneous admission burst capacity",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=4,
        help="simultaneous requests executing (bounded queue)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=128,
        help="LRU result-cache capacity (0 disables caching)",
    )
    serve.add_argument(
        "--backbone-k", type=int, default=8,
        help="top-weight butterflies kept warm per graph",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive failures that open a dataset's breaker",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0,
        help="seconds an open breaker waits before half-opening",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log each HTTP request to stderr",
    )
    return parser


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "graph", nargs="?", default=None,
        help="path to a graph TSV (omit when using --dataset)",
    )
    parser.add_argument(
        "--dataset", default=None, choices=dataset_names(),
        help="bundled dataset stand-in to generate instead of a file",
    )
    parser.add_argument(
        "--profile", default="bench", choices=("bench", "paper"),
        help="dataset profile when --dataset is used",
    )
    parser.add_argument(
        "--dataset-seed", type=int, default=0,
        help="generation seed when --dataset is used",
    )


def _load(args: argparse.Namespace) -> UncertainBipartiteGraph:
    if args.graph is not None and args.dataset is not None:
        raise SystemExit(
            "provide exactly one graph source: a TSV path or --dataset"
        )
    if args.graph is not None:
        return load_graph(args.graph)
    dataset = args.dataset
    if dataset is None:
        dataset = DEFAULT_DATASET
        print(
            f"no graph source given; defaulting to --dataset {dataset} "
            f"--profile {args.profile}",
            file=sys.stderr,
        )
    return load_dataset(dataset, args.profile, rng=args.dataset_seed)


def _validate_search(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject invalid search options upfront with a clear exit-2 error."""
    exact = args.method.startswith("exact-")
    if args.trials < 0 or (
        args.trials == 0 and args.method != "ols-kl" and not exact
    ):
        parser.error(
            f"--trials must be at least 1 for method {args.method!r} "
            f"(got {args.trials}); only ols-kl accepts 0 for dynamic "
            "Lemma VI.4 sizing"
        )
    if args.prepare <= 0:
        parser.error(f"--prepare must be at least 1 (got {args.prepare})")
    if args.top <= 0:
        parser.error(f"--top must be at least 1 (got {args.top})")
    if args.timeout is not None and args.timeout <= 0:
        parser.error(f"--timeout must be positive (got {args.timeout})")
    if args.checkpoint_every <= 0:
        parser.error(
            f"--checkpoint-every must be at least 1 "
            f"(got {args.checkpoint_every})"
        )
    if args.workers <= 0:
        parser.error(f"--workers must be at least 1 (got {args.workers})")
    if args.block_size is not None and args.block_size <= 0:
        parser.error(
            f"--block-size must be at least 1 (got {args.block_size})"
        )
    if exact and (
        args.checkpoint or args.resume or args.timeout is not None
        or args.workers > 1
    ):
        parser.error(
            f"--checkpoint/--resume/--timeout/--workers do not apply to "
            f"the exact method {args.method!r}"
        )
    if exact and args.block_size is not None:
        parser.error(
            f"--block-size does not apply to the exact method "
            f"{args.method!r}"
        )
    if exact and args.adaptive:
        parser.error(
            f"--adaptive does not apply to the exact method "
            f"{args.method!r}"
        )
    if not 0.0 < args.mu <= 1.0:
        parser.error(f"--mu must be in (0, 1] (got {args.mu})")
    if args.epsilon <= 0.0:
        parser.error(f"--epsilon must be positive (got {args.epsilon})")
    if not 0.0 < args.delta < 1.0:
        parser.error(f"--delta must be in (0, 1) (got {args.delta})")
    if args.workers > 1:
        if args.method not in POOLABLE_METHODS:
            parser.error(
                f"--workers requires a poolable method "
                f"({', '.join(POOLABLE_METHODS)}); {args.method!r} "
                "results cannot be pooled by trial-weighted averaging"
            )
        if args.checkpoint or args.resume:
            parser.error(
                "--checkpoint/--resume cannot be combined with "
                "--workers > 1; checkpointing covers the in-process loop"
            )


def _search_policy(args: argparse.Namespace) -> Optional[RuntimePolicy]:
    if (
        args.checkpoint is None
        and args.resume is None
        and args.timeout is None
    ):
        return None
    return RuntimePolicy(
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume,
        timeout_seconds=args.timeout,
    )


def _build_observer(args: argparse.Namespace) -> Optional[Observer]:
    """A live observer when any observability flag asked for one."""
    if args.metrics_out or args.trace or args.profile_out:
        return Observer()
    return None


def _run_search(args: argparse.Namespace) -> int:
    observer = ensure_observer(_build_observer(args))
    with observer.span("graph-load"):
        graph = _load(args)
    print(f"Graph: {graph!r}")
    start = time.perf_counter()
    with maybe_cprofile(args.profile_out is not None) as profile:
        shared = {}
        if args.adaptive:
            # --delta is the anytime mode's total failure budget, for
            # every method (it also keeps sizing ols-kl's static caps).
            shared["adaptive"] = {"delta": args.delta}
        if args.method in ("ols", "ols-kl"):
            shared.update(
                mu=args.mu, epsilon=args.epsilon, delta=args.delta
            )
        if args.workers > 1:
            result = run_parallel_trials(
                graph, args.trials, args.workers, method=args.method,
                rng=args.seed, n_prepare=args.prepare,
                block_size=args.block_size,
                observer=observer if observer.enabled else None,
                **shared,
            )
        else:
            policy = _search_policy(args)
            kwargs = {} if policy is None else {"runtime": policy}
            if args.block_size is not None:
                kwargs["block_size"] = args.block_size
            result = find_mpmb(
                graph, method=args.method, n_trials=args.trials,
                n_prepare=args.prepare, rng=args.seed,
                observer=observer if observer.enabled else None,
                **shared, **kwargs,
            )
    elapsed = time.perf_counter() - start
    _write_observability_outputs(args, observer, profile, result)
    if result.degraded:
        _print_degraded_notice(result)
    if result.best is None:
        print("No butterfly observed in any sampled world.")
        return 130 if result.degraded_reason == "interrupted" else 1
    rows = [
        [rank, str(labels), f"{weight:g}", f"{probability:.5f}"]
        for rank, (labels, weight, probability) in enumerate(
            result.labelled_ranking(args.top), start=1
        )
    ]
    print(format_table(
        ["rank", "butterfly (u1, u2, v1, v2)", "weight", "P(B)"],
        rows,
        title=(
            f"Top-{args.top} MPMB via {result.method} "
            f"({result.n_trials} trials, {format_seconds(elapsed)})"
        ),
    ))
    return 130 if result.degraded_reason == "interrupted" else 0


def _write_observability_outputs(
    args: argparse.Namespace,
    observer: Observer,
    profile,
    result: MPMBResult,
) -> None:
    """Emit --metrics-out / --trace / --profile-out artefacts."""
    if not observer.enabled:
        return
    if args.metrics_out:
        document = observer.export_document(
            method=result.method, graph_name=result.graph.name
        )
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"Metrics written to {args.metrics_out}", file=sys.stderr)
    if args.trace:
        print(observer.summary())
    if args.profile_out:
        with open(args.profile_out, "w", encoding="utf-8") as handle:
            handle.write(profile.report)
        print(f"Profile written to {args.profile_out}", file=sys.stderr)


def _print_degraded_notice(result: MPMBResult) -> None:
    """Explain a partial result before ranking it."""
    reasons = {
        "deadline": "the wall-clock budget expired",
        "interrupted": "the run was interrupted",
        "workers-dropped": "some workers failed permanently",
    }
    why = reasons.get(result.degraded_reason, result.degraded_reason)
    target = (
        f" of {result.target_trials} planned"
        if result.target_trials is not None
        else ""
    )
    print(
        f"DEGRADED result: {why}; estimates cover "
        f"{result.n_trials} trials{target}."
    )
    if result.guarantee is not None:
        print(f"Re-widened guarantee: {result.guarantee}")


def _run_stats(args: argparse.Namespace) -> int:
    graph = _load(args)
    stats = compute_stats(graph)
    rows = [
        ["name", stats.name],
        ["|E|", stats.n_edges],
        ["|L|", stats.n_left],
        ["|R|", stats.n_right],
        ["mean weight", f"{stats.mean_weight:.4f}"],
        ["mean probability", f"{stats.mean_prob:.4f}"],
        ["max degree (L / R)",
         f"{stats.max_degree_left} / {stats.max_degree_right}"],
        ["OS per-trial cost proxy (Lemma V.1)",
         f"{stats.os_cost_proxy:.1f}"],
        ["MC-VP per-trial cost proxy (Lemma IV.1)",
         f"{stats.mcvp_cost_proxy:.1f}"],
    ]
    print(format_table(["statistic", "value"], rows))
    return 0


#: Set by the SIGTERM handler so exit codes distinguish a termination
#: request (143 = 128+SIGTERM) from Ctrl-C (130 = 128+SIGINT).  Both
#: ride the same KeyboardInterrupt path through the engine, so SIGTERM
#: gets the exact partial-result + re-widened-guarantee treatment that
#: SIGINT already has.
_SIGTERM_RECEIVED = False


def _handle_sigterm(signum, frame) -> None:
    """Module-level SIGTERM handler: reuse the graceful SIGINT path."""
    global _SIGTERM_RECEIVED
    _SIGTERM_RECEIVED = True
    raise KeyboardInterrupt()


def _install_sigterm_handler() -> None:
    global _SIGTERM_RECEIVED
    _SIGTERM_RECEIVED = False
    try:
        signal.signal(signal.SIGTERM, _handle_sigterm)
    except ValueError:
        # signal.signal only works on the main thread; embedded callers
        # (e.g. test runners driving main() from a worker thread) keep
        # the SIGINT-only behaviour.
        pass


def _exit_code(code: int) -> int:
    """Remap the interrupt exit code when the interrupt was a SIGTERM."""
    if code == 130 and _SIGTERM_RECEIVED:
        return 143
    return code


def _run_serve(args: argparse.Namespace) -> int:
    from .service import (
        AdmissionController,
        BreakerBoard,
        GraphRegistry,
        QueryBroker,
        ResultCache,
    )
    from .service.http import make_server

    observer = Observer()
    datasets = args.datasets or dataset_names()
    registry = GraphRegistry(
        datasets, profile=args.profile, dataset_seed=args.dataset_seed,
        backbone_k=args.backbone_k, observer=observer,
    )
    print(f"loading {len(datasets)} dataset(s)...", file=sys.stderr)
    registry.load_all()
    for row in registry.describe():
        print(
            f"  {row['dataset']}: {row['status']} "
            f"(v{row['version']}, {row['n_edges']} edges, "
            f"{row['load_seconds']:.2f}s)",
            file=sys.stderr,
        )
    broker = QueryBroker(
        registry,
        admission=AdmissionController(
            rate=args.rate, burst=args.burst,
            max_inflight=args.max_inflight,
        ),
        breakers=BreakerBoard(
            failure_threshold=args.breaker_threshold,
            cooldown_seconds=args.breaker_cooldown,
        ),
        cache=ResultCache(args.cache_size),
        observer=observer,
    )
    server = make_server(
        broker, host=args.host, port=args.port, verbose=args.verbose
    )
    host, port = server.server_address[:2]
    print(
        f"serving on http://{host}:{port} "
        f"(POST /query, GET /healthz /readyz /metrics)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
    return 0


def _validate_serve(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    if args.port < 0 or args.port > 65535:
        parser.error(f"--port must be in [0, 65535] (got {args.port})")
    if args.rate <= 0:
        parser.error(f"--rate must be positive (got {args.rate})")
    if args.burst < 1:
        parser.error(f"--burst must be at least 1 (got {args.burst})")
    if args.max_inflight <= 0:
        parser.error(
            f"--max-inflight must be at least 1 (got {args.max_inflight})"
        )
    if args.cache_size < 0:
        parser.error(
            f"--cache-size must be non-negative (got {args.cache_size})"
        )
    if args.backbone_k <= 0:
        parser.error(
            f"--backbone-k must be at least 1 (got {args.backbone_k})"
        )
    if args.breaker_threshold <= 0:
        parser.error(
            f"--breaker-threshold must be at least 1 "
            f"(got {args.breaker_threshold})"
        )
    if args.breaker_cooldown <= 0:
        parser.error(
            f"--breaker-cooldown must be positive "
            f"(got {args.breaker_cooldown})"
        )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # Flag-led invocations imply the search command, so the README's
    # one-liners work without the subcommand boilerplate:
    # ``python -m repro --method ols --metrics-out m.json --trace``.
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv = ["search", *argv]
    args = parser.parse_args(argv)
    _install_sigterm_handler()
    try:
        if args.command == "search":
            _validate_search(parser, args)
            return _exit_code(_run_search(args))
        if args.command == "stats":
            return _run_stats(args)
        if args.command == "serve":
            _validate_serve(parser, args)
            return _run_serve(args)
    except KeyboardInterrupt:
        # The engine converts mid-loop Ctrl-C into a degraded result;
        # this guards the phases outside the trial loop (graph loading,
        # preparing, exact solvers) so no traceback reaches the user.
        print("interrupted before a partial result was available",
              file=sys.stderr)
        return _exit_code(130)
    except CheckpointError as error:
        # A wrong/corrupt --resume or --checkpoint target is a usage
        # problem; the message says what mismatched.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ConfigurationError as error:
        # Out-of-range knobs that only surface once the run sizes its
        # budgets (e.g. an epsilon-delta target over the Theorem IV.1
        # trial cap) are usage errors too, not crashes.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"unknown command {args.command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
