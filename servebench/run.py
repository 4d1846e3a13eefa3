"""Steady in-process benchmark of the MPMB query service.

Run from the root of a checkout::

    python3 servebench/run.py --workload serve-fixed --seed 1 \
        --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced;
``--trace 1`` makes an untraced and a traced pass over the same
requests and prints the per-layer metrics plus the tracing overhead.
``--smoke`` sends one round of the mix and sets up once.  Human-readable
lines go first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The metric names and units are those of ``BENCHMARK.json``.  Every
time is in seconds of the reference machine: the measured time divided
by the run's host factor (``hostspeed.py``).  The run prints the factor
and the measured host-time values as well.

Every run records a work fingerprint (request statuses, trial counts,
cache and wedge-index counts, spans retained) under
``.bench_build/servebench/``.  A later run of the same seed, request
count and code must reproduce it exactly, or the benchmark exits with
status 3 instead of printing numbers.

``python3 servebench/run.py --describe`` prints the benchmark design:
the prose of ``design.json`` (why each workload, which layers it loads,
what each per-layer metric should move) with the numbers the code
fixes (mix, request shapes, samples per run, the answer check's reach).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from answers import DEFAULT_PREPARE, AnswerCheck  # noqa: E402
from checkout import (  # noqa: E402
    ROOT,
    STATE_DIR,
    MissingProgram,
    import_repro,
)
from hostspeed import REFERENCE_PROBE_SECONDS  # noqa: E402
from layers import CallLog, LayerStats  # noqa: E402
from serving import (  # noqa: E402
    BenchmarkError,
    build_service,
    drive,
    fingerprint,
)
from workloads import WORKLOADS  # noqa: E402


def load_benchmark():
    """``BENCHMARK.json``: the metric names, units and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(benchmark, section: str):
    """Metric name → unit of one section of ``BENCHMARK.json``."""
    return {metric["name"]: metric["unit"] for metric in benchmark[section]}


def answer_reach(answers: AnswerCheck, cls) -> str:
    """How far below the MPMB a class's top-1 must be to fail the check."""
    fields = cls.fields
    if fields.get("mode") == "adaptive":
        return "band from the response's realised trials or epsilon"
    document = {
        "dataset": cls.dataset, "method": fields["method"],
        "n_trials": fields["trials"], "guarantee": None,
    }
    lowest = answers.lowest_estimate(
        document, fields.get("prepare", DEFAULT_PREPARE)
    )
    rows = answers.rows[cls.dataset]
    rank = next(
        (i + 1 for i, row in enumerate(rows) if row["probability"] < lowest),
        None,
    )
    if rank is None:
        return "none: status and estimate checked, any top-1 in the table"
    return f"top-1 of reference rank >= {rank} fails (P(B) < {lowest:.4f})"


def describe(benchmark, answers: AnswerCheck):
    """The design record: ``design.json`` plus the numbers in the code."""
    design = json.loads((HERE / "design.json").read_text())
    seconds = benchmark["run_seconds"]
    design.update(run_seconds=seconds, nproc=os.cpu_count())
    for name, workload in WORKLOADS.items():
        rounds = workload.rounds_for(seconds)
        samples = rounds * workload.round_size
        design["workloads"][name].update({
            "mix": {
                cls.label: {
                    "share": cls.share,
                    "payload": {"dataset": cls.dataset, **cls.fields},
                    "answer_check_reach": answer_reach(answers, cls),
                }
                for cls in workload.mix
            },
            "requests_per_round": workload.round_size,
            "rounds_per_run": rounds,
            "samples_per_run": samples,
            "setup_repeats": workload.setup_repeats,
            "setup_requests": workload.setup_requests(),
        })
    return design


def code_digest() -> str:
    """Hash of the program and benchmark sources a fingerprint binds to."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files += sorted(HERE.glob("*.py")) + [HERE / "reference.json"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_pass(workload, seed, rounds, answers, log=None):
    """Set up once and drive the timed requests; optionally traced."""
    service = build_service(workload, answers)
    try:
        stats = None if log is None else LayerStats(service, log)
        record = drive(
            service, workload, seed, rounds, answers,
            observe=None if stats is None else stats.observe,
        )
        return service, record, stats, fingerprint(service, record)
    finally:
        service.close()


def verify_fingerprint(name: str, seed: int, rounds: int, found, say):
    """Store the run's fingerprint, or compare it with the stored one."""
    path = STATE_DIR / (
        f"{name}-seed{seed}-rounds{rounds}-{code_digest()}.json"
    )
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(found, sort_keys=True) + "\n")
        say(f"fingerprint stored as {path.name}")
        return
    stored = json.loads(path.read_text())
    if stored != found:
        raise BenchmarkError(
            f"work fingerprint differs from an earlier run of seed {seed} "
            f"on the same code:\n  earlier {stored}\n  now     {found}"
        )
    say(f"fingerprint matches {path.name}")


def to_reference(values, reported, factor: float):
    """Host times → seconds of the reference machine (``hostspeed``).

    Every metric in ``s`` is divided by the run's host factor and every
    one in ``1/s`` multiplied by it; counts, bytes, MB and ratios stay.
    """
    scale = {"s": 1.0 / factor, "1/s": factor}
    return {
        name: values[name] * scale.get(unit, 1.0)
        for name, unit in reported.items()
    }


def end_to_end(record, setups, peak_rss_mb):
    latencies = sorted(record.latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    beyond = sum(1 for value in latencies if value > p90)
    samples = {
        "latency_samples": len(latencies),
        "beyond_p90": beyond,
        "scrapes": len(record.scrape_seconds),
        "setups": len(setups),
    }
    metrics = {
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": p90,
        "throughput_rps": len(latencies) / sum(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "scrape_s": statistics.median(record.scrape_seconds),
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one round of the mix and a single set-up",
    )
    parser.add_argument(
        "--describe", action="store_true",
        help="print the benchmark design as JSON and exit",
    )
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    answers = AnswerCheck()
    if args.describe:
        print(json.dumps(describe(benchmark, answers), indent=1))
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    def say(line: str) -> None:
        print(line, flush=True)

    try:
        import_repro()
    except MissingProgram as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rounds = 1 if args.smoke else workload.rounds_for(args.seconds)
    if args.trace:
        # Two passes (untraced, traced) share the run's time.
        rounds = max(1, rounds // 2)
    say(
        f"{workload.name}: seed {args.seed}, {rounds} round(s) of "
        f"{workload.round_size} requests, closed loop, 1 caller"
    )
    try:
        if args.trace == 0:
            service, record, _, found = run_pass(
                workload, args.seed, rounds, answers
            )
            # Peak RSS of set-up plus the timed phase, read before the
            # extra set-ups that only serve the setup_s median.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0
            setups = [service.setup_seconds]
            for _ in range((1 if args.smoke else workload.setup_repeats) - 1):
                service = build_service(workload, answers)
                setups.append(service.setup_seconds)
                service.close()
            verify_fingerprint(workload.name, args.seed, rounds, found, say)
            values, samples = end_to_end(record, setups, peak_rss_mb)
            reported = units(benchmark, "end_to_end")
        else:
            _, plain, _, found = run_pass(
                workload, args.seed, rounds, answers
            )
            verify_fingerprint(workload.name, args.seed, rounds, found, say)
            log = CallLog()
            with log.installed():
                _, record, stats, traced = run_pass(
                    workload, args.seed, rounds, answers, log=log
                )
            if traced != found:
                raise BenchmarkError(
                    f"traced pass did different work:\n  untraced "
                    f"{found}\n  traced   {traced}"
                )
            # Each pass in reference seconds: the host may drift between
            # the two passes.
            overhead = (
                statistics.fmean(record.latencies) / record.probe.factor
                / (statistics.fmean(plain.latencies) / plain.probe.factor)
                - 1.0
            )
            values = stats.metrics(record, overhead)
            samples = {"latency_samples": record.attempted}
            reported = units(benchmark, "per_layer")
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    say(f"fingerprint: {json.dumps(found, sort_keys=True)}")
    say("samples: " + ", ".join(f"{k}={v}" for k, v in samples.items()))
    for failure in record.failures[:20]:
        say(f"FAILED {failure}")
    factor = record.probe.factor
    say(
        f"host factor {factor:.4f} (median probe "
        f"{factor * REFERENCE_PROBE_SECONDS * 1e3:.3f} ms, reference "
        f"{REFERENCE_PROBE_SECONDS * 1e3:.3f} ms); host-time values: "
        + ", ".join(f"{name}={values[name]:.6g}" for name in reported)
    )
    values = to_reference(values, reported, factor)
    for name, unit in reported.items():
        say(f"{name:34s} {values[name]:.6g} {unit}")
    failed = len(record.failures)
    say(json.dumps({
        "correct": failed == 0,
        "attempted": record.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in reported.items()
        },
    }))
    return 0


def stop_resource_tracker() -> None:
    """Stop and reap the helper process shared memory started, if any.

    The worker pools publish graphs to shared memory, which starts the
    interpreter's resource tracker; it would otherwise outlive the run
    until it noticed the exit.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    started = time.perf_counter()
    try:
        code = main()
    finally:
        stop_resource_tracker()
    print(
        f"wall time {time.perf_counter() - started:.1f}s", file=sys.stderr
    )
    raise SystemExit(code)
