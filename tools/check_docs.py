#!/usr/bin/env python
"""Documentation consistency checker.

Nine guarantees, each enforced by CI through ``tests/test_docs.py``:

1. **Coverage** — ``README.md`` references every page under ``docs/``
   (a page nobody links is a page nobody reads).
2. **Link integrity** — every relative Markdown link in ``README.md``,
   ``DESIGN.md``, and ``docs/*.md`` resolves to a file inside the
   repository (anchors are stripped; external URLs are ignored).
3. **CLI flag sync** — every ``--flag`` shown in a fenced code block's
   ``python -m repro ...`` command exists in the actual argument parser
   (and likewise for ``python benchmarks/run_bench.py``), so documented
   invocations cannot rot silently.
4. **Kernel docs sync** — ``docs/kernels.md`` exists, is indexed from
   README.md, and names every ``kernel.*`` / ``worker.shm.*`` metric of
   the observability catalog, so the performance-model page cannot
   silently fall behind the instrumented kernel layer.
5. **Protocol docs sync** — ``docs/static-analysis.md`` catalogs every
   registered analyzer rule, keeps its *Protocol verification* section,
   and names every registered typestate protocol spec, so the rule
   table cannot fall behind the live registry.
6. **Rule catalog sync** — every rule-table row in
   ``docs/static-analysis.md`` carries the id and severity the live
   registry (and therefore ``python -m repro.analysis --list-rules``)
   reports, and documents no unregistered rule (``PARSE001``, the
   runner-emitted pseudo-rule, excepted), plus the *Concurrency
   verification* section for the lock-discipline rules stays pinned.
7. **Adaptive docs sync** — ``docs/performance.md`` and
   ``docs/runtime.md`` both name every ``adaptive.*`` metric of the
   observability catalog, so the anytime-mode pages cannot fall behind
   the instrumented racing/pre-screen layer.
8. **Performance table sync** — the scalar-vs-batched table under
   *Measured numbers* in ``docs/performance.md`` is exactly the one
   :func:`performance_table` renders from ``BENCH_sampling.json``, so
   a regenerated benchmark file cannot leave stale speedups behind.
9. **Metric table sync** — the metric names in ``docs/observability.md``'s
   tables (a row may join two with ``/``) are exactly the names of
   ``repro.observability.catalog.METRICS``, so a deleted metric cannot
   leave its row behind and a new one cannot go undocumented.

Run directly::

    python tools/check_docs.py            # exit 0 = all good

The script has no dependencies beyond the repository itself; it inserts
``src/`` on ``sys.path`` to import the parsers.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown link: [text](target) — target captured without closing paren.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Long-option token inside a documented command line.
FLAG_PATTERN = re.compile(r"(?<![-\w])--[A-Za-z][A-Za-z0-9-]*")

#: Schemes that mark a link as external (never checked on disk).
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def _rel(path: Path) -> str:
    """``path`` relative to the repo root when possible (for messages)."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def doc_files() -> List[Path]:
    """The Markdown files whose links are checked."""
    files = [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_readme_covers_docs() -> List[str]:
    """Every ``docs/*.md`` page must be referenced from README.md."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    problems = []
    for page in sorted((REPO_ROOT / "docs").glob("*.md")):
        reference = f"docs/{page.name}"
        if reference not in readme:
            problems.append(
                f"README.md does not reference {reference}"
            )
    return problems


def iter_links(path: Path) -> Iterable[str]:
    """All Markdown link targets in ``path``."""
    for match in LINK_PATTERN.finditer(path.read_text(encoding="utf-8")):
        yield match.group(1)


def check_links() -> List[str]:
    """Every relative link must resolve inside the repository."""
    problems = []
    for path in doc_files():
        for target in iter_links(path):
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            # Strip a trailing anchor; a bare anchor targets this file.
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = (path.parent / target).resolve()
            if REPO_ROOT not in resolved.parents and resolved != REPO_ROOT:
                problems.append(
                    f"{_rel(path)}: link {target!r} "
                    f"escapes the repository"
                )
            elif not resolved.exists():
                problems.append(
                    f"{_rel(path)}: broken link "
                    f"{target!r}"
                )
    return problems


def fenced_command_lines(path: Path) -> List[str]:
    """Logical command lines inside fenced code blocks.

    Backslash continuations are joined so a wrapped command counts as
    one line.
    """
    lines: List[str] = []
    in_fence = False
    pending = ""
    for raw in path.read_text(encoding="utf-8").splitlines():
        stripped = raw.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            pending = ""
            continue
        if not in_fence:
            continue
        if pending:
            stripped = f"{pending} {stripped}"
            pending = ""
        if stripped.endswith("\\"):
            pending = stripped[:-1].strip()
            continue
        lines.append(stripped)
    return lines


def parser_flags(parser) -> Set[str]:
    """All long options of ``parser``, recursing into subparsers."""
    import argparse

    flags: Set[str] = set()
    for action in parser._actions:
        flags.update(
            opt for opt in action.option_strings if opt.startswith("--")
        )
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags.update(parser_flags(sub))
    return flags


def known_flags() -> Tuple[Set[str], Set[str], Set[str]]:
    """(repro CLI, run_bench, repro.analysis) flags from the parsers."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from repro.__main__ import build_parser as build_cli_parser
        from repro.analysis.__main__ import (
            build_parser as build_lint_parser,
        )
        from run_bench import build_parser as build_bench_parser
    finally:
        sys.path.pop(0)
        sys.path.pop(0)
    return (
        parser_flags(build_cli_parser()),
        parser_flags(build_bench_parser()),
        parser_flags(build_lint_parser()),
    )


def check_cli_flags() -> List[str]:
    """Documented ``--flags`` must exist in the matching parser."""
    cli_flags, bench_flags, lint_flags = known_flags()
    problems = []
    for path in doc_files():
        for line in fenced_command_lines(path):
            if "python -m repro.experiments" in line:
                continue  # separate CLI, documented elsewhere
            if (
                "python -m repro.analysis" in line
                or "tools/lint.py" in line
            ):
                expected, label = lint_flags, "python -m repro.analysis"
            elif "python -m repro" in line:
                expected, label = cli_flags, "python -m repro"
            elif "benchmarks/run_bench.py" in line:
                expected, label = bench_flags, "run_bench.py"
            else:
                continue
            for flag in FLAG_PATTERN.findall(line):
                if flag not in expected:
                    problems.append(
                        f"{_rel(path)}: {label} has no "
                        f"{flag} (documented: {line!r})"
                    )
    return problems


def check_kernel_docs() -> List[str]:
    """``docs/kernels.md`` must exist and name every kernel-layer metric.

    The kernel layer is documented in one place; this check keeps that
    page in the README index and in sync with the ``kernel.*`` and
    ``worker.shm.*`` families of the observability catalog — a new
    kernel instrument without a matching mention here is a doc rot bug.
    """
    page = REPO_ROOT / "docs" / "kernels.md"
    if not page.exists():
        return ["docs/kernels.md is missing (the kernel layer's page)"]
    problems = []
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    if "docs/kernels.md" not in readme:
        problems.append("README.md does not index docs/kernels.md")
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.observability.catalog import METRICS
    finally:
        sys.path.pop(0)
    text = page.read_text(encoding="utf-8")
    for spec in METRICS:
        if not spec.name.startswith(("kernel.", "worker.shm.")):
            continue
        if spec.name not in text:
            problems.append(
                f"docs/kernels.md does not mention the cataloged "
                f"kernel-layer metric {spec.name!r}"
            )
    return problems


def check_protocol_docs() -> List[str]:
    """``docs/static-analysis.md`` must cover every registered rule.

    The rule catalog is documented in one place; this check keeps the
    table in sync with the live rule registry (a new rule without a
    catalog row is invisible to anyone triaging its findings) and pins
    the *Protocol verification* section that explains the typestate
    rules' specs and traces.
    """
    page = REPO_ROOT / "docs" / "static-analysis.md"
    if not page.exists():
        return [
            "docs/static-analysis.md is missing (the analyzer's page)"
        ]
    problems = []
    text = page.read_text(encoding="utf-8")
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.analysis import RULES
        from repro.analysis.program.typestate import PROTOCOLS
    finally:
        sys.path.pop(0)
    for rule_id in RULES:
        if f"`{rule_id}`" not in text:
            problems.append(
                f"docs/static-analysis.md has no rule-catalog row "
                f"for registered rule {rule_id!r}"
            )
    if "## Protocol verification" not in text:
        problems.append(
            "docs/static-analysis.md is missing the "
            "'Protocol verification' section for the typestate rules"
        )
    for spec in PROTOCOLS.values():
        if f"`{spec.name}`" not in text:
            problems.append(
                f"docs/static-analysis.md does not name the "
                f"registered protocol spec {spec.name!r}"
            )
    return problems


def check_adaptive_docs() -> List[str]:
    """Both anytime-mode pages must name every ``adaptive.*`` metric.

    Adaptive mode is documented twice on purpose — the *why/how fast*
    story in ``docs/performance.md`` and the *certified-stop semantics*
    in ``docs/runtime.md`` — and both narratives hinge on the same
    realised-budget instruments, so each page must mention every
    ``adaptive.*`` family of the observability catalog.
    """
    problems = []
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.observability.catalog import METRICS
    finally:
        sys.path.pop(0)
    for name in ("performance.md", "runtime.md"):
        page = REPO_ROOT / "docs" / name
        if not page.exists():
            problems.append(f"docs/{name} is missing (anytime-mode page)")
            continue
        text = page.read_text(encoding="utf-8")
        for spec in METRICS:
            if not spec.name.startswith("adaptive."):
                continue
            if spec.name not in text:
                problems.append(
                    f"docs/{name} does not mention the cataloged "
                    f"adaptive metric {spec.name!r}"
                )
    return problems


def documented_metrics(text: str) -> Set[str]:
    """Names in the first column of a page's ``| Metric |`` tables."""
    names: Set[str] = set()
    in_table = False
    for line in text.splitlines():
        if not line.startswith("|"):
            in_table = False
            continue
        first = line.split("|")[1].strip()
        if first == "Metric":
            in_table = True
        elif in_table:
            names.update(re.findall(r"`([^`]+)`", first))
    return names


def check_metric_table() -> List[str]:
    """``docs/observability.md``'s metric tables name the catalog's
    metrics, no fewer and no more."""
    page = REPO_ROOT / "docs" / "observability.md"
    if not page.exists():
        return ["docs/observability.md is missing (the metric catalog)"]
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.observability.catalog import METRICS
    finally:
        sys.path.pop(0)
    documented = documented_metrics(page.read_text(encoding="utf-8"))
    cataloged = {spec.name for spec in METRICS}
    problems = [
        f"docs/observability.md has no metric-table row for the "
        f"cataloged metric {name!r}"
        for name in sorted(cataloged - documented)
    ]
    problems.extend(
        f"docs/observability.md documents the metric {name!r}, which "
        f"repro.observability.catalog does not declare"
        for name in sorted(documented - cataloged)
    )
    return problems


#: Method rows of the performance table, in documented order.
PERFORMANCE_METHODS = ("mc-vp", "os", "ols", "ols-kl")

#: Header of the performance table in ``docs/performance.md``.
PERFORMANCE_HEADER = (
    "| Dataset | Method | Scalar trials/s | Batched trials/s | Speedup |"
)


def _trials_per_second(value: float) -> str:
    return f"{value:,.1f}".replace(",", " ")


def performance_table(bench: Dict) -> List[str]:
    """The table's rows, rendered from a ``BENCH_sampling.json`` document.

    One row per dataset and method that has both a scalar and a
    ``-batched`` entry; the speedup is batched over scalar trials/s,
    shown to two decimals below 10x and as a whole number above.
    """
    entries = {
        (entry["dataset"], entry["method"]): entry
        for entry in bench["entries"]
    }
    rows = []
    for dataset in bench["config"]["datasets"]:
        for method in PERFORMANCE_METHODS:
            scalar = entries.get((dataset, method))
            batched = entries.get((dataset, f"{method}-batched"))
            if scalar is None or batched is None:
                continue
            slow = scalar["trials_per_second"]
            fast = batched["trials_per_second"]
            ratio = fast / slow
            speedup = f"{ratio:.0f}x" if ratio >= 10 else f"{ratio:.2f}x"
            rows.append(
                f"| {dataset} | {method} | {_trials_per_second(slow)} | "
                f"{_trials_per_second(fast)} | {speedup} |"
            )
    return rows


def check_performance_table() -> List[str]:
    """``docs/performance.md``'s measured table must match the BENCH file.

    The rows after :data:`PERFORMANCE_HEADER` (and its separator line)
    must equal :func:`performance_table` of ``BENCH_sampling.json``,
    row for row.
    """
    page = REPO_ROOT / "docs" / "performance.md"
    bench_path = REPO_ROOT / "BENCH_sampling.json"
    if not page.exists() or not bench_path.exists():
        return ["docs/performance.md or BENCH_sampling.json is missing"]
    lines = page.read_text(encoding="utf-8").splitlines()
    if PERFORMANCE_HEADER not in lines:
        return ["docs/performance.md has no measured-numbers table"]
    documented = []
    for line in lines[lines.index(PERFORMANCE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        documented.append(line.rstrip())
    with bench_path.open(encoding="utf-8") as handle:
        expected = performance_table(json.load(handle))
    problems = [
        f"docs/performance.md table row {row!r} should read {want!r} "
        f"(BENCH_sampling.json)"
        for row, want in zip(documented, expected)
        if row != want
    ]
    if len(documented) != len(expected):
        problems.append(
            f"docs/performance.md table has {len(documented)} rows; "
            f"BENCH_sampling.json gives {len(expected)}"
        )
    return problems


#: A rule-catalog table row: | `ID` | severity | ...
RULE_ROW_PATTERN = re.compile(
    r"^\|\s*`([A-Z]+\d+[A-Z]*)`\s*\|\s*(\w+)\s*\|"
)


def check_rule_catalog() -> List[str]:
    """The docs rule table must match ``--list-rules`` exactly.

    Each registered rule appears as a table row whose severity column
    is what the registry declares, and no row documents a rule that
    is not registered (``PARSE001`` aside — the runner emits it
    directly), so the table and the CLI's ``--list-rules`` output can
    never disagree.  Also pins the *Concurrency verification* section
    explaining the lock-discipline rules' model and traces.
    """
    page = REPO_ROOT / "docs" / "static-analysis.md"
    if not page.exists():
        return []  # check_protocol_docs already reports the page
    problems = []
    text = page.read_text(encoding="utf-8")
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.analysis import RULES
    finally:
        sys.path.pop(0)
    rows = {}
    for line in text.splitlines():
        match = RULE_ROW_PATTERN.match(line)
        if match:
            rows[match.group(1)] = match.group(2)
    for rule_id, rule_class in sorted(RULES.items()):
        severity = rows.get(rule_id)
        if severity is None:
            problems.append(
                f"docs/static-analysis.md rule table has no row "
                f"for registered rule {rule_id!r}"
            )
        elif severity != rule_class.severity:
            problems.append(
                f"docs/static-analysis.md documents {rule_id} with "
                f"severity {severity!r} but --list-rules reports "
                f"{rule_class.severity!r}"
            )
    for rule_id in sorted(rows):
        if rule_id not in RULES and rule_id != "PARSE001":
            problems.append(
                f"docs/static-analysis.md rule table documents "
                f"{rule_id!r}, which is not a registered rule"
            )
    if "## Concurrency verification" not in text:
        problems.append(
            "docs/static-analysis.md is missing the "
            "'Concurrency verification' section for the "
            "lock-discipline rules"
        )
    return problems


def run_checks() -> List[str]:
    """All problems found across every check (empty = docs are sound)."""
    problems: List[str] = []
    problems.extend(check_readme_covers_docs())
    problems.extend(check_links())
    problems.extend(check_cli_flags())
    problems.extend(check_kernel_docs())
    problems.extend(check_protocol_docs())
    problems.extend(check_rule_catalog())
    problems.extend(check_adaptive_docs())
    problems.extend(check_metric_table())
    problems.extend(check_performance_table())
    return problems


def main() -> int:
    problems = run_checks()
    for problem in problems:
        print(f"check_docs: {problem}", file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    checked = len(doc_files())
    print(f"check_docs: OK ({checked} files checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
