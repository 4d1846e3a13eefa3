"""The built-in invariant rules.

Each rule guards a whole-program property the test suite cannot see
(see ``docs/static-analysis.md`` for the catalog and the rationale):

* RNG001 — all randomness routes through ``repro.sampling.rng``
* CLK001 — the deadline policy owns clocks in the algorithm layers
* MPS001 — only module-level callables cross the process boundary
* MET001 — metric/span names instantiate the canonical catalog
* EXC001 — no bare ``except``; ``repro.errors`` types at API boundaries
* DOC001 — estimator modules cite the theorems they implement
* DOC002 — documentation consistency (``tools/check_docs.py`` folded in)
* MET002 — the metric catalog and ``docs/observability.md`` stay in sync
"""

from __future__ import annotations

import ast
import builtins
import importlib.util
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .findings import Finding
from .registry import FileRule, ProjectRule, register
from .source import (
    SourceFile,
    dotted_name,
    enclosing_public_function,
    from_imports,
    module_aliases,
    nested_function_names,
    walk_with_stack,
)


def _in_directory(path: str, directories: Tuple[str, ...]) -> bool:
    """Whether any ancestor directory of ``path`` has one of the names."""
    return any(part in directories for part in Path(path).parts[:-1])


def _call_line(source: SourceFile, node: ast.AST) -> Tuple[int, str]:
    line = getattr(node, "lineno", 0)
    return line, source.line_text(line)


@register
class RngSubstrateRule(FileRule):
    """RNG001: randomness must route through ``repro.sampling.rng``.

    Checkpoint/resume restores the *substrate's* generator state
    bit-for-bit; any call drawing from ``random`` or ``numpy.random``
    module state (or minting generators outside the substrate) escapes
    that restoration and silently breaks resume determinism.
    """

    id = "RNG001"
    severity = "error"
    description = (
        "no random.*/np.random.* calls outside repro/sampling/rng.py "
        "— accept a Generator or seed and use ensure_rng() instead"
    )

    #: Files allowed to touch numpy.random directly (the substrate
    #: itself; everything else coerces through ensure_rng()).
    allowed_suffixes = ("sampling/rng.py",)
    allowed_directories: Tuple[str, ...] = ()

    def check(self, source: SourceFile) -> Iterator[Finding]:
        posix = Path(source.path).as_posix()
        if posix.endswith(self.allowed_suffixes):
            return
        if _in_directory(source.path, self.allowed_directories):
            return
        aliases = module_aliases(source.tree)
        froms = from_imports(source.tree)
        imports_random = "random" in aliases.values() or any(
            module.lstrip(".") == "random" for module, _ in froms.values()
        )
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolved(node, aliases, froms)
            if resolved is None:
                continue
            stdlib_hit = imports_random and (
                resolved.startswith("random.")
            )
            numpy_hit = resolved.startswith("numpy.random.")
            if stdlib_hit or numpy_hit:
                line, text = _call_line(source, node)
                yield self.finding(
                    source.path, line,
                    f"call to {resolved}() bypasses the seeded RNG "
                    f"substrate (repro.sampling.rng); accept an "
                    f"rng/seed argument and use ensure_rng()",
                    text,
                )


def _resolved(
    call: ast.Call,
    aliases: Dict[str, str],
    froms: Dict[str, Tuple[str, str]],
) -> Optional[str]:
    from .source import resolved_call_path

    return resolved_call_path(call, aliases, froms)


@register
class ClockDisciplineRule(FileRule):
    """CLK001: the runtime deadline policy owns clocks.

    The algorithm layers must stay deterministic and deadline-driven:
    an ad-hoc ``time.time()`` there creates timing-dependent behaviour
    the checkpoint and degradation machinery cannot reproduce.  Use
    ``repro.runtime.policy.Deadline`` (injectable clock) or the
    observability stopwatch instead.
    """

    id = "CLK001"
    severity = "error"
    description = (
        "no time.time()/datetime.now()-style clock reads in repro/core/ "
        "and repro/butterfly/ — the runtime deadline policy owns clocks"
    )

    scope_directories = ("core", "butterfly")

    forbidden = frozenset({
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "time.clock_gettime", "time.clock_gettime_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    #: Message fragments subclasses override to match their layer.
    context = "in an algorithm layer"
    advice = (
        "route timing through the runtime Deadline policy or the "
        "observability stopwatch"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if not _in_directory(source.path, self.scope_directories):
            return
        aliases = module_aliases(source.tree)
        froms = from_imports(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolved(node, aliases, froms)
            if resolved in self.forbidden:
                line, text = _call_line(source, node)
                verb = (
                    "sleep" if resolved == "time.sleep"
                    else "clock read"
                )
                yield self.finding(
                    source.path, line,
                    f"direct {verb} {resolved}() {self.context}; "
                    f"{self.advice}",
                    text,
                )


@register
class ServiceClockDisciplineRule(ClockDisciplineRule):
    """CLK002: service/runtime code takes injected clocks and sleeps.

    The chaos harness replays failure schedules against a virtual
    clock; a stray ``time.monotonic()`` or ``time.sleep()`` in the
    broker, breaker, or worker plumbing re-couples those scenarios to
    wall time and makes them flaky.  Accepting a clock/sleep callable
    with a ``time.monotonic`` *default* is the sanctioned pattern —
    the default is a reference, not a call, so it does not trip this
    rule.
    """

    id = "CLK002"
    severity = "error"
    description = (
        "service/runtime layers use injected clock()/sleep() "
        "callables — no direct time.* calls, so chaos scenarios stay "
        "deterministic (CLK001 extended beyond core/butterfly)"
    )

    scope_directories = ("service", "runtime")

    forbidden = ClockDisciplineRule.forbidden | frozenset({
        "time.sleep",
    })

    context = "in the service/runtime layer"
    advice = (
        "accept an injectable clock/sleep callable (default "
        "time.monotonic) so the chaos harness can control time"
    )


@register
class ProcessSeamRule(FileRule):
    """MPS001: only module-level callables cross the process boundary.

    ``multiprocessing`` pickles the callable it is handed; lambdas and
    closures are unpicklable under the spawn start method, so passing
    one compiles fine and then dies only at runtime, only on platforms
    whose default start method is ``spawn``.
    """

    id = "MPS001"
    severity = "error"
    description = (
        "worker-pool submit/map seams take module-level callables and "
        "picklable payloads only (no lambdas, closures, or raw "
        "shared-memory buffers across the process boundary)"
    )

    #: Attribute-call names treated as pool submission seams; the first
    #: positional argument must be picklable.
    submit_attrs = frozenset({
        "submit", "map", "starmap", "imap", "imap_unordered",
        "apply_async", "map_async", "starmap_async",
    })
    #: Constructors whose ``target=`` crosses the process boundary.
    process_ctors = frozenset({"Process", "Thread"})
    #: Constructors whose results are raw buffers/views over process
    #: memory.  A buffer shipped as a worker argument either fails to
    #: pickle or silently copies the backing pages; the shared-memory
    #: seam contract is to pass the *handle* (segment name + per-array
    #: shapes/dtypes) and attach inside the worker.
    buffer_ctors = frozenset({"SharedMemory", "memoryview", "frombuffer"})

    def check(self, source: SourceFile) -> Iterator[Finding]:
        nested = nested_function_names(source.tree)
        buffers = self._buffer_names(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            for seam, value in self._seam_arguments(node):
                problem = self._problem(value, nested)
                if problem is not None:
                    line, text = _call_line(source, node)
                    yield self.finding(
                        source.path, line,
                        f"{problem} passed to {seam}; spawn-method "
                        f"multiprocessing requires a module-level "
                        f"callable",
                        text,
                    )
            for seam, value in self._payload_arguments(node):
                buffer = self._buffer_problem(value, buffers)
                if buffer is not None:
                    line, text = _call_line(source, node)
                    yield self.finding(
                        source.path, line,
                        f"{buffer} crosses the {seam} process seam; "
                        f"pass the picklable shared-memory handle "
                        f"(segment name + shapes/dtypes) and attach "
                        f"inside the worker",
                        text,
                    )

    def _seam_arguments(self, node: ast.Call):
        """Yield (seam description, callable expression) pairs."""
        path = dotted_name(node.func)
        tail = path.rsplit(".", 1)[-1] if path else None
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self.submit_attrs
            and node.args
        ):
            yield f"pool {node.func.attr}()", node.args[0]
        if tail in self.process_ctors:
            for keyword in node.keywords:
                if keyword.arg == "target":
                    yield f"{tail}(target=...)", keyword.value

    def _payload_arguments(self, node: ast.Call):
        """Yield (seam description, payload expression) pairs.

        Payloads are the worker *arguments*: everything after the
        callable in a pool submit call, and the ``args=`` tuple of a
        ``Process``/``Thread`` constructor.
        """
        path = dotted_name(node.func)
        tail = path.rsplit(".", 1)[-1] if path else None
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self.submit_attrs
        ):
            for arg in node.args[1:]:
                yield f"pool {node.func.attr}()", arg
        if tail in self.process_ctors:
            for keyword in node.keywords:
                if keyword.arg == "args":
                    values = (
                        keyword.value.elts
                        if isinstance(
                            keyword.value, (ast.Tuple, ast.List)
                        )
                        else [keyword.value]
                    )
                    for value in values:
                        yield f"{tail}(args=...)", value

    def _buffer_names(self, tree: ast.AST) -> Set[str]:
        """Names bound by simple assignment to a buffer constructor."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            path = dotted_name(value.func)
            tail = path.rsplit(".", 1)[-1] if path else None
            if tail not in self.buffer_ctors:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    def _buffer_problem(
        self, value: ast.expr, buffers: Set[str]
    ) -> Optional[str]:
        """Describe ``value`` if it is a raw buffer expression."""
        for node in ast.walk(value):
            if isinstance(node, ast.Attribute) and node.attr == "buf":
                return f"raw buffer {dotted_name(node) or 'expression'}"
            if isinstance(node, ast.Name) and node.id in buffers:
                return (
                    f"shared-memory buffer {node.id!r} "
                    f"(bound to a buffer constructor)"
                )
            if isinstance(node, ast.Call):
                path = dotted_name(node.func)
                tail = path.rsplit(".", 1)[-1] if path else None
                if tail in self.buffer_ctors:
                    return f"raw buffer from {tail}()"
        return None

    @staticmethod
    def _problem(value: ast.expr, nested: Set[str]) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "lambda"
        if isinstance(value, ast.Name) and value.id in nested:
            return f"closure {value.id!r} (defined inside a function)"
        return None


#: How each recording method maps to an instrument kind.
_RECORDING_METHODS = {
    "inc": "counter", "counter": "counter",
    "set": "gauge", "gauge": "gauge",
    "observe": "histogram", "histogram": "histogram",
    "span": "span",
}


@register
class MetricCatalogRule(FileRule):
    """MET001: recorded metric/span names instantiate the catalog.

    Off-catalog names produce series the merge/report tooling cannot
    aggregate and the docs never explain.  The catalog lives in
    ``repro.observability.catalog``; dynamic (f-string) names pass when
    their template *can* produce a cataloged name of the right kind.
    """

    id = "MET001"
    severity = "error"
    description = (
        "metric and span names must appear in the canonical catalog "
        "(repro/observability/catalog.py)"
    )

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if Path(source.path).as_posix().endswith(
            "observability/catalog.py"
        ):
            return
        from ..observability import catalog

        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            kind = _RECORDING_METHODS.get(node.func.attr)
            if kind is None or not node.args:
                continue
            name_node = node.args[0]
            problem = self._check_name(catalog, kind, name_node)
            if problem is not None:
                line, text = _call_line(source, node)
                yield self.finding(source.path, line, problem, text)

    @staticmethod
    def _check_name(catalog, kind: str, name_node: ast.expr):
        if isinstance(name_node, ast.Constant) and isinstance(
            name_node.value, str
        ):
            name = name_node.value
            if kind == "span":
                if not catalog.is_canonical_span(name):
                    return (
                        f"span name {name!r} is not in the canonical "
                        f"catalog (repro.observability.catalog.SPANS)"
                    )
                return None
            if not catalog.is_canonical_metric(name, kind):
                return (
                    f"{kind} name {name!r} is not in the canonical "
                    f"catalog (repro.observability.catalog.METRICS)"
                )
            return None
        if isinstance(name_node, ast.JoinedStr):
            pattern = _fstring_pattern(name_node)
            if pattern is None:
                return None
            if kind == "span":
                names = [spec.name for spec in catalog.SPANS]
                concrete = [
                    re.sub(r"<[a-z_]+>", "x", name) for name in names
                ]
            else:
                concrete = [
                    name for name, spec_kind
                    in catalog.sample_names().items()
                    if spec_kind == kind
                ]
            if not any(pattern.match(name) for name in concrete):
                return (
                    f"dynamic {kind} name template cannot produce any "
                    f"cataloged name (repro.observability.catalog)"
                )
        return None


def _fstring_pattern(node: ast.JoinedStr) -> "re.Pattern[str] | None":
    """Regex a name-template f-string can produce (None = opaque)."""
    parts: List[str] = []
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(
            value.value, str
        ):
            parts.append(re.escape(value.value))
        elif isinstance(value, ast.FormattedValue):
            parts.append(".+")
        else:
            return None
    return re.compile("^" + "".join(parts) + "$")


#: Builtin exceptions acceptable at public boundaries: lookup/protocol
#: errors and control-flow exceptions that must not be wrapped.
_BOUNDARY_BUILTIN_ALLOWED = frozenset({
    "KeyError", "IndexError", "AttributeError", "StopIteration",
    "NotImplementedError", "KeyboardInterrupt", "SystemExit",
    "AssertionError", "GeneratorExit",
})

_BUILTIN_EXCEPTIONS = frozenset(
    name for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)


@register
class ExceptionDisciplineRule(FileRule):
    """EXC001: no bare ``except``; library errors at API boundaries.

    Bare ``except:`` swallows ``KeyboardInterrupt``/``SystemExit`` and
    defeats the runtime's graceful-interrupt contract.  Public functions
    of the boundary packages (``repro/core/``, ``repro/runtime/``) must
    raise ``repro.errors`` types so callers can catch ``ReproError``
    and trust the documented hierarchy.
    """

    id = "EXC001"
    severity = "error"
    description = (
        "no bare except:; public core/runtime functions raise "
        "repro.errors types (or allowed protocol exceptions) only"
    )

    boundary_directories = ("core", "runtime")
    #: Import-module suffixes whose exception types are library-owned.
    library_module_suffixes = ("errors", "faults")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        froms = from_imports(source.tree)
        local_classes = {
            node.name for node in ast.walk(source.tree)
            if isinstance(node, ast.ClassDef)
        }
        in_boundary = _in_directory(
            source.path, self.boundary_directories
        )
        for node, stack in walk_with_stack(source.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                line, text = _call_line(source, node)
                yield self.finding(
                    source.path, line,
                    "bare except: swallows KeyboardInterrupt/SystemExit;"
                    " catch a concrete exception type",
                    text,
                )
                continue
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = self._raised_name(node.exc)
            if name is None:
                continue
            if name in ("Exception", "BaseException"):
                line, text = _call_line(source, node)
                yield self.finding(
                    source.path, line,
                    f"raising generic {name} hides the failure class; "
                    f"raise a repro.errors type",
                    text,
                )
                continue
            if not in_boundary:
                continue
            function = enclosing_public_function(stack)
            if function is None or self._is_private(function):
                continue
            if self._is_allowed(name, froms, local_classes):
                continue
            line, text = _call_line(source, node)
            yield self.finding(
                source.path, line,
                f"public boundary function {function}() raises builtin "
                f"{name}; raise a repro.errors type (e.g. "
                f"ConfigurationError) so callers can catch ReproError",
                text,
            )

    @staticmethod
    def _raised_name(exc: ast.expr) -> Optional[str]:
        node = exc.func if isinstance(exc, ast.Call) else exc
        return dotted_name(node)

    @staticmethod
    def _is_private(function: str) -> bool:
        return function.startswith("_") and not (
            function.startswith("__") and function.endswith("__")
        )

    def _is_allowed(
        self,
        name: str,
        froms: Dict[str, Tuple[str, str]],
        local_classes: Set[str],
    ) -> bool:
        head = name.split(".", 1)[0]
        if head in froms:
            module, _ = froms[head]
            # Library-internal imports (relative, or absolute repro.*)
            # are library-owned types; their hierarchy is reviewed at
            # the definition site, not at every raise.
            return (
                module.startswith(".")
                or module == "repro"
                or module.startswith("repro.")
                or module.lstrip(".").endswith(
                    self.library_module_suffixes
                )
            )
        if head in local_classes:
            return True
        if name in _BUILTIN_EXCEPTIONS:
            return name in _BOUNDARY_BUILTIN_ALLOWED
        # Unknown origin (re-raised variable, attribute chain through a
        # module alias): give it the benefit of the doubt.
        return True


#: A theorem/lemma/algorithm/equation citation, or a [NN] reference.
_CITATION = re.compile(
    r"(Theorem|Thm\.|Lemma|Algorithm|Alg\.|Eq(uation)?s?\.|"
    r"Section [IVX\d]|\[\d+\])"
)


@register
class EstimatorDocstringRule(FileRule):
    """DOC001: estimator modules cite the theory they implement.

    The reproduction's correctness argument lives in the mapping from
    code to the paper's theorems; an estimator module whose docstring
    drops that mapping is unreviewable against the paper.
    """

    id = "DOC001"
    severity = "error"
    description = (
        "estimator modules carry theorem-citation module docstrings "
        "(Theorem/Lemma/Algorithm/Eq. or [NN] references)"
    )

    #: Module basenames holding estimator/theory implementations.
    estimator_basenames = frozenset({
        "mc_vp.py", "ordering_sampling.py", "ols.py",
        "karp_luby_estimator.py", "optimized_estimator.py",
        "karp_luby.py", "bounds.py",
    })

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if Path(source.path).name not in self.estimator_basenames:
            return
        docstring = ast.get_docstring(source.tree)
        if not docstring:
            yield self.finding(
                source.path, 1,
                "estimator module has no module docstring; document "
                "which paper theorem/algorithm it implements",
                source.line_text(1),
            )
            return
        if not _CITATION.search(docstring):
            yield self.finding(
                source.path, 1,
                "estimator module docstring cites no theorem, lemma, "
                "algorithm, equation, or [NN] reference",
                source.line_text(1),
            )


def _load_check_docs(root: Path):
    """Import ``tools/check_docs.py`` from ``root`` (None if absent)."""
    script = root / "tools" / "check_docs.py"
    if not script.exists():
        return None
    spec = importlib.util.spec_from_file_location(
        "repro_analysis_check_docs", script
    )
    if spec is None or spec.loader is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@register
class DocsConsistencyRule(ProjectRule):
    """DOC002: the documentation consistency checks, as a rule.

    Folds ``tools/check_docs.py`` (README coverage of ``docs/``, link
    integrity, CLI flag sync) into the analyzer so one command gates
    CI; the standalone script keeps working unchanged.
    """

    id = "DOC002"
    severity = "error"
    description = (
        "documentation consistency: README covers docs/, links "
        "resolve, documented CLI flags exist (tools/check_docs.py)"
    )

    def check_project(self, root: Path) -> Iterator[Finding]:
        module = _load_check_docs(root)
        if module is None:
            return
        for problem in module.run_checks():
            path, _, rest = problem.partition(": ")
            known = rest and (root / path).exists()
            yield self.finding(
                path if known else "README.md",
                0,
                rest if known else problem,
                problem,
            )


@register
class CatalogDocsSyncRule(ProjectRule):
    """MET002: the metric catalog and its docs table stay in sync.

    Every name in ``repro.observability.catalog`` must appear verbatim
    in ``docs/observability.md`` — the doc is the human index of the
    catalog, and MET001 makes the catalog the gate for call sites, so
    a gap here is an undocumented (or phantom) instrument.
    """

    id = "MET002"
    severity = "error"
    description = (
        "every cataloged metric/span name appears in "
        "docs/observability.md"
    )

    def check_project(self, root: Path) -> Iterator[Finding]:
        doc_path = root / "docs" / "observability.md"
        if not doc_path.exists():
            return
        from ..observability import catalog

        text = doc_path.read_text(encoding="utf-8")
        doc_rel = "docs/observability.md"
        for spec in catalog.METRICS:
            if spec.name not in text:
                yield self.finding(
                    doc_rel, 0,
                    f"cataloged metric {spec.name!r} ({spec.kind}) is "
                    f"not documented in {doc_rel}",
                    spec.name,
                )
        for span in catalog.SPANS:
            if span.name not in text:
                yield self.finding(
                    doc_rel, 0,
                    f"cataloged span {span.name!r} is not documented "
                    f"in {doc_rel}",
                    span.name,
                )


@register
class KernelDtypeRule(FileRule):
    """DTY001: no narrow dtypes in the kernels' accumulating primitives.

    The kernel contract pins CSR structure to ``int64`` and weights to
    ``float64`` so CPU runs are bit-identical across chunk sizes and
    block orders (``docs/kernels.md``).  A ``dtype=np.int32`` on a
    ``cumsum``, an ``.astype(np.int32)`` feeding ``ufunc.reduceat`` or
    ``searchsorted``, silently truncates exactly when offsets outgrow
    the narrow range — on the large graphs where nobody is looking.
    Deliberately chunk-bounded narrow scratches stay allowed via
    ``# repro: noqa[DTY001]`` with a justifying comment.
    """

    id = "DTY001"
    severity = "error"
    description = (
        "kernel accumulators (cumsum/reduceat/searchsorted) keep the "
        "pinned wide dtypes — no int32/float32 narrowing that breaks "
        "scalar bit identity"
    )

    scope_directories = ("kernels",)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        from . import dtypes

        if not _in_directory(source.path, self.scope_directories):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = None
            if isinstance(node.func, ast.Attribute):
                tail = node.func.attr
            elif isinstance(node.func, ast.Name):
                tail = node.func.id
            if tail not in dtypes.ACCUMULATOR_TAILS:
                continue
            narrow = dtypes.narrow_dtype_of_call(node)
            if narrow is not None:
                name = dtypes.dtype_name(narrow)
                line, text = _call_line(source, node)
                yield self.finding(
                    source.path, line,
                    f"narrow dtype {name} on {tail}() truncates the "
                    f"accumulator; the kernel bit-identity contract "
                    f"pins {dtypes.WIDEN[name]} — widen it or noqa "
                    f"with a bound justification",
                    text,
                )
            for arg in node.args:
                name = dtypes.astype_narrow(arg)
                if name is None:
                    continue
                line, text = _call_line(source, node)
                yield self.finding(
                    source.path, line,
                    f"operand narrowed to {name} via astype() feeds "
                    f"{tail}(); the accumulation inherits the narrow "
                    f"dtype and overflows past the {name} range — "
                    f"keep the pinned {dtypes.WIDEN[name]}",
                    text,
                )


@register
class SeamContiguityRule(FileRule):
    """SHP001: contiguous buffers only across the shm/bytes seams.

    ``np.frombuffer`` reconstructions and shared-memory publication
    assume the source bytes are one C-contiguous block.  A transpose
    or step slice handed across those seams either raises later (shm
    fill) or silently copies (``tobytes``), so the worker-side view no
    longer aliases the published segment.  ``np.frombuffer`` calls
    must also pin ``dtype=`` explicitly — the float64 default is a
    trap once a uint8 metadata strip shares the segment.
    """

    id = "SHP001"
    severity = "error"
    description = (
        "no non-contiguous views across shm/frombuffer seams, and "
        "frombuffer reconstructions pin an explicit dtype"
    )

    scope_directories = ("kernels", "runtime")

    #: Call tails whose array operands must be C-contiguous.
    seam_tails = frozenset({
        "frombuffer", "tobytes", "publish_graph",
    })

    def check(self, source: SourceFile) -> Iterator[Finding]:
        from . import dtypes

        if not _in_directory(source.path, self.scope_directories):
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = None
            if isinstance(node.func, ast.Attribute):
                tail = node.func.attr
            elif isinstance(node.func, ast.Name):
                tail = node.func.id
            if tail not in self.seam_tails:
                continue
            if tail == "frombuffer" and not any(
                keyword.arg == "dtype" for keyword in node.keywords
            ) and len(node.args) < 2:
                line, text = _call_line(source, node)
                yield self.finding(
                    source.path, line,
                    "frombuffer() without an explicit dtype= defaults "
                    "to float64; reconstructions across the shm seam "
                    "must pin the dtype they were published with",
                    text,
                )
            operands: List[ast.expr] = list(node.args)
            if tail == "tobytes" and isinstance(
                node.func, ast.Attribute
            ):
                operands.append(node.func.value)
            for operand in operands:
                if dtypes.is_contiguity_fixed(operand):
                    continue
                if not dtypes.is_strided(operand):
                    continue
                line, text = _call_line(source, node)
                yield self.finding(
                    source.path, line,
                    f"non-contiguous view crosses the {tail}() seam; "
                    f"transposes/step slices copy or re-stride "
                    f"silently — wrap in np.ascontiguousarray() "
                    f"before the seam",
                    text,
                )
