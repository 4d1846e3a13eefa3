"""The typestate/resource-lifetime rules (SHM001, RES001) and the
dtype/contiguity/clock file rules (DTY001, SHP001, CLK002): per-rule
violation/clean/noqa/baseline fixtures, the interprocedural
acquire-in-one-module/release-in-another cases, the pinned SARIF golden
with the typestate trace, the ``--ignore`` CLI flag, and regression
tests for the real findings these rules caught in the repo (shm
exception-edge leaks, broker slot drops, docstring-only autofix)."""

import ast
import dataclasses
import json
import subprocess
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    render_sarif,
    run_analysis,
    write_baseline,
)
from repro.analysis.__main__ import main
from repro.analysis.autofix import _add_imports
from repro.analysis.registry import instantiate
from repro.errors import CircuitOpenError
from repro.kernels.wedge_block import build_wedge_index
from repro.observability import Observer
from repro.runtime import shm as shm_module
from repro.runtime.shm import attach_shared_graph, publish_graph
from repro.service import BreakerBoard, GraphRegistry, QueryBroker
from repro.service.chaos import FakeClock
from repro.service.schemas import QueryRequest

from .conftest import FIGURE_1_EDGES, build_graph

DATA_DIR = Path(__file__).resolve().parent / "data"

#: The two rules that evaluate protocol specs over the whole program.
PROGRAM_RULES = {"SHM001", "RES001"}


def write_tree(root, files):
    for rel, code in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(code, encoding="utf-8")


def analyze(root, files, rule, baseline=None):
    write_tree(root, files)
    config = AnalysisConfig(
        root=root,
        paths=[],
        select=[rule],
        baseline_path=baseline,
        project_rules=False,
        program_rules=rule in PROGRAM_RULES,
    )
    return run_analysis(config)


_SHM_VIOLATION = {
    "src/repro/runtime/seg.py": (
        "from multiprocessing import shared_memory\n"
        "def publish(data):\n"
        "    shm = shared_memory.SharedMemory(create=True, size=64)\n"
        "    fill(shm, data)\n"
        "    shm.close()\n"
        "    shm.unlink()\n"
        "def fill(shm, data):\n"
        "    shm.buf[:2] = data\n"
    ),
}

_SHM_CLEAN = {
    "src/repro/runtime/seg.py": (
        "from multiprocessing import shared_memory\n"
        "def publish(data):\n"
        "    shm = shared_memory.SharedMemory(create=True, size=64)\n"
        "    try:\n"
        "        fill(shm, data)\n"
        "    finally:\n"
        "        shm.close()\n"
        "        shm.unlink()\n"
        "def fill(shm, data):\n"
        "    shm.buf[:2] = data\n"
    ),
}

_SHM_NOQA = {
    "src/repro/runtime/seg.py": (
        _SHM_VIOLATION["src/repro/runtime/seg.py"].replace(
            "    fill(shm, data)\n",
            "    fill(shm, data)  # repro: noqa[SHM001]\n",
            1,
        )
    ),
}

_RES_VIOLATION = {
    "src/repro/service/gate.py": (
        "def guard(breaker, work):\n"
        "    breaker.allow()\n"
        "    result = work()\n"
        "    breaker.record_success()\n"
        "    return result\n"
    ),
}

_RES_CLEAN = {
    "src/repro/service/gate.py": (
        "def guard(breaker, work):\n"
        "    breaker.allow()\n"
        "    try:\n"
        "        result = work()\n"
        "    except BaseException:\n"
        "        breaker.cancel_probe()\n"
        "        raise\n"
        "    breaker.record_success()\n"
        "    return result\n"
    ),
}

_RES_NOQA = {
    "src/repro/service/gate.py": (
        _RES_VIOLATION["src/repro/service/gate.py"].replace(
            "    result = work()\n",
            "    result = work()  # repro: noqa[RES001]\n",
            1,
        )
    ),
}

_CLK_VIOLATION = {
    "src/repro/service/tick.py": (
        "import time\n"
        "def wait_for(predicate):\n"
        "    while not predicate():\n"
        "        time.sleep(0.05)\n"
    ),
}

_CLK_CLEAN = {
    "src/repro/service/tick.py": (
        "import time\n"
        "def wait_for(predicate, sleep=time.sleep):\n"
        "    while not predicate():\n"
        "        sleep(0.05)\n"
    ),
}

_CLK_NOQA = {
    "src/repro/service/tick.py": (
        _CLK_VIOLATION["src/repro/service/tick.py"].replace(
            "        time.sleep(0.05)\n",
            "        time.sleep(0.05)  # repro: noqa[CLK002]\n",
            1,
        )
    ),
}

_DTY_VIOLATION = {
    "src/repro/kernels/scan.py": (
        "import numpy as np\n"
        "def offsets(counts):\n"
        "    return np.cumsum(counts, dtype=np.int32)\n"
    ),
}

_DTY_CLEAN = {
    "src/repro/kernels/scan.py": (
        "import numpy as np\n"
        "def offsets(counts):\n"
        "    return np.cumsum(counts, dtype=np.int64)\n"
    ),
}

_DTY_NOQA = {
    "src/repro/kernels/scan.py": (
        "import numpy as np\n"
        "def offsets(counts):\n"
        "    return np.cumsum(counts, dtype=np.int32)"
        "  # repro: noqa[DTY001]\n"
    ),
}

_SHP_VIOLATION = {
    "src/repro/runtime/seam.py": (
        "import numpy as np\n"
        "def decode(buf):\n"
        "    return np.frombuffer(buf)\n"
    ),
}

_SHP_CLEAN = {
    "src/repro/runtime/seam.py": (
        "import numpy as np\n"
        "def decode(buf):\n"
        "    return np.frombuffer(buf, dtype=np.uint8)\n"
    ),
}

_SHP_NOQA = {
    "src/repro/runtime/seam.py": (
        "import numpy as np\n"
        "def decode(buf):\n"
        "    return np.frombuffer(buf)  # repro: noqa[SHP001]\n"
    ),
}

#: rule -> (violating tree, clean tree, noqa'd tree, message fragment).
RULE_FIXTURES = {
    "SHM001": (_SHM_VIOLATION, _SHM_CLEAN, _SHM_NOQA, "leaks if"),
    "RES001": (_RES_VIOLATION, _RES_CLEAN, _RES_NOQA, "leaks if"),
    "CLK002": (_CLK_VIOLATION, _CLK_CLEAN, _CLK_NOQA, "direct sleep"),
    "DTY001": (_DTY_VIOLATION, _DTY_CLEAN, _DTY_NOQA, "narrow dtype"),
    "SHP001": (_SHP_VIOLATION, _SHP_CLEAN, _SHP_NOQA, "frombuffer"),
}


class TestPerRuleFixtures:
    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_violation_reported(self, tmp_path, rule):
        violating, _, _, fragment = RULE_FIXTURES[rule]
        result = analyze(tmp_path, violating, rule)
        assert [f.rule for f in result.findings] == [rule]
        assert fragment in result.findings[0].message

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_clean_fixture_passes(self, tmp_path, rule):
        _, clean, _, _ = RULE_FIXTURES[rule]
        result = analyze(tmp_path, clean, rule)
        assert result.findings == []

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_noqa_suppresses(self, tmp_path, rule):
        _, _, noqa, _ = RULE_FIXTURES[rule]
        result = analyze(tmp_path, noqa, rule)
        assert result.findings == []
        assert result.suppressed == 1

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_baseline_grandfathers(self, tmp_path, rule):
        violating, _, _, _ = RULE_FIXTURES[rule]
        first = analyze(tmp_path, violating, rule)
        assert len(first.findings) == 1
        baseline = tmp_path / "tools" / "lint-baseline.json"
        write_baseline(baseline, first.findings)
        second = analyze(tmp_path, violating, rule, baseline=baseline)
        assert second.findings == []
        assert len(second.grandfathered) == 1


class TestShmProtocol:
    def test_use_after_close_with_trace(self, tmp_path):
        result = analyze(tmp_path, {
            "src/repro/runtime/peek.py": (
                "from multiprocessing import shared_memory\n"
                "def peek(name):\n"
                "    shm = shared_memory.SharedMemory(name=name)\n"
                "    payload = shm.buf.tobytes()\n"
                "    shm.close()\n"
                "    rest = shm.buf.tobytes()\n"
                "    return rest\n"
            ),
        }, "SHM001")
        (finding,) = result.findings
        assert finding.line == 6
        assert "used after close()" in finding.message
        # The typestate trace replays the states that led here.
        assert "trace:" in finding.message
        assert "[closed]" in finding.message

    def test_double_unlink(self, tmp_path):
        result = analyze(tmp_path, {
            "src/repro/runtime/retire.py": (
                "from multiprocessing import shared_memory\n"
                "def retire(name):\n"
                "    shm = shared_memory.SharedMemory(name=name)\n"
                "    shm.close()\n"
                "    shm.unlink()\n"
                "    shm.unlink()\n"
            ),
        }, "SHM001")
        (finding,) = result.findings
        assert finding.line == 6
        assert "double unlink" in finding.message

    def test_self_stored_without_finalize_or_sibling_close(
        self, tmp_path
    ):
        result = analyze(tmp_path, {
            "src/repro/runtime/att.py": (
                "from multiprocessing import shared_memory\n"
                "class Attachment:\n"
                "    def __init__(self, name):\n"
                "        self._shm = shared_memory.SharedMemory("
                "name=name)\n"
            ),
        }, "SHM001")
        (finding,) = result.findings
        assert "never released" in finding.message

    def test_self_stored_with_sibling_close_passes(self, tmp_path):
        result = analyze(tmp_path, {
            "src/repro/runtime/att.py": (
                "from multiprocessing import shared_memory\n"
                "class Attachment:\n"
                "    def __init__(self, name):\n"
                "        self._shm = shared_memory.SharedMemory("
                "name=name)\n"
                "    def close(self):\n"
                "        self._shm.close()\n"
            ),
        }, "SHM001")
        assert result.findings == []

    def test_interprocedural_release_in_other_module(self, tmp_path):
        """A finally that delegates to another module's helper pairs
        the acquire — the effects fixpoint follows the call edge."""
        result = analyze(tmp_path, {
            "src/repro/runtime/owner.py": (
                "from multiprocessing import shared_memory\n"
                "from .teardown import retire\n"
                "def publish(data):\n"
                "    shm = shared_memory.SharedMemory("
                "create=True, size=64)\n"
                "    try:\n"
                "        stage(shm, data)\n"
                "    finally:\n"
                "        retire(shm)\n"
                "def stage(shm, data):\n"
                "    shm.buf[:2] = data\n"
            ),
            "src/repro/runtime/teardown.py": (
                "def retire(shm):\n"
                "    shm.close()\n"
                "    shm.unlink()\n"
            ),
        }, "SHM001")
        assert result.findings == []

    def test_interprocedural_without_cleanup_path_still_leaks(
        self, tmp_path
    ):
        result = analyze(tmp_path, {
            "src/repro/runtime/owner.py": (
                "from multiprocessing import shared_memory\n"
                "from .teardown import retire\n"
                "def publish(data):\n"
                "    shm = shared_memory.SharedMemory("
                "create=True, size=64)\n"
                "    stage(shm, data)\n"
                "    retire(shm)\n"
                "def stage(shm, data):\n"
                "    shm.buf[:2] = data\n"
            ),
            "src/repro/runtime/teardown.py": (
                "def retire(shm):\n"
                "    shm.close()\n"
                "    shm.unlink()\n"
            ),
        }, "SHM001")
        (finding,) = result.findings
        assert finding.line == 5
        assert "leaks if stage() raises" in finding.message


class TestResourcePairing:
    def test_interprocedural_record_in_other_module(self, tmp_path):
        result = analyze(tmp_path, {
            "src/repro/service/gate.py": (
                "from .outcome import finish\n"
                "def guard(breaker, work):\n"
                "    breaker.allow()\n"
                "    try:\n"
                "        return finish(breaker, work)\n"
                "    except BaseException:\n"
                "        breaker.cancel_probe()\n"
                "        raise\n"
            ),
            "src/repro/service/outcome.py": (
                "def finish(breaker, work):\n"
                "    result = work()\n"
                "    breaker.record_success()\n"
                "    return result\n"
            ),
        }, "RES001")
        assert result.findings == []

    def test_admission_token_leak(self, tmp_path):
        result = analyze(tmp_path, {
            "src/repro/service/serve.py": (
                "def serve(admission, run):\n"
                "    admission.admit()\n"
                "    out = run()\n"
                "    admission.release()\n"
                "    return out\n"
            ),
        }, "RES001")
        (finding,) = result.findings
        assert "admission inflight slot" in finding.message
        assert "leaks if run() raises" in finding.message

    def test_admission_token_finally_passes(self, tmp_path):
        result = analyze(tmp_path, {
            "src/repro/service/serve.py": (
                "def serve(admission, run):\n"
                "    admission.admit()\n"
                "    try:\n"
                "        return run()\n"
                "    finally:\n"
                "        admission.release()\n"
            ),
        }, "RES001")
        assert result.findings == []

    def test_pool_republish_without_close(self, tmp_path):
        result = analyze(tmp_path, {
            "src/repro/service/pools.py": (
                "from ..runtime import WorkerPool\n"
                "def republish(pools, key, graph):\n"
                "    stale = pools.pop(key, None)\n"
                "    pool = WorkerPool(graph)\n"
                "    pools[key] = pool\n"
                "    return pool\n"
            ),
        }, "RES001")
        (finding,) = result.findings
        assert finding.line == 4
        assert "never calls close()" in finding.message

    def test_pool_republish_with_close_passes(self, tmp_path):
        result = analyze(tmp_path, {
            "src/repro/service/pools.py": (
                "from ..runtime import WorkerPool\n"
                "def republish(pools, key, graph):\n"
                "    stale = pools.pop(key, None)\n"
                "    if stale is not None:\n"
                "        stale.close()\n"
                "    pool = WorkerPool(graph)\n"
                "    pools[key] = pool\n"
                "    return pool\n"
            ),
        }, "RES001")
        assert result.findings == []


class TestFileRuleScoping:
    def test_clk002_out_of_scope_directory_passes(self, tmp_path):
        files = {
            "src/repro/core/tick.py":
                _CLK_VIOLATION["src/repro/service/tick.py"],
        }
        result = analyze(tmp_path, files, "CLK002")
        assert result.findings == []

    def test_dty001_astype_feeding_reduceat(self, tmp_path):
        result = analyze(tmp_path, {
            "src/repro/kernels/ties.py": (
                "import numpy as np\n"
                "def ties(mask, starts):\n"
                "    return np.add.reduceat("
                "mask.astype(np.int32), starts, axis=1)\n"
            ),
        }, "DTY001")
        (finding,) = result.findings
        assert "astype()" in finding.message

    def test_shp001_strided_tobytes(self, tmp_path):
        result = analyze(tmp_path, {
            "src/repro/runtime/ship.py": (
                "def ship(matrix):\n"
                "    return matrix.T.tobytes()\n"
            ),
        }, "SHP001")
        (finding,) = result.findings
        assert "non-contiguous" in finding.message

    def test_shp001_ascontiguous_wrap_passes(self, tmp_path):
        result = analyze(tmp_path, {
            "src/repro/runtime/ship.py": (
                "import numpy as np\n"
                "def ship(matrix):\n"
                "    return np.ascontiguousarray(matrix.T).tobytes()\n"
            ),
        }, "SHP001")
        assert result.findings == []


#: Fixture behind the typestate SARIF golden file — do not edit
#: without regenerating tests/data/typestate_sarif_golden.json.
_SARIF_FILES = {
    "src/repro/service/probe_leak.py": (
        "def guard(breaker, work):\n"
        "    breaker.allow()\n"
        "    out = work()\n"
        "    breaker.record_success()\n"
        "    return out\n"
    ),
}


def _sarif_result(root):
    write_tree(root, _SARIF_FILES)
    config = AnalysisConfig(
        root=root,
        paths=[],
        select=["RES001"],
        project_rules=False,
        program_rules=True,
    )
    return run_analysis(config)


class TestTypestateSarif:
    def test_result_message_carries_typestate_trace(self, tmp_path):
        document = json.loads(render_sarif(_sarif_result(tmp_path)))
        (run,) = document["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "RES001"
        message = result["message"]["text"]
        # State-at-each-step trace, replayable by a SARIF consumer.
        assert "trace: L2 breaker.allow() [held]" in message
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == (
            "src/repro/service/probe_leak.py"
        )
        assert location["region"]["startLine"] == 3

    def test_sarif_matches_golden_file(self, tmp_path):
        rendered = json.loads(render_sarif(_sarif_result(tmp_path)))
        golden = json.loads(
            (DATA_DIR / "typestate_sarif_golden.json").read_text(
                encoding="utf-8"
            )
        )
        assert rendered == golden


class TestIgnoreFlag:
    def test_instantiate_ignore_drops_rule(self):
        rules = instantiate(ignore=["CLK002"])
        assert "CLK002" not in [rule.id for rule in rules]
        assert "CLK001" in [rule.id for rule in rules]

    def test_instantiate_ignore_unknown_id_raises(self):
        with pytest.raises(KeyError, match="unknown ignored"):
            instantiate(ignore=["NOPE999"])

    def test_cli_ignore_mutes_findings(self, tmp_path, capsys):
        write_tree(tmp_path, _CLK_VIOLATION)
        argv = ["--root", str(tmp_path), "--no-cache",
                "--select", "CLK002"]
        assert main(argv) == 1
        capsys.readouterr()
        assert main([*argv, "--ignore", "CLK002"]) == 0

    def test_cli_ignore_unknown_id_exits_2(self, tmp_path, capsys):
        write_tree(tmp_path, _CLK_VIOLATION)
        code = main([
            "--root", str(tmp_path), "--no-cache",
            "--ignore", "NOPE999",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "NOPE999" in err


def _git(root, *args):
    subprocess.run(
        [
            "git", "-c", "user.email=ci@local", "-c", "user.name=ci",
            *args,
        ],
        cwd=root,
        check=True,
        capture_output=True,
    )


class TestDiffMode:
    def test_diff_reports_introduced_probe_leak(self, tmp_path, capsys):
        write_tree(tmp_path, _RES_CLEAN)
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-q", "-m", "seed")
        write_tree(tmp_path, _RES_VIOLATION)
        code = main([
            "--root", str(tmp_path), "--no-cache", "--diff", "HEAD",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "RES001" in out
        assert "gate.py" in out


class _RecordingSegments:
    """Patch ``repro.runtime.shm`` to record close/unlink calls."""

    def __init__(self, monkeypatch):
        self.created = []
        recorder = self

        class Recording(shared_memory.SharedMemory):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.close_calls = 0
                self.unlink_calls = 0
                recorder.created.append(self)

            def close(self):
                self.close_calls += 1
                super().close()

            def unlink(self):
                self.unlink_calls += 1
                super().unlink()

        monkeypatch.setattr(
            shm_module.shared_memory, "SharedMemory", Recording
        )


class _FaultyObserver(Observer):
    """An observer whose gauge/counter sink raises on one metric."""

    def __init__(self, boom):
        super().__init__()
        self._boom = boom

    def inc(self, name, amount=1.0):
        if name == self._boom:
            raise RuntimeError(f"observer fault on {name}")
        super().inc(name, amount)

    def set(self, name, value):
        if name == self._boom:
            raise RuntimeError(f"observer fault on {name}")
        super().set(name, value)


class TestShmExceptionEdges:
    """Regression tests for the SHM001 findings fixed in this change:
    pre-fix, both leaked the mapping/segment on the exception edge."""

    def test_attach_closes_mapping_when_reconstruction_fails(
        self, tmp_path, monkeypatch
    ):
        graph = build_graph(FIGURE_1_EDGES)
        publication = publish_graph(graph, build_wedge_index(graph))
        try:
            # Corrupt the metadata spec: truncating the pickled blob
            # makes ``pickle.loads`` raise mid-``__init__``.
            specs = tuple(
                (name, (1,), dtype, offset)
                if name == "__meta__"
                else (name, shape, dtype, offset)
                for name, shape, dtype, offset in (
                    publication.handle.specs
                )
            )
            bad_handle = dataclasses.replace(
                publication.handle, specs=specs
            )
            recorder = _RecordingSegments(monkeypatch)
            with pytest.raises(Exception):
                attach_shared_graph(bad_handle)
            (attachment_shm,) = recorder.created
            assert attachment_shm.close_calls == 1
            assert attachment_shm.unlink_calls == 0  # owner's job
        finally:
            publication.close()

    def test_publish_unlinks_segment_when_observer_faults(
        self, monkeypatch
    ):
        recorder = _RecordingSegments(monkeypatch)
        observer = _FaultyObserver("worker.shm.published")
        graph = build_graph(FIGURE_1_EDGES)
        index = build_wedge_index(graph)
        with pytest.raises(RuntimeError, match="observer fault"):
            publish_graph(graph, index, observer=observer)
        (segment,) = recorder.created
        assert segment.close_calls >= 1
        assert segment.unlink_calls >= 1


class TestBrokerSlotRegressions:
    """Regression tests for the RES001 findings fixed in this change:
    pre-fix, the admission token and the half-open probe slot leaked
    on unexpected exception edges in ``_dispatch``."""

    def _request(self, **overrides):
        params = dict(dataset="abide", method="os", trials=10, seed=7)
        params.update(overrides)
        return QueryRequest(**params)

    @pytest.fixture()
    def registry(self):
        registry = GraphRegistry(["abide"])
        registry.load_all()
        return registry

    def test_admission_released_when_queue_gauge_faults(self, registry):
        broker = QueryBroker(
            registry,
            observer=_FaultyObserver("service.queue.depth"),
            sleep=lambda _: None,
        )
        with pytest.raises(RuntimeError, match="observer fault"):
            broker.handle(self._request(use_cache=False))
        assert broker.admission.inflight == 0

    def test_probe_returned_when_admit_raises_unexpectedly(
        self, registry, monkeypatch
    ):
        clock = FakeClock()
        broker = QueryBroker(
            registry,
            breakers=BreakerBoard(
                cooldown_seconds=5.0, clock=clock
            ),
            sleep=lambda _: None,
            clock=clock,
        )
        breaker = broker.breakers.get("abide")
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        clock.advance(6.0)  # past cooldown: half-open, one probe slot

        def exploding_admit():
            raise RuntimeError("admission backend down")

        monkeypatch.setattr(
            broker.admission, "admit", exploding_admit
        )
        with pytest.raises(RuntimeError, match="backend down"):
            broker.handle(self._request(use_cache=False))
        # The probe slot must have been handed back: the breaker can
        # still admit its half-open probe instead of wedging open.
        try:
            breaker.allow()
        except CircuitOpenError:
            pytest.fail("probe slot leaked: breaker wedged half-open")
        breaker.cancel_probe()


class TestAutofixImportInsertion:
    """Regression: import insertion onto a module whose last line has
    no trailing newline used to concatenate and break the parse."""

    def test_docstring_only_module(self):
        out = _add_imports(
            '"""Doc only."""',
            ["from repro.errors import ConfigurationError"],
        )
        ast.parse(out)  # pre-fix: SyntaxError (no newline spliced)
        assert out.splitlines() == [
            '"""Doc only."""',
            "from repro.errors import ConfigurationError",
        ]

    def test_imports_only_module_without_trailing_newline(self):
        out = _add_imports(
            "import os",
            ["from repro.errors import ConfigurationError"],
        )
        ast.parse(out)
        assert out.splitlines() == [
            "import os",
            "from repro.errors import ConfigurationError",
        ]
