"""Documentation consistency: tools/check_docs.py and its guarantees."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


class TestRepositoryDocs:
    def test_docs_are_consistent(self):
        assert checker.run_checks() == []

    def test_every_docs_page_exists_and_is_covered(self):
        pages = sorted((REPO_ROOT / "docs").glob("*.md"))
        assert pages, "docs/ must contain pages"
        assert checker.check_readme_covers_docs() == []

    def test_main_exit_code_is_zero(self, capsys):
        assert checker.main() == 0
        assert "OK" in capsys.readouterr().out


class TestCheckerCatchesProblems:
    def test_broken_link_detected(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "[gone](docs/missing.md)\n", encoding="utf-8"
        )
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        problems = checker.check_links()
        assert len(problems) == 1
        assert "broken link" in problems[0]

    def test_uncovered_docs_page_detected(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "orphan.md").write_text("x\n", encoding="utf-8")
        (tmp_path / "README.md").write_text("no links\n", encoding="utf-8")
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        problems = checker.check_readme_covers_docs()
        assert problems == ["README.md does not reference docs/orphan.md"]

    def test_escaping_link_detected(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "[out](../../etc/passwd)\n", encoding="utf-8"
        )
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        problems = checker.check_links()
        assert len(problems) == 1
        assert "escapes" in problems[0]

    def test_external_links_and_anchors_ignored(self, tmp_path,
                                                monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "[a](https://example.org/x.md) [b](#section)\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        assert checker.check_links() == []


class TestCommandLineExtraction:
    def test_continuations_joined(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "```bash\n"
            "python -m repro search g.tsv --method os \\\n"
            "    --trials 100\n"
            "```\n",
            encoding="utf-8",
        )
        lines = checker.fenced_command_lines(page)
        assert lines == [
            "python -m repro search g.tsv --method os --trials 100"
        ]

    def test_prose_outside_fences_ignored(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "use `python -m repro --no-such-flag` casually\n",
            encoding="utf-8",
        )
        assert checker.fenced_command_lines(page) == []

    def test_unknown_documented_flag_detected(self, tmp_path, monkeypatch):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "```bash\npython -m repro search --no-such-flag\n```\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(
            checker, "doc_files", lambda: [tmp_path / "README.md"]
        )
        problems = checker.check_cli_flags()
        assert len(problems) == 1
        assert "--no-such-flag" in problems[0]

    def test_known_flags_nonempty(self):
        cli_flags, bench_flags, lint_flags = checker.known_flags()
        assert {"--metrics-out", "--trace", "--profile-out",
                "--workers"} <= cli_flags
        assert {"--datasets", "--trials", "--out"} <= bench_flags
        assert {"--select", "--baseline", "--write-baseline",
                "--list-rules"} <= lint_flags

    def test_rule_catalog_matches_registry(self):
        assert checker.check_rule_catalog() == []

    def test_rule_catalog_severity_drift_detected(self, monkeypatch):
        """A table row whose severity disagrees with --list-rules is a
        doc rot bug, not a cosmetic difference."""
        page = REPO_ROOT / "docs" / "static-analysis.md"
        text = page.read_text(encoding="utf-8")
        drifted = text.replace(
            "| `LCK003` | warning |", "| `LCK003` | error |", 1
        )
        assert drifted != text
        monkeypatch.setattr(
            type(page), "read_text", lambda self, **kw: drifted
        )
        problems = checker.check_rule_catalog()
        assert any(
            "LCK003" in problem and "'warning'" in problem
            for problem in problems
        )

    def test_adaptive_docs_in_sync(self):
        assert checker.check_adaptive_docs() == []

    def test_adaptive_metric_dropped_from_page_detected(self, monkeypatch):
        """Removing an adaptive.* mention from either anytime-mode page
        must fail the sync check."""
        page = REPO_ROOT / "docs" / "runtime.md"
        text = page.read_text(encoding="utf-8")
        pruned = text.replace("adaptive.realized_epsilon", "adaptive.gone")
        assert pruned != text
        original = type(page).read_text

        def patched(self, **kw):
            if self.name == "runtime.md":
                return pruned
            return original(self, **kw)

        monkeypatch.setattr(type(page), "read_text", patched)
        problems = checker.check_adaptive_docs()
        assert any(
            "runtime.md" in problem
            and "adaptive.realized_epsilon" in problem
            for problem in problems
        )

    def test_rule_catalog_missing_row_detected(self, monkeypatch):
        page = REPO_ROOT / "docs" / "static-analysis.md"
        text = page.read_text(encoding="utf-8")
        pruned = "\n".join(
            line for line in text.splitlines()
            if not line.startswith("| `ATM001`")
        )
        assert pruned != text
        monkeypatch.setattr(
            type(page), "read_text", lambda self, **kw: pruned
        )
        problems = checker.check_rule_catalog()
        assert any(
            "no row" in problem and "ATM001" in problem
            for problem in problems
        )


class TestPerformanceTable:
    """The measured table in docs/performance.md renders from the BENCH
    file; the hand-written table it replaces had drifted from it (abide
    OLS claimed 1.2x where the file gives 0.67x)."""

    BENCH = {
        "config": {"datasets": ["tiny"]},
        "entries": [
            {"dataset": "tiny", "method": "os",
             "trials_per_second": 1234.5},
            {"dataset": "tiny", "method": "os-batched",
             "trials_per_second": 2469.0},
            {"dataset": "tiny", "method": "ols",
             "trials_per_second": 100.0},
        ],
    }

    def _write(self, root, table_rows):
        import json

        (root / "docs").mkdir()
        (root / "BENCH_sampling.json").write_text(
            json.dumps(self.BENCH), encoding="utf-8"
        )
        page = "\n".join([
            "## Measured numbers", "",
            checker.PERFORMANCE_HEADER, "|---|---|---:|---:|---:|",
            *table_rows, "", "Prose after the table.", "",
        ])
        (root / "docs" / "performance.md").write_text(
            page, encoding="utf-8"
        )

    def test_rows_render_from_bench(self):
        assert checker.performance_table(self.BENCH) == [
            "| tiny | os | 1 234.5 | 2 469.0 | 2.00x |"
        ]

    def test_matching_table_passes(self, tmp_path, monkeypatch):
        self._write(tmp_path, checker.performance_table(self.BENCH))
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        assert checker.check_performance_table() == []

    def test_drifted_cell_detected(self, tmp_path, monkeypatch):
        self._write(tmp_path, ["| tiny | os | 1 234.5 | 2 469.0 | 1.2x |"])
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        problems = checker.check_performance_table()
        assert len(problems) == 1
        assert "1.2x" in problems[0] and "2.00x" in problems[0]

    def test_missing_row_detected(self, tmp_path, monkeypatch):
        self._write(tmp_path, [])
        monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
        assert checker.check_performance_table() == [
            "docs/performance.md table has 0 rows; "
            "BENCH_sampling.json gives 1"
        ]
