"""CLI validation, SIGINT handling, and runtime flags end to end."""

from __future__ import annotations

import json

import pytest

import repro.__main__ as cli
from repro.graph import save_graph

from .conftest import FIGURE_1_EDGES, build_graph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "figure1.tsv"
    save_graph(build_graph(FIGURE_1_EDGES, name="figure-1"), path)
    return str(path)


def _exit_code(argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    return excinfo.value.code


class TestValidation:
    """Bad options exit 2 with a clear argparse error, before any I/O."""

    @pytest.mark.parametrize("argv", [
        ["search", "--trials", "0"],
        ["search", "--trials", "-5"],
        ["search", "--prepare", "-5"],
        ["search", "--prepare", "0"],
        ["search", "--top", "0"],
        ["search", "--timeout", "0"],
        ["search", "--timeout", "-1.5"],
        ["search", "--checkpoint-every", "0"],
        ["search", "--workers", "0"],
        ["search", "--workers", "2", "--method", "ols-kl"],
        ["search", "--workers", "2", "--checkpoint", "x.json"],
        ["search", "--workers", "2", "--resume", "x.json"],
        ["search", "--method", "exact-dp", "--timeout", "5"],
        ["search", "--method", "exact-dp", "--checkpoint", "x.json"],
    ])
    def test_rejected_with_exit_2(self, argv, capsys):
        # No graph source given: validation must fire before loading.
        assert _exit_code(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_trials_zero_allowed_for_karp_luby(self, graph_file, capsys):
        code = cli.main([
            "search", graph_file, "--method", "ols-kl",
            "--trials", "0", "--seed", "7", "--prepare", "20",
        ])
        assert code == 0
        assert "Top-1 MPMB" in capsys.readouterr().out

    def test_message_names_the_bad_value(self, capsys):
        _exit_code(["search", "--top", "0"])
        assert "--top must be at least 1 (got 0)" in capsys.readouterr().err

    def test_bad_resume_file_is_an_error_not_a_traceback(
        self, graph_file, tmp_path, capsys
    ):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        code = cli.main([
            "search", graph_file, "--method", "os", "--trials", "10",
            "--resume", str(corrupt),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: failed to read checkpoint" in captured.err
        assert "Traceback" not in captured.err

    def test_mismatched_resume_names_the_mismatch(
        self, graph_file, tmp_path, capsys
    ):
        checkpoint = tmp_path / "os.ckpt.json"
        assert cli.main([
            "search", graph_file, "--method", "os", "--trials", "100",
            "--seed", "3", "--checkpoint", str(checkpoint),
        ]) == 0
        capsys.readouterr()
        code = cli.main([
            "search", graph_file, "--method", "mc-vp", "--trials", "100",
            "--resume", str(checkpoint),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "method mismatch" in captured.err


class TestInterrupt:
    def test_sigint_outside_loop_exits_130_without_traceback(
        self, graph_file, capsys, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "find_mpmb", boom)
        code = cli.main(["search", graph_file, "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 130
        assert "interrupted before a partial result" in captured.err
        assert "Traceback" not in captured.err

    def test_sigint_mid_loop_reports_partial_degraded_result(
        self, graph_file, capsys, monkeypatch
    ):
        """Ctrl-C inside the trial loop yields a ranked partial result."""
        from repro.runtime import RuntimePolicy

        calls = {"n": 0}

        def interrupting_clock():
            calls["n"] += 1
            if calls["n"] >= 25:
                raise KeyboardInterrupt
            return 0.0

        # With a timeout set, the engine consults the deadline clock
        # before every trial; raising from it lands the interrupt
        # mid-sampling without touching real signals.
        monkeypatch.setattr(
            cli, "_search_policy",
            lambda args: RuntimePolicy(
                timeout_seconds=3600.0, clock=interrupting_clock
            ),
        )
        code = cli.main([
            "search", graph_file, "--method", "os",
            "--trials", "500", "--seed", "3", "--block-size", "1",
        ])
        captured = capsys.readouterr()
        assert code == 130
        assert "DEGRADED result: the run was interrupted" in captured.out
        assert "Re-widened guarantee" in captured.out
        assert "Top-1 MPMB" in captured.out


class TestSigterm:
    """SIGTERM gets the same graceful degradation as SIGINT (exit 143)."""

    def test_sigterm_mid_loop_reports_partial_and_exits_143(
        self, graph_file, capsys, monkeypatch
    ):
        """The SIGTERM handler rides the KeyboardInterrupt path, so a
        terminated run still prints the partial ranking and re-widened
        guarantee — only the exit code differs (143 = 128+SIGTERM)."""
        from repro.runtime import RuntimePolicy

        calls = {"n": 0}

        def terminating_clock():
            calls["n"] += 1
            if calls["n"] >= 25:
                # What the real signal handler does, minus the signal.
                cli._handle_sigterm(None, None)
            return 0.0

        monkeypatch.setattr(
            cli, "_search_policy",
            lambda args: RuntimePolicy(
                timeout_seconds=3600.0, clock=terminating_clock
            ),
        )
        code = cli.main([
            "search", graph_file, "--method", "os",
            "--trials", "500", "--seed", "3", "--block-size", "1",
        ])
        captured = capsys.readouterr()
        assert code == 143
        assert "DEGRADED result: the run was interrupted" in captured.out
        assert "Re-widened guarantee" in captured.out
        assert "Top-1 MPMB" in captured.out

    def test_sigterm_outside_loop_exits_143(
        self, graph_file, capsys, monkeypatch
    ):
        def boom(*args, **kwargs):
            cli._handle_sigterm(None, None)
        monkeypatch.setattr(cli, "find_mpmb", boom)
        code = cli.main(["search", graph_file, "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 143
        assert "Traceback" not in captured.err

    def test_plain_sigint_still_exits_130(
        self, graph_file, capsys, monkeypatch
    ):
        """A fresh main() resets the SIGTERM flag: Ctrl-C stays 130."""
        def boom(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "find_mpmb", boom)
        assert cli.main(["search", graph_file, "--seed", "3"]) == 130
        capsys.readouterr()


class TestServeValidation:
    """The serve subcommand rejects bad knobs upfront (exit 2)."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "-1"],
        ["serve", "--rate", "0"],
        ["serve", "--burst", "0.5"],
        ["serve", "--max-inflight", "0"],
        ["serve", "--cache-size", "-1"],
        ["serve", "--backbone-k", "0"],
        ["serve", "--breaker-threshold", "0"],
        ["serve", "--breaker-cooldown", "0"],
        ["serve", "--datasets", "nope"],
    ])
    def test_invalid_serve_flags_exit_2(self, argv, capsys):
        assert _exit_code(argv) == 2
        capsys.readouterr()


class TestRuntimeFlags:
    def test_timeout_expiry_prints_degraded_notice(
        self, graph_file, capsys
    ):
        code = cli.main([
            "search", graph_file, "--method", "os",
            "--trials", "500", "--seed", "3", "--timeout", "1e-9",
        ])
        captured = capsys.readouterr()
        assert "DEGRADED result: the wall-clock budget expired" in (
            captured.out
        )
        assert "Re-widened guarantee" in captured.out
        # Zero achieved trials: nothing observed, non-zero exit.
        assert code == 1

    def test_checkpoint_then_resume_round_trip(
        self, graph_file, tmp_path, capsys
    ):
        checkpoint = tmp_path / "search.ckpt.json"
        code = cli.main([
            "search", graph_file, "--method", "os",
            "--trials", "40", "--seed", "3", "--block-size", "1",
            "--checkpoint", str(checkpoint), "--checkpoint-every", "10",
        ])
        first = capsys.readouterr().out
        assert code == 0
        document = json.loads(checkpoint.read_text())
        assert document["kind"] == "repro-runtime-checkpoint"
        assert document["completed"] == 40

        code = cli.main([
            "search", graph_file, "--method", "os",
            "--trials", "40", "--seed", "99", "--block-size", "1",
            "--resume", str(checkpoint),
        ])
        second = capsys.readouterr().out
        assert code == 0
        # A completed checkpoint replays to the same ranking even under
        # a different seed: the loop state supersedes the fresh RNG.
        assert first.splitlines()[-2:] == second.splitlines()[-2:]

    def test_workers_flag_pools_trials(self, graph_file, capsys):
        code = cli.main([
            "search", graph_file, "--method", "os",
            "--trials", "30", "--seed", "3", "--workers", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "30 trials" in out
