"""Tests for the verification runner and its CLI surface.

Covers the ``repro verify`` subcommand, the campaign runner (shrink +
reproducer dump, exercised through a stubbed invariant layer), and the
broken-pipe exit-code contract: a failure verdict survives stdout going
away mid-print.
"""

from __future__ import annotations

import pytest

import repro.cli as cli
import repro.verify.runner as runner_module
from repro.trace import read_trace
from repro.verify import (
    InvariantViolation,
    VerifyOptions,
    run_verification,
)
from repro.verify.runner import smoke_options


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_smoke_campaign_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--seeds", "3", "--trace-length", "16", "--quiet",
        )
        assert code == 0
        assert "OK" in out
        assert "3 seeds" in out

    def test_machine_subset(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--seeds", "2", "--machines", "cray", "inorder:1",
            "--quiet",
        )
        assert code == 0
        assert "2 machines" in out

    def test_config_selection(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--seeds", "2", "--machines", "cray",
            "--config", "M5BR2", "--quiet",
        )
        assert code == 0

    def test_unknown_machine_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--seeds", "1", "--machines", "warp-drive"
        )
        assert code == 2
        assert "warp-drive" in err

    def test_invalid_seed_count_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--seeds", "0")
        assert code == 2
        assert "seed" in err

    def test_unknown_config_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify", "--seeds", "1", "--machines", "cray",
            "--config", "M99BR9",
        )
        assert code == 2


class TestBrokenPipeExitCode:
    """Satellite fix: a verdict set before printing survives a dead pipe."""

    @pytest.fixture(autouse=True)
    def _keep_test_stdout(self, monkeypatch):
        # The real handler dup2's /dev/null over fd 1; under pytest that
        # would clobber the capture file, so stub the detach only.
        monkeypatch.setattr(cli, "_detach_stdout", lambda: None)

    def test_failure_verdict_survives_broken_pipe(self, monkeypatch):
        def dispatch(args):
            cli._set_pending_exit(1)
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_dispatch", dispatch)
        assert cli.main(["verify", "--seeds", "1"]) == 1

    def test_error_verdict_survives_broken_pipe(self, monkeypatch):
        def dispatch(args):
            cli._set_pending_exit(2)
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_dispatch", dispatch)
        assert cli.main(["stats", "--run", "nope"]) == 2

    def test_clean_broken_pipe_still_exits_0(self, monkeypatch):
        def dispatch(args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_dispatch", dispatch)
        assert cli.main(["stats"]) == 0

    def test_failure_survives_mid_campaign_pipe_break(self, monkeypatch):
        # The pipe dies while the runner is still logging failures,
        # before the final verdict line: exit must still be 1.
        def fake_check(trace, spec, config, **kwargs):
            if spec != "cray":
                return []
            return [
                InvariantViolation(
                    check="stub-check",
                    machine="cray",
                    config=config.name,
                    trace_name=trace.name,
                    seq=-1,
                    message="always fails",
                )
            ]

        def dead_pipe_print(*args, **kwargs):
            raise BrokenPipeError

        monkeypatch.setattr(runner_module, "check_invariants", fake_check)
        monkeypatch.setattr("builtins.print", dead_pipe_print)
        code = cli.main(
            ["verify", "--seeds", "2", "--machines", "simple", "cray",
             "--trace-length", "16", "--no-shrink"]
        )
        assert code == 1

    def test_pending_exit_resets_between_invocations(self, monkeypatch):
        def failing_dispatch(args):
            cli._set_pending_exit(1)
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_dispatch", failing_dispatch)
        assert cli.main(["stats"]) == 1

        def clean_dispatch(args):
            raise BrokenPipeError

        monkeypatch.setattr(cli, "_dispatch", clean_dispatch)
        assert cli.main(["stats"]) == 0


class TestRunner:
    def test_smoke_options_pass(self):
        report = run_verification(smoke_options(seeds=4))
        assert report.ok
        assert report.seeds_run == 4
        assert report.checks_run > 0

    def test_option_validation(self):
        with pytest.raises(ValueError):
            VerifyOptions(seeds=0)
        with pytest.raises(ValueError):
            VerifyOptions(machines=())
        with pytest.raises(ValueError):
            VerifyOptions(configs=())
        with pytest.raises(ValueError):
            VerifyOptions(machines=("warp-drive",))

    def test_failure_is_shrunk_and_dumped(self, tmp_path, monkeypatch):
        # Stub the invariant layer: "cray" fails whenever the trace
        # holds a memory reference.  The runner must shrink that to a
        # single instruction and dump a replayable reproducer.
        def fake_check(trace, spec, config, **kwargs):
            if spec != "cray":
                return []
            if any(
                entry.instruction.accesses_memory
                for entry in trace.entries
            ):
                return [
                    InvariantViolation(
                        check="stub-check",
                        machine="cray",
                        config=config.name,
                        trace_name=trace.name,
                        seq=-1,
                        message="memory reference present",
                    )
                ]
            return []

        monkeypatch.setattr(runner_module, "check_invariants", fake_check)
        options = VerifyOptions(
            seeds=6,
            machines=("simple", "cray"),
            dump_dir=tmp_path,
        )
        messages = []
        report = run_verification(options, log=messages.append)
        assert not report.ok
        # One signature -> deduplicated to one reported failure.
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.check == "stub-check"
        assert failure.machine == "cray"
        # Minimal witness: exactly the one memory instruction.
        assert len(failure.trace) == 1
        assert failure.trace.entries[0].instruction.accesses_memory
        assert failure.repro_path is not None
        assert failure.repro_path.exists()
        replayed = read_trace(failure.repro_path)
        assert len(replayed) == 1
        assert any("shrunk" in message for message in messages)
        assert str(failure.repro_path) in str(failure)

    def test_shrink_counts_and_logs_model_crashes(self, monkeypatch, capsys):
        """A shrink candidate that crashes a model is not followed, but it
        is counted and the first crash logged with its machine spec and
        exception; the shrink stays anchored to the original failure."""
        from dataclasses import replace

        import repro.verify.invariants as invariants_module

        real_build = invariants_module.build_simulator

        def build(spec):
            # "cray" miscounts every trace's instructions (an invariant
            # violation) and crashes on traces under eight instructions.
            machine = real_build(spec)
            if spec == "cray":
                observed = machine.simulate_observed

                def simulate_observed(trace, config, on_event):
                    if len(trace) < 8:
                        raise RuntimeError(
                            f"model crashed on {len(trace)} instructions"
                        )
                    result = observed(trace, config, on_event)
                    return replace(
                        result, instructions=result.instructions + 1
                    )

                machine.simulate_observed = simulate_observed
            return machine

        monkeypatch.setattr(invariants_module, "build_simulator", build)
        messages = []
        report = run_verification(
            VerifyOptions(seeds=1, machines=("cray",)), log=messages.append
        )
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.check == "result-instruction-count"
        assert failure.machine == "cray"
        # Anchored: the shrink stops at the shortest trace that still
        # fails the same way instead of following the crash below it.
        assert len(failure.trace) == 8
        assert report.shrink_crashes > 0
        assert report.first_shrink_crash.startswith("cray on a ")
        assert "RuntimeError: model crashed on" in report.first_shrink_crash
        crash_logs = [m for m in messages if "shrink candidate crashed" in m]
        assert crash_logs == [
            f"  shrink candidate crashed {report.first_shrink_crash}"
        ]

        code, out, _ = run_cli(
            capsys, "verify", "--seeds", "1", "--machines", "cray"
        )
        assert code == 1
        assert f"{report.shrink_crashes} shrink candidates crashed" in out

    def test_crash_culprit_names_the_crashing_oracle_machine(
        self, monkeypatch
    ):
        """On the oracle path the crash is attributed to the first spec
        whose replay raises, else to the oracle itself."""
        from repro.core import M11BR5
        from repro.verify.fuzz import fuzz_trace

        real_build = runner_module.build_simulator

        def build(spec):
            machine = real_build(spec)
            if spec == "ooo:2":
                def simulate(trace, config):
                    raise RuntimeError("boom")

                machine.simulate = simulate
            return machine

        monkeypatch.setattr(runner_module, "build_simulator", build)
        trace = fuzz_trace(3)
        culprit = runner_module._crash_culprit
        assert culprit(trace, M11BR5, ("cray", "ooo:2", "ruu:2:10")) == "ooo:2"
        assert culprit(trace, M11BR5, ("cray", "ruu:2:10")) == "oracle"

    @pytest.mark.fuzz
    def test_nightly_fuzz_campaign(self):
        """The large-budget campaign nightly CI runs (excluded from tier-1)."""
        report = run_verification(VerifyOptions(seeds=400))
        assert report.ok, [str(failure) for failure in report.failures]

    @pytest.mark.fuzz
    def test_nightly_fuzz_campaign_long_traces(self):
        from repro.verify import FuzzSpec

        report = run_verification(
            VerifyOptions(
                seeds=100,
                fuzz=FuzzSpec(length=160, dependency_density=0.8),
                first_seed=10_000,
            )
        )
        assert report.ok, [str(failure) for failure in report.failures]

    def test_no_shrink_keeps_full_trace(self, monkeypatch):
        def fake_check(trace, spec, config, **kwargs):
            if spec != "cray":
                return []
            return [
                InvariantViolation(
                    check="stub-check",
                    machine="cray",
                    config=config.name,
                    trace_name=trace.name,
                    seq=-1,
                    message="always fails",
                )
            ]

        monkeypatch.setattr(runner_module, "check_invariants", fake_check)
        options = VerifyOptions(
            seeds=1, machines=("cray",), shrink=False
        )
        report = run_verification(options)
        assert len(report.failures) == 1
        assert len(report.failures[0].trace) == VerifyOptions().fuzz.length
