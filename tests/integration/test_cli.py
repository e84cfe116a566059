"""Tests for the command-line interface."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import MACHINES, TP_CONFIGS, build_parser, main
from repro.kernel import Kernel

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture
def no_kernel(monkeypatch):
    """Fail the test if anything builds a kernel: a refusal must come
    before any simulation."""
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was built before the refusal")

    monkeypatch.setattr(Kernel, "__init__", refuse)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["prove"])
        assert args.machine == "tiny"
        assert args.tp == "full"

    def test_store_subcommand_is_unknown(self, tmp_path, capsys):
        # JSONL is the only store: there is nothing to inspect or convert.
        with pytest.raises(SystemExit) as exit_info:
            main(["store", "info", str(tmp_path / "x.jsonl")])
        assert exit_info.value.code == 2
        assert "invalid choice: 'store'" in capsys.readouterr().err

    def test_known_machines_and_configs(self):
        assert "tiny" in MACHINES and "smt" in MACHINES
        assert "full" in TP_CONFIGS and "none" in TP_CONFIGS
        # Every registered factory actually builds.
        for factory in MACHINES.values():
            factory()
        for config in TP_CONFIGS.values():
            config()


class TestInspect:
    def test_conforming_machine_exits_zero(self, capsys):
        assert main(["inspect", "--machine", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "conforms to the aISA contract" in out

    def test_violating_machine_exits_nonzero(self, capsys):
        assert main(["inspect", "--machine", "smt"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATES" in out
        assert "unmanaged" in out


class TestProve:
    def test_protected_system_proves(self, capsys):
        code = main(
            ["prove", "--machine", "tiny", "--tp", "full",
             "--secrets", "1,9", "--max-cycles", "250000"]
        )
        assert code == 0
        assert "THEOREM HOLDS" in capsys.readouterr().out

    def test_unprotected_system_fails(self, capsys):
        code = main(
            ["prove", "--machine", "tiny", "--tp", "none",
             "--secrets", "1,9", "--max-cycles", "250000"]
        )
        assert code == 1
        assert "THEOREM FAILS" in capsys.readouterr().out

    def test_json_format_is_a_full_stable_report(self, capsys):
        code = main(
            ["prove", "--machine", "tiny", "--tp", "full",
             "--secrets", "1,9", "--max-cycles", "250000",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert {o["obligation_id"] for o in payload["obligations"]} >= {
            "PO-2", "PO-3", "PO-4"
        }
        assert all(o["passed"] for o in payload["obligations"])
        assert payload["case_split"]["passed"] is True
        assert payload["unwinding"]["observer_domain"] == "Lo"
        assert [r["holds"] for r in payload["noninterference"]] == [True]
        assert payload["assumptions"]
        assert payload["counterexamples"] == []

    @pytest.mark.parametrize("flags, message", [
        (["--max-cycles", "0"], "--max-cycles must be at least 1"),
        (["--secrets", "5,5"], "two distinct secrets"),
        (["--secrets", "5"], "two distinct secrets"),
        (["--secrets", "1,x"], "invalid prove secrets"),
    ], ids=["max-cycles=0", "secrets=5,5", "secrets=5", "secrets=1,x"])
    def test_empty_or_self_compared_run_exits_two(
            self, capsys, no_kernel, flags, message):
        # Zero-length traces, or a run compared with itself, prove
        # nothing: refused, not reported as THEOREM HOLDS.
        assert main(["prove", "--machine", "tiny", "--tp", "full",
                     *flags]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "THEOREM" not in captured.out


class TestMc:
    def test_full_protection_checks_clean_and_exhaustively(self, capsys):
        code = main(["mc", "--machine", "micro", "--tp", "full",
                     "--secrets", "0,1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "exhaustive over the reachable state space" in out

    def test_no_pad_is_refuted_with_a_counterexample(self, capsys):
        code = main(["mc", "--machine", "micro", "--tp", "no-pad"])
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "counterexample" in out
        assert "path:" in out

    def test_json_format_round_trips(self, capsys):
        code = main(["mc", "--machine", "micro", "--tp", "no-pad",
                     "--secrets", "0,2", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["machine"] == "micro"
        assert payload["tp"] == "no-pad"
        assert payload["passed"] is False
        assert payload["counterexamples"]
        cex = payload["counterexamples"][0]
        assert cex["depth"] == len(cex["path"])
        assert cex["violations"]
        # One exact visited set: no bitstate metadata, and the coverage
        # key perfbench reads is still there.
        assert "bitstate" not in payload
        assert payload["exhaustive"] is False

    def test_bad_secret_domain_exits_two(self, capsys):
        assert main(["mc", "--secrets", "0"]) == 2
        assert "two distinct secrets" in capsys.readouterr().err
        # A repeated secret leaves no pair to check: not a vacuous PASS.
        assert main(["mc", "--secrets", "3,3"]) == 2
        assert "two distinct secrets" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", ["0", "99", "1,16"])
    def test_uninjectable_irq_line_exits_two(self, capsys, lines):
        # Line 0 is the preemption timer; tiny has lines 0..15.
        code = main(["mc", "--machine", "tiny", "--secrets", "0,1",
                     "--irq-lines", lines])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid mc spec" in err and "IRQ line" in err

    @pytest.mark.parametrize("flags, message", [
        (["--max-states", "0"], "max_states must be at least 1"),
        (["--depth", "0"], "depth must be at least 1"),
        (["--irq-budget", "-1"], "irq_budget must be at least 0"),
    ], ids=["max-states=0", "depth=0", "irq-budget=-1"])
    def test_out_of_range_bound_exits_two(
            self, capsys, no_kernel, flags, message):
        # A bound that leaves nothing to explore is refused, not
        # reported as a PASS.
        assert main(["mc", "--machine", "micro", "--secrets", "0,1",
                     *flags]) == 2
        captured = capsys.readouterr()
        assert "invalid mc spec" in captured.err
        assert message in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("option", [
        "--jobs=2", "--exact", "--no-por", "--no-incremental",
        "--no-fast-clone", "--bitstate=1", "--spill-ram=4", "--spill-dir=x",
    ])
    def test_removed_explorer_options_are_unknown(self, capsys, option):
        with pytest.raises(SystemExit) as exit_info:
            main(["mc", "--secrets", "0,1", option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_machine_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mc", "--machine", "bogus"])


class TestChannels:
    def test_survey_reports_closed_channels(self, capsys):
        code = main(["channels", "--machine", "tiny", "--tp", "full",
                     "--only", "e5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all surveyed channels closed" in out

    @pytest.mark.slow
    def test_survey_reports_leaks_without_protection(self, capsys):
        # E5 specifically needs flushing on (its channel is the flush
        # latency); the occupancy channel leaks under a fully bare kernel.
        code = main(["channels", "--machine", "tiny", "--tp", "none",
                     "--only", "occupancy"])
        assert code == 0
        assert "LEAKY" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["channels", "--only", "bogus"]) == 2


class TestSystemThatCannotBoot:
    """A system that cannot boot is a run that proved nothing: exit 2.

    Exit 1 means the theorem (or the check) failed, so a crash while
    booting must not read as one.  Each command names the machine, the
    tp config and the reason in one line, with no traceback.
    """

    @staticmethod
    def _run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
            capture_output=True, text=True, timeout=300,
        )

    @pytest.mark.parametrize("command, tp, reason", [
        ("prove", "full", "out of physical frames"),
        ("prove", "way", "out of physical frames"),
        ("mc", "way", "wants 1 LLC ways, only 0 remain"),
        ("channels", "way", "out of physical frames"),
    ])
    def test_exits_two_with_one_line(self, command, tp, reason):
        done = self._run(command, "--machine", "micro", "--tp", tp)
        assert done.returncode == 2, done.stdout + done.stderr
        assert "Traceback" not in done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith(command)
        assert f"machine 'micro' cannot boot the system under tp '{tp}'" in line
        assert reason in line

    def test_a_refuted_theorem_still_exits_one(self):
        done = self._run("prove", "--machine", "tiny", "--tp", "none",
                         "--secrets", "1,9", "--max-cycles", "250000")
        assert done.returncode == 1, done.stdout + done.stderr
        assert "THEOREM FAILS" in done.stdout


class TestLint:
    """Exit-code contract: 0 clean, 1 findings, 2 internal error."""

    def test_shipped_tree_exits_zero(self, capsys):
        code = main([
            "lint", str(REPO / "src" / "repro"),
            "--baseline", str(REPO / "statcheck.baseline.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "STATIC CONFORMANCE REPORT" in out
        assert "SC-1 [PASS]" in out
        assert "SC-2 [PASS]" in out
        assert "SC-3 [PASS]" in out

    def test_deleted_touch_exits_one_with_location(self, tmp_path, capsys):
        hardware = tmp_path / "hardware"
        shutil.copytree(REPO / "src" / "repro" / "hardware", hardware)
        cache_py = hardware / "cache.py"
        source = cache_py.read_text()
        needle = "        self._touch(set_index, TouchKind.EVICT)\n"
        assert needle in source
        cache_py.write_text(source.replace(needle, "", 1))
        assert main(["lint", str(hardware)]) == 1
        out = capsys.readouterr().out
        assert "SC-1 [FAIL]" in out
        assert "cache.py:" in out  # file:line counterexample

    def test_inserted_wall_clock_exits_one_with_location(
        self, tmp_path, capsys
    ):
        kernel = tmp_path / "kernel"
        shutil.copytree(REPO / "src" / "repro" / "kernel", kernel)
        switch_py = kernel / "switch.py"
        needle = "        entered_at = core.clock.now\n"
        source = switch_py.read_text()
        assert needle in source
        switch_py.write_text(source.replace(
            needle, needle + "        import time; _t = time.time()\n"
        ))
        assert main(["lint", str(kernel)]) == 1
        out = capsys.readouterr().out
        assert "SC-2 [FAIL]" in out
        assert "switch.py:" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "/no/such/tree"]) == 2
        assert "lint error" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main(["lint", str(bad)]) == 2
        assert "lint error" in capsys.readouterr().err

    def test_unjustified_suppression_exits_two(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "suppressions": [{"key": "SC-2:x:*:wall-clock"}]
        }))
        code = main([
            "lint", str(REPO / "src" / "repro"),
            "--baseline", str(baseline),
        ])
        assert code == 2
        assert "justification" in capsys.readouterr().err

    def test_json_format(self, capsys):
        code = main([
            "lint", str(REPO / "src" / "repro"), "--format", "json",
            "--baseline", str(REPO / "statcheck.baseline.json"),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert len(payload["suppressed"]) == 9
        assert payload["summary"] == {
            "SC-1": 0, "SC-2": 0, "SC-3": 0, "SC-4": 0,
        }

    def test_parallel_jobs_flag_clean(self, capsys):
        code = main([
            "lint", str(REPO / "src" / "repro"), "--jobs", "4",
            "--baseline", str(REPO / "statcheck.baseline.json"),
        ])
        assert code == 0
        assert "SC-4 [PASS]" in capsys.readouterr().out

    @staticmethod
    def _baseline_with_stale_entry(tmp_path):
        committed = json.loads(
            (REPO / "statcheck.baseline.json").read_text()
        )
        payload = dict(committed)
        payload["suppressions"] = list(committed["suppressions"]) + [
            {"key": "SC-2:no.such.module:*:wall-clock",
             "justification": "module was removed"},
        ]
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        return baseline

    def test_stale_suppression_warns_by_default(self, tmp_path, capsys):
        baseline = self._baseline_with_stale_entry(tmp_path)
        code = main([
            "lint", str(REPO / "src" / "repro"),
            "--baseline", str(baseline),
        ])
        assert code == 0
        assert "stale suppression" in capsys.readouterr().out

    def test_stale_suppression_fails_under_strict(self, tmp_path, capsys):
        baseline = self._baseline_with_stale_entry(tmp_path)
        code = main([
            "lint", str(REPO / "src" / "repro"),
            "--baseline", str(baseline), "--strict",
        ])
        assert code == 2
        assert "stale" in capsys.readouterr().err

    def test_prune_baseline_rewrites_file(self, tmp_path, capsys):
        committed = json.loads(
            (REPO / "statcheck.baseline.json").read_text()
        )
        baseline = self._baseline_with_stale_entry(tmp_path)
        code = main([
            "lint", str(REPO / "src" / "repro"),
            "--baseline", str(baseline), "--prune-baseline",
        ])
        assert code == 0
        assert "pruned 1 stale" in capsys.readouterr().err
        after = json.loads(baseline.read_text())
        assert (
            [e["key"] for e in after["suppressions"]]
            == [e["key"] for e in committed["suppressions"]]
        )

    def test_committed_baseline_is_tight_under_strict(self, capsys):
        # What CI enforces: --prune-baseline would not change the
        # committed baseline, i.e. --strict passes.
        code = main([
            "lint", str(REPO / "src" / "repro"), "--strict",
            "--baseline", str(REPO / "statcheck.baseline.json"),
        ])
        assert code == 0


#: Minimal search budget: initial population plus one generation is
#: enough for a random population to find the open tiny/no-TP channel
#: (seed pinned), and finishes in seconds.
SYNTH_FAST = [
    "--generations", "1", "--population", "4",
    "--rounds", "4", "--sweep-rounds", "1", "--seed", "7",
]


class TestSynth:
    """Exit-code contract: 0 = no channel found (TP held against the
    search), 1 = channel discovered, 2 = bad environment."""

    def test_defaults(self):
        args = build_parser().parse_args(["synth"])
        assert args.machine == "tiny"
        assert args.tp == "full"
        assert args.victim == "set_hammer"
        assert args.jobs == 1

    def test_open_machine_finds_channel_and_exits_one(self, tmp_path, capsys):
        code = main([
            "synth", "--machine", "tiny", "--tp", "none", *SYNTH_FAST,
            "--store", str(tmp_path / "fit.jsonl"), "--quiet",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "CHANNEL FOUND above" in out
        assert "champion (gen " in out

    def test_full_tp_holds_and_exits_zero(self, tmp_path, capsys):
        code = main([
            "synth", "--machine", "tiny", "--tp", "full", *SYNTH_FAST,
            "--store", str(tmp_path / "fit.jsonl"), "--quiet",
        ])
        assert code == 0
        assert "no channel above" in capsys.readouterr().out

    def test_json_format_round_trips(self, tmp_path, capsys):
        code = main([
            "synth", "--machine", "tiny", "--tp", "none", *SYNTH_FAST,
            "--store", str(tmp_path / "fit.jsonl"), "--format", "json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["found_channel"] is True
        assert payload["env"]["machine"] == "tiny"
        assert payload["env"]["tp"] == "none"
        champion = payload["report"]["champion"]
        assert champion["mutual_information_bits"] > payload["threshold_bits"]
        assert champion["genome"]["ops"]
        assert payload["report"]["history"]

    def test_save_writes_loadable_genomes(self, tmp_path, capsys):
        from repro.synth import load_genomes

        path = tmp_path / "genomes.json"
        code = main([
            "synth", "--machine", "tiny", "--tp", "none", *SYNTH_FAST,
            "--store", str(tmp_path / "fit.jsonl"),
            "--save", str(path), "--quiet",
        ])
        assert code == 1
        records = load_genomes(path)
        assert records
        assert records[0]["genome"]["ops"]
        assert records[0]["env"]["machine"] == "tiny"
        assert records[0]["env"]["tp"] == "none"

    def test_campaign_sweeps_saved_genomes(self, tmp_path, capsys):
        from repro.campaign.registry import ATTACKS, unregister_attack
        from repro.synth import PRIME_PROBE_GENOME, save_genomes
        from repro.synth.env import ChannelGuessEnv

        path = tmp_path / "genomes.json"
        env = ChannelGuessEnv(machine="tiny", tp="none", victim="set_hammer",
                              rounds_per_run=4, sweep_rounds=1)
        save_genomes(path, [PRIME_PROBE_GENOME], env=env)
        try:
            code = main([
                "campaign", "--genomes", str(path),
                "--machines", "tiny", "--tps", "none", "--attacks", "",
                "--seeds", "0", "--workers", "1", "--quiet",
                "--store", str(tmp_path / "campaign.jsonl"),
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert "1 trial(s)" in out and "1 ok" in out
            store_lines = (tmp_path / "campaign.jsonl").read_text().splitlines()
            records = [json.loads(line) for line in store_lines]
            assert any(
                r["attack"] == "synth-0" and r["status"] == "ok"
                for r in records
            )
        finally:
            if "synth-0" in ATTACKS:
                unregister_attack("synth-0")

    def test_bad_genome_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"version\": 99, \"genomes\": []}")
        code = main(["campaign", "--genomes", str(bad)])
        assert code == 2
        assert "cannot load genomes" in capsys.readouterr().err

    def test_syscall_user_victim_runs(self, tmp_path):
        # Its send and poll name the endpoint the runner created.
        code = main([
            "synth", "--machine", "tiny", "--tp", "none",
            "--victim", "syscall_user", "--generations", "1",
            "--population", "4", "--rounds", "2", "--sweep-rounds", "1",
            "--seed", "7", "--store", str(tmp_path / "fit.jsonl"), "--quiet",
        ])
        assert code == 0

    def test_bad_victim_exits_two(self, capsys):
        code = main(["synth", "--victim", "bogus", *SYNTH_FAST])
        assert code == 2
        assert "invalid synth environment" in capsys.readouterr().err

    def test_database_store_exits_two(self, tmp_path, capsys):
        store = tmp_path / "r.db"
        code = main([
            "synth", "--machine", "tiny", "--tp", "none", *SYNTH_FAST,
            "--jobs", "2", "--store", str(store), "--quiet",
        ])
        assert code == 2
        assert "JSONL" in capsys.readouterr().err
        assert not store.exists()


class TestWork:
    """``work`` against a coordinator nobody serves (port 1)."""

    UNSERVED = "http://127.0.0.1:1"

    def test_forked_workers_report_real_exit_codes(self, capsys):
        """Each forked worker gives up after ``--max-failures`` misses and
        exits 3; the command says so and exits 1, within seconds."""
        started = time.monotonic()
        code = main([
            "work", "--coordinator", self.UNSERVED, "--jobs", "2",
            "--max-failures", "1", "--quiet",
        ])
        elapsed = time.monotonic() - started
        assert "2 worker(s) exited: [3, 3]" in capsys.readouterr().out
        assert code == 1
        assert elapsed < 5.0

    def test_flush_every_option_is_unknown(self, capsys):
        # Each record is sent to the coordinator as its trial ends.
        with pytest.raises(SystemExit) as exit_info:
            main(["work", "--coordinator", self.UNSERVED,
                  "--flush-every", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_one_worker_exits_three(self, capsys):
        code = main([
            "work", "--coordinator", self.UNSERVED, "--max-failures", "1",
            "--quiet",
        ])
        assert code == 3
        assert "coordinator unreachable" in capsys.readouterr().err
