"""The analysis pivot and the ``repro-tp campaign`` subcommand."""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.analysis.summary import capacity_matrix, format_matrix, pivot_records
from repro.campaign import ResultStore
from repro.cli import main


def _record(machine, tp, attack="e5", seed=0, capacity=0.0, status="ok"):
    return {
        "key": f"machine={machine}/tp={tp}/attack={attack}/seed={seed}",
        "machine": machine, "tp": tp, "attack": attack, "seed": seed,
        "status": status,
        "result": {"stats": {"capacity_bits": capacity}} if status == "ok" else None,
    }


class TestPivot:
    def test_worst_case_aggregation_over_attacks(self):
        records = [
            _record("tiny", "none", attack="e5", capacity=0.2),
            _record("tiny", "none", attack="occupancy", capacity=1.0),
            _record("tiny", "full", attack="e5", capacity=0.0),
        ]
        rows, cols, cells = pivot_records(records)
        assert rows == ["tiny"] and set(cols) == {"none", "full"}
        assert cells[("tiny", "none")] == 1.0
        assert cells[("tiny", "full")] == 0.0

    def test_failed_records_are_excluded(self):
        records = [
            _record("tiny", "full", capacity=0.0),
            _record("tiny", "none", status="failed"),
        ]
        _rows, _cols, cells = pivot_records(records)
        assert ("tiny", "none") not in cells

    def test_mean_aggregate_and_unknown_rejected(self):
        records = [
            _record("tiny", "none", seed=0, capacity=0.0),
            _record("tiny", "none", seed=1, capacity=1.0),
        ]
        _r, _c, cells = pivot_records(records, agg="mean")
        assert cells[("tiny", "none")] == pytest.approx(0.5)
        with pytest.raises(KeyError):
            pivot_records(records, agg="median")

    def test_format_marks_closed_and_missing_cells(self):
        rows, cols, cells = pivot_records(
            [
                _record("tiny", "full", capacity=0.0),
                _record("nocolour", "none", capacity=0.8),
            ]
        )
        table = format_matrix(rows, cols, cells)
        assert "·" in table      # closed cell
        assert "-" in table      # missing (machine, tp) combination
        assert "0.800" in table

    def test_capacity_matrix_one_call(self):
        table = capacity_matrix([_record("tiny", "full", capacity=0.0)])
        assert "tiny" in table and "full" in table


class TestCampaignCli:
    def test_grid_runs_resumes_and_summarises(self, tmp_path, capsys):
        store_path = str(tmp_path / "cli.jsonl")
        argv = [
            "campaign", "--machines", "tiny", "--tps", "full,none",
            "--attacks", "e5", "--seeds", "0", "--workers", "1",
            "--store", store_path, "--quiet",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 executed" in out and "capacity_bits" in out
        assert len(ResultStore(store_path).records()) == 2
        # Immediate re-run: zero trials re-executed.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out and "2 resumed" in out
        assert len(ResultStore(store_path).records()) == 2

    def test_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "from-file",
            "machines": ["tiny"],
            "tps": ["full"],
            "attacks": ["e5"],
            "seeds": [0],
            "attack_params": {"e5": {"rounds_per_run": 3}},
        }))
        store_path = str(tmp_path / "spec.jsonl")
        code = main([
            "campaign", "--spec", str(spec_path),
            "--workers", "1", "--store", store_path, "--quiet",
        ])
        assert code == 0
        assert "from-file" in capsys.readouterr().out
        (record,) = ResultStore(store_path).records()
        assert record["params"] == {"rounds_per_run": 3}

    def test_spec_file_with_engine_field_rejected(self, tmp_path, capsys):
        # There is one stepping engine; a spec that still picks one is
        # refused like any other unknown field, before a trial runs.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "machines": ["tiny"], "tps": ["full"], "attacks": ["e5"],
            "seeds": [0], "engine": "batch",
        }))
        store_path = tmp_path / "engine.jsonl"
        code = main([
            "campaign", "--spec", str(spec_path),
            "--workers", "1", "--store", str(store_path), "--quiet",
        ])
        assert code == 2
        assert "unknown campaign spec fields: ['engine']" in (
            capsys.readouterr().err
        )
        assert not store_path.exists()

    def test_unknown_attack_rejected(self, tmp_path, capsys):
        code = main([
            "campaign", "--attacks", "bogus", "--workers", "1",
            "--store", str(tmp_path / "x.jsonl"),
        ])
        assert code == 2
        assert "known attacks" in capsys.readouterr().err

    def test_distributed_option_is_unknown(self, tmp_path, capsys):
        # --workers N runs forked workers over the lease coordinator.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "campaign", "--attacks", "e5", "--distributed",
                "--store", str(tmp_path / "x.jsonl"),
            ])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _sqlite_database(path):
    connection = sqlite3.connect(str(path))
    with connection:
        connection.execute("CREATE TABLE notes (body TEXT)")
        connection.execute("INSERT INTO notes VALUES ('keep me')")
    connection.close()
    return path.read_bytes()


class TestDatabaseStoreRefused:
    """JSONL is the only store: a user's sqlite database passed as
    ``--store`` is refused with exit 2 and left byte-identical."""

    @pytest.mark.parametrize("flags", [[], ["--fresh"], ["--serve"]],
                             ids=["resume", "fresh", "serve"])
    def test_campaign_exits_two(self, tmp_path, flags):
        path = tmp_path / "r.sqlite"
        before = _sqlite_database(path)
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "--machines", "tiny",
             "--tps", "full", "--attacks", "e5", "--seeds", "0",
             "--workers", "1", "--store", str(path), "--quiet", *flags],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2, done.stdout + done.stderr
        assert "JSONL" in done.stderr
        assert path.read_bytes() == before


class TestImportGuard:
    def test_one_worker_campaign_loads_no_http_modules(self, tmp_path):
        """The HTTP halves stay off the path the benchmark measures."""
        script = (
            "import json, sys\n"
            "import repro.cli\n"
            "http = ('asyncio', 'urllib.request')\n"
            "after_import = [m for m in http if m in sys.modules]\n"
            "code = repro.cli.main(['campaign', '--machines', 'tiny',\n"
            "    '--tps', 'full', '--attacks', 'e5', '--seeds', '0',\n"
            "    '--workers', '1', '--store', sys.argv[1], '--quiet'])\n"
            "after_run = [m for m in http if m in sys.modules]\n"
            "print(json.dumps([code, after_import, after_run]))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "r.jsonl")],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        code, after_import, after_run = json.loads(
            done.stdout.strip().splitlines()[-1]
        )
        assert (code, after_import, after_run) == (0, [], [])
