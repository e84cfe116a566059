"""Executor behaviour: resume, retry, determinism, forked workers."""

import os

import pytest

from repro.attacks.harness import ChannelResult
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    TrialSpec,
    deterministic_view,
    register_attack,
    run_campaign,
    unregister_attack,
)

_CALLS = {"flaky": 0}


def _quick_attack(tp, machine_factory, **params):
    """A registry-compatible attack that skips the simulator entirely."""
    return ChannelResult(
        name="quick", tp_label="quick", samples=[(0, 0), (1, 1)],
        metadata={"params": sorted(params)},
    )


def _failing_attack(tp, machine_factory, **params):
    raise RuntimeError("injected trial failure")


def _flaky_attack(tp, machine_factory, **params):
    _CALLS["flaky"] += 1
    if _CALLS["flaky"] == 1:
        raise RuntimeError("injected transient failure")
    return _quick_attack(tp, machine_factory, **params)


@pytest.fixture
def fake_attacks():
    register_attack("quick", _quick_attack)
    register_attack("always-fails", _failing_attack)
    _CALLS["flaky"] = 0
    register_attack("flaky-once", _flaky_attack)
    yield
    for name in ("quick", "always-fails", "flaky-once"):
        unregister_attack(name)


def _spec(attacks, tps=("full",), seeds=(0,)):
    return CampaignSpec(
        machines=("tiny",), tps=tps, attacks=attacks, seeds=seeds
    )


class TestSerialExecution:
    def test_one_record_per_trial(self, fake_attacks, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        spec = _spec(("quick",), tps=("full", "none"), seeds=(0, 1))
        report = run_campaign(spec, store, n_workers=1, quiet=True)
        assert report.total == report.executed == report.succeeded == 4
        assert report.all_ok and report.skipped == 0
        records = store.records()
        assert len(records) == 4
        assert {r["key"] for r in records} == {
            t.key() for t in spec.trials()
        }
        for record in records:
            assert record["status"] == "ok"
            assert record["result"]["stats"]["n_samples"] == 2

    def test_resume_skips_completed_trials(self, fake_attacks, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        spec = _spec(("quick",), tps=("full", "none"), seeds=(0, 1))
        run_campaign(spec, store, n_workers=1, quiet=True)
        rerun = run_campaign(spec, store, n_workers=1, quiet=True)
        assert rerun.executed == 0 and rerun.skipped == 4
        assert len(store.records()) == 4  # nothing re-appended

    def test_resume_runs_only_new_trials(self, fake_attacks, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        run_campaign(_spec(("quick",), seeds=(0,)), store, quiet=True)
        grown = run_campaign(
            _spec(("quick",), seeds=(0, 1, 2)), store, quiet=True
        )
        assert grown.skipped == 1 and grown.executed == 2

    def test_fresh_reruns_everything(self, fake_attacks, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        spec = _spec(("quick",))
        run_campaign(spec, store, quiet=True)
        rerun = run_campaign(spec, store, resume=False, quiet=True)
        assert rerun.executed == 1 and rerun.skipped == 0
        assert len(store.records()) == 2  # append-only: both runs on disk

    def test_worker_crash_retry_then_success(self, fake_attacks, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        report = run_campaign(
            _spec(("flaky-once",)), store, max_retries=2, quiet=True
        )
        assert report.all_ok and report.retries == 1
        (record,) = store.records()
        assert record["status"] == "ok" and record["attempts"] == 2

    def test_retries_exhausted_writes_failed_record(
        self, fake_attacks, tmp_path
    ):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        report = run_campaign(
            _spec(("always-fails",)), store, max_retries=2, quiet=True
        )
        assert report.failed == 1 and report.retries == 2
        (record,) = store.records()
        assert record["status"] == "failed"
        assert record["attempts"] == 3  # 1 try + 2 retries
        assert "injected trial failure" in record["error"]
        # A failed record does not satisfy resume: the trial re-runs.
        rerun = run_campaign(
            _spec(("always-fails",)), store, max_retries=0, quiet=True
        )
        assert rerun.executed == 1 and rerun.skipped == 0

    def test_one_worker_runs_in_this_process(self, fake_attacks, tmp_path):
        # The benchmark meters this process: its kernel steps must run here.
        store = ResultStore(str(tmp_path / "r.jsonl"))
        run_campaign(_spec(("quick",)), store, n_workers=1, quiet=True)
        (record,) = store.records()
        assert record["worker"]["pid"] == os.getpid()

    def test_duplicate_trial_keys_collapse(self, fake_attacks, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        trial = TrialSpec("tiny", "full", "quick", seed=0)
        report = run_campaign([trial, trial], store, n_workers=1, quiet=True)
        assert report.total == 2 and report.executed == 1
        assert len(store.records()) == 1

    def test_store_error_propagates_as_itself(self, fake_attacks, tmp_path):
        class FullDisk(ResultStore):
            def append(self, record):
                raise OSError(28, "No space left on device")

        store = FullDisk(str(tmp_path / "r.jsonl"))
        with pytest.raises(OSError, match="No space left"):
            run_campaign(_spec(("quick",)), store, n_workers=1, quiet=True)


class TestDeterminism:
    def test_same_seed_gives_identical_stored_record(self, tmp_path):
        trial = TrialSpec("tiny", "none", "e5", seed=7)
        views = []
        for run in range(2):
            store = ResultStore(str(tmp_path / f"run{run}.jsonl"))
            report = run_campaign([trial], store, n_workers=1, quiet=True)
            assert report.all_ok
            views.append(deterministic_view(store.records()[0]))
        assert views[0] == views[1]
        assert views[0]["result"]["stats"]["n_samples"] > 0


class TestParallelExecution:
    def test_pool_produces_same_records_as_serial(
        self, fake_attacks, tmp_path
    ):
        spec = _spec(("quick",), tps=("full", "none"), seeds=(0, 1, 2))
        serial = ResultStore(str(tmp_path / "serial.jsonl"))
        pooled = ResultStore(str(tmp_path / "pool.jsonl"))
        run_campaign(spec, serial, n_workers=1, quiet=True)
        report = run_campaign(spec, pooled, n_workers=2, quiet=True)
        assert report.executed == 6 and report.all_ok
        by_key_serial = {
            r["key"]: deterministic_view(r) for r in serial.records()
        }
        by_key_pooled = {
            r["key"]: deterministic_view(r) for r in pooled.records()
        }
        assert by_key_serial == by_key_pooled

    def test_pool_failure_and_resume(self, fake_attacks, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        spec = _spec(("quick", "always-fails"), tps=("full",), seeds=(0, 1))
        report = run_campaign(
            spec, store, n_workers=2, max_retries=1, quiet=True
        )
        assert report.executed == 4
        assert report.succeeded == 2 and report.failed == 2
        # Resume re-runs only the failed trials.
        rerun = run_campaign(
            spec, store, n_workers=2, max_retries=0, quiet=True
        )
        assert rerun.skipped == 2 and rerun.executed == 2

    def test_forked_retries_are_counted(self, fake_attacks, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        report = run_campaign(
            _spec(("always-fails",)), store, n_workers=2, max_retries=2,
            quiet=True,
        )
        assert report.failed == 1 and report.retries == 2
        (record,) = store.records()
        assert record["attempts"] == 3


class TestTimeout:
    def test_slow_trial_times_out_and_fails(self, tmp_path):
        def sleepy(tp, machine_factory, **params):
            import time

            time.sleep(30)
            return _quick_attack(tp, machine_factory)

        register_attack("sleepy", sleepy)
        try:
            store = ResultStore(str(tmp_path / "r.jsonl"))
            report = run_campaign(
                _spec(("sleepy",)), store, timeout_s=1,
                max_retries=0, quiet=True,
            )
            assert report.failed == 1
            (record,) = store.records()
            assert record["status"] == "failed"
            assert "timed out" in record["error"]
        finally:
            unregister_attack("sleepy")
