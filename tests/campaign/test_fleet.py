"""Forked workers: churn survival, resume identity, one-worker equivalence.

The acceptance bar: a coordinator + 2-worker fleet — what
``run_campaign(..., n_workers=2)`` runs — must complete its grid even
when one worker is SIGKILLed mid-lease, never losing or double-counting
a trial, and the surviving records' deterministic views must equal what
the in-process ``n_workers=1`` run produces for the same grid.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.attacks.harness import ChannelResult
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    deterministic_view,
    register_attack,
    run_campaign,
    unregister_attack,
)
from repro.campaign.service.coordinator import Coordinator, CoordinatorServer
from repro.campaign.service.fleet import _fleet_worker_main
from repro.campaign.service.leases import LeaseTable, plan_payloads
from repro.campaign.service.worker import _mp_context


def _quick_attack(tp, machine_factory, **params):
    return ChannelResult(
        name="quick", tp_label="quick", samples=[(0, 0), (1, 1)],
        metadata={},
    )


def _slow_attack(tp, machine_factory, **params):
    time.sleep(0.25)
    return _quick_attack(tp, machine_factory)


def _half_second_attack(tp, machine_factory, **params):
    time.sleep(0.5)
    return _quick_attack(tp, machine_factory)


@pytest.fixture
def fake_attacks():
    # Registered before any fork: worker children inherit the registry.
    register_attack("quick", _quick_attack)
    register_attack("slow", _slow_attack)
    register_attack("half-second", _half_second_attack)
    yield
    unregister_attack("quick")
    unregister_attack("slow")
    unregister_attack("half-second")


def _spec(attack="quick", seeds=(0, 1, 2)):
    return CampaignSpec(
        machines=("tiny",), tps=("full", "none"), attacks=(attack,),
        seeds=seeds,
    )


def _views(store):
    return {r["key"]: deterministic_view(r) for r in store.records()}


def _resolved(store):
    return len(store.completed_keys())


class TestDistributedRun:
    def test_fleet_matches_one_worker_bit_for_bit(
        self, fake_attacks, tmp_path
    ):
        spec = _spec()
        one_store = ResultStore(str(tmp_path / "one.jsonl"))
        run_campaign(spec, one_store, n_workers=1, quiet=True)
        fleet_store = ResultStore(str(tmp_path / "fleet.jsonl"))
        report = run_campaign(spec, fleet_store, n_workers=2, quiet=True)
        assert report.completed and report.all_ok
        assert report.executed == 6
        assert _views(fleet_store) == _views(one_store)

    def test_fleet_resumes_past_one_worker_records(
        self, fake_attacks, tmp_path
    ):
        spec = _spec()
        store = ResultStore(str(tmp_path / "r.jsonl"))
        run_campaign(spec, store, n_workers=1, quiet=True)
        report = run_campaign(spec, store, n_workers=2, quiet=True)
        assert report.completed
        assert report.skipped == 6 and report.executed == 0
        assert len(store.records()) == 6  # nothing re-appended

    def test_empty_grid_short_circuits(self, fake_attacks, tmp_path):
        report = run_campaign(
            [], ResultStore(str(tmp_path / "r.jsonl")), n_workers=2,
            quiet=True,
        )
        assert report.completed and report.total == 0

    def test_every_worker_gets_trials(self, fake_attacks, tmp_path):
        """Leases hold one trial, so two workers split four slow trials
        between them instead of one worker taking a batch of all four."""
        store = ResultStore(str(tmp_path / "r.jsonl"))
        report = run_campaign(
            _spec(attack="half-second", seeds=(0, 1)), store, n_workers=2,
            quiet=True,
        )
        assert report.all_ok and report.executed == 4
        pids = {record["worker"]["pid"] for record in store.records()}
        assert len(pids) == 2 and os.getpid() not in pids
        assert not multiprocessing.active_children()  # all stopped


class TestChurnSurvival:
    def _start_fleet(self, spec, store, tmp_path, lease_ttl_s=2.0,
                     n_workers=2, shard_size=1):
        completed = store.completed_keys()
        todo = [t for t in spec.trials() if t.key() not in completed]
        table = LeaseTable(
            plan_payloads(todo), shard_size=shard_size,
            lease_ttl_s=lease_ttl_s,
        )
        coordinator = Coordinator(table, store, campaign=spec.name)
        server = CoordinatorServer(coordinator)
        server.bind()
        ctx = _mp_context()
        workers = [
            ctx.Process(
                target=_fleet_worker_main,
                args=(server.url, f"w{i}", i),
                daemon=True,
            )
            for i in range(n_workers)
        ]
        for worker in workers:
            worker.start()
        server.start()
        return table, server, workers

    def test_sigkilled_worker_loses_no_trials(self, fake_attacks, tmp_path):
        """Kill one of two workers mid-lease; the sweep still completes
        with every trial resolved exactly once."""
        spec = _spec(attack="slow", seeds=(0, 1, 2, 3))
        store = ResultStore(str(tmp_path / "churn.jsonl"))
        table, server, workers = self._start_fleet(spec, store, tmp_path)
        try:
            # Let the fleet get into its leases, then kill w0 dead —
            # SIGKILL, no cleanup, mid-trial.
            deadline = time.monotonic() + 30
            while _resolved(store) < 2:
                assert time.monotonic() < deadline, "fleet never progressed"
                time.sleep(0.05)
            os.kill(workers[0].pid, signal.SIGKILL)
            assert server.wait_done(timeout=60), (
                "fleet did not finish after losing a worker: "
                f"{table.snapshot()}"
            )
        finally:
            for worker in workers:
                worker.join(timeout=10)
                if worker.is_alive():
                    worker.terminate()
            server.stop()
        # No trial lost, none double-counted.
        assert table.done
        assert store.completed_keys() == {t.key() for t in spec.trials()}
        assert len(store.records()) == 8  # exactly one record per trial

    def test_killed_and_restarted_fleet_matches_serial(
        self, fake_attacks, tmp_path
    ):
        """Tear the whole fleet down mid-sweep, restart it, and converge
        on the identical completed-key set a serial run produces."""
        spec = _spec(attack="slow", seeds=(0, 1, 2))
        store = ResultStore(str(tmp_path / "restart.jsonl"))
        table, server, workers = self._start_fleet(spec, store, tmp_path)
        try:
            deadline = time.monotonic() + 30
            while _resolved(store) < 1:
                assert time.monotonic() < deadline, "fleet never progressed"
                time.sleep(0.05)
        finally:
            for worker in workers:  # SIGKILL the whole fleet mid-sweep
                os.kill(worker.pid, signal.SIGKILL)
            for worker in workers:
                worker.join(timeout=10)
            server.stop()
        resolved_early = len(store.completed_keys())
        assert resolved_early < 6, "fleet finished before the kill"
        # Restart: the new fleet leases only the unresolved remainder.
        report = run_campaign(spec, store, n_workers=2, quiet=True)
        assert report.completed
        assert report.skipped == resolved_early
        serial_store = ResultStore(str(tmp_path / "serial.jsonl"))
        run_campaign(spec, serial_store, n_workers=1, quiet=True)
        assert store.completed_keys() == serial_store.completed_keys()
        assert len(store.records()) == 6
        assert _views(store) == _views(serial_store)


@pytest.mark.slow
class TestThousandTrialAcceptance:
    def test_1000_trials_with_worker_killed_matches_one_worker(
        self, fake_attacks, tmp_path
    ):
        """The acceptance sweep: >=1000 trials through a 2-worker fleet
        with one worker killed partway, deterministic views equal to the
        in-process one-worker run's."""
        spec = _spec(seeds=tuple(range(500)))  # 500 seeds x 2 tps = 1000
        assert len(spec.trials()) == 1000
        fleet_store = ResultStore(str(tmp_path / "fleet.jsonl"))
        churn = TestChurnSurvival()
        table, server, workers = churn._start_fleet(
            spec, fleet_store, tmp_path, lease_ttl_s=5.0, shard_size=25,
        )
        try:
            deadline = time.monotonic() + 120
            while _resolved(fleet_store) < 100:
                assert time.monotonic() < deadline, "fleet never progressed"
                time.sleep(0.05)
            os.kill(workers[0].pid, signal.SIGKILL)
            assert server.wait_done(timeout=300), (
                f"sweep incomplete: {table.snapshot()}"
            )
        finally:
            for worker in workers:
                worker.join(timeout=10)
                if worker.is_alive():
                    worker.terminate()
            server.stop()
        assert table.done and len(fleet_store) == 1000
        one_store = ResultStore(str(tmp_path / "one.jsonl"))
        report = run_campaign(spec, one_store, n_workers=1, quiet=True)
        assert report.all_ok
        assert _views(fleet_store) == _views(one_store)
