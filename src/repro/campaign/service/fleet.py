"""``campaign --distributed``: a coordinator plus N local worker processes.

The fleet is the one-command version of the service: bind the
coordinator socket, fork the workers (before the server thread starts,
so children inherit a quiet process), serve leases until the grid
drains, and survive churn — dead workers are respawned (bounded) and
expired leases re-issue automatically, so killing a worker mid-sweep
costs at most one lease TTL, never work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from ..progress import ProgressReporter
from ..spec import CampaignSpec, TrialSpec
from ..store import ResultStore
from .coordinator import Coordinator, CoordinatorServer
from .leases import LeaseTable, plan_payloads
from .protocol import BackoffPolicy
from .worker import CoordinatorUnreachable, ServiceWorker

#: Exit codes for worker processes (visible in FleetReport.notes).
_WORKER_OK = 0
_WORKER_UNREACHABLE = 3


@dataclass
class FleetReport:
    """What a distributed campaign run did (mirrors CampaignReport)."""

    total: int
    skipped: int = 0
    executed: int = 0
    succeeded: int = 0
    failed: int = 0
    leases_issued: int = 0
    leases_expired: int = 0
    duplicates: int = 0
    stale_accepted: int = 0
    respawns: int = 0
    workers: int = 0
    completed: bool = False
    wall_time_s: float = 0.0
    url: str = ""

    @property
    def all_ok(self) -> bool:
        return self.completed and self.failed == 0

    def summary(self) -> str:
        return (
            f"{self.total} trial(s): {self.executed} executed "
            f"({self.succeeded} ok, {self.failed} failed), "
            f"{self.skipped} resumed, {self.workers} worker(s) "
            f"(+{self.respawns} respawned), "
            f"{self.leases_issued} lease(s) issued "
            f"({self.leases_expired} expired and re-issued, "
            f"{self.duplicates} duplicate result(s) dropped), "
            f"{self.wall_time_s:.1f}s wall"
            + ("" if self.completed else " [INCOMPLETE]")
        )


def _fleet_worker_main(
    url: str,
    worker_id: str,
    backoff_seed: int,
    flush_every: int,
) -> int:
    worker = ServiceWorker(
        url,
        worker_id=worker_id,
        flush_every=flush_every,
        backoff=BackoffPolicy(seed=backoff_seed),
    )
    try:
        worker.run()
    except CoordinatorUnreachable:
        return _WORKER_UNREACHABLE
    return _WORKER_OK


def run_distributed_campaign(
    campaign: Union[CampaignSpec, Sequence[TrialSpec]],
    store: Union[ResultStore, str],
    n_workers: int = 2,
    shard_size: int = 8,
    lease_ttl_s: float = 30.0,
    timeout_s: float = 0.0,
    max_retries: int = 1,
    resume: bool = True,
    flush_every: int = 1,
    quiet: bool = False,
    host: str = "127.0.0.1",
    port: int = 0,
    max_respawns: Optional[int] = None,
    stall_timeout_s: float = 0.0,
    clock: Callable[[], float] = time.monotonic,
) -> FleetReport:
    """Run a campaign grid through a local coordinator + worker fleet.

    Resume semantics are identical to the pool path: trials whose key
    already has a successful record in ``store`` are never leased, so a
    killed-and-restarted fleet converges on the same completed-key set
    a serial run produces.
    """
    from ..store import open_store
    from .worker import _mp_context

    if isinstance(store, str):
        store = open_store(store)
    trials = (
        campaign.trials()
        if isinstance(campaign, CampaignSpec)
        else list(campaign)
    )
    label = campaign.name if isinstance(campaign, CampaignSpec) else "campaign"
    n_workers = max(1, int(n_workers))
    if max_respawns is None:
        max_respawns = 2 * n_workers

    completed = store.completed_keys() if resume else set()
    todo = [trial for trial in trials if trial.key() not in completed]
    table = LeaseTable(
        plan_payloads(todo, timeout_s=timeout_s),
        shard_size=shard_size,
        lease_ttl_s=lease_ttl_s,
        max_retries=max_retries,
    )
    reporter = ProgressReporter(
        total=len(todo), label=f"{label}/fleet", enabled=not quiet
    )
    coordinator = Coordinator(table, store, campaign=label, reporter=reporter)
    server = CoordinatorServer(coordinator, host=host, port=port)
    server.bind()

    started = clock()
    report = FleetReport(
        total=len(trials), skipped=len(trials) - len(todo),
        workers=n_workers, url=server.url,
    )
    if not todo:
        report.completed = True
        report.wall_time_s = clock() - started
        server.close_unstarted()
        return report

    reporter.start(n_workers, report.skipped)
    ctx = _mp_context()

    def spawn(index: int):
        process = ctx.Process(
            target=_fleet_worker_main,
            args=(server.url, f"w{index}", index, flush_every),
            daemon=True,
        )
        process.start()
        return process

    # Fork the initial fleet before the server thread exists: children
    # inherit a single-threaded process (no mid-lock asyncio state).
    processes: List = [spawn(i) for i in range(n_workers)]
    server.start()
    respawns = 0
    try:
        while not server.wait_done(timeout=0.2):
            if stall_timeout_s and clock() - started > stall_timeout_s:
                break
            alive = [p for p in processes if p.is_alive()]
            if not alive:
                if respawns >= max_respawns:
                    break  # fleet stalled; report INCOMPLETE
                respawns += 1
                processes.append(spawn(n_workers + respawns - 1))
    finally:
        # Workers exit on the coordinator's "done" answer; give them a
        # grace period, then terminate stragglers.
        for process in processes:
            process.join(timeout=5.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        server.stop()
        reporter.finish()

    stats = table.stats
    report.executed = stats.accepted
    report.succeeded = stats.succeeded
    report.failed = stats.failed
    report.leases_issued = stats.leases_issued
    report.leases_expired = stats.leases_expired
    report.duplicates = stats.duplicates
    report.stale_accepted = stats.stale_accepted
    report.respawns = respawns
    report.completed = table.done
    report.wall_time_s = clock() - started
    return report
