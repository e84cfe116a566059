"""Run a campaign grid through the lease coordinator, with resume.

Every campaign runs on the service machinery (:mod:`.service`): the
trials the store has not answered become a
:class:`~.service.leases.LeaseTable` of one-trial leases, a
:class:`~.service.coordinator.Coordinator` is the only store writer, and
:class:`~.service.worker.ServiceWorker` loops run the trials, retrying
failed attempts a bounded number of times.  One worker runs in this
process and calls the coordinator directly; more are forked and reach
it over loopback HTTP (:func:`~.service.fleet.run_fleet`).  Records are
appended as trials finish, never in a batch at the end, so an
interrupted campaign loses at most the in-flight trials.

The service modules load on the first :func:`run_campaign` call:
``import repro.cli`` imports this package for its registries, and every
command but ``campaign`` and ``synth --jobs`` would otherwise pay for
them at start-up.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence, Union

from .progress import ProgressReporter
from .spec import CampaignSpec, TrialSpec
from .store import ResultStore

#: A lease holds one trial, so no worker idles while a trial is unleased.
_SHARD_SIZE = 1
#: How long a forked worker may hold a lease without sending a result or
#: heartbeat before its trial is re-issued to another worker.
_LEASE_TTL_S = 30.0


def default_workers() -> int:
    """Worker count honouring CPU affinity where the platform exposes it."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-POSIX
        return max(1, os.cpu_count() or 1)


@dataclass
class CampaignReport:
    """What a campaign run did, for callers and the CLI exit code."""

    total: int
    executed: int = 0
    skipped: int = 0
    succeeded: int = 0
    failed: int = 0
    retries: int = 0
    completed: bool = True
    wall_time_s: float = 0.0

    @property
    def all_ok(self) -> bool:
        return self.completed and self.failed == 0

    def summary(self) -> str:
        return (
            f"{self.total} trial(s): {self.executed} executed "
            f"({self.succeeded} ok, {self.failed} failed, "
            f"{self.retries} retried attempt(s)), {self.skipped} resumed, "
            f"{self.wall_time_s:.1f}s wall"
            + ("" if self.completed else " [INCOMPLETE]")
        )


def run_campaign(
    campaign: Union[CampaignSpec, Sequence[TrialSpec]],
    store: Union[ResultStore, str],
    n_workers: int = 1,
    timeout_s: float = 0.0,
    max_retries: int = 1,
    resume: bool = True,
    quiet: bool = False,
) -> CampaignReport:
    """Run a campaign grid against a result store.

    Parameters
    ----------
    store : ResultStore or path
        Where finished-trial records land; a path opens a
        :class:`ResultStore`.
    n_workers : int
        ``1`` runs the worker loop in this process (no fork: easiest to
        debug, and what the benchmark measures); more fork that many
        workers.
    timeout_s : float
        Per-trial wall-clock budget, enforced by running each attempt in
        a child process; ``0`` disables it.
    max_retries : int
        How many times a failed trial is re-attempted (so a trial runs at
        most ``max_retries + 1`` times).
    resume : bool
        Skip trials whose key already has a successful record on disk.
    """
    from .service.coordinator import Coordinator
    from .service.fleet import run_fleet
    from .service.leases import LeaseTable, plan_payloads
    from .service.worker import ServiceWorker

    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    trials = (
        campaign.trials()
        if isinstance(campaign, CampaignSpec)
        else list(campaign)
    )
    label = campaign.name if isinstance(campaign, CampaignSpec) else "campaign"
    n_workers = max(1, int(n_workers))

    completed = store.completed_keys() if resume else set()
    todo = [trial for trial in trials if trial.key() not in completed]
    table = LeaseTable(
        plan_payloads(todo, timeout_s=float(timeout_s)),
        shard_size=_SHARD_SIZE,
        lease_ttl_s=_LEASE_TTL_S,
        max_retries=max(0, int(max_retries)),
    )
    reporter = ProgressReporter(
        total=len(todo), label=label, enabled=not quiet
    )
    coordinator = Coordinator(table, store, campaign=label, reporter=reporter)
    report = CampaignReport(total=len(trials), skipped=len(trials) - len(todo))
    started = coordinator.clock()
    reporter.start(n_workers, report.skipped)

    if n_workers == 1:
        ServiceWorker(coordinator, worker_id="local").run()
    elif not table.done:
        report.completed = run_fleet(coordinator, n_workers)

    report.executed = table.stats.accepted
    report.succeeded = table.stats.succeeded
    report.failed = table.stats.failed
    report.retries = coordinator.retries
    report.wall_time_s = coordinator.clock() - started
    reporter.finish()
    return report
