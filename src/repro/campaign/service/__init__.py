"""Distributed campaign service: lease coordinator + HTTP worker fleet.

The single-host pool (``campaign.executor``) tops out at one machine.
This package promotes the campaign engine to a *service*:

* :mod:`leases` — a deterministic, clock-injected lease table that
  shards a campaign grid into idempotent batches of trial payloads.
  Leases carry a deadline and a generation counter; an expired lease is
  re-issued with only its unresolved trials, so worker churn never
  loses work and no trial is double-counted.
* :mod:`coordinator` — an ``asyncio`` HTTP server over the lease table
  and a :class:`~repro.campaign.store.ResultStore`: ``POST /lease``,
  ``POST /heartbeat``, ``POST /results``, ``GET /status``.  The
  coordinator is the *only* store writer, so a sqlite store needs no
  cross-process locking.
* :mod:`worker` — a stdlib (``urllib``) worker loop that pulls leases,
  runs trials through the existing :func:`~repro.campaign.worker
  .run_trial` path, enforces per-trial deadlines portably (child
  process, no ``SIGALRM``), and streams results back with bounded
  exponential backoff + seeded jitter.
* :mod:`fleet` — ``campaign --distributed``: coordinator plus N local
  worker processes, with dead workers respawned until the grid drains.
* :mod:`status` — the live ``/status`` payload: progress counters plus
  the streaming (machine × tp) capacity matrix.

Determinism note (the SC-2 story): every simulated quantity still
derives from ``CycleClock`` and the per-trial derived seed, exactly as
in the pool path — the same ``run_trial`` runs the trial, so records
are bit-identical modulo the volatile wall-clock/worker metadata.
Service-side *operational* timing (lease deadlines, heartbeats, retry
backoff) is injected as a clock callable so the lease logic itself is
deterministic under test; jitter comes from an explicitly seeded
``random.Random``.
"""

from .coordinator import CoordinatorServer
from .fleet import FleetReport, run_distributed_campaign
from .leases import LeaseTable, plan_payloads
from .protocol import BackoffPolicy
from .worker import CoordinatorUnreachable, ServiceWorker, run_trial_with_deadline

__all__ = [
    "BackoffPolicy",
    "CoordinatorServer",
    "CoordinatorUnreachable",
    "FleetReport",
    "LeaseTable",
    "ServiceWorker",
    "plan_payloads",
    "run_distributed_campaign",
    "run_trial_with_deadline",
]
