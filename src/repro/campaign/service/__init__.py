"""Campaign service: the lease coordinator and its worker loop.

Every campaign runs on this package (``campaign.executor.run_campaign``),
and ``campaign --serve`` / ``repro-tp work`` run it past one host:

* :mod:`leases` — a deterministic, clock-injected lease table that
  shards a campaign grid into idempotent batches of trial payloads.
  Leases carry a deadline and a generation counter; an expired lease is
  re-issued with only its unresolved trials, so worker churn never
  loses work and no trial is double-counted.
* :mod:`coordinator` — request routing over the lease table and a
  :class:`~repro.campaign.store.ResultStore` (``/lease``,
  ``/heartbeat``, ``/results``, ``/status``), plus the ``asyncio`` HTTP
  server that serves it.  The coordinator is the *only* store writer,
  so workers never contend for the JSONL file, and it refuses malformed
  results before writing any.
* :mod:`worker` — the worker loop that pulls leases, runs trials
  through :func:`~repro.campaign.worker.run_trial`, enforces per-trial
  deadlines portably (child process, no signals), and sends results
  back: by direct call to an in-process coordinator, or over ``urllib``
  with bounded exponential backoff + seeded jitter.
* :mod:`fleet` — N forked local workers over a loopback coordinator.
* :mod:`status` — the live ``/status`` payload: progress counters plus
  the streaming (machine × tp) capacity matrix.

The HTTP halves (``asyncio``, ``urllib.request``) load only when a
server starts or a worker makes an HTTP request, so an in-process
campaign imports neither.

Determinism note (the SC-2 story): every simulated quantity derives
from ``CycleClock`` and the per-trial derived seed — the same
``run_trial`` runs every trial, so records are bit-identical modulo the
volatile wall-clock/worker metadata at any worker count.  Service-side
*operational* timing (lease deadlines, heartbeats, retry backoff) is
injected as a clock callable so the lease logic itself is deterministic
under test; jitter comes from an explicitly seeded ``random.Random``.
"""

from .leases import LeaseTable, plan_payloads
from .protocol import BackoffPolicy
from .worker import (
    CoordinatorUnreachable,
    ServiceWorker,
    run_trial_with_deadline,
)

__all__ = [
    "BackoffPolicy",
    "CoordinatorUnreachable",
    "LeaseTable",
    "ServiceWorker",
    "plan_payloads",
    "run_trial_with_deadline",
]
