"""Forked local workers: a loopback coordinator plus N worker processes.

``run_campaign(..., n_workers=N)`` with ``N > 1`` lands here: bind the
coordinator socket, fork the workers (before the server thread starts,
so children inherit a quiet process), serve leases until the table is
done, then terminate the workers still polling for work.  Churn costs
at most one lease TTL, never work: a dead worker's lease expires and is
re-issued to a survivor, and when every worker has died a bounded
number are respawned.  ``repro-tp work --jobs N`` runs the same worker
entry point against a remote coordinator.
"""

from __future__ import annotations

import sys

from .coordinator import Coordinator, CoordinatorServer
from .protocol import BackoffPolicy
from .worker import CoordinatorUnreachable, ServiceWorker, _mp_context

#: Exit codes for worker processes.
_WORKER_OK = 0
_WORKER_UNREACHABLE = 3

#: How often the parent checks on its workers while the table drains.
_POLL_S = 0.2
#: Worker processes started per requested worker before a fleet whose
#: workers all keep dying is given up on.
_SPAWNS_PER_WORKER = 3


def _fleet_worker_main(
    url: str,
    worker_id: str,
    backoff_seed: int,
    max_failures: int = 8,
) -> None:
    """A worker process's entry point: exits with the worker's code.

    ``multiprocessing`` ignores a target's return value, so the code
    (0, or 3 when the coordinator stayed unreachable) is the process's
    exit status, which its parent reads as ``Process.exitcode``.
    """
    worker = ServiceWorker(
        url,
        worker_id=worker_id,
        max_failures=max_failures,
        backoff=BackoffPolicy(seed=backoff_seed),
    )
    try:
        worker.run()
    except CoordinatorUnreachable:
        sys.exit(_WORKER_UNREACHABLE)
    sys.exit(_WORKER_OK)


def run_fleet(coordinator: Coordinator, n_workers: int) -> bool:
    """Drain ``coordinator``'s lease table with ``n_workers`` forked workers.

    Returns whether the table is done; it is not only when every worker
    kept dying until the spawn budget ran out.
    """
    server = CoordinatorServer(coordinator)
    url = server.bind()
    ctx = _mp_context()

    def spawn(index: int):
        process = ctx.Process(
            target=_fleet_worker_main,
            args=(url, f"w{index}", index),
            daemon=True,
        )
        process.start()
        return process

    # Fork the initial fleet before the server thread exists: children
    # inherit a single-threaded process (no mid-lock asyncio state).
    workers = [spawn(index) for index in range(n_workers)]
    server.start()
    try:
        while not server.wait_done(timeout=_POLL_S):
            if any(worker.is_alive() for worker in workers):
                continue
            if len(workers) >= _SPAWNS_PER_WORKER * n_workers:
                break  # the workers keep dying; the table stays open
            workers.append(spawn(len(workers)))
    finally:
        # Every result is in (or the fleet was abandoned): a worker still
        # alive is polling for work or repeating a re-issued trial.
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join(timeout=5.0)
        server.stop()
    return coordinator.table.done
