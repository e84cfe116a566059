"""The worker loop: pull leases, run trials, send results back.

Every campaign worker is this loop.  It talks to its coordinator either
directly (the one worker of ``run_campaign(..., n_workers=1)``, in the
coordinator's own process) or over HTTP (forked local workers and
``repro-tp work``).  Trials run through
:func:`repro.campaign.worker.run_trial` — same registries, same
per-trial seeding — so a record is bit-identical (modulo volatile
wall-clock/worker metadata) whichever way its worker ran.

Two robustness mechanisms live here rather than in ``run_trial``:

* **Portable deadlines.**  A trial with a budget runs in a child
  process and the deadline is enforced from outside
  (`run_trial_with_deadline`): poll-join, then ``terminate()`` — works
  on any platform and kills genuinely wedged trials, even in C-level
  loops.  Between polls the worker heartbeats its lease so a slow trial
  is not mistaken for a dead worker.
* **Bounded backoff.**  HTTP connection failures back off exponentially
  with *seeded* jitter (:class:`~.protocol.BackoffPolicy`) and give up
  after ``max_failures`` consecutive misses with
  :class:`CoordinatorUnreachable`.  An in-process coordinator is never
  retried: its errors propagate as themselves.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Union

from ..spec import TrialSpec
from ..store import STATUS_FAILED, STATUS_OK
from ..worker import run_trial
from . import protocol
from .coordinator import Coordinator


class CoordinatorUnreachable(Exception):
    """Raised after ``max_failures`` consecutive failed coordinator calls."""


def _mp_context():
    # Every campaign fork starts here.  The estimators import numpy at
    # their first call; loading it now, before any fork, lets forked
    # workers and trial children share this process's copy instead of
    # each importing its own.
    import numpy  # noqa: F401

    # fork shares test-registered attacks with workers and trial
    # children; spawn still works (run_trial is module-level).
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context()


def _deadline_child(payload: Dict[str, Any], conn) -> None:
    try:
        record = run_trial(payload)
    except BaseException as error:  # pragma: no cover - run_trial catches
        record = _failure_record(payload, f"worker child crashed: {error!r}", 0.0)
    try:
        conn.send(record)
    finally:
        conn.close()


def _failure_record(
    payload: Mapping[str, Any], error: str, wall_time_s: float
) -> Dict[str, Any]:
    """A ``run_trial``-shaped failure record built coordinator-side."""
    trial = TrialSpec.from_payload(payload)
    return {
        "key": trial.key(),
        "machine": trial.machine,
        "tp": trial.tp,
        "attack": trial.attack,
        "seed": trial.seed,
        "params": dict(trial.params),
        "derived_seed": trial.derived_seed(),
        "attempts": int(payload.get("attempt", 1)),
        "worker": {"pid": os.getpid(), "host": socket.gethostname()},
        "status": STATUS_FAILED,
        "result": None,
        "error": error,
        "wall_time_s": round(wall_time_s, 6),
    }


def run_trial_with_deadline(
    payload: Mapping[str, Any],
    heartbeat: Optional[Callable[[], None]] = None,
    clock: Callable[[], float] = time.monotonic,
    poll_s: float = 0.25,
    mp_context=None,
) -> Dict[str, Any]:
    """Run one trial with a portable wall-clock deadline.

    ``payload["timeout_s"] <= 0`` runs inline (no child process); a
    positive budget forks a child and enforces the deadline from the
    parent, calling ``heartbeat`` between join polls.
    """
    timeout_s = float(payload.get("timeout_s") or 0)
    if timeout_s <= 0:
        return run_trial(dict(payload))
    ctx = mp_context or _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_deadline_child, args=(dict(payload), child_conn)
    )
    started = clock()
    process.start()
    child_conn.close()
    deadline = started + timeout_s
    while process.is_alive():
        remaining = deadline - clock()
        if remaining <= 0:
            break
        process.join(timeout=min(poll_s, remaining))
        if heartbeat is not None:
            heartbeat()
    record: Optional[Dict[str, Any]] = None
    if process.is_alive():
        process.terminate()
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - terminate() sufficed
            process.kill()
            process.join()
        record = _failure_record(
            payload,
            f"trial timed out: exceeded its {timeout_s}s deadline "
            f"(terminated by the portable watchdog)",
            clock() - started,
        )
    else:
        if parent_conn.poll(1.0):
            try:
                record = parent_conn.recv()
            except (EOFError, OSError):
                record = None
        if record is None:
            record = _failure_record(
                payload,
                f"worker child exited without a record "
                f"(exit code {process.exitcode})",
                clock() - started,
            )
    parent_conn.close()
    return record


@dataclass
class WorkerStats:
    """What one worker loop did, for logs and exit decisions."""

    leases: int = 0
    trials: int = 0
    succeeded: int = 0
    failed: int = 0
    retries: int = 0
    reconnects: int = 0

    def summary(self) -> str:
        return (
            f"{self.leases} lease(s), {self.trials} trial(s) "
            f"({self.succeeded} ok, {self.failed} failed, "
            f"{self.retries} retried), {self.reconnects} reconnect(s)"
        )


class ServiceWorker:
    """One lease-pulling worker loop against a coordinator.

    ``coordinator`` is a base URL, called over HTTP with bounded-backoff
    retry, or a :class:`~.coordinator.Coordinator` in this process,
    called directly: no socket, no thread, no retry.
    """

    def __init__(
        self,
        coordinator: Union[str, Coordinator],
        worker_id: str = "",
        max_retries: Optional[int] = None,
        max_failures: int = 8,
        http_timeout_s: float = 30.0,
        backoff: Optional[protocol.BackoffPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        log: Optional[Callable[[str], None]] = None,
    ):
        if isinstance(coordinator, str):
            self.url, self.coordinator = coordinator.rstrip("/"), None
        else:
            self.url, self.coordinator = "in-process", coordinator
        self.worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}"
        self.max_retries = max_retries
        self.max_failures = max(1, int(max_failures))
        self.http_timeout_s = float(http_timeout_s)
        self.backoff = backoff or protocol.BackoffPolicy()
        self.clock = clock
        self.sleep = sleep
        self.log = log
        self.stats = WorkerStats()
        self._ctx = _mp_context()

    # -- transport ---------------------------------------------------------

    def _request(self, path: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
        if self.coordinator is not None:
            status, response = self.coordinator.handle(
                "POST", path, dict(payload)
            )
            if status != 200:
                raise RuntimeError(f"coordinator refused {path}: {response}")
            return response
        from urllib import request as urlrequest

        request = urlrequest.Request(
            self.url + path,
            data=protocol.encode(payload),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urlrequest.urlopen(request, timeout=self.http_timeout_s) as resp:
            return protocol.decode(resp.read())

    def _call(self, path: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Request with bounded-backoff retry on HTTP connection failures."""
        if self.coordinator is not None:
            return self._request(path, payload)
        while True:
            try:
                response = self._request(path, payload)
            except (OSError, ValueError) as error:
                delay = self.backoff.next_delay()
                if self.backoff.failures >= self.max_failures:
                    raise CoordinatorUnreachable(
                        f"{self.url}{path} failed {self.backoff.failures} "
                        f"time(s); last error: {error!r}"
                    ) from error
                self.stats.reconnects += 1
                if self.log:
                    self.log(
                        f"[{self.worker_id}] coordinator unreachable "
                        f"({error!r}); retrying in {delay:.2f}s"
                    )
                self.sleep(delay)
                continue
            self.backoff.reset()
            return response

    # -- the loop ----------------------------------------------------------

    def run(self) -> WorkerStats:
        while True:
            response = self._call(
                protocol.LEASE_PATH, {"worker": self.worker_id}
            )
            grant = response.get("lease")
            if grant:
                self.stats.leases += 1
                if self._run_lease(grant):
                    # Our last result already answered "done": exit now
                    # rather than racing a coordinator shutdown.
                    if self.log:
                        self.log(
                            f"[{self.worker_id}] done: "
                            f"{self.stats.summary()}"
                        )
                    return self.stats
            elif response.get("done"):
                if self.log:
                    self.log(f"[{self.worker_id}] done: {self.stats.summary()}")
                return self.stats
            else:
                self.sleep(
                    float(response.get("retry_after_s")
                          or protocol.DEFAULT_RETRY_AFTER_S)
                )

    def _run_lease(self, grant: Mapping[str, Any]) -> bool:
        """Run a lease's trials, sending each record as its trial ends;
        True if the grid drained on one of our results."""
        shard = int(grant["shard"])
        generation = int(grant["generation"])
        ttl_s = float(grant.get("ttl_s", 60.0))
        retries = (
            self.max_retries
            if self.max_retries is not None
            else int(grant.get("max_retries", 1))
        )
        heartbeat = self._heartbeat_fn(shard, generation, ttl_s)
        done = False
        for payload in grant.get("trials", []):
            record = self._run_one(payload, retries, heartbeat)
            done = self._send(shard, generation, record) or done
        return done

    def _run_one(
        self,
        payload: Mapping[str, Any],
        retries: int,
        heartbeat: Callable[[], None],
    ) -> Dict[str, Any]:
        executed = dict(payload)
        attempt = 1
        while True:
            executed["attempt"] = attempt
            record = run_trial_with_deadline(
                executed,
                heartbeat=heartbeat,
                clock=self.clock,
                mp_context=self._ctx,
            )
            if record.get("status") == STATUS_OK or attempt > retries:
                break
            attempt += 1
            self.stats.retries += 1
        self.stats.trials += 1
        if record.get("status") == STATUS_OK:
            self.stats.succeeded += 1
        else:
            self.stats.failed += 1
        return record

    def _heartbeat_fn(
        self, shard: int, generation: int, ttl_s: float
    ) -> Callable[[], None]:
        """Best-effort lease extension, rate-limited to ttl/3."""
        interval = max(0.05, ttl_s / 3.0)
        last = [self.clock()]

        def heartbeat() -> None:
            now = self.clock()
            if now - last[0] < interval:
                return
            last[0] = now
            try:
                self._request(protocol.HEARTBEAT_PATH, {
                    "worker": self.worker_id,
                    "shard": shard,
                    "generation": generation,
                })
            except (OSError, ValueError):
                pass  # sending the result will retry with backoff

        return heartbeat

    def _send(
        self, shard: int, generation: int, record: Dict[str, Any]
    ) -> bool:
        """Send one record; True if the coordinator answered "done"."""
        response = self._call(protocol.RESULTS_PATH, protocol.results_request(
            self.worker_id, shard, generation, [record]
        ))
        return bool(response.get("done"))
