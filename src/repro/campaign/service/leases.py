"""Sharded trial leases: the coordinator's bookkeeping heart.

The grid is expanded once, in deterministic spec order, into *shards*
(contiguous batches of trial payloads).  A **lease** is one shard handed
to one worker: ``(shard, generation, deadline)``.  The table is a pure
state machine — every method takes ``now`` explicitly, so the whole
lease lifecycle (issue, heartbeat, expiry, re-issue, completion) is
testable with a fake clock and deterministic by construction.

Invariants the tests pin down:

* **No trial lost.**  A shard whose lease deadline passes returns to the
  queue with exactly its unresolved trials; a SIGKILLed worker only
  delays its shard by one TTL.
* **No trial double-counted.**  The first result to arrive for a key
  resolves it; later arrivals (a slow pre-expiry worker racing the
  re-issued lease) are reported as duplicates and never reach the
  store.  Results from a stale generation are still *accepted* when the
  key is unresolved — discarding finished work would be waste, and the
  record content is a pure function of the trial spec either way.
* **Generations are monotonic.**  Each (re-)issue of a shard bumps its
  generation, so heartbeats and submissions can always be attributed to
  the lease that produced them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..spec import TrialSpec
from ..store import STATUS_OK

AVAILABLE = "available"
LEASED = "leased"
DONE = "done"

#: Result-submission outcomes (returned by :meth:`LeaseTable.submit`).
ACCEPTED = "accepted"
DUPLICATE = "duplicate"
UNKNOWN = "unknown"


def plan_payloads(
    trials: Sequence[TrialSpec], timeout_s: float = 0.0
) -> List[Dict[str, Any]]:
    """Trial specs -> wire payloads, with key and per-trial budget embedded."""
    payloads = []
    for trial in trials:
        payload = trial.to_payload()
        payload["key"] = trial.key()
        payload["timeout_s"] = timeout_s
        payloads.append(payload)
    return payloads


@dataclass
class Shard:
    """One batch of trials plus its lease state."""

    shard_id: int
    #: key -> payload, insertion-ordered (dict order is deterministic);
    #: resolved keys are *removed*, so re-issues carry only open work.
    pending: Dict[str, Dict[str, Any]]
    generation: int = 0
    state: str = AVAILABLE
    deadline: float = 0.0
    owner: str = ""

    @property
    def open_count(self) -> int:
        return len(self.pending)


@dataclass
class LeaseStats:
    """Operational counters for reports and the ``/status`` payload."""

    leases_issued: int = 0
    leases_expired: int = 0
    heartbeats: int = 0
    stale_heartbeats: int = 0
    accepted: int = 0
    duplicates: int = 0
    stale_accepted: int = 0
    unknown: int = 0
    succeeded: int = 0
    failed: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "leases_issued": self.leases_issued,
            "leases_expired": self.leases_expired,
            "heartbeats": self.heartbeats,
            "stale_heartbeats": self.stale_heartbeats,
            "accepted": self.accepted,
            "duplicates": self.duplicates,
            "stale_accepted": self.stale_accepted,
            "unknown": self.unknown,
            "succeeded": self.succeeded,
            "failed": self.failed,
        }


class LeaseTable:
    """Shards a campaign grid and tracks every lease's lifecycle."""

    def __init__(
        self,
        payloads: Sequence[Mapping[str, Any]],
        shard_size: int = 8,
        lease_ttl_s: float = 60.0,
        max_retries: int = 1,
    ):
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.shard_size = int(shard_size)
        self.lease_ttl_s = float(lease_ttl_s)
        self.max_retries = int(max_retries)
        self.stats = LeaseStats()
        #: key -> final status string, filled as results arrive.
        self.resolved: Dict[str, str] = {}
        self.shards: List[Shard] = []
        self._shard_of: Dict[str, int] = {}
        keyed: List[Dict[str, Any]] = []
        for payload in payloads:
            payload = dict(payload)
            key = payload.get("key") or TrialSpec.from_payload(payload).key()
            payload["key"] = key
            if key in self._shard_of:
                continue  # grid expansion never repeats keys; belt & braces
            self._shard_of[key] = -1  # assigned below
            keyed.append(payload)
        for start in range(0, len(keyed), self.shard_size):
            chunk = keyed[start:start + self.shard_size]
            shard = Shard(
                shard_id=len(self.shards),
                pending={p["key"]: p for p in chunk},
            )
            for p in chunk:
                self._shard_of[p["key"]] = shard.shard_id
            self.shards.append(shard)
        self.total = len(keyed)
        # Indexes that keep acquire/expire independent of the grid size
        # (a local campaign leases one trial per shard): a min-heap of
        # shard ids that may be available (entries a stale submission
        # finished are skipped when popped), and the leased shard ids.
        self._available: List[int] = list(range(len(self.shards)))
        self._leased: Dict[int, None] = {}

    # -- queries -----------------------------------------------------------

    @property
    def done(self) -> bool:
        return len(self.resolved) >= self.total

    @property
    def open_trials(self) -> int:
        return self.total - len(self.resolved)

    def counts(self) -> Dict[str, int]:
        states = {AVAILABLE: 0, LEASED: 0, DONE: 0}
        for shard in self.shards:
            states[shard.state] += 1
        return states

    # -- lifecycle ---------------------------------------------------------

    def expire(self, now: float) -> List[int]:
        """Return overdue leased shards to the queue; list what expired."""
        expired = []
        for shard_id in sorted(self._leased):
            shard = self.shards[shard_id]
            if now >= shard.deadline:
                del self._leased[shard_id]
                shard.state = AVAILABLE if shard.pending else DONE
                shard.owner = ""
                if shard.pending:
                    heapq.heappush(self._available, shard_id)
                    expired.append(shard_id)
                    self.stats.leases_expired += 1
        return expired

    def acquire(self, worker: str, now: float) -> Optional[Dict[str, Any]]:
        """Lease the first available shard to ``worker``, or ``None``.

        The grant carries only the shard's *unresolved* payloads, its
        bumped generation, and the lease TTL; it is JSON-serializable
        as-is.
        """
        self.expire(now)
        while self._available:
            shard = self.shards[heapq.heappop(self._available)]
            if shard.state == AVAILABLE and shard.pending:
                shard.generation += 1
                shard.state = LEASED
                shard.owner = worker
                shard.deadline = now + self.lease_ttl_s
                self._leased[shard.shard_id] = None
                self.stats.leases_issued += 1
                return {
                    "shard": shard.shard_id,
                    "generation": shard.generation,
                    "ttl_s": self.lease_ttl_s,
                    "max_retries": self.max_retries,
                    "trials": [dict(p) for p in shard.pending.values()],
                }
        return None

    def heartbeat(self, shard_id: int, generation: int, now: float) -> bool:
        """Extend a live lease's deadline; False for stale/unknown ones."""
        if not 0 <= shard_id < len(self.shards):
            return False
        shard = self.shards[shard_id]
        if shard.state == LEASED and shard.generation == generation:
            shard.deadline = now + self.lease_ttl_s
            self.stats.heartbeats += 1
            return True
        self.stats.stale_heartbeats += 1
        return False

    def submit(
        self,
        shard_id: int,
        generation: int,
        record: Mapping[str, Any],
        now: float,
    ) -> str:
        """Account one finished-trial record; returns the outcome.

        ``ACCEPTED`` means the caller should append the record to the
        store — exactly one submission per key ever gets that answer.
        """
        key = record.get("key")
        if key is None or key not in self._shard_of:
            self.stats.unknown += 1
            return UNKNOWN
        if key in self.resolved:
            self.stats.duplicates += 1
            return DUPLICATE
        shard = self.shards[self._shard_of[key]]
        self.resolved[key] = str(record.get("status", ""))
        shard.pending.pop(key, None)
        self.stats.accepted += 1
        if record.get("status") == STATUS_OK:
            self.stats.succeeded += 1
        else:
            self.stats.failed += 1
        if shard.shard_id == shard_id and shard.generation == generation:
            if shard.state == LEASED:
                # Progress doubles as a heartbeat.
                shard.deadline = now + self.lease_ttl_s
        else:
            self.stats.stale_accepted += 1
        if not shard.pending:
            shard.state = DONE
            shard.owner = ""
            self._leased.pop(shard.shard_id, None)
        return ACCEPTED

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic status dict for ``/status`` and reports."""
        return {
            "total": self.total,
            "resolved": len(self.resolved),
            "open": self.open_trials,
            "done": self.done,
            "shards": self.counts(),
            "shard_size": self.shard_size,
            "lease_ttl_s": self.lease_ttl_s,
            "stats": self.stats.to_dict(),
        }
