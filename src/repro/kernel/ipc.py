"""Synchronous IPC endpoints with optional padded delivery.

Sect. 3.2: when Hi is a trusted downgrader (Figure 1), the *time* at
which its output message reaches Lo is itself a channel -- algorithmic
(secret-dependent crypto time), Trojan-modulated, or inherited from Hi's
own callers.  "Time protection here must make execution time
deterministic, meaning that message passing or context switching happen
at pre-determined times."

Cock et al. [2014] propose the model implemented here: a synchronous IPC
channel switches to the receiver only once the sender domain has executed
for a pre-determined minimum amount of time (``min_exec_cycles``, set per
endpoint by the system designer, who must account for the sender's WCET).
Messages also become *visible* to receivers no earlier than that release
point, so polling receivers learn nothing either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple
from collections import deque


@dataclass
class Message:
    value: int
    sender_domain: str
    sent_at: int
    visible_at: int


@dataclass
class Endpoint:
    """A kernel IPC endpoint."""

    endpoint_id: int
    name: str
    min_exec_cycles: int = 0  # padded-delivery threshold (0 = unpadded)
    queue: Deque[Message] = field(default_factory=deque)
    # Designated receiver for synchronous "call" handoff, if any (a
    # repro.kernel.objects.Domain; untyped here to avoid a cycle).
    receiver_domain: Optional[object] = None

    def visible_message(self, now: int) -> Optional[Message]:
        if self.queue and self.queue[0].visible_at <= now:
            return self.queue[0]
        return None

    def next_visibility_time(self) -> Optional[int]:
        return self.queue[0].visible_at if self.queue else None


class EndpointTable:
    """All endpoints in the system, by id."""

    def __init__(self, padded_ipc: bool):
        self.padded_ipc = padded_ipc
        self._endpoints: Dict[int, Endpoint] = {}
        self._next_id = 1
        # Plain attribute so the kernel's per-step wakeup scan can skip
        # itself entirely on systems with no IPC endpoints at all.
        self.n_endpoints = 0

    def create(
        self,
        name: str,
        min_exec_cycles: int = 0,
        receiver_domain: Optional[object] = None,
    ) -> Endpoint:
        endpoint = Endpoint(
            endpoint_id=self._next_id,
            name=name,
            min_exec_cycles=min_exec_cycles,
            receiver_domain=receiver_domain,
        )
        self._endpoints[endpoint.endpoint_id] = endpoint
        self._next_id += 1
        self.n_endpoints = len(self._endpoints)
        return endpoint

    def get(self, endpoint_id: int) -> Endpoint:
        endpoint = self._endpoints.get(endpoint_id)
        if endpoint is None:
            raise KeyError(f"no endpoint {endpoint_id}")
        return endpoint

    def all(self) -> List[Endpoint]:
        return [self._endpoints[eid] for eid in sorted(self._endpoints)]

    # ------------------------------------------------------------------
    # Send-side semantics
    # ------------------------------------------------------------------

    def delivery_time(
        self, endpoint: Endpoint, now: int, sender_slice_start: int
    ) -> int:
        """When a message sent at ``now`` becomes visible.

        Padded: no earlier than ``sender_slice_start + min_exec_cycles``
        (the pre-determined release point).  Unpadded: immediately -- the
        send time leaks.
        """
        if self.padded_ipc and endpoint.min_exec_cycles > 0:
            return max(now, sender_slice_start + endpoint.min_exec_cycles)
        return now

    def enqueue(
        self,
        endpoint: Endpoint,
        value: int,
        sender_domain: str,
        now: int,
        sender_slice_start: int,
    ) -> Message:
        message = Message(
            value=value,
            sender_domain=sender_domain,
            sent_at=now,
            visible_at=self.delivery_time(endpoint, now, sender_slice_start),
        )
        endpoint.queue.append(message)
        return message

    # ------------------------------------------------------------------
    # Receive-side semantics
    # ------------------------------------------------------------------

    def try_receive(self, endpoint_id: int, now: int) -> Optional[int]:
        """Dequeue the head message if visible; None otherwise."""
        endpoint = self.get(endpoint_id)
        message = endpoint.visible_message(now)
        if message is None:
            return None
        endpoint.queue.popleft()
        return message.value

    def earliest_visibility(self, now: int) -> Optional[int]:
        """Earliest future visibility time across all endpoints."""
        times = [
            t
            for endpoint in self._endpoints.values()
            for t in [endpoint.next_visibility_time()]
            if t is not None and t > now
        ]
        return min(times) if times else None
