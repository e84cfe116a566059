"""Kernel trap handling: Case 2a of the proof sketch, executable.

"For Case 2a, the execution time depends on the state of the instruction
cache wrt. the kernel instructions executed, plus the data cache for any
data accessed." (Sect. 5.2)  Accordingly every syscall here *fetches its
handler's text lines through the I-side hierarchy from the calling
domain's kernel image* (the clone, when cloning is on) and touches a
fixed, deterministic prefix of the shared global kernel data.  Kernel
execution is attributed to the instrumentation context
``"<domain>/kernel"`` so the partitioning checker can apply the
kernel-shared-colour exemption precisely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..hardware.cpu import Core
from ..hardware.isa import Syscall
from .ipc import EndpointTable
from .irq_policy import IrqPartitionPolicy
from .objects import Domain, Tcb, ThreadState
from .scheduler import DomainScheduler

# (text-line offset into the kernel image, lines fetched, data words touched)
_OP_COSTS = {
    "nop": (32, 8, 2),
    "yield": (40, 8, 2),
    "send": (48, 14, 4),
    "recv": (64, 14, 4),
    "poll": (80, 10, 3),
    "call": (96, 18, 5),
    "io_submit": (120, 12, 3),
    "sleep": (136, 6, 2),
}

_HANDLER_BASE_CYCLES = 25


class UnknownSyscall(Exception):
    pass


@dataclass
class SyscallOutcome:
    """What the run loop should do after a syscall."""

    retval: Optional[int]
    blocked: bool = False
    yielded: bool = False


class SyscallHandler:
    """Executes syscall semantics with deterministic kernel-path costs."""

    def __init__(
        self,
        endpoints: EndpointTable,
        irq_policy: IrqPartitionPolicy,
        scheduler: DomainScheduler,
        kernel_data_paddrs: List[int],
        instrumentation,
    ):
        self.endpoints = endpoints
        self.irq_policy = irq_policy
        self.scheduler = scheduler
        self.kernel_data_paddrs = kernel_data_paddrs
        self.instrumentation = instrumentation

    def handle(
        self, core: Core, domain: Domain, tcb: Tcb, syscall: Syscall
    ) -> SyscallOutcome:
        """Run the kernel path for ``syscall``; advances the core clock."""
        costs = _OP_COSTS.get(syscall.op)
        if costs is None:
            raise UnknownSyscall(f"unknown syscall {syscall.op!r}")
        self.instrumentation.set_context(f"{domain.name}/kernel")
        self._charge_kernel_path(core, domain, *costs)
        outcome = self._dispatch(core, domain, tcb, syscall)
        return outcome

    # ------------------------------------------------------------------
    # Deterministic kernel-path cost
    # ------------------------------------------------------------------

    def _charge_kernel_path(
        self, core: Core, domain: Domain, line_offset: int, n_lines: int, n_data: int
    ) -> None:
        cycles = _HANDLER_BASE_CYCLES
        image = domain.kernel_image
        if image is not None:
            for paddr in image.text_lines(line_offset, n_lines):
                cycles += core.cached_access(paddr, False, True)
        for paddr in self.kernel_data_paddrs[:n_data]:
            cycles += core.cached_access(paddr, False)
        core.clock.advance(cycles)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def _dispatch(
        self, core: Core, domain: Domain, tcb: Tcb, syscall: Syscall
    ) -> SyscallOutcome:
        op = syscall.op
        args = syscall.args
        now = core.clock.now
        state = self.scheduler.state(core.core_id)

        if op == "nop":
            return SyscallOutcome(retval=0)

        if op == "yield":
            return SyscallOutcome(retval=0, yielded=True)

        if op == "sleep":
            delay = args[0] if args else 0
            tcb.wake_time = now + max(0, delay)
            return SyscallOutcome(retval=0, yielded=True)

        if op == "send":
            endpoint = self.endpoints.get(args[0])
            self.endpoints.enqueue(
                endpoint,
                value=args[1] if len(args) > 1 else 0,
                sender_domain=domain.name,
                now=now,
                sender_slice_start=state.slice_start,
            )
            return SyscallOutcome(retval=0)

        if op == "call":
            endpoint = self.endpoints.get(args[0])
            message = self.endpoints.enqueue(
                endpoint,
                value=args[1] if len(args) > 1 else 0,
                sender_domain=domain.name,
                now=now,
                sender_slice_start=state.slice_start,
            )
            receiver = getattr(endpoint, "receiver_domain", None)
            if receiver is not None and receiver is not domain:
                # Synchronous handoff: the sender suspends and its slice
                # is truncated at the delivery point in favour of the
                # receiver's domain.  Padded IPC makes that point
                # deterministic (sender slice start + min-exec); unpadded,
                # it is the send time itself (the E1 channel).
                self.scheduler.force_switch(
                    core.core_id, receiver, at_time=message.visible_at
                )
                tcb.wake_time = message.visible_at
                return SyscallOutcome(retval=0, yielded=True)
            return SyscallOutcome(retval=0)

        if op == "recv":
            value = self.endpoints.try_receive(args[0], now)
            if value is not None:
                return SyscallOutcome(retval=value)
            tcb.state = ThreadState.BLOCKED
            tcb.blocked_on_endpoint = args[0]
            return SyscallOutcome(retval=None, blocked=True)

        if op == "poll":
            value = self.endpoints.try_receive(args[0], now)
            return SyscallOutcome(retval=value if value is not None else -1)

        if op == "io_submit":
            line, delay = args[0], args[1]
            payload = args[2] if len(args) > 2 else 0
            if not self.irq_policy.may_submit(domain, line):
                return SyscallOutcome(retval=-1)
            core.irq.schedule(line, fire_time=now + max(1, delay), payload=payload)
            return SyscallOutcome(retval=0)

        raise UnknownSyscall(f"unhandled syscall {op!r}")
