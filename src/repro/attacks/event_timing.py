"""Timing Hi events: the downgrader scenario of Sect. 3.2 / Figure 1.

An encryption component (Hi) is *supposed* to hand ciphertext to the
network stack (Lo) -- the message itself is a sanctioned flow.  What must
not flow is anything else: yet if the crypto's execution time depends on
the secret (an algorithmic channel), the *arrival time* of the ciphertext
leaks it.  "Time protection here must make execution time deterministic,
meaning that message passing or context switching happen at
pre-determined times."

With padded IPC delivery (Cock et al. [2014]), the synchronous call hands
over to the receiver's domain only at ``sender_slice_start +
min_exec_cycles``, a constant chosen by the system designer above the
crypto's WCET -- so Lo's receive timestamp carries nothing.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Sequence

from ..hardware.isa import Access, Compute, ProgramContext, ReadTime, Syscall
from ..hardware.machine import Machine
from ..kernel.kernel import Kernel
from ..kernel.timeprotect import TimeProtectionConfig
from .harness import ChannelResult, run_symbol_sweep

_HI_SLICE = 20000
_LO_SLICE = 8000
_CRYPTO_BASE_CYCLES = 1500
_CRYPTO_PER_SYMBOL_CYCLES = 400
_IPC_MIN_EXEC = 12000  # > crypto WCET for the symbol range used


def encryptor(ctx: ProgramContext):
    """Secret-dependent "encryption" time, then hand off to the network."""
    secret = ctx.params["secret"]
    endpoint = ctx.params["endpoint_id"]
    messages = ctx.params.get("messages", 4)
    for message in range(messages):
        # Algorithmic channel: work proportional to the secret.
        yield Compute(_CRYPTO_BASE_CYCLES + secret * _CRYPTO_PER_SYMBOL_CYCLES)
        for line in range(4):  # touch the plaintext/ciphertext buffers
            yield Access(ctx.data_base + line * ctx.line_size, write=True, value=message)
        yield Syscall("call", (endpoint, 0xC0DE + message))
    while True:
        yield Compute(100)


def network_stack(ctx: ProgramContext):
    """Receive ciphertexts, timestamping each arrival."""
    endpoint = ctx.params["endpoint_id"]
    results: List[int] = ctx.params["results"]
    messages = ctx.params.get("messages", 4)
    previous = None
    for _message in range(messages):
        yield Syscall("recv", (endpoint,))
        stamp = yield ReadTime()
        if previous is not None:
            results.append(stamp.value - previous)
        previous = stamp.value


def build(
    kernel: Kernel, secret: int, results: List[int], messages_per_run: int = 5
) -> int:
    """Boot the downgrader encrypting under ``secret``; returns its horizon."""
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=_HI_SLICE)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=_LO_SLICE)
    endpoint = kernel.create_endpoint(
        "ciphertext", min_exec_cycles=_IPC_MIN_EXEC, receiver_domain=lo
    )
    kernel.create_thread(
        hi,
        encryptor,
        params={
            "secret": secret,
            "endpoint_id": endpoint.endpoint_id,
            "messages": messages_per_run,
        },
        daemon=True,
    )
    kernel.create_thread(
        lo,
        network_stack,
        params={
            "endpoint_id": endpoint.endpoint_id,
            "results": results,
            "messages": messages_per_run,
        },
    )
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    return messages_per_run * 600_000


def experiment(
    tp: TimeProtectionConfig,
    machine_factory: Callable[[], Machine],
    symbols: Optional[Sequence[int]] = None,
    messages_per_run: int = 5,
    sweep_rounds: int = 1,
    quantum: int = 64,
) -> ChannelResult:
    """Measure the downgrader event-timing channel under ``tp``.

    The observation is the inter-arrival time of consecutive ciphertexts
    at the network stack (quantised); the symbol is the crypto secret.
    """
    if symbols is None:
        symbols = [0, 5, 10, 15]
    return run_symbol_sweep(
        "downgrader event timing (Figure 1)", tp, machine_factory,
        partial(build, messages_per_run=messages_per_run), symbols,
        rounds=sweep_rounds, quantum=quantum,
    )
