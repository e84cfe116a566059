"""Channel implementations: the threats of Sects. 2-4 of the paper.

Each module implements one channel as Trojan/victim + spy programs over
the abstract ISA, a module-level boot-only builder of the system that
transmits one symbol, and an ``experiment(tp, machine_factory, ...)``
entry point that hands the builder to
:func:`~repro.attacks.harness.run_symbol_sweep` and returns the
:class:`~repro.attacks.harness.ChannelResult` the analysis layer
quantifies.  Running the same experiment with time protection off and
on is how every defence claim in the paper is exercised.
"""

from . import (
    branch_channel,
    event_timing,
    flushreload,
    interconnect_channel,
    irq_channel,
    occupancy,
    primeprobe,
    switch_latency,
)
from .encoding import bits_to_int, hamming_error_rate, int_to_bits, majority
from .harness import ChannelResult, run_symbol_sweep
from .transmission import CovertTransmitter, TransmissionResult

__all__ = [
    "ChannelResult",
    "CovertTransmitter",
    "TransmissionResult",
    "bits_to_int",
    "branch_channel",
    "event_timing",
    "flushreload",
    "hamming_error_rate",
    "int_to_bits",
    "interconnect_channel",
    "irq_channel",
    "majority",
    "occupancy",
    "primeprobe",
    "run_symbol_sweep",
    "switch_latency",
]
