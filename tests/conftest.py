"""Shared fixtures and system builders for the test suite."""

from __future__ import annotations

import pytest

from repro.core.noninterference import SWAP_EVIDENCE
from repro.hardware import (
    Access,
    Compute,
    Evidence,
    Halt,
    ReadTime,
    Syscall,
    presets,
)
from repro.kernel import Kernel, TimeProtectionConfig


@pytest.fixture
def tiny_machine():
    return presets.tiny_machine()


@pytest.fixture
def tiny_machine_2core():
    return presets.tiny_machine(n_cores=2)


def secret_striding_trojan(ctx):
    """A Hi program whose memory pattern depends on ctx.params['secret']."""
    secret = ctx.params.get("secret", 0)
    for i in range(60):
        yield Access(
            ctx.data_base + ((i * (secret + 1) * ctx.line_size) % ctx.data_size),
            write=True,
            value=i,
        )
        if i % 8 == 0:
            yield Syscall("nop")
    while True:
        yield Compute(10)


def timing_observer(ctx):
    """A Lo program that observes timestamps and its own access latencies."""
    iterations = ctx.params.get("iterations", 120)
    for i in range(iterations):
        yield ReadTime()
        yield Access(ctx.data_base + (i * ctx.line_size) % ctx.data_size)
        if i % 16 == 0:
            yield Syscall("nop")
    yield Halt()


#: The horizon the standard system runs to.
MAX_CYCLES = 400_000


def boot_two_domain_system(
    secret,
    tp: TimeProtectionConfig,
    machine_factory=presets.tiny_machine,
    observer_iterations: int = 120,
    pad_cycles=None,
):
    """The standard Hi/Lo system used across proof and NI tests, booted
    but not run: the builder contract of the prover and the sweeps.

    ``pad_cycles`` sets both domains' pads (default: the kernel's WCET
    estimate)."""
    machine = machine_factory()
    kernel = Kernel(machine, tp)
    hi = kernel.create_domain(
        "Hi", n_colours=2, slice_cycles=3000, pad_cycles=pad_cycles)
    lo = kernel.create_domain(
        "Lo", n_colours=2, slice_cycles=3000, pad_cycles=pad_cycles)
    kernel.create_thread(hi, secret_striding_trojan, params={"secret": secret})
    kernel.create_thread(
        lo, timing_observer, params={"iterations": observer_iterations}
    )
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    return kernel


def build_two_domain_system(
    secret,
    tp: TimeProtectionConfig,
    max_cycles: int = MAX_CYCLES,
    machine_factory=presets.tiny_machine,
    evidence: Evidence = SWAP_EVIDENCE,
    observer_iterations: int = 120,
    pad_cycles=None,
):
    """:func:`boot_two_domain_system`, run to ``max_cycles``.

    The run records ``evidence``: by default what a secret-swap builder
    records; obligation and case-split audits pass
    ``Evidence.everything()``.
    """
    kernel = boot_two_domain_system(
        secret, tp, machine_factory=machine_factory,
        observer_iterations=observer_iterations, pad_cycles=pad_cycles,
    )
    kernel.declare(evidence)
    kernel.run(max_cycles=max_cycles)
    return kernel


@pytest.fixture
def tp_full():
    return TimeProtectionConfig.full()


@pytest.fixture
def tp_none():
    return TimeProtectionConfig.none()
