"""E8 (Sect. 5): the proof of time protection on conforming hardware.

Paper claim: given the aISA contract, time protection reduces to
functional properties (partitioning invariants, flush application,
timestamp-compared padding) dischargeable with storage-channel machinery,
and the assembled argument yields noninterference.

Regenerated: the full proof report -- abstract model extraction, PO-1..7,
the Sect. 5.2 case split, unwinding conditions, and the two-run secret
sweep -- which must come back THEOREM HOLDS with zero counterexamples.
"""

from repro.core import format_report, prove_time_protection
from repro.hardware import Access, Compute, Halt, ReadTime, Syscall, presets
from repro.kernel import Kernel, TimeProtectionConfig

from _common import run_once


def _hi(ctx):
    secret = ctx.params["secret"]
    for i in range(80):
        yield Access(
            ctx.data_base + (i * (secret + 1) * ctx.line_size) % ctx.data_size,
            write=True,
            value=i,
        )
        if i % 9 == 0:
            yield Syscall("nop")
    while True:
        yield Compute(15)


def _lo(ctx):
    for i in range(160):
        yield ReadTime()
        yield Access(ctx.data_base + (i * ctx.line_size) % ctx.data_size)
        if i % 20 == 0:
            yield Syscall("nop")
    yield Halt()


def _build(secret):
    machine = presets.tiny_machine()
    kernel = Kernel(machine, TimeProtectionConfig.full())
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=3000)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=3000)
    kernel.create_thread(hi, _hi, params={"secret": secret})
    kernel.create_thread(lo, _lo)
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    return kernel


def _prove():
    return prove_time_protection(
        _build, secrets=[1, 7, 19, 42], observer="Lo", max_cycles=450_000
    )


def test_e8_proof_of_time_protection(benchmark):
    report = run_once(benchmark, _prove)
    print()
    print(format_report(report))
    assert report.holds
    assert all(obligation.passed for obligation in report.obligations)
    assert report.case_split is not None and report.case_split.passed
    assert report.unwinding is not None and report.unwinding.passed
    assert all(result.holds for result in report.noninterference)
    assert report.counterexamples() == []
