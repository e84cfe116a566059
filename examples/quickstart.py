#!/usr/bin/env python3
"""Quickstart: boot a protected two-domain system and prove time protection.

This walks the library's whole surface in one sitting:

1. build a machine (the microarchitectural simulator),
2. boot the kernel with full time protection,
3. create a Hi domain (holding a secret) and a Lo domain (the observer),
4. ask the proof engine, which runs the system once per secret, whether
   Lo could have learnt anything.

Run it twice mentally: once as written (the theorem holds), then flip
``PROTECTED`` to False and watch the proof fail with concrete
counterexamples -- a divergence in Lo's own timestamps caused purely by
Hi's secret.
"""

from repro import Kernel, TimeProtectionConfig, presets
from repro.hardware import Access, Compute, Halt, ReadTime, Syscall
from repro.core import format_report, prove_time_protection

PROTECTED = True


def hi_program(ctx):
    """Hi: touches memory in a secret-dependent pattern (a side channel
    waiting to happen), and makes the occasional syscall."""
    secret = ctx.params["secret"]
    for i in range(80):
        stride = (secret + 1) * ctx.line_size
        yield Access(ctx.data_base + (i * stride) % ctx.data_size, write=True, value=i)
        if i % 10 == 0:
            yield Syscall("nop")
    while True:
        yield Compute(20)


def lo_program(ctx):
    """Lo: measures everything it legally can -- its own timestamps and
    its own memory latencies."""
    for i in range(150):
        yield ReadTime()
        yield Access(ctx.data_base + (i * ctx.line_size) % ctx.data_size)
    yield Halt()


def build(secret):
    """Boot the *whole system* for one value of Hi's secret.

    The proof engine calls this once per distinct secret and runs the
    result itself; any difference Lo can observe between those runs is
    interference.
    """
    machine = presets.tiny_machine()
    tp = TimeProtectionConfig.full() if PROTECTED else TimeProtectionConfig.none()
    kernel = Kernel(machine, tp)

    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=3000)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=3000)
    kernel.create_thread(hi, hi_program, params={"secret": secret})
    kernel.create_thread(lo, lo_program)
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    return kernel


def main():
    print(f"time protection: {'ON' if PROTECTED else 'OFF'}")
    report = prove_time_protection(
        build, secrets=[1, 7, 23], observer="Lo", max_cycles=400_000
    )
    print(format_report(report, verbose=True))
    if report.holds:
        print("\nLo's world is bit-identical across all Hi secrets: no channel.")
    else:
        print("\nLo could distinguish Hi's secrets -- see the counterexamples.")


if __name__ == "__main__":
    main()
