"""Sect. 4.3: padding by scheduling an interim process, not busy-looping.

"In practice, this is very wastive if padding is done by busy looping.
To make it practical, another Hi process should be scheduled for padding.
Obviously, that interim process must be preempted early enough to allow
the kernel to switch domains without exceeding the pad time (as this
might introduce new channels)."

In this kernel the property is architectural: when a caller suspends
until its padded delivery point, the intra-domain scheduler runs any
other ready thread of the same domain, and the forced switch still fires
at the pre-determined time regardless of what the interim thread was
doing (the switch path's own padding absorbs the preemption overshoot).
These tests pin down all three aspects: utilisation is reclaimed, the
delivery time is unchanged, and the interim thread cannot leak.
"""

from repro.hardware import Compute, Halt, ReadTime, Syscall, presets
from repro.kernel import Kernel, TimeProtectionConfig

MIN_EXEC = 15_000
HI_SLICE = 20_000
LO_SLICE = 6_000


def caller(ctx):
    yield Compute(500)
    yield Syscall("call", (ctx.params["ep"], 42))
    yield Halt()


def interim_worker(ctx):
    counter = ctx.params["counter"]
    grain = ctx.params.get("grain", 50)
    while True:
        yield Compute(grain)
        counter[0] += 1


def receiver(ctx):
    out = ctx.params["out"]
    message = yield Syscall("recv", (ctx.params["ep"],))
    stamp = yield ReadTime()
    out.append((message.value, stamp.value))
    yield Halt()


def build_and_run(with_interim, interim_grain=50, max_cycles=150_000):
    machine = presets.tiny_machine()
    kernel = Kernel(machine, TimeProtectionConfig.full(padded_ipc=True))
    hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=HI_SLICE)
    lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=LO_SLICE)
    endpoint = kernel.create_endpoint(
        "out", min_exec_cycles=MIN_EXEC, receiver_domain=lo
    )
    counter = [0]
    kernel.create_thread(hi, caller, params={"ep": endpoint.endpoint_id})
    if with_interim:
        kernel.create_thread(
            hi,
            interim_worker,
            params={"counter": counter, "grain": interim_grain},
        )
    out = []
    kernel.create_thread(
        lo, receiver, params={"ep": endpoint.endpoint_id, "out": out}
    )
    kernel.set_schedule(0, [(hi, None), (lo, None)])
    kernel.run(max_cycles=max_cycles)
    return kernel, out, counter[0]


class TestInterimPadding:
    def test_interim_thread_reclaims_pad_time(self):
        _k, _out, busy_work = build_and_run(with_interim=False)
        _k, _out, interim_work = build_and_run(with_interim=True)
        assert busy_work == 0
        assert interim_work > 100  # substantial reclaimed utilisation

    def test_delivery_time_unchanged_by_interim_thread(self):
        _k, without, _w = build_and_run(with_interim=False)
        _k, with_interim, _w = build_and_run(with_interim=True)
        assert without == with_interim  # same value, same timestamp

    def test_interim_workload_cannot_shift_delivery(self):
        # The interim thread's instruction granularity determines how
        # late it can overrun the preemption point; the switch padding
        # must absorb all of it.
        arrivals = set()
        for grain in (10, 200, 900):
            _k, out, _w = build_and_run(with_interim=True, interim_grain=grain)
            arrivals.add(tuple(out))
        assert len(arrivals) == 1

    def test_switch_at_delivery_is_still_constant_time(self):
        kernel, _out, _w = build_and_run(with_interim=True)
        forced = [
            record
            for record in kernel.switch_records
            if record.from_domain == "Hi" and record.to_domain == "Lo"
        ]
        assert forced
        for record in forced:
            assert record.pad_target is not None
            assert record.released_at == record.pad_target
            assert not record.overrun

    def test_noninterference_with_interim_thread(self):
        # An interim thread whose *workload* depends on the secret must
        # still be invisible to Lo.
        def build(secret):
            machine = presets.tiny_machine()
            kernel = Kernel(machine, TimeProtectionConfig.full(padded_ipc=True))
            hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=HI_SLICE)
            lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=LO_SLICE)
            endpoint = kernel.create_endpoint(
                "out", min_exec_cycles=MIN_EXEC, receiver_domain=lo
            )
            counter = [0]
            kernel.create_thread(hi, caller, params={"ep": endpoint.endpoint_id})
            kernel.create_thread(
                hi,
                interim_worker,
                params={"counter": counter, "grain": 20 + secret * 13},
            )
            out = []
            kernel.create_thread(
                lo, receiver, params={"ep": endpoint.endpoint_id, "out": out}
            )
            kernel.set_schedule(0, [(hi, None), (lo, None)])
            kernel.declare(SWAP_EVIDENCE)
            kernel.run(max_cycles=150_000)
            return kernel

        from repro.core import secret_swap_experiment
        from repro.core.noninterference import SWAP_EVIDENCE

        result = secret_swap_experiment(build, 1, 9, observer_domain="Lo")
        assert result.holds, str(result)
