"""Integration-level unit tests for the kernel façade and run loop."""

import pytest

from repro.hardware import Access, Compute, Halt, ReadTime, Syscall, presets
from repro.kernel import Kernel, ThreadState, TimeProtectionConfig
from repro.kernel.kernel import KTEXT_BASE


def simple_counter(ctx):
    for i in range(ctx.params.get("n", 10)):
        yield Compute(5)
    yield Halt()


class TestDomainAndThreadCreation:
    def test_duplicate_domain_rejected(self):
        kernel = Kernel(presets.tiny_machine())
        kernel.create_domain("A", n_colours=2)
        with pytest.raises(ValueError):
            kernel.create_domain("A", n_colours=2)

    def test_thread_memory_is_domain_coloured(self):
        kernel = Kernel(presets.tiny_machine(), TimeProtectionConfig.full())
        domain = kernel.create_domain("A", n_colours=2)
        tcb = kernel.create_thread(domain, simple_counter, data_pages=4)
        for frame in tcb.space.frames():
            assert frame.colour in domain.colours | kernel.allocator.kernel_colours \
                or frame.colour in domain.colours

    def test_kernel_text_mapped_readonly(self):
        kernel = Kernel(presets.tiny_machine(), TimeProtectionConfig.full())
        domain = kernel.create_domain("A", n_colours=2)
        tcb = kernel.create_thread(domain, simple_counter)
        mapping = tcb.space.lookup(KTEXT_BASE)
        assert mapping.writable is False
        assert mapping.frame.number == domain.kernel_image.frames[0].number

    def test_shared_text_points_at_clone(self):
        kernel = Kernel(presets.tiny_machine(), TimeProtectionConfig.full())
        a = kernel.create_domain("A", n_colours=2)
        b = kernel.create_domain("B", n_colours=2)
        tcb_a = kernel.create_thread(a, simple_counter)
        tcb_b = kernel.create_thread(b, simple_counter)
        frame_a = tcb_a.space.lookup(KTEXT_BASE).frame.number
        frame_b = tcb_b.space.lookup(KTEXT_BASE).frame.number
        assert frame_a != frame_b

    def test_shared_text_aliases_master_without_clone(self):
        kernel = Kernel(presets.tiny_machine(), TimeProtectionConfig.none())
        a = kernel.create_domain("A")
        b = kernel.create_domain("B")
        tcb_a = kernel.create_thread(a, simple_counter)
        tcb_b = kernel.create_thread(b, simple_counter)
        assert (
            tcb_a.space.lookup(KTEXT_BASE).frame.number
            == tcb_b.space.lookup(KTEXT_BASE).frame.number
        )

    def test_page_colours_exposed_to_program(self):
        kernel = Kernel(presets.tiny_machine(), TimeProtectionConfig.full())
        domain = kernel.create_domain("A", n_colours=2)
        captured = {}

        def grab(ctx):
            captured["colours"] = ctx.page_colours
            yield Halt()

        kernel.create_thread(domain, grab, data_pages=4)
        kernel.set_schedule(0, [(domain, None)])
        kernel.run(max_cycles=50_000)  # generator body runs on first step
        assert len(captured["colours"]) == 4
        assert set(captured["colours"]) <= domain.colours


class TestRunLoop:
    def test_requires_schedule(self):
        kernel = Kernel(presets.tiny_machine())
        with pytest.raises(RuntimeError):
            kernel.run(max_cycles=1000)

    def test_threads_complete(self):
        kernel = Kernel(presets.tiny_machine())
        domain = kernel.create_domain("A", n_colours=2)
        tcb = kernel.create_thread(domain, simple_counter, params={"n": 5})
        kernel.set_schedule(0, [(domain, None)])
        kernel.run(max_cycles=100_000)
        assert tcb.state is ThreadState.DONE
        assert tcb.steps_executed == 6  # 5 computes + halt

    def test_run_stops_at_max_cycles(self):
        machine = presets.tiny_machine()
        kernel = Kernel(machine)
        domain = kernel.create_domain("A", n_colours=2)
        kernel.create_thread(domain, forever)
        kernel.set_schedule(0, [(domain, None)])
        kernel.run(max_cycles=50_000)
        assert machine.cores[0].clock.now >= 50_000
        assert machine.cores[0].clock.now < 80_000

    def test_faulting_thread_marked(self):
        def bad(ctx):
            yield Access(0xDEAD0000)

        kernel = Kernel(presets.tiny_machine())
        domain = kernel.create_domain("A", n_colours=2)
        tcb = kernel.create_thread(domain, bad)
        kernel.set_schedule(0, [(domain, None)])
        kernel.run(max_cycles=100_000)
        assert tcb.state is ThreadState.FAULTED

    def test_round_robin_within_domain(self):
        order = []

        def worker(tag):
            def program(ctx):
                for _ in range(3):
                    order.append(tag)
                    yield Syscall("yield")
                yield Halt()
            return program

        kernel = Kernel(presets.tiny_machine())
        domain = kernel.create_domain("A", n_colours=2)
        kernel.create_thread(domain, worker("x"))
        kernel.create_thread(domain, worker("y"))
        kernel.set_schedule(0, [(domain, None)])
        kernel.run(max_cycles=500_000)
        assert order[:4] == ["x", "y", "x", "y"]

    def test_observation_trace_records_values_and_latencies(self):
        def observer(ctx):
            yield ReadTime()
            yield Access(ctx.data_base, write=True, value=7)
            yield Halt()

        kernel = Kernel(presets.tiny_machine())
        domain = kernel.create_domain("A", n_colours=2)
        kernel.create_thread(domain, observer)
        kernel.set_schedule(0, [(domain, None)])
        kernel.run(max_cycles=100_000)
        trace = kernel.observation_trace("A")
        assert len(trace) == 2
        assert trace[0][1] > 0  # a timestamp
        assert trace[1][1] == 7  # the stored value


class TestObservationsAreTheTrace:
    """A program receives its trace record itself, and cannot edit it.

    Every observed step builds one object: the record appended to the
    domain's ``observations`` is what the program receives.  Spies are
    adversarial programs, so that object must stay read-only.
    """

    @staticmethod
    def _run_tamperer():
        received = []
        refused = []

        def tamperer(ctx):
            kernel = ctx.params["kernel"]
            for instruction in (
                ReadTime(),
                Access(ctx.data_base, write=True, value=7),
                Compute(3),
                Syscall("recv", (ctx.params["endpoint"],)),  # blocks
                Syscall("nop"),
            ):
                observation = yield instruction
                received.append((
                    observation,
                    kernel.observations["A"][-1],
                    (observation.value, observation.latency),
                ))
                for name in ("thread", "value", "latency"):
                    try:
                        setattr(observation, name, -1)
                    except AttributeError:
                        refused.append(name)
            yield Halt()

        def sender(ctx):
            yield Syscall("send", (ctx.params["endpoint"], 41))
            yield Halt()

        kernel = Kernel(presets.tiny_machine())
        domain = kernel.create_domain("A", n_colours=2)
        params = {"kernel": kernel, "endpoint": kernel.create_endpoint("e").endpoint_id}
        kernel.create_thread(domain, tamperer, params=params, name="tamperer")
        kernel.create_thread(domain, sender, params=params)
        kernel.set_schedule(0, [(domain, None)])
        kernel.run(max_cycles=200_000)
        return kernel, received, refused

    def test_program_receives_the_record_last_appended(self):
        _kernel, received, _refused = self._run_tamperer()
        assert len(received) == 5
        for observation, last_record, _seen in received:
            assert observation is last_record
        # The blocked recv's record is the IPC wakeup's, which takes no
        # time of the receiver's.
        assert received[3][2] == (41, 0)

    def test_assigning_to_an_observation_fails_and_the_trace_stands(self):
        kernel, received, refused = self._run_tamperer()
        assert refused == ["thread", "value", "latency"] * len(received)
        trace = kernel.observation_trace("A")
        assert [
            entry[1:] for entry in trace if entry[0] == "tamperer"
        ] == [seen for *_, seen in received]
        assert all(-1 not in entry for entry in trace)

    def test_observation_trace_is_plain_tuples(self):
        kernel, _received, _refused = self._run_tamperer()
        trace = kernel.observation_trace("A")
        assert trace and all(type(entry) is tuple for entry in trace)
        assert trace == [tuple(record) for record in kernel.observations["A"]]


def forever(ctx):
    while True:
        yield Compute(10)


class TestDaemonThreads:
    """``create_thread(daemon=True)``: a thread that never ends a run."""

    @staticmethod
    def _two_domains(daemon):
        machine = presets.tiny_machine()
        kernel = Kernel(machine)
        hi = kernel.create_domain("Hi", n_colours=2)
        lo = kernel.create_domain("Lo", n_colours=2)
        trojan = kernel.create_thread(hi, forever, daemon=daemon)
        spy = kernel.create_thread(lo, simple_counter, params={"n": 5})
        kernel.set_schedule(0, [(hi, None), (lo, None)])
        return machine, kernel, trojan, spy

    def test_run_ends_when_last_non_daemon_thread_finishes(self):
        machine, kernel, trojan, spy = self._two_domains(daemon=True)
        kernel.run(max_cycles=500_000)
        assert trojan.daemon and not spy.daemon
        assert spy.state is ThreadState.DONE
        assert trojan.state is ThreadState.READY
        # The spy halts in its first slice, after one Hi slice and one
        # padded switch: far short of the horizon.
        assert machine.cores[0].clock.now < 50_000

    def test_non_daemon_trojan_holds_the_run_to_max_cycles(self):
        machine, kernel, trojan, spy = self._two_domains(daemon=False)
        kernel.run(max_cycles=500_000)
        assert spy.state is ThreadState.DONE
        assert machine.cores[0].clock.now >= 500_000

    @pytest.mark.parametrize("program", [forever, simple_counter])
    def test_all_daemon_run_reaches_max_cycles(self, program):
        machine = presets.tiny_machine()
        kernel = Kernel(machine)
        domain = kernel.create_domain("A", n_colours=2)
        kernel.create_thread(domain, program, daemon=True)
        kernel.set_schedule(0, [(domain, None)])
        kernel.run(max_cycles=50_000)
        assert machine.cores[0].clock.now >= 50_000

    def test_daemon_is_off_by_default(self):
        kernel = Kernel(presets.tiny_machine())
        domain = kernel.create_domain("A", n_colours=2)
        assert kernel.create_thread(domain, simple_counter).daemon is False


class TestIpcThroughSyscalls:
    def test_send_recv_roundtrip(self):
        received = {}

        def sender(ctx):
            yield Syscall("send", (ctx.params["ep"], 123))
            yield Halt()

        def receiver(ctx):
            message = yield Syscall("recv", (ctx.params["ep"],))
            received["value"] = message.value
            yield Halt()

        kernel = Kernel(presets.tiny_machine())
        domain = kernel.create_domain("A", n_colours=2)
        endpoint = kernel.create_endpoint("e")
        kernel.create_thread(domain, sender, params={"ep": endpoint.endpoint_id})
        kernel.create_thread(domain, receiver, params={"ep": endpoint.endpoint_id})
        kernel.set_schedule(0, [(domain, None)])
        kernel.run(max_cycles=500_000)
        assert received["value"] == 123

    def test_poll_returns_minus_one_when_empty(self):
        polled = {}

        def poller(ctx):
            result = yield Syscall("poll", (ctx.params["ep"],))
            polled["value"] = result.value
            yield Halt()

        kernel = Kernel(presets.tiny_machine())
        domain = kernel.create_domain("A", n_colours=2)
        endpoint = kernel.create_endpoint("e")
        kernel.create_thread(domain, poller, params={"ep": endpoint.endpoint_id})
        kernel.set_schedule(0, [(domain, None)])
        kernel.run(max_cycles=100_000)
        assert polled["value"] == -1

    def test_sleep_delays_thread(self):
        stamps = {}

        def sleeper(ctx):
            t0 = yield ReadTime()
            yield Syscall("sleep", (5000,))
            t1 = yield ReadTime()
            stamps["delta"] = t1.value - t0.value
            yield Halt()

        kernel = Kernel(presets.tiny_machine())
        domain = kernel.create_domain("A", n_colours=2)
        kernel.create_thread(domain, sleeper)
        kernel.set_schedule(0, [(domain, None)])
        kernel.run(max_cycles=200_000)
        assert stamps["delta"] >= 5000

    def test_io_submit_denied_for_non_owner(self):
        outcome = {}

        def submitter(ctx):
            result = yield Syscall("io_submit", (3, 100, 0))
            outcome["retval"] = result.value
            yield Halt()

        kernel = Kernel(presets.tiny_machine(), TimeProtectionConfig.full())
        hi = kernel.create_domain("Hi", n_colours=2, irq_lines=(3,))
        lo = kernel.create_domain("Lo", n_colours=2)
        kernel.create_thread(lo, submitter)
        kernel.set_schedule(0, [(lo, None), (hi, None)])
        kernel.run(max_cycles=200_000)
        assert outcome["retval"] == -1
