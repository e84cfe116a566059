"""``Kernel.run`` makes exactly the run a loop of ``Kernel.step`` makes.

``Kernel.run`` lets one kernel call run a whole run of a thread's user
instructions (Case 1 of Sect. 5.2) on the core whose clock is earliest,
on any number of cores and with or without IPC endpoints: it stops at a
trap, at the end of its step budget, or once the clock reaches the
next switch point, the horizon or the next core's clock, the earliest
unmasked pending IRQ or the earliest time a queued IPC message becomes
visible.  ``Kernel.step`` still takes one instruction per call.  The
reference here is a loop of ``Kernel.step`` that applies ``run``'s
stop rules, one step at a time; the two must agree on everything a
run leaves behind:

* every domain's observation trace, switch and IRQ delivery records;
* the case log with footprints and the touch sets (when declared);
* ``total_steps``, every core clock, each thread's state, pc and
  ``steps_executed``;
* ``Machine.digest_all()``.

Systems: every shipped attack's builder at the daemon-equivalence
params, the ``prove`` standard system and the ``mc`` system on tiny and
micro, each under ``none``, ``full`` and ``way`` wherever it boots,
declaring nothing and ``Evidence.everything()``; e1 and synth have IPC
endpoints and e3 and e7 run on two cores.  Hand-built systems cover
the edges: ``max_steps`` ending inside a run of user steps, an IRQ
falling due mid-run, an IPC wakeup mid-run, a sleeping thread, HALT and
FAULT mid-run.  Call counts check that runs of user steps are batched
on one core, with an endpoint, on two cores, and in a synth system.
The last tests show the comparison can fail: with the IRQ bound taken
away, e6's spy sees its interrupts late; with the next core's clock
taken away, e3 and e7 lose their cross-core interleaving; with the IPC
bound taken away, a wakeup lands late.
"""

from __future__ import annotations

import pytest

from repro.campaign.registry import MACHINES, TP_CONFIGS
from repro.cli import _build_standard_system
from repro.hardware import (
    Access,
    Compute,
    Evidence,
    Halt,
    ReadTime,
    Syscall,
    presets,
)
from repro.hardware.interrupts import InterruptController
from repro.kernel import (
    ColourExhausted,
    Kernel,
    ThreadState,
    TimeProtectionConfig,
)
from repro.kernel.ipc import EndpointTable
from repro.kernel.kernel import DATA_BASE
from repro.mc.spec import McSpec, build_system

from ..attacks.test_builder_contract import _BUILDERS, _builder_knobs
from ..attacks.test_daemon_equivalence import _MACHINE, _PARAMS

_FINISHED = (ThreadState.DONE, ThreadState.FAULTED)
_TPS = ("none", "full", "way")
_EVIDENCE = {"nothing": Evidence(), "everything": Evidence.everything()}


def _all_finished(kernel: Kernel) -> bool:
    threads = [tcb for tcb in kernel.all_threads() if not tcb.daemon]
    return bool(threads) and all(tcb.state in _FINISHED for tcb in threads)


def reference_run(kernel: Kernel, max_cycles: int, max_steps: int) -> None:
    """``Kernel.run``'s stop rules over ``Kernel.step``, one step a call."""
    cores = [
        kernel.machine.cores[core_id]
        for core_id in kernel.scheduler.scheduled_cores()
    ]
    steps = 0
    while steps < max_steps:
        below = [core for core in cores if core.clock.now < max_cycles]
        if not below or _all_finished(kernel):
            break
        core = min(below, key=lambda core: core.clock.now)
        kernel.step(core.core_id)
        steps += 1
    kernel.total_steps += steps


def run_view(kernel: Kernel) -> dict:
    """Everything a run leaves behind, in comparable form."""
    return {
        "observations": {
            name: kernel.observation_trace(name) for name in kernel.domains
        },
        "switches": list(kernel.switch_records),
        "irqs": list(kernel.irq_deliveries),
        "cases": list(kernel.case_log),
        "touches": {
            key: sorted(indices, key=repr)
            for key, indices in kernel.machine.instrumentation.summary.items()
        },
        "total_steps": kernel.total_steps,
        "clocks": [core.clock.now for core in kernel.machine.cores],
        "threads": [
            (tcb.name, tcb.state, tcb.pc, tcb.steps_executed)
            for tcb in kernel.all_threads()
        ],
        "digest": kernel.machine.digest_all(),
    }


def compare(build, max_cycles: int, evidence: Evidence,
            max_steps: int = 50_000_000):
    """(``Kernel.run``'s view, the reference loop's view) of ``build()``."""
    views = []
    for runner in (Kernel.run, reference_run):
        kernel = build()
        kernel.declare(evidence)
        runner(kernel, max_cycles, max_steps)
        views.append(run_view(kernel))
    return views


def _bootable(build):
    """``build`` itself, or a skip where the system cannot boot."""
    try:
        build()
    except ColourExhausted as error:
        pytest.skip(f"does not boot: {error}")
    return build


def _attack_system(attack: str, tp: str, which: int):
    """``attack``'s system sending its ``which``-th symbol, and horizon."""
    machine = MACHINES[_MACHINE.get(attack, "tiny")]
    symbol = _PARAMS[attack].get("symbols", (0, 1))[which]
    knobs = _builder_knobs(attack)
    horizon = []

    def build():
        kernel = Kernel(machine(), TP_CONFIGS[tp]())
        horizon[:] = [_BUILDERS[attack](kernel, symbol, [], **knobs)]
        return kernel

    _bootable(build)
    return build, horizon[0]


@pytest.mark.parametrize("evidence", sorted(_EVIDENCE))
@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("tp", _TPS)
@pytest.mark.parametrize("attack", sorted(_BUILDERS))
def test_attack_system(attack, tp, which, evidence):
    build, horizon = _attack_system(attack, tp, which)
    fast, reference = compare(build, horizon, _EVIDENCE[evidence])
    assert fast == reference


@pytest.mark.parametrize("evidence", sorted(_EVIDENCE))
@pytest.mark.parametrize("tp", _TPS)
def test_prove_standard_system(tp, evidence):
    build_secret = _build_standard_system(MACHINES["tiny"], TP_CONFIGS[tp]())
    build = _bootable(lambda: build_secret(17))
    fast, reference = compare(build, 400_000, _EVIDENCE[evidence])
    assert fast == reference


@pytest.mark.parametrize("evidence", sorted(_EVIDENCE))
@pytest.mark.parametrize("tp", _TPS)
@pytest.mark.parametrize("machine", ["tiny", "micro"])
def test_mc_system(machine, tp, evidence):
    spec = McSpec.for_machine(machine, tp)
    build = _bootable(lambda: build_system(spec, spec.secrets[-1]))
    fast, reference = compare(build, spec.max_cycles, _EVIDENCE[evidence])
    assert fast == reference


# -- edge cases ------------------------------------------------------------


def _long_slices(program):
    """``program`` in domain A and ``_computer`` in B, 100,000-cycle slices."""
    def build():
        kernel = Kernel(presets.tiny_machine(), TP_CONFIGS["none"]())
        domain = kernel.create_domain("A", slice_cycles=100_000)
        other = kernel.create_domain("B", slice_cycles=100_000)
        kernel.create_thread(domain, program)
        kernel.create_thread(other, _computer)
        kernel.set_schedule(0, [(domain, None), (other, None)])
        return kernel

    return build


def _computer(ctx):
    for i in range(300):
        yield Compute(1 + i % 5)
        yield Access(ctx.data_base + (i * ctx.line_size) % ctx.data_size)
    yield Halt()


@pytest.mark.parametrize("max_steps", [1, 2, 7, 40, 333])
def test_max_steps_ends_inside_a_run_of_user_steps(max_steps):
    build = _long_slices(_computer)
    fast, reference = compare(build, 1_000_000, Evidence.everything(),
                              max_steps=max_steps)
    assert fast == reference
    assert fast["total_steps"] == max_steps
    # Every step so far was one of the first thread's user instructions.
    assert fast["threads"][0][3] == max_steps


def _count_calls(monkeypatch):
    """The list each ``_step_core`` call appends its arguments to."""
    calls = []
    real_step_core = Kernel._step_core

    def counted(kernel, *args):
        calls.append(args)
        return real_step_core(kernel, *args)

    monkeypatch.setattr(Kernel, "_step_core", counted)
    return calls


def test_a_run_of_user_steps_is_one_kernel_call(monkeypatch):
    calls = _count_calls(monkeypatch)
    kernel = _long_slices(_computer)()
    kernel.run(max_cycles=1_000_000, max_steps=333)
    assert kernel.total_steps == 333
    assert len(calls) == 1


def test_an_endpoint_does_not_split_a_run_of_user_steps(monkeypatch):
    calls = _count_calls(monkeypatch)
    kernel = _long_slices(_computer)()
    kernel.create_endpoint("e", min_exec_cycles=20_000)
    kernel.run(max_cycles=1_000_000, max_steps=333)
    assert kernel.total_steps == 333
    assert len(calls) == 1


def test_two_cores_batch_up_to_the_next_core_clock(monkeypatch):
    """Core 1 idles to its slice end; core 0 then runs on in one call."""
    def build():
        kernel = Kernel(presets.tiny_machine(n_cores=2), TP_CONFIGS["none"]())
        busy = kernel.create_domain("A", slice_cycles=100_000)
        empty = kernel.create_domain("B", slice_cycles=20_000)
        kernel.create_thread(busy, _computer, core_id=0)
        kernel.set_schedule(0, [(busy, None)])
        kernel.set_schedule(1, [(empty, None)])
        return kernel

    fast, reference = compare(build, 1_000_000, Evidence.everything(),
                              max_steps=400)
    assert fast == reference
    calls = _count_calls(monkeypatch)
    kernel = build()
    kernel.run(max_cycles=1_000_000, max_steps=400)
    # Core 0's first step (tied clocks go to core 0, up to core 1's
    # clock of 0), core 1's idle advance to 20,000, then core 0's other
    # 398 steps, all below 20,000.
    assert [core.core_id for core, *_rest in calls] == [0, 1, 0]
    assert kernel.total_steps == 400


def test_synth_runs_are_batched(monkeypatch):
    """synth has IPC endpoints; its runs are a few calls, not a step each."""
    calls = _count_calls(monkeypatch)
    for tp in ("none", "full"):
        build, horizon = _attack_system("synth", tp, 0)
        del calls[:]
        kernel = build()
        kernel.run(horizon)
        assert kernel.endpoints.n_endpoints
        assert kernel.total_steps > 20 * len(calls), tp


def test_irq_falling_due_mid_run_is_delivered_at_the_next_step():
    def submitter(ctx):
        yield Syscall("io_submit", (3, 250, 7))
        for _ in range(200):
            yield Compute(3)
            yield ReadTime()
        yield Halt()

    build = _long_slices(submitter)
    fast, reference = compare(build, 1_000_000, Evidence.everything())
    assert fast == reference
    (delivery,) = fast["irqs"]
    assert delivery.line == 3
    # The handler ran from the first step boundary past the fire time,
    # long before the thread's run of user steps would have ended.
    entered = delivery.delivered_at - delivery.handler_cycles
    assert 0 <= entered - delivery.fire_time < 100
    assert fast["clocks"][0] > 2 * delivery.delivered_at


def test_sleeping_thread():
    def sleeper(ctx):
        for i in range(20):
            yield ReadTime()
            yield Syscall("sleep", (400 + 37 * i,))
            yield Access(ctx.data_base + i * ctx.line_size, write=True, value=i)
        yield Halt()

    def build():
        kernel = Kernel(presets.tiny_machine(), TP_CONFIGS["full"]())
        domain = kernel.create_domain("A", n_colours=2)
        kernel.create_thread(domain, sleeper)
        kernel.create_thread(domain, _computer)
        kernel.set_schedule(0, [(domain, None)])
        return kernel

    fast, reference = compare(build, 1_000_000, Evidence.everything())
    assert fast == reference
    assert all(state is ThreadState.DONE for _n, state, _pc, _s in fast["threads"])


def _ipc_wakeup_mid_run():
    """A padded message becomes visible while its sender computes.

    The blocked receiver shares the sender's domain, so its wakeup
    record lands between the sender's user-step records.
    """
    def receiver(ctx):
        yield Syscall("recv", (ctx.params["endpoint"],))
        yield Halt()

    def sender(ctx):
        yield Syscall("send", (ctx.params["endpoint"], 41))
        for _ in range(300):
            yield Compute(100)
        yield Halt()

    def build():
        kernel = Kernel(presets.tiny_machine(),
                        TimeProtectionConfig.full(padded_ipc=True))
        domain = kernel.create_domain("A", slice_cycles=100_000)
        endpoint = kernel.create_endpoint("e", min_exec_cycles=20_000)
        params = {"endpoint": endpoint.endpoint_id}
        kernel.create_thread(domain, receiver, params=params, name="R")
        kernel.create_thread(domain, sender, params=params, name="S")
        kernel.set_schedule(0, [(domain, None)])
        return kernel

    return build


def test_ipc_wakeup_lands_between_user_steps():
    """A run of user steps stops where a queued message becomes visible."""
    fast, reference = compare(_ipc_wakeup_mid_run(), 1_000_000,
                              Evidence.everything())
    assert fast == reference
    threads = [thread for thread, _value, _latency in fast["observations"]["A"]]
    wakeup = fast["observations"]["A"].index(("R", 41, 0))
    assert "S" in threads[:wakeup] and "S" in threads[wakeup + 1:]


def test_halt_and_fault_mid_run():
    def halts(ctx):
        for _ in range(25):
            yield Compute(2)
        yield Halt()
        yield Compute(2)  # never runs

    def faults(ctx):
        for _ in range(25):
            yield Compute(2)
        yield Access(DATA_BASE + ctx.data_size * 64)  # unmapped

    def build():
        kernel = Kernel(presets.tiny_machine(), TP_CONFIGS["none"]())
        domain = kernel.create_domain("A", slice_cycles=50_000)
        kernel.create_thread(domain, halts)
        kernel.create_thread(domain, faults)
        kernel.create_thread(domain, _computer)
        kernel.set_schedule(0, [(domain, None)])
        return kernel

    fast, reference = compare(build, 1_000_000, Evidence.everything())
    assert fast == reference
    states = [state for _n, state, _pc, _s in fast["threads"]]
    assert states == [ThreadState.DONE, ThreadState.FAULTED, ThreadState.DONE]
    assert [steps for *_rest, steps in fast["threads"][:2]] == [26, 26]


def test_comparison_fails_without_the_irq_bound(monkeypatch):
    """Without the IRQ bound a run of user steps overruns e6's interrupts."""
    # Symbol 1: Hi submits the I/O whose completion interrupts Lo.
    build, horizon = _attack_system("e6", "none", 1)
    monkeypatch.setattr(
        InterruptController, "next_unmasked_fire_time", lambda self: None
    )
    fast, reference = compare(build, horizon, Evidence())
    assert fast["observations"]["Lo"] != reference["observations"]["Lo"]


@pytest.mark.parametrize("tp", ["none", "full"])
@pytest.mark.parametrize("attack", ["e3", "e7"])
def test_comparison_fails_without_the_next_core_bound(attack, tp, monkeypatch):
    """Run to the horizon, not the next core's clock, and a two-core
    attack's cores no longer take turns in global time order."""
    # The second symbol: with the first, e7's trojan only computes, so
    # Lo's trace does not depend on when it runs.
    build, horizon = _attack_system(attack, tp, 1)
    real_step_core = Kernel._step_core
    monkeypatch.setattr(
        Kernel, "_step_core",
        lambda kernel, core, until, budget=1: real_step_core(
            kernel, core, horizon, budget
        ),
    )
    fast, reference = compare(build, horizon, Evidence())
    assert fast["observations"]["Lo"] != reference["observations"]["Lo"]


def test_comparison_fails_without_the_ipc_bound(monkeypatch):
    """Without the IPC bound the wakeup lands after the sender's run."""
    monkeypatch.setattr(
        EndpointTable, "earliest_visibility", lambda self, now: None
    )
    fast, reference = compare(_ipc_wakeup_mid_run(), 1_000_000,
                              Evidence.everything())
    assert fast["observations"]["A"] != reference["observations"]["A"]
