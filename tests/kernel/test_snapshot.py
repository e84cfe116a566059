"""Kernel snapshots (``Kernel.clone_for_mc``) and the replayable-program
protocol."""

import copy

import pytest

from repro.hardware import Access, Compute
from repro.kernel.objects import ReplayableProgram
from repro.mc import McSpec, build_system
from tests.mc.oracle import state_fingerprint


def _spec(machine="micro"):
    return McSpec.for_machine(machine, "full")


def _step(kernel, spec, steps=1):
    for _ in range(steps):
        kernel.step(core_id=0, max_cycles=spec.max_cycles)


class TestSnapshot:
    def test_snapshot_is_independent_of_the_original(self):
        spec = _spec()
        kernel = build_system(spec, secret=1)
        snap = kernel.clone_for_mc()
        before = state_fingerprint(snap)
        _step(kernel, spec, 4)
        # The original moved; the snapshot must not have.
        assert state_fingerprint(snap) == before
        assert state_fingerprint(kernel) != before

    def test_snapshot_resumes_identically(self):
        spec = _spec()
        kernel = build_system(spec, secret=1)
        _step(kernel, spec, 3)
        snap = kernel.clone_for_mc()
        _step(kernel, spec)
        _step(snap, spec)
        assert state_fingerprint(snap) == state_fingerprint(kernel)

    def test_smt_clone_keeps_sibling_sharing(self):
        # An SMT pair shares every private structure concurrently; the
        # clone must rebuild that sharing, not split the pair.
        spec = _spec("smt")
        kernel = build_system(spec, secret=1)
        _step(kernel, spec, 3)
        clone = kernel.clone_for_mc()
        deep = copy.deepcopy(kernel)
        cores = clone.machine.cores
        for name in ("l1i", "l1d", "l2", "tlb", "branch", "prefetcher"):
            assert getattr(cores[1], name) is getattr(cores[0], name), name
        original = {id(e) for e in kernel.machine.all_state_elements()}
        cloned = {id(e) for e in clone.machine.all_state_elements()}
        assert not original & cloned
        for system in (kernel, clone, deep):
            _step(system, spec, 4)
        assert state_fingerprint(clone) == state_fingerprint(kernel)
        assert state_fingerprint(clone) == state_fingerprint(deep)

    def test_raw_generator_programs_are_rejected_with_guidance(self):
        from repro.campaign.registry import MACHINES, TP_CONFIGS
        from repro.kernel import Kernel

        def generator_program(ctx):
            while True:
                yield Compute(5)

        kernel = Kernel(
            MACHINES["micro"](), TP_CONFIGS["full"](), kernel_image_pages=8)
        domain = kernel.create_domain("Hi", n_colours=1)
        kernel.create_thread(domain, generator_program, data_pages=1)
        with pytest.raises(TypeError, match="ReplayableProgram"):
            kernel.clone_for_mc()


class TestReplayableProgram:
    def test_follows_the_generator_protocol(self):
        def step_fn(ctx, index, observation):
            if index < 2:
                return Access(index * 32)
            return None

        program = ReplayableProgram(step_fn, ctx=None)
        first = program.send(None)
        second = program.send(17)
        assert isinstance(first, Access) and isinstance(second, Access)
        assert program.index == 2
        with pytest.raises(StopIteration):
            program.send(None)
        assert program.finished
        # Exhausted programs stay exhausted, like generators.
        with pytest.raises(StopIteration):
            program.send(None)

    def test_factory_binds_context(self):
        seen = {}

        def step_fn(ctx, index, observation):
            seen["ctx"] = ctx
            return None

        factory = ReplayableProgram.factory(step_fn)
        program = factory("the-context")
        with pytest.raises(StopIteration):
            next(iter(program))
        assert seen["ctx"] == "the-context"
