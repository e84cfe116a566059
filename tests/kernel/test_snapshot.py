"""Kernel snapshots (``Kernel.clone_for_mc``) and the replayable-program
protocol."""

import copy

import pytest

from repro.hardware import Access, Compute
from repro.kernel.objects import ReplayableProgram
from repro.mc import McSpec, build_system
from tests.kernel.test_clone_independence import SYSTEMS
from tests.mc.oracle import state_fingerprint


def _spec(machine="micro"):
    return McSpec.for_machine(machine, "full")


def _step(kernel, steps=1):
    for _ in range(steps):
        kernel.step(core_id=0)


class TestSnapshot:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_snapshot_is_independent_of_the_original(self, system):
        kernel = SYSTEMS[system]()
        snap = kernel.clone_for_mc()
        before = state_fingerprint(snap)
        _step(kernel, 4)
        # The original moved; the snapshot must not have.
        assert state_fingerprint(snap) == before
        assert state_fingerprint(kernel) != before

    def test_snapshot_resumes_identically(self):
        spec = _spec()
        kernel = build_system(spec, secret=1)
        _step(kernel, 3)
        snap = kernel.clone_for_mc()
        _step(kernel)
        _step(snap)
        assert state_fingerprint(snap) == state_fingerprint(kernel)

    def test_smt_clone_keeps_sibling_sharing(self):
        # An SMT pair shares every private structure concurrently; the
        # clone must rebuild that sharing, not split the pair.
        spec = _spec("smt")
        kernel = build_system(spec, secret=1)
        _step(kernel, 3)
        clone = kernel.clone_for_mc()
        deep = copy.deepcopy(kernel)
        cores = clone.machine.cores
        for name in ("l1i", "l1d", "l2", "tlb", "branch", "prefetcher"):
            assert getattr(cores[1], name) is getattr(cores[0], name), name
        original = {id(e) for e in kernel.machine.all_state_elements()}
        cloned = {id(e) for e in clone.machine.all_state_elements()}
        assert not original & cloned
        for system in (kernel, clone, deep):
            _step(system, 4)
        assert state_fingerprint(clone) == state_fingerprint(kernel)
        assert state_fingerprint(clone) == state_fingerprint(deep)

    def test_clone_keeps_the_daemon_flag(self):
        from repro.campaign.registry import MACHINES, TP_CONFIGS
        from repro.kernel import Kernel

        def step_fn(ctx, index, observation):
            return Compute(5)

        kernel = Kernel(
            MACHINES["micro"](), TP_CONFIGS["full"](), kernel_image_pages=8)
        hi = kernel.create_domain("Hi", n_colours=1)
        lo = kernel.create_domain("Lo", n_colours=1)
        factory = ReplayableProgram.factory(step_fn)
        kernel.create_thread(hi, factory, data_pages=1, daemon=True)
        kernel.create_thread(lo, factory, data_pages=1)
        clone = kernel.clone_for_mc()
        assert [(t.name, t.daemon) for t in clone.all_threads()] == [
            (t.name, t.daemon) for t in kernel.all_threads()
        ] == [("Hi.t1", True), ("Lo.t2", False)]

    def test_clone_keeps_list_params_apart(self):
        # Synth's spy appends its observations to a list param; a clone's
        # appends must stay in the clone, and the parent's mc fingerprint
        # must not move.
        from repro.campaign.registry import MACHINES, TP_CONFIGS
        from repro.kernel import Kernel
        from repro.mc.fingerprint import state_fingerprint_incremental

        def step_fn(ctx, index, observation):
            ctx.params["results"].append(index)
            return Compute(5)

        kernel = Kernel(
            MACHINES["micro"](), TP_CONFIGS["full"](), kernel_image_pages=8)
        lo = kernel.create_domain("Lo", n_colours=1)
        kernel.create_thread(
            lo, ReplayableProgram.factory(step_fn), data_pages=1,
            params={"results": [], "rounds": 3, "shape": (1, 2)})
        parent = kernel.all_threads()[0].program
        before = state_fingerprint_incremental(kernel, "Lo")
        clone = kernel.clone_for_mc()
        program = clone.all_threads()[0].program
        assert program.ctx.params == parent.ctx.params
        program.send(None)
        program.send(None)
        assert program.ctx.params["results"] == [0, 1]
        assert parent.ctx.params["results"] == []
        assert state_fingerprint_incremental(kernel, "Lo") == before
        # And the other way round: the parent's appends stay its own.
        parent.send(None)
        assert parent.ctx.params["results"] == [0]
        assert program.ctx.params["results"] == [0, 1]

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
