"""Unit tests for the kernel-clone mechanism and the domain scheduler."""

import pytest

from repro.hardware.memory import PhysicalMemory
from repro.kernel.clone import KernelCloneManager
from repro.kernel.colour_alloc import ColourAwareAllocator
from repro.kernel.objects import Domain
from repro.kernel.scheduler import DomainScheduler


def make_clone_manager(clone=True, colouring=True):
    memory = PhysicalMemory(total_frames=256, page_size=256, n_colours=8)
    allocator = ColourAwareAllocator(memory, colouring_enabled=colouring)
    manager = KernelCloneManager(
        allocator, image_pages=4, line_size=32, clone_enabled=clone
    )
    return allocator, manager


def make_domain(name, colours, slice_cycles=1000):
    return Domain(
        name=name,
        domain_id=1,
        colours=colours,
        slice_cycles=slice_cycles,
        pad_cycles=500,
    )


class TestKernelClone:
    def test_clone_uses_domain_colours(self):
        allocator, manager = make_clone_manager()
        colours = allocator.assign_domain_colours("A", 2)
        domain = make_domain("A", colours)
        image = manager.image_for_domain(domain)
        assert all(frame.colour in colours for frame in image.frames)

    def test_clone_is_cached_per_domain(self):
        allocator, manager = make_clone_manager()
        domain = make_domain("A", allocator.assign_domain_colours("A", 2))
        assert manager.image_for_domain(domain) is manager.image_for_domain(domain)

    def test_clones_disjoint_across_domains(self):
        allocator, manager = make_clone_manager()
        domain_a = make_domain("A", allocator.assign_domain_colours("A", 2))
        domain_b = make_domain("B", allocator.assign_domain_colours("B", 2))
        manager.image_for_domain(domain_a)
        manager.image_for_domain(domain_b)
        assert manager.images_disjoint()

    def test_no_clone_shares_master(self):
        allocator, manager = make_clone_manager(clone=False)
        domain_a = make_domain("A", allocator.assign_domain_colours("A", 2))
        domain_b = make_domain("B", allocator.assign_domain_colours("B", 2))
        assert manager.image_for_domain(domain_a) is manager.master
        assert manager.image_for_domain(domain_b) is manager.master

    def test_master_in_kernel_colour(self):
        _allocator, manager = make_clone_manager()
        assert all(frame.colour == 0 for frame in manager.master.frames)

    def test_line_paddr_walks_frames(self):
        _allocator, manager = make_clone_manager()
        image = manager.master
        lines_per_page = 256 // 32
        first_of_second_page = image.line_paddr(lines_per_page)
        assert first_of_second_page == image.frames[1].base_paddr(256)

    def test_line_paddr_wraps(self):
        _allocator, manager = make_clone_manager()
        image = manager.master
        assert image.line_paddr(image.n_lines) == image.line_paddr(0)

    def test_line_table_matches_frame_arithmetic(self):
        """The precomputed table, wrap-around included, for the master
        image and a clone: handler offsets past a small image's end wrap."""
        allocator, manager = make_clone_manager()
        domain = make_domain("A", allocator.assign_domain_colours("A", 2))
        clone = manager.image_for_domain(domain)
        assert clone is not manager.master
        for image in (manager.master, clone):
            n_lines = image.n_lines
            assert len(image.line_paddrs) == n_lines
            for index in range(2 * n_lines):
                offset = (index % n_lines) * image.line_size
                frame = image.frames[offset // image.page_size]
                expected = (
                    frame.base_paddr(image.page_size)
                    + offset % image.page_size
                )
                assert image.line_paddr(index) == expected
                assert image.text_lines(index, 3) == tuple(
                    image.line_paddr(index + step) for step in range(3)
                )


class TestDomainScheduler:
    def _two_domains(self):
        a = make_domain("A", {1}, slice_cycles=1000)
        b = make_domain("B", {2}, slice_cycles=2000)
        return a, b

    def test_initial_slice(self):
        a, b = self._two_domains()
        scheduler = DomainScheduler()
        scheduler.set_schedule(0, [(a, None), (b, None)])
        state = scheduler.state(0)
        assert state.current is a
        assert state.slice_end == 1000

    def test_advance_rotates(self):
        a, b = self._two_domains()
        scheduler = DomainScheduler()
        scheduler.set_schedule(0, [(a, None), (b, None)])
        from_domain, to_domain = scheduler.advance(0, release_time=1500)
        assert (from_domain, to_domain) == (a, b)
        assert scheduler.state(0).slice_end == 1500 + 2000

    def test_explicit_slice_overrides_domain_default(self):
        a, b = self._two_domains()
        scheduler = DomainScheduler()
        scheduler.set_schedule(0, [(a, 777), (b, None)])
        assert scheduler.state(0).slice_end == 777

    def test_peek_next(self):
        a, b = self._two_domains()
        scheduler = DomainScheduler()
        scheduler.set_schedule(0, [(a, None), (b, None)])
        assert scheduler.peek_next(0) is b

    def test_forced_switch_truncates_slice(self):
        a, b = self._two_domains()
        scheduler = DomainScheduler()
        scheduler.set_schedule(0, [(a, None), (b, None)])
        scheduler.force_switch(0, b, at_time=400)
        assert scheduler.state(0).effective_switch_time() == 400
        assert scheduler.peek_next(0) is b

    def test_forced_switch_does_not_extend_slice(self):
        a, b = self._two_domains()
        scheduler = DomainScheduler()
        scheduler.set_schedule(0, [(a, None), (b, None)])
        scheduler.force_switch(0, b, at_time=99999)
        assert scheduler.state(0).effective_switch_time() == 1000

    def test_forced_advance_clears_force(self):
        a, b = self._two_domains()
        scheduler = DomainScheduler()
        scheduler.set_schedule(0, [(a, None), (b, None)])
        scheduler.force_switch(0, b, at_time=400)
        scheduler.advance(0, release_time=500)
        state = scheduler.state(0)
        assert state.forced_next is None
        assert state.effective_switch_time() == 500 + 2000

    def test_empty_schedule_rejected(self):
        scheduler = DomainScheduler()
        with pytest.raises(ValueError):
            scheduler.set_schedule(0, [])

    def test_domains_on_core_deduplicates(self):
        a, b = self._two_domains()
        scheduler = DomainScheduler()
        scheduler.set_schedule(0, [(a, None), (b, None), (a, 500)])
        assert scheduler.domains_on_core(0) == [a, b]
