"""CAT-style way partitioning as an alternative to page colouring.

Sect. 4.1 requires only that concurrently-shared state be *partitioned*;
page colouring is the software-only mechanism, but hardware way
allocation (Intel CAT) satisfies the same obligation.  These tests show
the way-partitioned kernel (a) enforces its quotas, (b) closes the
concurrent LLC channel that colouring closes, (c) passes the full proof,
and (d) rescues the single-colour-LLC machine that colouring cannot
protect.
"""

import pytest

from repro.attacks import primeprobe
from repro.core import check_all, prove_time_protection, secret_swap_experiment
from repro.hardware import Evidence, presets
from repro.hardware.cache import Cache, LatencyParams
from repro.hardware.geometry import CacheGeometry
from repro.hardware.state import Scope, StateCategory
from repro.kernel import Kernel, TimeProtectionConfig

from tests.conftest import (
    MAX_CYCLES,
    boot_two_domain_system,
    build_two_domain_system,
)

WAY_TP = TimeProtectionConfig.full_with_way_partitioning()


class TestCacheQuotaMechanism:
    def _partitioned_cache(self):
        cache = Cache(
            name="llc",
            geometry=CacheGeometry(sets=8, ways=8, line_size=32),
            category=StateCategory.PARTITIONABLE,
            scope=Scope.SHARED,
            latency=LatencyParams(hit_cycles=40),
            page_size=256,
        )
        cache.set_way_quotas({"A": 3, "B": 3, "@kernel": 2})
        return cache

    def _fill_as(self, cache, owner, addresses):
        cache.instr.set_context(owner)
        for address in addresses:
            cache.access(address)

    def test_quota_caps_occupancy(self):
        cache = self._partitioned_cache()
        stride = 8 * 32  # same set
        self._fill_as(cache, "A", [i * stride for i in range(6)])
        assert cache.occupancy_by_owner(0)["A"] == 3
        assert cache.quotas_respected()

    def test_partitions_do_not_evict_each_other(self):
        cache = self._partitioned_cache()
        stride = 8 * 32
        self._fill_as(cache, "A", [i * stride for i in range(3)])
        self._fill_as(cache, "B", [(100 + i) * stride for i in range(20)])
        # All of A's lines survived B's thrashing.
        cache.instr.set_context("A")
        for i in range(3):
            assert cache.access(i * stride).hit is True

    def test_over_commit_rejected(self):
        cache = self._partitioned_cache()
        with pytest.raises(ValueError):
            cache.set_way_quotas({"A": 5, "B": 5})

    def test_no_violations_under_disjoint_quotas(self):
        cache = self._partitioned_cache()
        stride = 8 * 32
        for owner in ("A", "B", "@kernel"):
            self._fill_as(cache, owner, [(hash(owner) % 7 + i) * stride
                                         for i in range(10)])
        assert cache.quota_violations == []

    def test_flush_clears_owners(self):
        cache = self._partitioned_cache()
        self._fill_as(cache, "A", [0, 32, 64])
        cache.flush()
        assert cache.fingerprint() == cache.reset_fingerprint()


class TestWayPartitionedKernel:
    def test_domain_creation_installs_quotas(self):
        kernel = Kernel(presets.tiny_machine(), WAY_TP)
        kernel.create_domain("A", llc_ways=2)
        kernel.create_domain("B", llc_ways=2)
        quotas = kernel.machine.llc.way_quota
        assert quotas["@kernel"] >= 1
        assert quotas["A"] == 2 and quotas["B"] == 2

    def test_over_allocation_rejected(self):
        kernel = Kernel(presets.tiny_machine(), WAY_TP)
        kernel.create_domain("A", llc_ways=4)
        with pytest.raises(ValueError):
            kernel.create_domain("B", llc_ways=99)

    def test_noninterference_holds(self):
        result = secret_swap_experiment(
            lambda secret: build_two_domain_system(secret, WAY_TP),
            1,
            9,
            observer_domain="Lo",
        )
        assert result.holds, str(result)

    def test_all_obligations_pass(self):
        kernel = build_two_domain_system(
            5, WAY_TP, evidence=Evidence.everything()
        )
        failed = [r for r in check_all(kernel) if not r.passed]
        assert not failed, "\n".join(str(r) for r in failed)

    def test_full_proof_holds(self):
        report = prove_time_protection(
            lambda s: boot_two_domain_system(s, WAY_TP),
            secrets=[1, 9],
            observer="Lo",
            max_cycles=MAX_CYCLES,
        )
        assert report.holds


class TestWayPartitioningClosesLlcChannel:
    def test_concurrent_llc_channel_closed(self):
        result = primeprobe.llc_experiment(
            WAY_TP,
            lambda: presets.tiny_machine(n_cores=2),
            symbols=[1, 6],
            rounds_per_run=5,
        )
        assert result.capacity_bits() < 1e-3

    def test_rescues_single_colour_llc_machine(self):
        # Colouring is impossible on a one-colour LLC (E9); CAT-style
        # ways still partition it, and the proof goes through again.
        report = prove_time_protection(
            lambda s: boot_two_domain_system(
                s,
                WAY_TP,
                machine_factory=lambda: presets.tiny_nocolour_machine(n_cores=1),
            ),
            secrets=[1, 9],
            observer="Lo",
            max_cycles=MAX_CYCLES,
        )
        assert report.holds, "\n".join(
            str(o) for o in report.failed_obligations()
        )
