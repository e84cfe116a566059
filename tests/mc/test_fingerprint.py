"""Canonical fingerprinting: stability, sensitivity, symmetry reduction.

Each property is asserted on both digests: the exact oracle's
full-structure ``state_fingerprint`` and the product path's
``state_fingerprint_incremental``.
"""

from repro.kernel import Kernel
from repro.kernel.objects import ReplayableProgram
from repro.mc import (
    McSpec,
    build_system,
    product_fingerprint,
    state_fingerprint_incremental,
)
from repro.mc.spec import hi_step, lo_step

from .oracle import canonical_state, state_fingerprint

#: (oracle, product) state digests.
DIGESTS = (state_fingerprint, state_fingerprint_incremental)


def _spec(tp="full", **overrides):
    return McSpec.for_machine("micro", tp, **overrides)


class TestStability:
    def test_identical_builds_fingerprint_equal(self):
        spec = _spec()
        a = build_system(spec, secret=1)
        b = build_system(spec, secret=1)
        for digest in DIGESTS:
            assert digest(a) == digest(b), digest.__name__

    def test_fingerprint_is_plain_hex(self):
        spec = _spec()
        for digest in DIGESTS:
            fp = digest(build_system(spec, secret=0))
            assert isinstance(fp, str)
            int(fp, 16)  # must parse as hex

    def test_step_changes_fingerprint(self):
        spec = _spec()
        kernel = build_system(spec, secret=0)
        before = [digest(kernel) for digest in DIGESTS]
        kernel.step(core_id=0, max_cycles=spec.max_cycles)
        after = [digest(kernel) for digest in DIGESTS]
        assert after[0] != before[0]
        assert after[1] != before[1]

    def test_secret_distinguishes_roots(self):
        # The secret is a program parameter, which fully determines
        # future behaviour: states must never alias across secrets even
        # before the first secret-dependent instruction executes.
        spec = _spec()
        for digest in DIGESTS:
            assert (
                digest(build_system(spec, secret=0))
                != digest(build_system(spec, secret=1))
            ), digest.__name__


class TestSymmetry:
    def _system_with_names(self, spec, trojan_name):
        from repro.campaign.registry import MACHINES, TP_CONFIGS

        machine = MACHINES[spec.machine]()
        tp = TP_CONFIGS[spec.tp]()
        kernel = Kernel(
            machine, tp, kernel_image_pages=spec.kernel_image_pages)
        kernel.capture_footprints = True
        hi = kernel.create_domain(
            trojan_name, n_colours=1, slice_cycles=spec.slice_cycles,
            irq_lines=spec.irq_lines,
        )
        lo = kernel.create_domain(
            "Lo", n_colours=1, slice_cycles=spec.slice_cycles)
        kernel.create_thread(
            hi, ReplayableProgram.factory(hi_step),
            data_pages=2, code_pages=1, params={"secret": 1},
        )
        kernel.create_thread(
            lo, ReplayableProgram.factory(lo_step),
            data_pages=2, code_pages=1,
            params={"probes": spec.lo_probes, "rounds": spec.lo_rounds},
        )
        kernel.set_schedule(0, [(hi, None), (lo, None)])
        return kernel

    def test_non_observer_name_is_relabelled_away(self):
        # Renaming the Trojan domain (and thus its threads, contexts,
        # switch records and observation attribution) must not change
        # the canonical state: identity is by role, not by name.
        spec = _spec()
        a = self._system_with_names(spec, "Hi")
        b = self._system_with_names(spec, "Trojan")
        for _ in range(6):
            a.step(core_id=0, max_cycles=spec.max_cycles)
            b.step(core_id=0, max_cycles=spec.max_cycles)
        assert canonical_state(a) == canonical_state(b)
        for digest in DIGESTS:
            assert digest(a) == digest(b), digest.__name__

    def test_product_pair_is_unordered(self):
        fp_a = "0" * 32
        fp_b = "f" * 32
        assert (
            product_fingerprint(fp_a, fp_b)
            == product_fingerprint(fp_b, fp_a)
        )
        assert product_fingerprint(fp_a, fp_b) != product_fingerprint(
            fp_a, fp_a)

    def test_colour_ids_are_canonicalised(self):
        # Concrete colour ids are allocator accidents; the canonical
        # document must only ever mention first-appearance indices.
        spec = _spec()
        kernel = build_system(spec, secret=0)
        doc = canonical_state(kernel)
        domains = doc[1]
        canonical_colours = sorted(
            colour for domain in domains for colour in domain[1]
        )
        # Kernel colours take index 0..k-1; the two domains follow.
        assert canonical_colours == sorted(
            range(len(kernel.allocator.kernel_colours),
                  len(kernel.allocator.kernel_colours) + 2)
        )
