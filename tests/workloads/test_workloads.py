"""Tests for the victim workloads."""

from repro.hardware import Evidence, presets
from repro.kernel import Kernel, TimeProtectionConfig
from repro.workloads import (
    encryption_engine,
    exponent_work_cycles,
    key_dependent_line,
    modexp_victim,
    network_stack,
    sbox_victim,
    web_server,
)
from repro.workloads.modexp import MULTIPLY_CYCLES, SQUARE_CYCLES


class TestModexpAnalysis:
    def test_work_scales_with_hamming_weight(self):
        base = exponent_work_cycles(0b0000, 4)
        heavy = exponent_work_cycles(0b1111, 4)
        assert heavy == base + 4 * MULTIPLY_CYCLES
        assert base == 4 * SQUARE_CYCLES

    def test_width_masks_exponent(self):
        assert exponent_work_cycles(0xFF, 4) == exponent_work_cycles(0x0F, 4)

    def test_victim_runtime_tracks_secret(self):
        def run(exponent):
            machine = presets.tiny_machine()
            kernel = Kernel(machine, TimeProtectionConfig.none())
            hi = kernel.create_domain("Hi", slice_cycles=30_000)
            lo = kernel.create_domain("Lo", slice_cycles=5_000)
            endpoint = kernel.create_endpoint("out", receiver_domain=lo)
            kernel.create_thread(
                hi,
                modexp_victim,
                params={
                    "exponent": exponent,
                    "bits": 8,
                    "endpoint_id": endpoint.endpoint_id,
                    "messages": 2,
                },
            )
            arrivals = []

            def sink(ctx):
                from repro.hardware import ReadTime, Syscall

                for _ in range(2):
                    yield Syscall("recv", (endpoint.endpoint_id,))
                    stamp = yield ReadTime()
                    arrivals.append(stamp.value)

            kernel.create_thread(lo, sink)
            kernel.set_schedule(0, [(hi, None), (lo, None)])
            kernel.run(max_cycles=600_000)
            return arrivals

        light = run(0b00000001)
        heavy = run(0b11111111)
        assert light and heavy
        assert heavy[0] > light[0]  # more 1-bits -> later first arrival


class TestTableCrypto:
    def test_key_dependent_line_formula(self):
        assert key_dependent_line(key_byte=5, plaintext=0, table_rows=16) == 5
        assert key_dependent_line(key_byte=5, plaintext=5, table_rows=16) == 0

    def test_victim_runs_and_touches_table(self):
        machine = presets.tiny_machine()
        kernel = Kernel(machine, TimeProtectionConfig.none())
        domain = kernel.create_domain("Hi", slice_cycles=20_000)
        kernel.create_thread(
            domain,
            sbox_victim,
            data_pages=4,
            params={"key": [3, 7], "blocks_per_slice": 2},
        )
        kernel.set_schedule(0, [(domain, None)])
        kernel.declare(Evidence(touches=frozenset({"llc"})))
        kernel.run(max_cycles=100_000)
        touched = machine.instrumentation.summary.get(("Hi", "llc"))
        assert touched  # the table walk reached the cache hierarchy


class TestDowngraderPipeline:
    def test_three_stage_pipeline_delivers(self):
        machine = presets.tiny_machine()
        kernel = Kernel(machine, TimeProtectionConfig.full(padded_ipc=True))
        hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=25_000)
        lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=8_000)
        to_crypto = kernel.create_endpoint("to_crypto", min_exec_cycles=9000)
        to_network = kernel.create_endpoint(
            "to_network", min_exec_cycles=15_000, receiver_domain=lo
        )
        secrets = [3, 9]
        kernel.create_thread(
            hi,
            web_server,
            params={"endpoint_id": to_crypto.endpoint_id, "secrets": secrets},
        )
        kernel.create_thread(
            hi,
            encryption_engine,
            params={
                "in_endpoint_id": to_crypto.endpoint_id,
                "out_endpoint_id": to_network.endpoint_id,
                "messages": len(secrets),
            },
        )
        arrivals = []
        kernel.create_thread(
            lo,
            network_stack,
            params={
                "in_endpoint_id": to_network.endpoint_id,
                "arrivals": arrivals,
                "messages": len(secrets),
            },
        )
        kernel.set_schedule(0, [(hi, None), (lo, None)])
        kernel.run(max_cycles=2_000_000)
        assert len(arrivals) == len(secrets)
