"""Property tests: the batch engine vs. N independent scalar runs.

The differential golden suite pins the batch engine to a fixed set of
recorded workloads; these properties let hypothesis pick the workloads.
Random attack genomes, machine geometries, secrets and seeds must all
satisfy the same contract: a batch of N lanes produces observation
traces, channel statistics and noninterference verdicts bit-identical
to N independent scalar runs, and the per-lane results do not depend on
the order lanes occupy in the batch.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.attacks.primeprobe import l1_spy, l1_trojan
from repro.core.noninterference import batched_secret_sweep, sweep_secrets
from repro.hardware.geometry import CacheGeometry
from repro.hardware.machine import Machine, MachineConfig
from repro.kernel.kernel import Kernel
from repro.kernel.timeprotect import TimeProtectionConfig
from repro.synth.env import ChannelGuessEnv
from repro.synth.genome import random_genome

# Small envelope-conforming geometry variants (all single-core, LRU or
# FIFO, power-of-two pages): enough shape diversity to exercise the
# vectorized tag/stamp indexing without ballooning runtime.
_GEOMETRY_VARIANTS = (
    {},  # the tiny preset itself
    {
        "l1i_geometry": CacheGeometry(sets=4, ways=2, line_size=32),
        "l1d_geometry": CacheGeometry(sets=4, ways=2, line_size=32),
    },
    {"tlb_entries": 4},
    {"branch_history_bits": 0},
)


def _machine_factory(variant: dict):
    def factory() -> Machine:
        return Machine(MachineConfig(n_cores=1, **variant))

    return factory


def _sweep_builder(variant: dict, tp: TimeProtectionConfig, rounds: int):
    factory = _machine_factory(variant)
    geometry = factory().config.l1d_geometry
    lo_slice = max(12000, geometry.sets * geometry.ways * 80)

    def build(secret: int) -> Kernel:
        machine = factory()
        kernel = Kernel(machine, tp)
        hi = kernel.create_domain("Hi", n_colours=2, slice_cycles=4000)
        lo = kernel.create_domain("Lo", n_colours=2, slice_cycles=lo_slice)
        kernel.create_thread(
            hi, l1_trojan, params={"symbol": secret},
            data_pages=geometry.ways,
        )
        kernel.create_thread(
            lo, l1_spy,
            params={
                "l1_sets": geometry.sets,
                "prime_pages": geometry.ways,
                "results": [],
                "rounds": rounds,
                "sleep_cycles": lo_slice + 2000,
            },
            data_pages=geometry.ways,
        )
        kernel.set_schedule(0, [(hi, None), (lo, None)])
        return kernel

    return build, rounds * 60 * lo_slice


@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    n_genomes=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=6, deadline=None)
def test_batched_generation_matches_serial_evaluation(seed, n_genomes):
    """Random genomes: evaluate_population == map(evaluate), bitwise."""
    rng = random.Random(seed)
    genomes = [random_genome(rng) for _ in range(n_genomes)]
    env = ChannelGuessEnv(
        machine="tiny", tp="none", victim="set_hammer",
        symbols=(0, 2), rounds_per_run=3, sweep_rounds=1, seed=seed,
    )
    serial = [env.evaluate(genome) for genome in genomes]
    batched = env.evaluate_population(genomes)
    assert len(batched) == len(serial)
    for lane, (one, many) in enumerate(zip(serial, batched)):
        assert many.fitness == one.fitness, f"genome {lane}"
        assert many.error == one.error, f"genome {lane}"
        if one.result is None:
            assert many.result is None, f"genome {lane}"
        else:
            assert many.result.samples == one.result.samples, f"genome {lane}"
            assert many.result.stats() == one.result.stats(), f"genome {lane}"


@given(
    variant=st.sampled_from(_GEOMETRY_VARIANTS),
    secrets=st.lists(
        st.integers(min_value=0, max_value=7),
        min_size=2, max_size=4, unique=True,
    ),
    tp_full=st.booleans(),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
@settings(max_examples=6, deadline=None)
def test_batched_sweep_matches_scalar_and_lane_order(
    variant, secrets, tp_full, seed
):
    """Random geometries/secrets: batch == scalar loop, any lane order."""
    tp = TimeProtectionConfig.full() if tp_full else TimeProtectionConfig.none()
    build, max_cycles = _sweep_builder(variant, tp, rounds=2)
    scalar = sweep_secrets(build, secrets, "Lo", max_cycles)
    batched = batched_secret_sweep(build, secrets, "Lo", max_cycles)
    assert [str(r) for r in batched] == [str(r) for r in scalar]

    # Lane-order permutation invariance: shuffling the non-baseline
    # lanes must permute the verdicts and change nothing else.
    tail = secrets[1:]
    random.Random(seed).shuffle(tail)
    permuted_secrets = [secrets[0]] + tail
    permuted = batched_secret_sweep(build, permuted_secrets, "Lo", max_cycles)
    by_secret = {r.secret_b: str(r) for r in batched}
    for result in permuted:
        assert str(result) == by_secret[result.secret_b]
