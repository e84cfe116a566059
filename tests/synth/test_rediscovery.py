"""The subsystem's acceptance tests, straight from the issue:

1. From a random initial population on ``tiny`` with TP off, the search
   evolves a genome whose guess accuracy and mutual information match or
   exceed the hand-written prime+probe attack (``e2``).
2. At least one evolved genome exercises the stride-prefetcher state
   element -- a channel no ``repro.attacks`` program carries: disabling
   the prefetcher collapses the genome's capacity below the open-channel
   threshold while leaving every hand-written attack's measurement
   *bit-identical* -- with per-element touch counters (the
   ``CountingRecorder`` fake in ``tests/synth/novelty.py``) as the
   attribution evidence.
3. Under full TP, every discovered genome's capacity falls below the
   estimator noise floor.
"""

import pytest

from repro.campaign.registry import ATTACKS, MACHINES, TP_CONFIGS
from repro.synth import ChannelGuessEnv, EvolutionSearch, SearchConfig
from repro.synth.runner import (
    PREFETCH_RESIDUE_GENOME,
    PREFETCH_RESIDUE_VICTIM_PARAMS,
    PRIME_PROBE_GENOME,
    experiment,
)

from tests.synth.novelty import (
    ablate_prefetcher,
    genome_counter_profiles,
    sensitive_elements,
    touched_elements,
)

#: Capacity above this is an open channel (matches benchmarks/_common.py).
OPEN_BITS = 0.3

RESIDUE_KWARGS = dict(
    victim="stream_strider",
    rounds_per_run=8,
    sweep_rounds=3,
    data_pages=6,
    hi_data_pages=8,
    victim_params=PREFETCH_RESIDUE_VICTIM_PARAMS,
)


def e2_reference_stats():
    return ATTACKS["e2"].run(TP_CONFIGS["none"](), MACHINES["tiny"]).stats()


@pytest.fixture(scope="module")
def search_report():
    """One seeded search from a random population on tiny/no-TP."""
    env = ChannelGuessEnv(
        machine="tiny", tp="none", victim="set_hammer",
        rounds_per_run=6, sweep_rounds=2,
    )
    config = SearchConfig(
        generations=6, population=16, elite=2, min_ops=2, max_ops=6,
        target_bits=2.0,
    )
    return EvolutionSearch(env, config, seed=0).run()


@pytest.mark.slow
class TestRediscovery:
    def test_search_matches_hand_written_primeprobe(self, search_report):
        reference = e2_reference_stats()
        champion = search_report.champion.evaluation
        assert champion.mutual_information_bits >= (
            reference["mutual_information_bits"] - 1e-9
        )
        assert champion.accuracy >= reference["decode_accuracy"] - 1e-9
        assert search_report.found_channel()

    def test_champion_capacity_closes_under_full_tp(self, search_report):
        closed_env = ChannelGuessEnv(
            machine="tiny", tp="full", victim="set_hammer",
            rounds_per_run=6, sweep_rounds=2,
        )
        evaluation = closed_env.evaluate(search_report.champion.genome)
        assert evaluation.mutual_information_bits < closed_env.noise_floor_bits()


class TestCanonicalGenomes:
    """The checked-in witnesses re-measure to their recorded strength."""

    def test_prime_probe_genome_beats_e2(self):
        stats = experiment(
            TP_CONFIGS["none"](), MACHINES["tiny"], PRIME_PROBE_GENOME,
            victim="set_hammer", rounds_per_run=6, sweep_rounds=2,
        ).stats()
        reference = e2_reference_stats()
        assert stats["mutual_information_bits"] >= (
            reference["mutual_information_bits"] - 1e-9
        )
        assert stats["decode_accuracy"] >= reference["decode_accuracy"] - 1e-9

    @pytest.mark.parametrize("genome", [
        PRIME_PROBE_GENOME, PREFETCH_RESIDUE_GENOME,
    ], ids=["prime-probe", "prefetch-residue"])
    def test_full_tp_closes_canonical_genomes(self, genome):
        kwargs = (
            RESIDUE_KWARGS if genome is PREFETCH_RESIDUE_GENOME
            else dict(victim="set_hammer", rounds_per_run=6, sweep_rounds=2)
        )
        stats = experiment(
            TP_CONFIGS["full"](), MACHINES["tiny"], genome, **kwargs
        ).stats()
        assert stats["capacity_bits"] < OPEN_BITS
        assert stats["mutual_information_bits"] < 0.11  # noise floor


@pytest.mark.slow
class TestNovelPrefetcherChannel:
    """The prefetcher-residue channel: open, attributable, and novel."""

    def test_residue_channel_is_open_without_tp(self):
        stats = experiment(
            TP_CONFIGS["none"](), MACHINES["tiny"],
            PREFETCH_RESIDUE_GENOME, **RESIDUE_KWARGS
        ).stats()
        assert stats["capacity_bits"] > OPEN_BITS
        assert stats["decode_accuracy"] > stats["chance_accuracy"]

    def test_channel_survives_unflushable_hardware(self):
        # The motivating case: hardware with no architected prefetcher
        # flush (E9) carries the same residue channel.
        stats = experiment(
            TP_CONFIGS["none"](), MACHINES["unflushable"],
            PREFETCH_RESIDUE_GENOME, **RESIDUE_KWARGS
        ).stats()
        assert stats["capacity_bits"] > OPEN_BITS

    def test_ablating_prefetcher_collapses_the_channel(self):
        ablated = ablate_prefetcher(MACHINES["tiny"])
        stats = experiment(
            TP_CONFIGS["none"](), ablated,
            PREFETCH_RESIDUE_GENOME, **RESIDUE_KWARGS
        ).stats()
        assert stats["capacity_bits"] < OPEN_BITS

    @pytest.mark.parametrize("attack", ["e2", "e4", "e5"])
    def test_no_hand_written_attack_uses_the_prefetcher(self, attack):
        # Every hand-written single-core cache attack measures a channel
        # that is *bit-identical* with the prefetcher disabled: their
        # prefetcher-attributable capacity is exactly zero, so the
        # residue genome's channel is one no repro.attacks program
        # exercises above (or at all near) the capacity threshold.
        tp = TP_CONFIGS["none"]()
        normal = ATTACKS[attack].run(tp, MACHINES["tiny"])
        ablated = ATTACKS[attack].run(tp, ablate_prefetcher(MACHINES["tiny"]))
        assert normal.samples == ablated.samples
        assert normal.stats() == ablated.stats()

    def test_counter_evidence_attributes_the_channel(self):
        # Touch counters: the spy drives the prefetcher element
        # every round, and its secret-sensitive spy-side counters are the
        # caches the prefetch fills land in -- state modulated by the
        # victim's secret through the prefetcher's (last_addr, stride).
        profiles = genome_counter_profiles(
            TP_CONFIGS["none"](), MACHINES["tiny"],
            PREFETCH_RESIDUE_GENOME,
            victim="stream_strider", symbols=(0, 1, 2, 3),
            rounds_per_run=8,
            data_pages=6, hi_data_pages=8,
            victim_params=PREFETCH_RESIDUE_VICTIM_PARAMS,
        )
        assert "core0.prefetcher" in touched_elements(profiles, domain="Lo")
        sensitive = sensitive_elements(profiles, domain="Lo")
        assert "core0.l2" in sensitive, sensitive
