"""Campaign bridge: pool evaluation, fitness cache, registry promotion."""

import json

import pytest

from repro.campaign.registry import ATTACKS, unregister_attack
from repro.campaign.store import ResultStore
from repro.synth import (
    CampaignEvaluator,
    ChannelGuessEnv,
    load_genomes,
    register_discovered,
    register_saved,
    save_genomes,
)
from repro.synth.genome import Genome, TimedSweep, TouchSweep, YieldToVictim
from repro.synth.runner import PRIME_PROBE_GENOME

SIMPLE = Genome(
    ops=(YieldToVictim(cycles=10000), TimedSweep(count=16)),
    decoder="bins",
    bin_width=8,
)
DULL = Genome(ops=(TouchSweep(count=4),), decoder="argmax", bin_width=16)


def make_env():
    return ChannelGuessEnv(
        machine="tiny", tp="none", victim="set_hammer",
        rounds_per_run=4, sweep_rounds=1,
    )


class TestCampaignEvaluator:
    def test_pool_matches_serial_evaluation(self, tmp_path):
        env = make_env()
        genomes = [SIMPLE, DULL, PRIME_PROBE_GENOME]
        serial = [env.evaluate(genome) for genome in genomes]
        evaluator = CampaignEvaluator(
            env, str(tmp_path / "fitness.jsonl"), n_workers=2
        )
        pooled = evaluator(genomes)
        assert len(pooled) == len(serial)
        for ours, theirs in zip(pooled, serial):
            assert ours.fitness == pytest.approx(theirs.fitness)
            assert ours.mutual_information_bits == pytest.approx(
                theirs.mutual_information_bits
            )

    def test_duplicate_genomes_collapse_to_one_trial(self, tmp_path):
        env = make_env()
        store = ResultStore(str(tmp_path / "fitness.jsonl"))
        evaluator = CampaignEvaluator(env, store, n_workers=2)
        evaluations = evaluator([SIMPLE, SIMPLE, SIMPLE])
        assert len(evaluations) == 3
        assert len({e.fitness for e in evaluations}) == 1
        assert len(store.completed_keys()) == 1

    def test_store_is_a_fitness_cache_across_calls(self, tmp_path):
        env = make_env()
        store = ResultStore(str(tmp_path / "fitness.jsonl"))
        evaluator = CampaignEvaluator(env, store, n_workers=1)
        first = evaluator([SIMPLE])
        n_records = len(store.records())
        second = evaluator([SIMPLE])  # resume answers from disk
        assert len(store.records()) == n_records
        assert second[0].fitness == pytest.approx(first[0].fitness)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "genomes.json")
        env = make_env()
        save_genomes(path, [SIMPLE, DULL], env=env, metadata={"note": "t"})
        records = load_genomes(path)
        assert len(records) == 2
        assert Genome.from_dict(records[0]["genome"]) == SIMPLE
        assert records[0]["env"]["victim"] == "set_hammer"
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["metadata"] == {"note": "t"}

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "genomes": []}))
        with pytest.raises(ValueError):
            load_genomes(str(path))


class TestRegistryPromotion:
    def test_register_discovered_runs_like_an_attack(self):
        name = "synth-test-pp"
        try:
            register_discovered(name, PRIME_PROBE_GENOME, victim="set_hammer")
            assert name in ATTACKS
            from repro.campaign.registry import MACHINES, TP_CONFIGS

            result = ATTACKS[name].run(
                TP_CONFIGS["none"](), MACHINES["tiny"]
            )
            assert result.stats()["mutual_information_bits"] > 0.5
        finally:
            unregister_attack(name)

    def test_register_saved_names_and_defaults(self, tmp_path):
        path = str(tmp_path / "genomes.json")
        env = make_env()
        save_genomes(path, [SIMPLE, DULL], env=env)
        names = register_saved(path, prefix="synth-test")
        try:
            assert names == ["synth-test-0", "synth-test-1"]
            entry = ATTACKS["synth-test-0"]
            assert entry.defaults["victim"] == "set_hammer"
            assert Genome.from_dict(entry.defaults["genome"]) == SIMPLE
        finally:
            for name in names:
                unregister_attack(name)

    def test_generic_synth_attack_is_registered(self):
        assert "synth" in ATTACKS
