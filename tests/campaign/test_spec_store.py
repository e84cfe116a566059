"""Specs expand deterministically; the store appends, loads and resumes."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    TrialSpec,
    deterministic_view,
)


class TestTrialSpec:
    def test_key_is_stable_and_distinct(self):
        a = TrialSpec("tiny", "full", "e5", seed=0)
        b = TrialSpec("tiny", "full", "e5", seed=1)
        assert a.key() == TrialSpec("tiny", "full", "e5", seed=0).key()
        assert a.key() != b.key()
        assert "machine=tiny" in a.key() and "attack=e5" in a.key()

    def test_params_change_the_key_order_insensitively(self):
        base = TrialSpec("tiny", "full", "e5")
        with_params = TrialSpec("tiny", "full", "e5", params={"rounds_per_run": 3})
        assert base.key() != with_params.key()
        reordered = TrialSpec(
            "tiny", "full", "e5", params={"rounds_per_run": 3}
        )
        assert with_params.key() == reordered.key()

    def test_derived_seed_distinct_per_trial_but_reproducible(self):
        a = TrialSpec("tiny", "full", "e5", seed=0)
        b = TrialSpec("tiny", "none", "e5", seed=0)
        assert a.derived_seed() == TrialSpec("tiny", "full", "e5").derived_seed()
        assert a.derived_seed() != b.derived_seed()

    def test_payload_roundtrip(self):
        trial = TrialSpec("tiny", "no-pad", "occupancy", seed=3,
                          params={"rounds_per_run": 2})
        assert TrialSpec.from_payload(trial.to_payload()) == trial

    def test_validate_rejects_unknown_names(self):
        with pytest.raises(KeyError):
            TrialSpec("no-such-machine", "full", "e5").validate()
        with pytest.raises(KeyError):
            TrialSpec("tiny", "no-such-tp", "e5").validate()
        with pytest.raises(KeyError):
            TrialSpec("tiny", "full", "no-such-attack").validate()


class TestCampaignSpec:
    def test_grid_is_full_cross_product(self):
        spec = CampaignSpec(
            machines=("tiny",), tps=("full", "none"),
            attacks=("e5", "occupancy"), seeds=(0, 1),
        )
        trials = spec.trials()
        assert len(trials) == 1 * 2 * 2 * 2
        assert len({t.key() for t in trials}) == len(trials)

    def test_core_starved_attacks_are_skipped(self):
        # e3/e7 need two cores; 'tiny' has one, 'tiny2' has two.
        spec = CampaignSpec(
            machines=("tiny", "tiny2"), tps=("full",),
            attacks=("e5", "e7"), seeds=(0,),
        )
        trials = spec.trials()
        pairs = {(t.machine, t.attack) for t in trials}
        assert ("tiny", "e5") in pairs and ("tiny2", "e7") in pairs
        assert ("tiny", "e7") not in pairs

    def test_json_roundtrip(self, tmp_path):
        spec = CampaignSpec(
            machines=("tiny", "nocolour"), tps=("full", "no-flush"),
            attacks=("e5",), seeds=(0, 7),
            attack_params={"e5": {"rounds_per_run": 3}}, name="rt",
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = CampaignSpec.from_json_file(str(path))
        assert loaded.to_dict() == spec.to_dict()
        assert [t.key() for t in loaded.trials()] == [
            t.key() for t in spec.trials()
        ]

    def test_unknown_spec_fields_rejected(self):
        with pytest.raises(KeyError):
            CampaignSpec.from_dict({"machines": ["tiny"], "bogus": 1})


class TestResultStore:
    def _record(self, key, status="ok", capacity=0.5):
        return {
            "key": key, "status": status, "machine": "tiny", "tp": "full",
            "attack": "e5", "seed": 0,
            "result": {"stats": {"capacity_bits": capacity}},
            "wall_time_s": 1.0, "worker": {"pid": 1}, "attempts": 1,
        }

    def test_append_then_load(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        assert store.records() == [] and len(store) == 0
        store.append(self._record("k1"))
        store.append(self._record("k2", status="failed"))
        records = store.records()
        assert [r["key"] for r in records] == ["k1", "k2"]
        assert store.completed_keys() == {"k1"}

    def test_record_without_key_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        with pytest.raises(ValueError):
            store.append({"status": "ok"})

    def test_torn_tail_line_is_ignored(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(str(path))
        store.append(self._record("k1"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "status": "o')  # interrupted write
        assert [r["key"] for r in store.records()] == ["k1"]
        assert store.completed_keys() == {"k1"}

    def test_append_after_torn_tail_survives_reopen(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(str(path))
        store.append(self._record("a"))
        assert store.completed_keys() == {"a"}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b", "status": "o')  # crash mid-append
        store.append(self._record("c"))
        assert store.completed_keys() == {"a", "c"}
        assert ResultStore(str(path)).completed_keys() == {"a", "c"}

    def test_latest_by_key_prefers_newest(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        store.append(self._record("k1", capacity=0.1))
        store.append(self._record("k1", capacity=0.9))
        assert store.latest_by_key()["k1"]["result"]["stats"][
            "capacity_bits"
        ] == 0.9

    def test_deterministic_view_drops_volatile_fields(self):
        record = self._record("k1")
        view = deterministic_view(record)
        assert "wall_time_s" not in view and "worker" not in view
        assert view["key"] == "k1" and "result" in view
