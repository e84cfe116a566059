"""Specs expand deterministically; the store appends, loads and resumes."""

import json
import sys
import threading

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    TrialSpec,
    deterministic_view,
)
from repro.hardware.machine import Machine


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

    def test_core_count_is_built_only_for_multi_core_attacks(self, monkeypatch):
        builds = []
        real_init = Machine.__init__

        def counted(machine, *args, **kwargs):
            builds.append(machine)
            real_init(machine, *args, **kwargs)

        monkeypatch.setattr(Machine, "__init__", counted)
        one_core = CampaignSpec(
            machines=("tiny", "tiny2", "micro"), tps=("full", "none"),
            attacks=("e1", "e2", "e4", "e5", "e6", "occupancy"), seeds=(0,),
        )
        assert len(one_core.trials()) == 3 * 6 * 2
        assert builds == []
        mixed = CampaignSpec(
            machines=("tiny", "tiny2", "tiny"), tps=("full",),
            attacks=("e5", "e7", "e3"), seeds=(0,),
        )
        trials = mixed.trials()
        assert len(builds) == 2  # one per distinct machine
        assert [(t.machine, t.attack) for t in trials] == [
            ("tiny", "e5"),
            ("tiny2", "e5"), ("tiny2", "e7"), ("tiny2", "e3"),
            ("tiny", "e5"),
        ]

    @pytest.mark.parametrize("attack", ["e5", "e7"])
    def test_unknown_machine_is_rejected_at_expansion(self, attack):
        spec = CampaignSpec(machines=("tiny", "no-such-machine"),
                            attacks=(attack,))
        with pytest.raises(KeyError, match="no-such-machine"):
            spec.trials()

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


def _fill(store):
    store.append({"key": "a", "status": "ok", "result": {"v": 1}})
    store.append({"key": "b", "status": "failed", "result": None})
    store.append({"key": "c", "status": "ok", "result": {"v": 3}})
    store.append({"key": "a", "status": "ok", "result": {"v": 9}})  # re-run
    return store


class TestStoreApi:
    @pytest.fixture
    def store(self, tmp_path):
        return ResultStore(str(tmp_path / "r.jsonl"))

    def test_append_requires_key(self, store):
        with pytest.raises(ValueError):
            store.append({"status": "ok"})

    def test_len_and_records_order(self, store):
        _fill(store)
        assert len(store) == 4
        assert [r["key"] for r in store.records()] == ["a", "b", "c", "a"]

    def test_completed_keys(self, store):
        _fill(store)
        assert store.completed_keys() == {"a", "c"}

    def test_latest_by_key_last_record_wins(self, store):
        _fill(store)
        latest = store.latest_by_key()
        assert latest["a"]["result"] == {"v": 9}
        assert set(latest) == {"a", "c"}
        everything = store.latest_by_key(status=None)
        assert set(everything) == {"a", "b", "c"}
        assert everything["a"]["result"] == {"v": 9}

    def test_empty_store(self, store):
        assert len(store) == 0
        assert store.completed_keys() == set()
        assert store.latest_by_key() == {}
        assert store.records() == []


class TestDatabasePathRefused:
    """JSONL is the only store: a database path is refused before the
    file is opened, so no JSON line lands in a database."""

    @pytest.mark.parametrize("name", ["r.sqlite", "r.sqlite3", "r.db"])
    def test_database_suffix_raises_and_leaves_the_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"SQLite format 3\x00")
        with pytest.raises(ValueError, match="JSONL"):
            ResultStore(str(path))
        assert path.read_bytes() == b"SQLite format 3\x00"


class TestJsonlScanCache:
    """The mtime/size cache behind the JSONL read paths."""

    @pytest.fixture
    def counting_store(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        scans = {"n": 0}
        real_scan = ResultStore._scan_file

        def counted(self):
            scans["n"] += 1
            return real_scan(self)

        monkeypatch.setattr(ResultStore, "_scan_file", counted)
        return store, scans

    def test_repeated_reads_scan_once(self, counting_store):
        store, scans = counting_store
        _fill(store)
        for _ in range(5):
            store.completed_keys()
            store.latest_by_key()
            len(store)
            store.records()
        assert scans["n"] == 1

    def test_append_keeps_cache_coherent_without_rescan(self, counting_store):
        store, scans = counting_store
        _fill(store)
        assert store.completed_keys() == {"a", "c"}
        store.append({"key": "d", "status": "ok", "result": None})
        assert store.completed_keys() == {"a", "c", "d"}
        assert [r["key"] for r in store.records()][-1] == "d"
        assert scans["n"] == 1  # the writer never re-reads its own writes

    def test_external_write_invalidates_cache(self, counting_store):
        store, scans = counting_store
        _fill(store)
        assert store.completed_keys() == {"a", "c"}
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": "x", "status": "ok"}) + "\n")
        assert store.completed_keys() == {"a", "c", "x"}
        assert scans["n"] == 2

    def test_cached_view_matches_fresh_scan_after_append(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        writer = _fill(ResultStore(path))
        writer.append({"key": "e", "status": "ok", "result": {"t": (1, 2)}})
        fresh = ResultStore(path)
        # Tuples must round-trip to lists in the cached view too.
        assert writer.records() == fresh.records()
        assert writer.completed_keys() == fresh.completed_keys()

    def test_torn_tail_is_ignored(self, tmp_path):
        store = _fill(ResultStore(str(tmp_path / "r.jsonl")))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn", "status"')  # killed mid-write
        assert store.completed_keys() == {"a", "c"}
        assert len(store) == 4


class TestThreadedAccess:
    def test_reader_threads_see_each_record_once(self, tmp_path):
        """Threads poll ``records()`` while another appends through the
        same handle, as ``campaign --serve --status-interval`` does: no
        read may see a key twice, and the writer's view must end equal
        to the file."""
        n_records = 200
        store = ResultStore(str(tmp_path / "r.jsonl"))
        stop = threading.Event()
        torn_reads = []

        def poll():
            while not stop.is_set():
                keys = [record["key"] for record in store.records()]
                if len(keys) != len(set(keys)):
                    torn_reads.append(len(keys))

        readers = [threading.Thread(target=poll) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for index in range(n_records):
                store.append({"key": f"k{index}", "status": "ok",
                              "result": {"v": index}})
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert not torn_reads
        assert len(store) == n_records
        assert store.records() == ResultStore(store.path).records()
        assert len(store.completed_keys()) == n_records
