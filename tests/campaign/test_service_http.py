"""Live coordinator over HTTP: endpoints, worker loop, portable deadline."""

import asyncio
import json
import socket
import time
from urllib import error as urlerror
from urllib import request as urlrequest

import pytest

from repro.attacks.harness import ChannelResult
from repro.campaign import TrialSpec, register_attack, unregister_attack
from repro.campaign.service import (
    BackoffPolicy,
    CoordinatorUnreachable,
    LeaseTable,
    ServiceWorker,
    plan_payloads,
)
from repro.campaign.service.coordinator import (
    MAX_BODY_BYTES,
    Coordinator,
    CoordinatorServer,
    _read_request,
    _Refused,
)
from repro.campaign.service.status import format_status
from repro.campaign.service.worker import run_trial_with_deadline
from repro.campaign.store import ResultStore


def _quick_attack(tp, machine_factory, **params):
    return ChannelResult(
        name="quick", tp_label="quick", samples=[(0, 0), (1, 1)],
        metadata={},
    )


def _sleepy_attack(tp, machine_factory, **params):
    time.sleep(30)
    return _quick_attack(tp, machine_factory)


@pytest.fixture
def fake_attacks():
    register_attack("quick", _quick_attack)
    register_attack("sleepy", _sleepy_attack)
    yield
    unregister_attack("quick")
    unregister_attack("sleepy")


def _trials(n, attack="quick"):
    return [TrialSpec("tiny", "none", attack, seed=i) for i in range(n)]


@pytest.fixture
def live_server(fake_attacks, tmp_path):
    store = ResultStore(str(tmp_path / "r.jsonl"))
    table = LeaseTable(plan_payloads(_trials(4)), shard_size=2,
                       lease_ttl_s=30.0)
    coordinator = Coordinator(table, store, campaign="http-test")
    server = CoordinatorServer(coordinator)
    url = server.start()
    yield url, table, store, coordinator
    server.stop()


def _post(url, path, payload):
    request = urlrequest.Request(
        url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urlrequest.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


class TestEndpoints:
    def test_lease_heartbeat_results_cycle(self, live_server):
        url, table, store, _ = live_server
        lease = _post(url, "/lease", {"worker": "t0"})["lease"]
        assert lease["generation"] == 1 and len(lease["trials"]) == 2
        beat = _post(url, "/heartbeat", {
            "worker": "t0", "shard": lease["shard"],
            "generation": lease["generation"],
        })
        assert beat["ok"] is True
        record = {"key": lease["trials"][0]["key"], "status": "ok",
                  "result": {"stats": {}}}
        outcome = _post(url, "/results", {
            "worker": "t0", "shard": lease["shard"],
            "generation": lease["generation"], "records": [record],
        })
        assert outcome["accepted"] == 1 and outcome["done"] is False
        # The coordinator is the single writer: the record landed with
        # its campaign label attached.
        (stored,) = store.records()
        assert stored["key"] == record["key"]
        assert stored["campaign"] == "http-test"
        # A duplicate submission is dropped, not re-appended.
        again = _post(url, "/results", {
            "worker": "t1", "shard": lease["shard"],
            "generation": lease["generation"], "records": [record],
        })
        assert again["duplicate"] == 1 and len(store.records()) == 1

    def test_status_endpoint_reports_progress(self, live_server):
        url, *_ = live_server
        with urlrequest.urlopen(url + "/status", timeout=10) as response:
            status = json.loads(response.read())
        assert status["campaign"] == "http-test"
        assert status["total"] == 4 and status["resolved"] == 0
        assert "capacity" in status and "workers" in status
        assert "http-test" in format_status(status)

    def test_unknown_endpoint_is_404(self, live_server):
        url, *_ = live_server
        with pytest.raises(urlerror.HTTPError) as excinfo:
            _post(url, "/nope", {})
        assert excinfo.value.code == 404

    def test_malformed_json_is_400_and_server_survives(self, live_server):
        url, *_ = live_server
        request = urlrequest.Request(
            url + "/lease", data=b"not json{", method="POST"
        )
        with pytest.raises(urlerror.HTTPError) as excinfo:
            urlrequest.urlopen(request, timeout=10)
        assert excinfo.value.code in (400, 500)
        # Server still answers afterwards.
        assert _post(url, "/lease", {"worker": "t0"})["lease"] is not None


def _bad_results(key):
    """``/results`` bodies the coordinator must refuse whole."""
    good = {"key": key, "status": "ok", "result": {"stats": {}}}
    return {
        "records-not-a-list": {"records": "not a list"},
        "record-not-an-object": {"records": [["not", "an", "object"]]},
        "unknown-status": {"records": [{"key": key, "status": "done"}]},
        "ok-without-result": {"records": [{"key": key, "status": "ok"}]},
        "ok-with-null-result": {
            "records": [{"key": key, "status": "ok", "result": None}],
        },
        "one-bad-record-spoils-the-batch": {
            "records": [good, {"key": key, "status": "ok"}],
        },
        "list-key-after-a-good-record": {
            "records": [good, dict(good, key=[key])],
        },
        "null-shard": {"shard": None, "records": [good]},
        "list-shard": {"shard": [0], "records": [good]},
        "null-generation": {"generation": None, "records": [good]},
        "list-generation": {"generation": [1], "records": [good]},
    }


_BAD_CASES = sorted(_bad_results("k"))

#: ``/heartbeat`` bodies naming no valid lease id.
_BAD_HEARTBEATS = {
    "null-shard": {"shard": None},
    "list-shard": {"shard": [0]},
    "null-generation": {"generation": None},
    "list-generation": {"generation": [1]},
}

#: A JSON list where every endpoint expects an object.
_LIST_BODY = ["not", "an", "object"]
_POST_PATHS = ("/heartbeat", "/lease", "/results")


def _lease_body(lease, case):
    """``case`` over a well-formed request for ``lease`` (case wins)."""
    body = {"shard": lease["shard"], "generation": lease["generation"],
            "worker": "t0"}
    body.update(case)
    return body


class TestResultValidation:
    """The coordinator is every campaign's store writer: malformed
    results are a 400 with nothing written, in process and over HTTP."""

    def _leased(self, coordinator):
        status, response = coordinator.handle(
            "POST", "/lease", {"worker": "t0"}
        )
        assert status == 200
        lease = response["lease"]
        return lease, lease["trials"][0]["key"]

    @pytest.mark.parametrize("case", _BAD_CASES)
    def test_in_process_rejects(self, tmp_path, case):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        table = LeaseTable(plan_payloads(_trials(2)), shard_size=2)
        coordinator = Coordinator(table, store)
        lease, key = self._leased(coordinator)
        body = _lease_body(lease, _bad_results(key)[case])
        status, response = coordinator.handle("POST", "/results", body)
        assert status == 400 and response["error"]
        assert store.records() == [] and not table.resolved

    @pytest.mark.parametrize("case", _BAD_CASES)
    def test_http_rejects(self, live_server, case):
        url, table, store, coordinator = live_server
        lease = _post(url, "/lease", {"worker": "t0"})["lease"]
        key = lease["trials"][0]["key"]
        body = _lease_body(lease, _bad_results(key)[case])
        with pytest.raises(urlerror.HTTPError) as excinfo:
            _post(url, "/results", body)
        assert excinfo.value.code == 400
        assert store.records() == [] and not table.resolved


class TestRequestValidation:
    """Malformed ``/heartbeat`` lease ids and non-object bodies are a
    400 that changes nothing, in process and over HTTP."""

    def _coordinator(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        table = LeaseTable(plan_payloads(_trials(2)), shard_size=2)
        coordinator = Coordinator(table, store)
        status, response = coordinator.handle(
            "POST", "/lease", {"worker": "t0"}
        )
        assert status == 200
        return coordinator, response["lease"]

    @pytest.mark.parametrize("case", sorted(_BAD_HEARTBEATS))
    def test_in_process_heartbeat_rejects(self, tmp_path, case):
        coordinator, lease = self._coordinator(tmp_path)
        body = _lease_body(lease, _BAD_HEARTBEATS[case])
        status, response = coordinator.handle("POST", "/heartbeat", body)
        assert status == 400 and response["error"]
        assert coordinator.table.stats.heartbeats == 0

    @pytest.mark.parametrize("case", sorted(_BAD_HEARTBEATS))
    def test_http_heartbeat_rejects(self, live_server, case):
        url, table, _store, _coordinator = live_server
        lease = _post(url, "/lease", {"worker": "t0"})["lease"]
        body = _lease_body(lease, _BAD_HEARTBEATS[case])
        with pytest.raises(urlerror.HTTPError) as excinfo:
            _post(url, "/heartbeat", body)
        assert excinfo.value.code == 400
        assert table.stats.heartbeats == 0

    @pytest.mark.parametrize("path", _POST_PATHS)
    def test_in_process_list_body_rejects(self, tmp_path, path):
        coordinator, _lease = self._coordinator(tmp_path)
        status, response = coordinator.handle("POST", path, _LIST_BODY)
        assert status == 400 and "JSON object" in response["error"]
        assert coordinator.store.records() == []

    @pytest.mark.parametrize("path", _POST_PATHS)
    def test_http_list_body_rejects(self, live_server, path):
        url, table, store, _coordinator = live_server
        with pytest.raises(urlerror.HTTPError) as excinfo:
            _post(url, path, _LIST_BODY)
        assert excinfo.value.code == 400
        assert store.records() == [] and not table.resolved


def _raw_exchange(url, data):
    """Send ``data`` on a fresh connection; everything the server sends
    back before it closes (empty if it just drops the connection)."""
    host, port = url.split("//", 1)[1].split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _results_with(header):
    return b"POST /results HTTP/1.1\r\n" + header + b"\r\n\r\n"


#: Requests the server cannot frame, and the status that answers each.
_BAD_FRAMING = {
    "malformed-request-line": (b"GET /status\r\n\r\n", 400),
    "non-numeric-length": (_results_with(b"Content-Length: abc"), 400),
    "negative-length": (_results_with(b"Content-Length: -5"), 400),
    "huge-length": (_results_with(b"Content-Length: 99999999999"), 413),
    "length-just-over-the-limit": (
        _results_with(f"Content-Length: {MAX_BODY_BYTES + 1}".encode()), 413,
    ),
}


class TestFraming:
    """A request the server cannot frame gets an answer, not a dropped
    connection, and the server keeps serving; an oversized body is
    refused without being read."""

    @pytest.mark.parametrize("case", sorted(_BAD_FRAMING))
    def test_bad_framing_is_answered(self, live_server, case):
        url, table, store, _coordinator = live_server
        request, status = _BAD_FRAMING[case]
        response = _raw_exchange(url, request)
        assert response.startswith(f"HTTP/1.1 {status} ".encode()), response
        assert json.loads(response.split(b"\r\n\r\n", 1)[1])["error"]
        assert store.records() == [] and not table.resolved
        assert _post(url, "/lease", {"worker": "t0"})["lease"] is not None

    @pytest.mark.parametrize("request_bytes", [
        b"GET /" + b"a" * 100 + b" HTTP/1.1\r\n\r\n",
        b"GET /status HTTP/1.1\r\nX-Long: " + b"a" * 100 + b"\r\n\r\n",
    ], ids=["request-line", "header"])
    def test_line_over_the_stream_limit_is_400(self, request_bytes):
        # Read from a stream, not a socket: a server that closes with
        # unread input resets the connection, which can lose its answer.
        async def read():
            reader = asyncio.StreamReader(limit=64)
            reader.feed_data(request_bytes)
            reader.feed_eof()
            return await _read_request(reader)

        with pytest.raises(_Refused) as refusal:
            asyncio.run(read())
        assert refusal.value.status == 400


class TestServiceWorker:
    def test_worker_drains_the_grid(self, live_server):
        url, table, store, _ = live_server
        worker = ServiceWorker(url, worker_id="inline",
                               backoff=BackoffPolicy(seed=0))
        stats = worker.run()
        assert stats.trials == 4 and stats.succeeded == 4
        assert table.done
        assert len(store.records()) == 4
        assert store.completed_keys() == {t.key() for t in _trials(4)}

    def test_two_sequential_workers_split_without_overlap(self, live_server):
        url, table, store, _ = live_server
        first = ServiceWorker(url, worker_id="a")
        lease = first._call("/lease", {"worker": "a"})["lease"]
        first._run_lease(lease)
        second = ServiceWorker(url, worker_id="b")
        second.run()
        assert table.done and table.stats.duplicates == 0
        assert len(store.records()) == 4

    def test_backoff_gives_up_with_coordinator_unreachable(self):
        sleeps = []
        worker = ServiceWorker(
            "http://127.0.0.1:1",  # nothing listens on port 1
            worker_id="lost",
            max_failures=3,
            http_timeout_s=0.2,
            backoff=BackoffPolicy(base_s=0.01, cap_s=0.05, seed=7),
            sleep=sleeps.append,
        )
        with pytest.raises(CoordinatorUnreachable):
            worker.run()
        # Two backoff sleeps before the third failure gives up, every
        # delay bounded by the cap and drawn from the seeded stream.
        assert len(sleeps) == 2
        assert all(0 < delay <= 0.05 for delay in sleeps)
        reference = BackoffPolicy(base_s=0.01, cap_s=0.05, seed=7)
        assert sleeps == [reference.next_delay() for _ in range(2)]


class TestPortableDeadline:
    def test_inline_when_no_budget(self, fake_attacks):
        payload = plan_payloads(_trials(1), timeout_s=0.0)[0]
        record = run_trial_with_deadline(payload)
        assert record["status"] == "ok"
        assert record["key"] == payload["key"]

    def test_fast_trial_beats_its_deadline(self, fake_attacks):
        payload = plan_payloads(_trials(1), timeout_s=20.0)[0]
        record = run_trial_with_deadline(payload)
        assert record["status"] == "ok"

    def test_wedged_trial_is_terminated(self, fake_attacks):
        payload = plan_payloads(_trials(1, attack="sleepy"), timeout_s=0.8)[0]
        beats = []
        started = time.monotonic()
        record = run_trial_with_deadline(
            payload, heartbeat=lambda: beats.append(1), poll_s=0.1
        )
        elapsed = time.monotonic() - started
        assert record["status"] == "failed"
        assert "deadline" in record["error"]
        assert record["key"] == payload["key"]
        assert elapsed < 10  # nowhere near the 30s sleep
        assert beats  # the lease stayed warm while the trial ran
