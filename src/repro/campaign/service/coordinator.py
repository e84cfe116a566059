"""The campaign coordinator: leases out, results into the store.

:class:`Coordinator` routes requests onto a :class:`~.leases.LeaseTable`
and a result store, and is every campaign's single store writer:
workers submit records to ``/results`` and the coordinator validates
them, then appends each *newly resolved* record exactly once, so the
JSONL store sees strictly append-only, duplicate-free traffic.  An
in-process worker calls :meth:`Coordinator.handle` directly;
:class:`CoordinatorServer` serves the same routes over a deliberately
minimal ``asyncio`` HTTP/1.1 server (stdlib only, one request per
connection).  It answers a request it cannot frame with a 400 (a
malformed request line or ``Content-Length``, or a line over the
stream's 64 KiB limit) or a 413 (a body above :data:`MAX_BODY_BYTES`,
which it never reads).  ``asyncio`` is imported
only where the server runs, so a campaign that never serves never loads
it.

Host time never touches trial content here — the lease clock is an
injected callable (``clock=time.monotonic`` at the composition root),
used only for lease deadlines and heartbeat accounting, which are
operational metadata in the same sense as the existing campaign
wall-clock waivers.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..progress import ProgressReporter
from ..store import STATUS_FAILED, STATUS_OK, ResultStore
from . import protocol
from .leases import ACCEPTED, LeaseTable
from .status import status_payload

if TYPE_CHECKING:
    import asyncio

#: How often the background sweep re-checks lease deadlines, as a
#: fraction of the TTL (bounded below so tiny TTLs don't spin).
_SWEEP_FRACTION = 0.25
_MIN_SWEEP_S = 0.05

#: The largest request body the server reads; a one-record ``/results``
#: batch is a few KiB.
MAX_BODY_BYTES = 16 * 1024 * 1024


class Coordinator:
    """Routes service requests onto a lease table and a store."""

    def __init__(
        self,
        table: LeaseTable,
        store: ResultStore,
        campaign: str = "campaign",
        reporter: Optional[ProgressReporter] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.table = table
        self.store = store
        self.campaign = campaign
        self.reporter = reporter
        self.clock = clock
        self.workers_seen: Dict[str, int] = {}
        #: Re-run attempts summed over accepted records' ``attempts``.
        self.retries = 0
        self.on_done: Optional[Callable[[], None]] = None

    # -- request routing ---------------------------------------------------

    def handle(
        self, method: str, path: str, body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        """Answer one request; a malformed one is a 400 that changes nothing."""
        if not isinstance(body, dict):
            return 400, {
                "error": f"body must be a JSON object, got {type(body).__name__}"
            }
        now = self.clock()
        if method == "POST" and path == protocol.LEASE_PATH:
            return self._lease(body, now)
        if method == "POST" and path == protocol.HEARTBEAT_PATH:
            return self._heartbeat(body, now)
        if method == "POST" and path == protocol.RESULTS_PATH:
            return self._results(body, now)
        if method == "GET" and path == protocol.STATUS_PATH:
            return 200, self.status()
        return 404, {"error": f"no such endpoint: {method} {path}"}

    def _note_worker(self, body: Dict[str, Any]) -> str:
        worker = str(body.get("worker", "?"))
        self.workers_seen[worker] = self.workers_seen.get(worker, 0) + 1
        return worker

    def _lease(
        self, body: Dict[str, Any], now: float
    ) -> Tuple[int, Dict[str, Any]]:
        worker = self._note_worker(body)
        grant = self.table.acquire(worker, now)
        response = protocol.lease_response(grant, done=self.table.done)
        self._maybe_finish()
        return 200, response

    def _heartbeat(
        self, body: Dict[str, Any], now: float
    ) -> Tuple[int, Dict[str, Any]]:
        error = _invalid_lease_id(body)
        if error:
            return 400, {"error": error}
        self._note_worker(body)
        ok = self.table.heartbeat(
            body.get("shard", -1), body.get("generation", -1), now
        )
        return 200, {"ok": ok, "done": self.table.done}

    def _results(
        self, body: Dict[str, Any], now: float
    ) -> Tuple[int, Dict[str, Any]]:
        records = body.get("records", [])
        error = _invalid_records(records) or _invalid_lease_id(body)
        if error:
            return 400, {"error": error}
        self._note_worker(body)
        shard = body.get("shard", -1)
        generation = body.get("generation", -1)
        outcomes = {"accepted": 0, "duplicate": 0, "unknown": 0}
        for record in records:
            outcome = self.table.submit(shard, generation, record, now)
            if outcome == ACCEPTED:
                record = dict(record)
                record["campaign"] = self.campaign
                self.store.append(record)
                attempts = record.get("attempts")
                if isinstance(attempts, int) and attempts > 1:
                    self.retries += attempts - 1
                if self.reporter is not None:
                    self.reporter.update(record)
                outcomes["accepted"] += 1
            else:
                outcomes[outcome] += 1
        outcomes["done"] = self.table.done
        self._maybe_finish()
        return 200, outcomes

    def sweep(self) -> None:
        """Expire overdue leases (called periodically by the server)."""
        self.table.expire(self.clock())

    def status(self) -> Dict[str, Any]:
        return status_payload(
            self.table, self.store, self.campaign, self.workers_seen
        )

    def _maybe_finish(self) -> None:
        if self.table.done and self.on_done is not None:
            callback, self.on_done = self.on_done, None
            callback()


def _invalid_lease_id(body: Dict[str, Any]) -> Optional[str]:
    """Why a request's ``shard``/``generation`` is refused, or ``None``.

    Either may be absent (-1, which names no lease).
    """
    for name in ("shard", "generation"):
        value = body.get(name, -1)
        if type(value) is not int:
            return f"'{name}' must be an integer, got {type(value).__name__}"
    return None


def _invalid_records(records: Any) -> Optional[str]:
    """Why a ``/results`` batch must be refused whole, or ``None``."""
    if not isinstance(records, list):
        return f"'records' must be a list, got {type(records).__name__}"
    for record in records:
        if not isinstance(record, dict):
            return f"a record must be an object, got {type(record).__name__}"
        key = record.get("key")
        if not isinstance(key, str):
            return f"a record key must be a string, got {type(key).__name__}"
        status = record.get("status")
        if status not in (STATUS_OK, STATUS_FAILED):
            return f"record status must be 'ok' or 'failed', got {status!r}"
        if status == STATUS_OK and not isinstance(record.get("result"), dict):
            return f"ok record {record.get('key')!r} has no 'result' object"
    return None


class _Refused(Exception):
    """A request the server answers with ``status`` without handling it."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # longer than the stream's line limit
        raise _Refused(400, "request line or header too long") from None


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """One request, ``None`` if the client sent nothing; raises
    :class:`_Refused` for a request it cannot frame."""
    request_line = await _read_line(reader)
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise _Refused(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _Refused(400, f"malformed Content-Length: {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise _Refused(
            413, f"body of {length} bytes exceeds {MAX_BODY_BYTES} bytes"
        )
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target.split("?", 1)[0], body


def _http_response(status: int, payload: Dict[str, Any]) -> bytes:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
               413: "Payload Too Large", 500: "Internal Server Error"}
    data = protocol.encode(payload)
    head = (
        f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + data


class CoordinatorServer:
    """Runs a :class:`Coordinator` on a background thread's event loop.

    The listening socket is bound *synchronously* in :meth:`start` (so
    the port is known before any worker process is forked), then handed
    to ``asyncio.start_server`` inside the thread.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.coordinator = coordinator
        self.host = host
        self.port = port
        self.url = ""
        self._sock = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._done = threading.Event()
        self._started = threading.Event()
        coordinator.on_done = self._done.set
        if coordinator.table.done:  # fully resumed grid: nothing to serve
            self._done.set()

    # -- lifecycle ---------------------------------------------------------

    def bind(self) -> str:
        """Bind the listening socket now (port known before any fork)."""
        import socket

        if self._sock is None:
            self._sock = socket.create_server(
                (self.host, self.port), reuse_port=False
            )
            self.port = self._sock.getsockname()[1]
            self.url = f"http://{self.host}:{self.port}"
        return self.url

    def start(self) -> str:
        self.bind()
        self._thread = threading.Thread(
            target=self._run, name="campaign-coordinator", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        return self.url

    def wait_done(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    # -- server internals --------------------------------------------------

    def _run(self) -> None:
        import asyncio

        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _serve(self) -> None:
        import asyncio

        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(self._handle, sock=self._sock)
        sweep = asyncio.ensure_future(self._sweep_loop())
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            sweep.cancel()
            server.close()
            await server.wait_closed()

    async def _sweep_loop(self) -> None:
        import asyncio

        interval = max(
            _MIN_SWEEP_S, self.coordinator.table.lease_ttl_s * _SWEEP_FRACTION
        )
        while True:
            await asyncio.sleep(interval)
            self.coordinator.sweep()
            if self.coordinator.table.done:
                self._done.set()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await _read_request(reader)
            except _Refused as refusal:
                status, payload = refusal.status, {"error": str(refusal)}
            else:
                if request is None:
                    return
                status, payload = self._answer(*request)
            writer.write(_http_response(status, payload))
            await writer.drain()
        except (ConnectionError, EOFError):  # incl. IncompleteReadError
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    def _answer(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            return self.coordinator.handle(method, path, protocol.decode(body))
        except ValueError as error:
            return 400, {"error": str(error)}
        except Exception as error:  # never kill the server on a request
            return 500, {"error": repr(error)}
