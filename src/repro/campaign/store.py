"""Append-only JSONL result store with resume support.

One line per completed trial.  Appending is crash-safe in the useful
sense: a record is either fully on disk or absent, and a torn final line
(worker killed mid-write) is detected and ignored on load, so a resumed
campaign simply re-runs that trial.

Reads are cached per file signature (mtime_ns, size): ``records()``,
``completed_keys()`` and ``latest_by_key()`` parse the file once and
then serve from memory until the file changes under us, so a resume
loop that consults ``completed_keys()`` repeatedly no longer re-scans
the whole file every call.  ``append()`` keeps the cache coherent
in-place (the common single-writer case never re-reads its own writes);
an *external* writer changes the signature and forces a rescan.

One lock serialises ``append()`` and every read, and reads return
copies made under it.  So a thread that reads the store while another
appends through the same handle (``campaign --serve --status-interval``
reads from the main thread while the server thread writes) sees every
record exactly once.

JSONL is the only store format.  A path with a database suffix is
refused before the file is opened, so a store never appends JSON lines
into a user's database.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

STATUS_OK = "ok"
STATUS_FAILED = "failed"

# Fields that vary between identical re-runs of the same trial (timing,
# which worker picked it up, when).  Everything else in a record is a
# pure function of the trial spec.
VOLATILE_FIELDS = ("wall_time_s", "worker", "attempts", "campaign")

#: Database file suffixes a store path may not have.
_DATABASE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def deterministic_view(record: Dict[str, Any]) -> Dict[str, Any]:
    """The record minus run-dependent bookkeeping — equal across re-runs."""
    return {
        key: value
        for key, value in record.items()
        if key not in VOLATILE_FIELDS
    }


class ResultStore:
    """JSONL-backed store keyed by trial key.

    The store is the resume mechanism: ``completed_keys()`` names every
    trial that already has a successful record, and the executor skips
    those on re-run.
    """

    def __init__(self, path: str):
        self.path = str(path)
        if self.path.endswith(_DATABASE_SUFFIXES):
            raise ValueError(
                f"{self.path!r} names a sqlite database; result stores "
                f"are JSONL files (use a .jsonl path)"
            )
        self._lock = threading.Lock()
        self._cache_signature: Optional[Tuple[int, int]] = None
        self._cache_records: Optional[List[Dict[str, Any]]] = None
        self._cache_ok_keys: Set[str] = set()

    # -- writing ----------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        if "key" not in record:
            raise ValueError("result records must carry a 'key' field")
        line = json.dumps(record, sort_keys=True, default=str)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with self._lock:
            # Only extend the cache in place when the file is exactly what
            # we last parsed; an interleaved external writer invalidates it.
            cache_valid = (
                self._cache_records is not None
                and self._signature() == self._cache_signature
            )
            with open(self.path, "ab+") as handle:
                # A crash mid-append leaves a torn last line with no newline:
                # terminate it, or this record would be glued onto it.
                if handle.seek(0, os.SEEK_END) > 0:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
                handle.write((line + "\n").encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
            if cache_valid:
                # Round-trip through JSON so the cached view is exactly what
                # a fresh scan would parse (tuples -> lists, etc.).
                parsed = json.loads(line)
                self._cache_records.append(parsed)
                if parsed.get("status") == STATUS_OK:
                    self._cache_ok_keys.add(parsed["key"])
                self._cache_signature = self._signature()
            else:
                self._invalidate()

    # -- reading ----------------------------------------------------------

    def _signature(self) -> Optional[Tuple[int, int]]:
        try:
            stat = os.stat(self.path)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _invalidate(self) -> None:
        self._cache_signature = None
        self._cache_records = None
        self._cache_ok_keys = set()

    def _scan_file(self) -> Iterator[Dict[str, Any]]:
        """Raw whole-file scan (the uncached path)."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # Torn tail from an interrupted write: drop it; the
                    # trial will simply be re-run on resume.
                    continue
                if isinstance(record, dict) and "key" in record:
                    yield record

    def _load(self) -> List[Dict[str, Any]]:
        """The cached records, rescanned if the file changed; call with
        the lock held."""
        signature = self._signature()
        if (self._cache_records is None
                or signature != self._cache_signature):
            records = list(self._scan_file())
            self._cache_records = records
            self._cache_ok_keys = {
                record["key"]
                for record in records
                if record.get("status") == STATUS_OK
            }
            self._cache_signature = signature
        return self._cache_records

    def records(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._load())

    def completed_keys(self) -> Set[str]:
        """Keys with a successful record (these are skipped on resume)."""
        with self._lock:
            self._load()
            return set(self._cache_ok_keys)

    def latest_by_key(
        self, status: Optional[str] = STATUS_OK
    ) -> Dict[str, Dict[str, Any]]:
        """Last record per key, optionally filtered by status."""
        latest: Dict[str, Dict[str, Any]] = {}
        with self._lock:
            for record in self._load():
                if status is None or record.get("status") == status:
                    latest[record["key"]] = record
        return latest

    def __len__(self) -> int:
        with self._lock:
            return len(self._load())

    def __repr__(self) -> str:
        return f"ResultStore({self.path!r})"
