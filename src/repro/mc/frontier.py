"""Scaled visited sets and frontiers: bitstate hashing, disk spill.

Two memory levers for explorations that outgrow RAM, both opt-in and
both orthogonal to the search logic in ``explorer.py``:

**Bitstate hashing** (Holzmann's supertrace): the visited set becomes a
Bloom filter of ``m`` bits probed by ``k`` double-hashed positions per
state, derived from the state's 128-bit canonical digest -- no stored
fingerprints at all.  A Bloom *false positive* makes the checker treat
a genuinely new state as visited, i.e. it can **omit** states, never
double-count them; verdicts therefore keep PASS soundness only
probabilistically, and the report carries the standard estimated
omission probability ``(1 - e^{-kn/m})^k`` for ``n`` inserted states.
False positives never *invent* violations: every violation is observed
on a concretely executed transition.

**Spill frontier**: a FIFO of (fingerprint, path, depth) entries that
keeps up to ``ram_states`` live product states in memory and overflows
the rest to chunked pickle files, storing only the replayable choice
path.  Popping a spilled entry rebuilds the product state by replaying
its path from the root (``ProductState.from_path``) -- the same
plain-data idiom the parallel explorer uses across the fork boundary --
so peak RAM is bounded by ``ram_states`` live systems regardless of
``spec.max_states``.
"""

from __future__ import annotations

import math
import os
import pickle
import tempfile
from collections import deque
from typing import Iterator, List, Optional, Tuple

from .product import ProductState
from .spec import McSpec

#: Frontier entry: (fingerprint, depth, choice path from the root).
Entry = Tuple[str, int, Tuple[Tuple, ...]]


class BitstateVisited:
    """Double-hashed Bloom filter over canonical state digests."""

    def __init__(self, mbytes: float, hashes: int = 2):
        self.n_bits = max(1024, int(mbytes * 8 * 1024 * 1024))
        self.hashes = hashes
        self._bits = bytearray((self.n_bits + 7) // 8)
        self.inserted = 0

    def _positions(self, fingerprint: str) -> Iterator[int]:
        # Kirsch-Mitzenmacher double hashing over the two 64-bit halves
        # of the hex digest; h2 is forced odd so probes cycle the table.
        h1 = int(fingerprint[:16], 16)
        h2 = int(fingerprint[16:32], 16) | 1
        for i in range(self.hashes):
            yield (h1 + i * h2) % self.n_bits

    def __contains__(self, fingerprint: str) -> bool:
        bits = self._bits
        for position in self._positions(fingerprint):
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def add(self, fingerprint: str) -> None:
        bits = self._bits
        for position in self._positions(fingerprint):
            bits[position >> 3] |= 1 << (position & 7)
        self.inserted += 1

    def omission_probability(self) -> float:
        """Estimated per-state false-positive rate after all inserts."""
        if not self.inserted:
            return 0.0
        exponent = -self.hashes * self.inserted / self.n_bits
        return (1.0 - math.exp(exponent)) ** self.hashes


class SpillFrontier:
    """FIFO frontier with live states in RAM and paths on disk.

    Entries enter as (fingerprint, depth, path, state).  While the RAM
    deque is below ``ram_states`` and nothing is spilled, pops return
    the stored live state.  Beyond that, appends write (fp, depth, path)
    triples to pickle chunks; pops drain RAM first (preserving FIFO
    order -- spilled entries are strictly younger) and then load the
    oldest chunk, rebuilding each state by path replay on demand.
    """

    CHUNK_ENTRIES = 256

    def __init__(self, spec: McSpec, secret_a: int, secret_b: int,
                 ram_states: int = 512, spill_dir: Optional[str] = None):
        self.spec = spec
        self.secret_a = secret_a
        self.secret_b = secret_b
        self.ram_states = max(1, ram_states)
        self._ram: deque = deque()  # (fp, depth, path, state)
        self._chunks: deque = deque()  # file paths, oldest first
        self._pending: List[Entry] = []  # entries awaiting a chunk write
        self._loaded: deque = deque()  # entries from the oldest chunk
        self._dir = spill_dir
        self._owned_dir: Optional[tempfile.TemporaryDirectory] = None
        self._chunk_seq = 0
        self.spilled_total = 0

    def __len__(self) -> int:
        return (
            len(self._ram) + len(self._loaded) + len(self._pending)
            + len(self._chunks) * self.CHUNK_ENTRIES
        )

    def __bool__(self) -> bool:
        return bool(
            self._ram or self._loaded or self._pending or self._chunks
        )

    def _spill_dir(self) -> str:
        if self._dir is None:
            self._owned_dir = tempfile.TemporaryDirectory(prefix="mc-spill-")
            self._dir = self._owned_dir.name
        return self._dir

    def push(self, fingerprint: str, depth: int,
             path: Tuple[Tuple, ...], state: ProductState) -> None:
        if not self._spilling() and len(self._ram) < self.ram_states:
            self._ram.append((fingerprint, depth, path, state))
            return
        # Once spilling starts, all younger entries go to disk: FIFO
        # order across the RAM/disk boundary stays exact.
        self._pending.append((fingerprint, depth, path))
        self.spilled_total += 1
        if len(self._pending) >= self.CHUNK_ENTRIES:
            self._flush_chunk()

    def _spilling(self) -> bool:
        return bool(self._pending or self._chunks or self._loaded)

    def _flush_chunk(self) -> None:
        directory = self._spill_dir()
        path = os.path.join(directory, f"chunk-{self._chunk_seq:08d}.pkl")
        self._chunk_seq += 1
        with open(path, "wb") as handle:
            pickle.dump(self._pending, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._chunks.append(path)
        self._pending = []

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            if self._chunks:
                chunk = self._chunks.popleft()
                with open(chunk, "rb") as handle:
                    self._loaded.extend(pickle.load(handle))
                os.unlink(chunk)
            elif self._pending:
                self._loaded.extend(self._pending)
                self._pending = []

    def pop(self) -> Tuple[str, int, Tuple[Tuple, ...], ProductState]:
        if self._ram:
            return self._ram.popleft()
        self._ensure_loaded()
        fingerprint, depth, path = self._loaded.popleft()
        state = ProductState.from_path(
            self.spec, self.secret_a, self.secret_b, path
        )
        return fingerprint, depth, path, state

    def close(self) -> None:
        for chunk in self._chunks:
            try:
                os.unlink(chunk)
            except OSError:
                pass
        self._chunks.clear()
        if self._owned_dir is not None:
            self._owned_dir.cleanup()
            self._owned_dir = None
