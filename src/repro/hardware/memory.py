"""Physical memory: frames, frame allocation, and page colours.

Physical frames are the unit the OS hands to domains; the *colour* of a
frame (which LLC sets its lines land in) is what the colour-aware
allocator in ``repro.kernel.colour_alloc`` partitions.  Memory contents
are modelled word-by-word in a sparse dict -- enough for message passing
and for secret-dependent table lookups, without simulating real data
paths.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from .geometry import colour_of_frame
from .state import copy_attributes


@dataclass(frozen=True)
class Frame:
    """One physical memory frame."""

    number: int
    colour: int

    def base_paddr(self, page_size: int) -> int:
        return self.number * page_size


class PhysicalMemory:
    """Flat physical memory split into colourable frames."""

    def __init__(self, total_frames: int, page_size: int, n_colours: int):
        if total_frames < 1:
            raise ValueError("total_frames must be >= 1")
        if n_colours < 1:
            raise ValueError("n_colours must be >= 1")
        self.page_size = page_size
        self.n_colours = n_colours
        self.frames: List[Frame] = [
            Frame(number=n, colour=colour_of_frame(n, n_colours))
            for n in range(total_frames)
        ]
        self._free: List[Frame] = list(self.frames)
        self._words: Dict[int, int] = {}
        # Fingerprint memoisation (see StateElement.cached_fingerprint):
        # bumped on every mutation of words or the free list.
        self._fp_version = 0
        self._fp_cache: Optional[tuple] = None
        self._fp_digest: Optional[tuple] = None

    @property
    def size_bytes(self) -> int:
        return len(self.frames) * self.page_size

    # ------------------------------------------------------------------
    # Frame allocation
    # ------------------------------------------------------------------

    def free_frames(self, colours: Optional[Set[int]] = None) -> int:
        """Number of free frames, optionally restricted to ``colours``."""
        if colours is None:
            return len(self._free)
        return sum(1 for frame in self._free if frame.colour in colours)

    def alloc_frame(self, colours: Optional[Set[int]] = None) -> Frame:
        """Allocate the lowest-numbered free frame of an allowed colour.

        Raises:
            MemoryError: if no free frame of an allowed colour exists.
        """
        for position, frame in enumerate(self._free):
            if colours is None or frame.colour in colours:
                self._fp_version += 1
                return self._free.pop(position)
        raise MemoryError(
            "out of physical frames"
            if colours is None
            else f"out of physical frames for colours {sorted(colours)}"
        )

    def alloc_frames(self, count: int, colours: Optional[Set[int]] = None) -> List[Frame]:
        return [self.alloc_frame(colours) for _ in range(count)]

    def release(self, frames: Iterable[Frame]) -> None:
        """Return frames to the free pool (kept sorted for determinism)."""
        self._free.extend(frames)
        self._free.sort(key=lambda frame: frame.number)
        self._fp_version += 1

    # ------------------------------------------------------------------
    # Data plane (word granularity; addresses are byte addresses)
    # ------------------------------------------------------------------

    def read_word(self, paddr: int) -> int:
        return self._words.get(paddr, 0)

    def write_word(self, paddr: int, value: int) -> None:
        self._words[paddr] = value
        self._fp_version += 1

    def cached_fingerprint(self) -> tuple:
        """``fingerprint()``, memoised against the mutation version."""
        cache = self._fp_cache
        if cache is not None and cache[0] == self._fp_version:
            return cache[1]
        fp = self.fingerprint()
        self._fp_cache = (self._fp_version, fp)
        return fp

    def cached_digest(self) -> bytes:
        """BLAKE2b digest of ``fingerprint()``, memoised the same way."""
        cache = self._fp_digest
        if cache is not None and cache[0] == self._fp_version:
            return cache[1]
        digest = hashlib.blake2b(
            pickle.dumps(self.cached_fingerprint(), protocol=4),
            digest_size=16,
        ).digest()
        self._fp_digest = (self._fp_version, digest)
        return digest

    def clone_for_mc(self) -> "PhysicalMemory":
        """Independent copy, whole but for the free list and the words;
        the (frozen) Frame objects are shared."""
        other = copy_attributes(self)
        other._free = list(self._free)
        other._words = dict(self._words)
        return other

    def fingerprint(self) -> tuple:
        """Canonical memory state: written words plus the free-frame set.

        A model-checker state hook: two memories fingerprint equal iff
        every written word and the allocation state agree.
        """
        return (
            tuple(sorted(self._words.items())),
            tuple(frame.number for frame in self._free),
        )
