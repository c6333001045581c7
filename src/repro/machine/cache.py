"""Snoopy write-through caches for UMA bus machines.

Used by the Sequent Symmetry baseline (paper section 5.2): the Symmetry
model A processors in Anderson's merge-sort study had small (8 KB)
write-through caches, which the paper blames for the Sequent's inferior
merge-sort speedup -- the merge working set does not survive between
phases, and every write crosses the shared bus.

The model is a direct-mapped cache with word-addressed lines and
write-through, no-write-allocate policy; writes invalidate the line in
every other cache on the bus (snoopy write-invalidate coherence, which
the Symmetry's hardware provided).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.resource import FifoResource
from .params import coerce_int_fields


@dataclass(frozen=True)
class CacheParams:
    """Cache and bus timing for a UMA machine (all times ns).

    Defaults model a Sequent Symmetry model A node: 16 MHz 80386, 8 KB
    write-through cache.  The paper reports no Sequent timings, so these
    are documented assumptions scaled to the era: a cache hit costs two
    cycles, a line fill is a multi-cycle bus transaction, and every write
    takes a bus cycle (write-through).
    """

    size_bytes: int = 8192
    line_bytes: int = 16
    word_bytes: int = 4
    #: cache-hit reference time
    hit_ns: int = 125
    #: memory latency of a line fill beyond the bus occupancy
    fill_latency_ns: int = 1500
    #: shared-bus occupancy of a line fill (the model A bus moves a
    #: 16-byte line in several cycles of its ~27 MB/s pipelined bus)
    bus_line_ns: int = 600
    #: shared-bus occupancy of one written-through word
    bus_write_ns: int = 600

    def __post_init__(self) -> None:
        coerce_int_fields(self)

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // self.word_bytes


class DirectMappedCache:
    """One processor's direct-mapped cache, word-addressed."""

    def __init__(self, params: CacheParams, index: int) -> None:
        self.params = params
        self.index = index
        #: line index -> tag, or None when invalid
        self._tags: list[Optional[int]] = [None] * params.n_lines
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _slot_tag(self, word_addr: int) -> tuple[int, int]:
        line = word_addr // self.params.words_per_line
        return line % self.params.n_lines, line

    def lookup(self, word_addr: int) -> bool:
        slot, tag = self._slot_tag(word_addr)
        if self._tags[slot] == tag:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, word_addr: int) -> None:
        slot, tag = self._slot_tag(word_addr)
        self._tags[slot] = tag

    def invalidate(self, word_addr: int) -> bool:
        slot, tag = self._slot_tag(word_addr)
        if self._tags[slot] == tag:
            self._tags[slot] = None
            self.invalidations += 1
            return True
        return False

    def contains(self, word_addr: int) -> bool:
        slot, tag = self._slot_tag(word_addr)
        return self._tags[slot] == tag


class SnoopyBus:
    """The shared bus plus write-invalidate snooping."""

    def __init__(self, params: CacheParams, n_processors: int) -> None:
        self.params = params
        self.bus = FifoResource("uma.bus")
        self.caches = [
            DirectMappedCache(params, i) for i in range(n_processors)
        ]
        self.reads = 0
        self.writes = 0

    def read_word(self, proc: int, word_addr: int, now: int) -> int:
        """Cost one word read; returns the completion time."""
        cache = self.caches[proc]
        if cache.lookup(word_addr):
            return now + self.params.hit_ns
        self.reads += 1
        _, end = self.bus.occupy(now, self.params.bus_line_ns)
        cache.fill(word_addr)
        return end + self.params.fill_latency_ns

    def write_word(self, proc: int, word_addr: int, now: int) -> int:
        """Cost one written-through word; returns the completion time."""
        cache = self.caches[proc]
        self.writes += 1
        # write-through: the bus carries every write; no write-allocate
        _, end = self.bus.occupy(now, self.params.bus_write_ns)
        if cache.contains(word_addr):
            cache.fill(word_addr)  # keep our copy current
        for other in self.caches:
            if other is not cache:
                other.invalidate(word_addr)
        return end
