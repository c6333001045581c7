"""Per-(Cpage, processor) access accounting for cost attribution.

The machine's batched word counters (``machine.local_words`` etc.) say
how each *processor* spent its access time but not on which *page*; the
protocol trace says what the protocol did but not where the ordinary
access time went.  The probe fills the gap: installed on the coherent
memory facade it records, per (Cpage, processor), how many words were
accessed locally, remotely and remotely-while-frozen, split by
read/write (the two have different remote latencies), plus the queueing
delay suffered.

The executor hot path pays one attribute load and one branch when no
probe is installed -- same discipline as the metrics registry.
"""

from __future__ import annotations

#: counter slots per (cpage, proc) key
LOCAL_READ = 0
LOCAL_WRITE = 1
REMOTE_READ = 2
REMOTE_WRITE = 3
FROZEN_READ = 4
FROZEN_WRITE = 5
QUEUE_NS = 6
_SLOTS = 7

#: field names, index-aligned with the slots above
FIELDS = (
    "local_read", "local_write", "remote_read", "remote_write",
    "frozen_read", "frozen_write", "queue_ns",
)


class AccessProbe:
    """Records batched access runs against the page they touched.

    Frozen-ness is sampled at access time from the Cpage table, so words
    moved while a page sat frozen are separable from ordinary remote
    traffic -- that difference *is* the freeze penalty the section 4.2
    anecdote turns on.
    """

    __slots__ = ("cpages", "counts")

    def __init__(self, cpages) -> None:
        self.cpages = cpages
        #: (cpage_index, proc) -> [7 counters]
        self.counts: dict[tuple[int, int], list[int]] = {}

    @classmethod
    def install(cls, coherent) -> "AccessProbe":
        """Attach a fresh probe to a CoherentMemorySystem; returns it."""
        probe = cls(coherent.cpages)
        coherent.access_probe = probe
        return probe

    def note(self, cpage_index: int, proc: int, write: bool, remote: bool,
             words: int, queue_delay: int) -> None:
        """Record one batched access run (called from the executor with
        the fields of its ``AccessOutcome``, which it does not build)."""
        key = (cpage_index, proc)
        c = self.counts.get(key)
        if c is None:
            c = self.counts[key] = [0] * _SLOTS
        if remote:
            if self.cpages.get(cpage_index).frozen:
                idx = FROZEN_WRITE if write else FROZEN_READ
            else:
                idx = REMOTE_WRITE if write else REMOTE_READ
        else:
            idx = LOCAL_WRITE if write else LOCAL_READ
        c[idx] += words
        c[QUEUE_NS] += queue_delay

    def table(self) -> list[dict]:
        """The counters as a deterministic, JSON-ready list of rows."""
        rows = []
        for (cpage, proc) in sorted(self.counts):
            counters = self.counts[(cpage, proc)]
            row = {"cpage": cpage, "proc": proc}
            for name, value in zip(FIELDS, counters):
                row[name] = value
            rows.append(row)
        return rows
