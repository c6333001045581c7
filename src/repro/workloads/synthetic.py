"""Synthetic sharing-pattern workloads.

Parameterized generators of the access patterns the paper's analysis
(section 4.1) reasons about: ``p`` processors taking turns operating on a
shared structure with reference density ``rho``, round-robin or random
interleaving, read-only sharing, producer/consumer phases, and pure
private work.  Used by the ablation benchmarks (policy sensitivity, the
migration-economics crossover) and by the integration and property tests
as adversarial inputs to the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..machine.memory import WORD_DTYPE
from ..runtime.data import WordArray
from ..runtime.ops import Compute, WaitNewer
from ..runtime.program import Program, ProgramAPI, ThreadEnv
from ..runtime.rpc import RemoteService
from ..runtime.sync import Broadcast


class RoundRobinSharing(Program):
    """Section 4.1's scenario: ``p`` processors operate on a shared
    structure X in strict round-robin order.

    Each operation performs ``r = rho * s`` references (half reads, half
    writes) to X, which occupies ``s`` words of one coherent page.  With
    round-robin access ``g(p) = p/(p-1)``; whether migrating X pays
    depends on ``s`` and ``rho`` exactly as inequality (2) predicts.
    """

    name = "round-robin-sharing"

    def __init__(
        self,
        n_threads: int = 4,
        operations: int = 32,
        s_words: int = 512,
        rho: float = 1.0,
        compute_per_ref: float = 100.0,
        memory_sync: bool = True,
    ) -> None:
        """``memory_sync=False`` coordinates the round-robin turns with
        an engine-level channel instead of a coherent-memory event
        count, isolating X's own access economics from synchronization
        traffic (used by the section 4.1 three-options benchmark)."""
        if not 0 < rho:
            raise ValueError("rho must be positive")
        self.n_threads = n_threads
        self.operations = operations
        self.s_words = s_words
        self.rho = rho
        self.compute_per_ref = compute_per_ref
        self.memory_sync = memory_sync

    def setup(self, api: ProgramAPI) -> None:
        wpp = api.kernel.params.words_per_page
        arena = api.arena(
            (self.s_words + wpp - 1) // wpp + 1, label="X"
        )
        self.x = WordArray.alloc(arena, self.s_words, name="X")
        self.p = min(self.n_threads, api.n_processors)
        self._make_turn(api)
        for tid in range(self.p):
            api.spawn(tid % api.n_processors, self._body, name=f"rr{tid}")

    def _make_turn(self, api: ProgramAPI) -> None:
        if self.memory_sync:
            sync_arena = api.arena(1, label="turn")
            self.turn = api.event_count(sync_arena, name="turn")
        else:
            self.turn = None
            self._turn_number = 0
            self._turn_wake = Broadcast(api.engine, "turn")

    def _await_turn(self, k):
        if self.turn is not None:
            yield from self.turn.await_at_least(k)
            return
        while self._turn_number < k:
            seen = self._turn_wake.version
            if self._turn_number >= k:
                return
            yield WaitNewer(self._turn_wake, seen)

    def _advance_turn(self):
        if self.turn is not None:
            yield from self.turn.advance()
            return
        self._turn_number += 1
        self._turn_wake.fire()
        return
        yield  # pragma: no cover - makes this a generator

    def _operate(self):
        """One operation on X: ``r = rho * s`` references, half reads."""
        refs = max(1, int(round(self.rho * self.s_words)))
        reads = max(1, refs // 2)
        writes = max(1, refs - reads)
        data = yield self.x.read(0, min(reads, self.s_words))
        yield Compute(self.compute_per_ref * refs)
        yield self.x.write(0, (data[: min(writes, self.s_words)] + 1))

    def _body(self, env: ThreadEnv):
        for k in range(env.tid, self.operations, self.p):
            yield from self._await_turn(k)
            yield from self._operate()
            yield from self._advance_turn()
        return env.tid

    def verify(self, results) -> None:
        assert sorted(results) == list(range(self.p))


class RoundRobinRPC(RoundRobinSharing):
    """The same operation stream shipped to X's home node: section 4.1's
    third option, moving the computation (see :mod:`repro.runtime.rpc`).

    Processor 0 holds X and runs the server; the ``p`` clients take
    their turns from the other processors, paying two small messages per
    operation while every reference to X stays local.
    """

    name = "round-robin-rpc"

    OP_WORK = 1

    def setup(self, api: ProgramAPI) -> None:
        self.p = min(self.n_threads, api.n_processors - 1)
        self.svc = RemoteService(
            api, home_processor=0, state_words=self.s_words,
            handler=self._handler, n_clients=self.p, label="X",
        )
        self.x = WordArray(self.svc.state_va, self.s_words, name="X")
        self._make_turn(api)
        for tid in range(self.p):
            api.spawn(1 + tid % (api.n_processors - 1), self._client,
                      name=f"rpc{tid}")

    def _handler(self, svc, opcode, args):
        yield from self._operate()
        return np.array([1], dtype=WORD_DTYPE)

    def _client(self, env: ThreadEnv):
        me = env.tid - 1  # thread 0 is the server
        for k in range(me, self.operations, self.p):
            yield from self._await_turn(k)
            yield from self.svc.call(me, self.OP_WORK)
            yield from self._advance_turn()
        yield from self.svc.stop(me)
        return me

    def verify(self, results) -> None:
        # the server returns its call count first, then the client ids
        assert results[0] == self.operations
        assert sorted(results[1:]) == list(range(self.p))


class ReadOnlySharing(Program):
    """All threads repeatedly read a shared table: the ideal replication
    case -- one replication per node, everything local afterwards."""

    name = "read-only-sharing"

    def __init__(
        self, n_threads: int = 4, table_pages: int = 4, sweeps: int = 8
    ) -> None:
        self.n_threads = n_threads
        self.table_pages = table_pages
        self.sweeps = sweeps

    def setup(self, api: ProgramAPI) -> None:
        wpp = api.kernel.params.words_per_page
        n_words = self.table_pages * wpp
        rng = np.random.default_rng(7)
        backing = rng.integers(0, 1000, size=n_words, dtype=WORD_DTYPE)
        arena = api.arena(
            self.table_pages + 1, label="table", backing=backing
        )
        self.table = WordArray(arena.base_va, n_words, name="table")
        self.expected_sum = int(backing.sum())
        self.p = min(self.n_threads, api.n_processors)
        self.wpp = wpp
        for tid in range(self.p):
            api.spawn(tid % api.n_processors, self._body, name=f"ro{tid}")

    def _body(self, env: ThreadEnv):
        total = 0
        for _sweep in range(self.sweeps):
            total = 0
            for start in range(0, self.table.n, self.wpp):
                chunk = yield self.table.read(
                    start, min(self.wpp, self.table.n - start)
                )
                total += int(chunk.sum())
        return total

    def verify(self, results) -> None:
        assert all(r == self.expected_sum for r in results), (
            results, self.expected_sum,
        )


class PhaseChangeSharing(Program):
    """A page that is write-hot early and read-only later: the case the
    defrost daemon exists for.  Phase 1 freezes the page (interleaved
    writes); phase 2 is pure reading -- only a thaw lets it replicate."""

    name = "phase-change-sharing"

    def __init__(
        self,
        n_threads: int = 4,
        hot_writes: int = 12,
        cold_reads: int = 200,
        read_words: int = 256,
    ) -> None:
        self.n_threads = n_threads
        self.hot_writes = hot_writes
        self.cold_reads = cold_reads
        self.read_words = read_words

    def setup(self, api: ProgramAPI) -> None:
        wpp = api.kernel.params.words_per_page
        arena = api.arena(2, label="phased")
        self.data = WordArray.alloc(
            arena, min(self.read_words, wpp), name="phased"
        )
        sync_arena = api.arena(1, label="gate")
        self.gate = api.event_count(sync_arena, name="gate")
        self.p = min(self.n_threads, api.n_processors)
        self.cpage = arena.cpage_of(self.data.base_va)
        for tid in range(self.p):
            api.spawn(tid % api.n_processors, self._body, name=f"ph{tid}")

    def _body(self, env: ThreadEnv):
        # phase 1: interleaved writes in round-robin turn order
        my_turns = [
            k for k in range(self.hot_writes) if k % self.p == env.tid
        ]
        for k in my_turns:
            yield from self.gate.await_at_least(k)
            yield self.data.write(k % self.data.n, k)
            yield from self.gate.advance()
        yield from self.gate.await_at_least(self.hot_writes)
        # phase 2: everyone reads repeatedly
        total = 0
        for _ in range(self.cold_reads):
            chunk = yield self.data.read(0, self.data.n)
            total += int(chunk.sum())
        return env.tid

    def verify(self, results) -> None:
        assert sorted(results) == list(range(self.p))


class PrivateWork(Program):
    """Perfectly partitioned private data: the no-interference baseline
    (speedup should be essentially linear)."""

    name = "private-work"

    def __init__(
        self, n_threads: int = 4, pages_each: int = 2, sweeps: int = 10
    ) -> None:
        self.n_threads = n_threads
        self.pages_each = pages_each
        self.sweeps = sweeps

    def setup(self, api: ProgramAPI) -> None:
        self.p = min(self.n_threads, api.n_processors)
        wpp = api.kernel.params.words_per_page
        self.wpp = wpp
        self.regions = []
        for tid in range(self.p):
            arena = api.arena(self.pages_each, label=f"priv{tid}")
            self.regions.append(
                WordArray(
                    arena.base_va, self.pages_each * wpp, name=f"priv{tid}"
                )
            )
        for tid in range(self.p):
            api.spawn(tid % api.n_processors, self._body, name=f"pw{tid}")

    def _body(self, env: ThreadEnv):
        region = self.regions[env.tid]
        for sweep in range(self.sweeps):
            for start in range(0, region.n, self.wpp):
                n = min(self.wpp, region.n - start)
                data = yield region.read(start, n)
                yield Compute(100.0 * n)
                yield region.write(start, data + 1)
        total = yield region.read(0, region.n)
        return int(total.sum())

    def verify(self, results) -> None:
        expected = self.sweeps * self.regions[0].n
        for r in results:
            assert r == expected, (r, expected)
