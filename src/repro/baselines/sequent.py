"""The Sequent Symmetry baseline machine (paper Figure 5).

A UMA bus multiprocessor with small write-through snoopy caches, matching
the machine of Anderson's merge-sort study that the paper compares
against.  It runs the *same* ``runtime`` programs as PLATINUM -- thread
bodies yield the same operations -- but against a flat shared memory with
per-processor caches instead of NUMA coherent memory, so Figure 5's
comparison is apples-to-apples at the program level.  Its threads run on
the executor's one op path (:class:`~repro.runtime.executor.OpProcess`):
an op is started, costed and committed as on PLATINUM, and only the cost
table -- reads line by line and written-through words on the
:class:`~repro.machine.cache.SnoopyBus` -- is this machine's.  An op
PLATINUM refuses (no words, a negative address, an invalid ``Compute``)
crashes the thread here too, as does an access beyond the flat memory
or an op the UMA machine has no model of (ports, migration).

The paper's explanation of the Sequent's inferior merge-sort speedup is
captured by construction: the 8 KB cache cannot hold a merge run between
phases, every write crosses the single shared bus, and there is no
local-memory effect to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..kernel.threads import Thread
from ..machine.cache import CacheParams, SnoopyBus
from ..machine.interrupts import ProcessorState
from ..machine.memory import WORD_DTYPE
from ..runtime import ops
from ..runtime.executor import (
    ExecutionError,
    OpProcess,
    check_access,
    write_words,
)
from ..runtime.program import Program, ThreadEnv, ThreadSpec
from ..runtime.run import run_threads
from ..runtime.sync import Barrier, EventCount, SpinLock
from ..sim.engine import Engine


@dataclass(frozen=True)
class SequentParams:
    """Machine sizing for the UMA baseline."""

    n_processors: int = 16
    memory_words: int = 1 << 22
    #: kept equal to the Butterfly's page for identical program batching
    words_per_page: int = 1024
    cache: CacheParams = field(default_factory=CacheParams)


class SequentMachine:
    """Flat shared memory + snoopy bus + caches."""

    def __init__(self, params: SequentParams,
                 engine: Optional[Engine] = None) -> None:
        self.params = params
        self.engine = engine if engine is not None else Engine()
        self.memory = np.zeros(params.memory_words, dtype=WORD_DTYPE)
        self.bus = SnoopyBus(params.cache, params.n_processors)
        #: the op path's per-processor rows: there are no
        #: interprocessor interrupts here, so the penalties stay zero
        self.interrupt_states = [
            ProcessorState() for _ in range(params.n_processors)
        ]


class _SequentArena:
    """Bump allocator over the flat memory (ProgramAPI-compatible)."""

    def __init__(self, machine: SequentMachine, base: int, n_pages: int,
                 label: str, backing: Optional[np.ndarray]) -> None:
        self.machine = machine
        self.label = label
        self.words_per_page = machine.params.words_per_page
        self.base_va = base
        self.n_pages = n_pages
        self._next = 0
        if backing is not None:
            self.machine.memory[base: base + len(backing)] = backing

    @property
    def n_words(self) -> int:
        return self.n_pages * self.words_per_page

    def alloc(self, n_words: int, page_aligned: bool = False) -> int:
        if page_aligned:
            rem = self._next % self.words_per_page
            if rem:
                self._next += self.words_per_page - rem
        if self._next + n_words > self.n_words:
            raise MemoryError(f"sequent arena {self.label!r} full")
        va = self.base_va + self._next
        self._next += n_words
        return va


class SequentAPI:
    """ProgramAPI-compatible setup surface for the UMA machine."""

    def __init__(self, machine: SequentMachine) -> None:
        self.machine = machine
        #: what a program reads of a kernel (``params.words_per_page``,
        #: ``engine``) the machine has too
        self.kernel = machine
        self._next_word = 0
        self.thread_specs: list[ThreadSpec] = []

    @property
    def n_processors(self) -> int:
        return self.machine.params.n_processors

    @property
    def engine(self) -> Engine:
        return self.machine.engine

    def arena(self, n_pages: int, label: str = "", backing=None,
              rights=None, aspace=None, placement=None) -> _SequentArena:
        wpp = self.machine.params.words_per_page
        base = self._next_word
        self._next_word += n_pages * wpp
        if self._next_word > self.machine.params.memory_words:
            raise MemoryError("sequent machine out of memory")
        return _SequentArena(self.machine, base, n_pages, label, backing)

    def lock(self, arena, name: str = "lock",
             page_aligned: bool = True) -> SpinLock:
        return SpinLock(self.engine, arena.alloc(1, page_aligned), name)

    def event_count(self, arena, name: str = "evc",
                    page_aligned: bool = False) -> EventCount:
        return EventCount(self.engine, arena.alloc(1, page_aligned), name)

    def barrier(self, arena, n: int, name: str = "barrier",
                page_aligned: bool = True) -> Barrier:
        count = arena.alloc(1, page_aligned)
        gen = arena.alloc(1)
        return Barrier(self.engine, count, gen, n, name)

    def spawn(self, processor: int, body_factory, name: str = "",
              aspace=None) -> ThreadSpec:
        n = self.n_processors
        if not 0 <= processor < n:  # as the kernel's ThreadManager
            raise ValueError(f"processor {processor} out of range (n={n})")
        tid = len(self.thread_specs)
        thread = Thread(tid, 0, processor, name=f"seq{tid}")
        env = ThreadEnv(tid, thread, self.kernel)
        spec = ThreadSpec(thread, env, body_factory(env))
        self.thread_specs.append(spec)
        return spec


class SequentThreadProcess(OpProcess):
    """Prices runtime operations on the UMA machine: the op path is the
    executor's, the cost table this machine's."""

    __slots__ = ("memory", "bus")

    def __init__(self, machine: SequentMachine, spec: ThreadSpec) -> None:
        super().__init__(machine.engine, spec.thread, spec.body,
                         machine.interrupt_states)
        self.memory = machine.memory
        self.bus = machine.bus

    def _check(self, va: int, n: int) -> None:
        check_access(va, n)
        if va + n > len(self.memory):
            raise ExecutionError(
                f"access of {n} words at va {va} is beyond memory")

    # -- the cost table's functions: (self, op, start) -> (end, value) --------

    def _cost_read(self, op: ops.Read, start: int) -> tuple:
        va, n = op.va, op.n
        self._check(va, n)
        bus = self.bus
        proc = self.thread.processor
        wpl = bus.params.words_per_line
        hit = bus.params.hit_ns
        # cost line by line: one fill per missing line, hits otherwise
        t, addr, remaining = start, va, n
        while remaining > 0:
            take = min(remaining, wpl - addr % wpl)
            # further words on the same line are hits
            t = bus.read_word(proc, addr, t) + (take - 1) * hit
            addr += take
            remaining -= take
        return t, self.memory[va: va + n].copy()

    def _cost_write(self, op: ops.Write, start: int) -> tuple:
        values = op.value
        if values.__class__ is not np.ndarray or values.dtype != WORD_DTYPE:
            values = write_words(values)  # an int64 array is its own
        va, n = op.va, len(values)
        self._check(va, n)
        self.memory[va: va + n] = values
        bus = self.bus
        proc = self.thread.processor
        t = start
        for addr in range(va, va + n):  # write-through: word by word
            t = bus.write_word(proc, addr, t)
        return t, None

    def _cost_test_and_set(self, op: ops.TestAndSet, start: int) -> tuple:
        va = op.va
        self._check(va, 1)
        memory = self.memory
        old = int(memory[va])
        memory[va] = op.value
        return self.bus.write_word(self.thread.processor, va, start), old

    def _cost_fetch_add(self, op: ops.FetchAdd, start: int) -> tuple:
        va = op.va
        self._check(va, 1)
        memory = self.memory
        memory[va] += op.delta
        return (self.bus.write_word(self.thread.processor, va, start),
                int(memory[va]))

    #: ports and migration have no model here: "unsupported operation"
    _COSTS = {
        ops.Compute: OpProcess._cost_compute,
        ops.Read: _cost_read,
        ops.Write: _cost_write,
        ops.TestAndSet: _cost_test_and_set,
        ops.FetchAdd: _cost_fetch_add,
    }


@dataclass
class SequentRunResult:
    program: Program
    machine: SequentMachine
    sim_time_ns: int
    thread_results: list[Any]

    @property
    def sim_time_ms(self) -> float:
        return self.sim_time_ns / 1e6


def run_on_sequent(
    program: Program,
    n_processors: int = 16,
    params: Optional[SequentParams] = None,
    max_events: Optional[int] = None,
) -> SequentRunResult:
    """Run a runtime program on the UMA baseline machine."""
    if params is None:
        params = SequentParams(n_processors=n_processors)
    machine = SequentMachine(params)
    api = SequentAPI(machine)
    program.setup(api)
    processes = [SequentThreadProcess(machine, spec)
                 for spec in api.thread_specs]
    # the one thread driver reads only the machine's engine: a crash, a
    # deadlock or a thread that never finished raises as on PLATINUM
    results = run_threads(machine, processes, program.name, max_events)
    program.verify(results)
    return SequentRunResult(
        program=program,
        machine=machine,
        sim_time_ns=machine.engine.now,
        thread_results=results,
    )
