"""The Sequent Symmetry baseline machine (paper Figure 5).

A UMA bus multiprocessor with small write-through snoopy caches, matching
the machine of Anderson's merge-sort study that the paper compares
against.  It runs the *same* ``runtime`` programs as PLATINUM -- thread
bodies yield the same operations -- but against a flat shared memory with
per-processor caches instead of NUMA coherent memory, so Figure 5's
comparison is apples-to-apples at the program level.

The paper's explanation of the Sequent's inferior merge-sort speedup is
captured by construction: the 8 KB cache cannot hold a merge run between
phases, every write crosses the single shared bus, and there is no
local-memory effect to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

import numpy as np

from ..machine.cache import CacheParams, SnoopyBus
from ..machine.memory import WORD_DTYPE
from ..runtime import ops
from ..runtime.executor import ExecutionError, commit, write_words
from ..runtime.program import Program
from ..runtime.run import run_threads
from ..runtime.sync import Barrier, EventCount, SpinLock
from ..sim.engine import Engine
from ..sim.process import Delay, Op, Process, WaitFor
from ..sim.resource import FifoResource


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


@dataclass(eq=False)
class _SequentThreadStub:
    """Duck-typed stand-in for the kernel Thread control block."""

    tid: int
    processor: int


@dataclass(eq=False)
class _SequentEnv:
    tid: int
    thread: _SequentThreadStub

    @property
    def processor(self) -> int:
        return self.thread.processor


@dataclass(eq=False)
class _SequentSpec:
    thread: _SequentThreadStub
    env: _SequentEnv
    body: Generator


class _ParamsShim:
    """Exposes ``words_per_page`` the way kernel params do."""

    def __init__(self, words_per_page: int) -> None:
        self.words_per_page = words_per_page


class _KernelShim:
    def __init__(self, machine: SequentMachine) -> None:
        self.params = _ParamsShim(machine.params.words_per_page)
        self.engine = machine.engine


class SequentAPI:
    """ProgramAPI-compatible setup surface for the UMA machine."""

    def __init__(self, machine: SequentMachine) -> None:
        self.machine = machine
        self.kernel = _KernelShim(machine)
        self._next_word = 0
        self.thread_specs: list[_SequentSpec] = []
        self._next_tid = 0

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
              aspace=None) -> _SequentSpec:
        stub = _SequentThreadStub(self._next_tid, processor)
        self._next_tid += 1
        env = _SequentEnv(stub.tid, stub)
        spec = _SequentSpec(stub, env, body_factory(env))
        self.thread_specs.append(spec)
        return spec


class SequentThreadProcess(Process):
    """Interprets runtime operations against the UMA machine."""

    __slots__ = ("machine", "proc", "cpu")

    def __init__(self, machine: SequentMachine, spec: _SequentSpec,
                 cpu: FifoResource) -> None:
        super().__init__(machine.engine, spec.body,
                         name=f"seq{spec.thread.tid}")
        self.machine = machine
        self.proc = spec.thread.processor
        self.cpu = cpu

    def interpret(self, op: Op) -> None:
        if isinstance(op, ops.Compute):
            # a duration from outside: rounded here, as in ThreadProcess
            self._commit(int(round(self._begin() + op.ns)))
        elif isinstance(op, ops.Read):
            t = self._begin()
            out = np.array(
                self.machine.memory[op.va: op.va + op.n], copy=True
            )
            t = self._cost_read(op.va, op.n, t)
            self._commit(t, out)
        elif isinstance(op, ops.Write):
            t = self._begin()
            try:
                values = write_words(op.value)
            except ExecutionError as exc:  # a thread crash, as live
                self._throw(exc)
                return
            self.machine.memory[op.va: op.va + len(values)] = values
            t = self._cost_write(op.va, len(values), t)
            self._commit(t)
        elif isinstance(op, ops.TestAndSet):
            t = self._begin()
            old = int(self.machine.memory[op.va])
            self.machine.memory[op.va] = op.value
            t = self._cost_write(op.va, 1, t)
            self._commit(t, old)
        elif isinstance(op, ops.FetchAdd):
            t = self._begin()
            self.machine.memory[op.va] += op.delta
            new = int(self.machine.memory[op.va])
            t = self._cost_write(op.va, 1, t)
            self._commit(t, new)
        elif isinstance(op, ops.WaitNewer):
            if op.channel.version > op.seen:
                self._resume(None)
            else:
                op.channel.event.wait(self._resume)
        elif isinstance(op, ops.GetTime):
            self._resume(self.engine.now)
        elif isinstance(op, (Delay, WaitFor)):
            super().interpret(op)
        else:
            self._throw(
                RuntimeError(f"sequent cannot execute {op!r}")
            )

    def _begin(self) -> int:
        return max(self.engine.now, self.cpu.busy_until)

    _commit = commit  # the executor's: occupy the cpu, then resume

    def _cost_read(self, va: int, n: int, t: int) -> int:
        bus = self.machine.bus
        wpl = bus.params.words_per_line
        # cost line by line: one fill per missing line, hits otherwise
        addr = va
        remaining = n
        while remaining > 0:
            take = min(remaining, wpl - addr % wpl)
            end = bus.read_word(self.proc, addr, t)
            # further words on the same line are hits
            t = end + (take - 1) * bus.params.hit_ns
            addr += take
            remaining -= take
        return t

    def _cost_write(self, va: int, n: int, t: int) -> int:
        bus = self.machine.bus
        for i in range(n):
            t = bus.write_word(self.proc, va + i, t)
        return t


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
    cpus: dict[int, FifoResource] = {}
    processes = []
    for spec in api.thread_specs:
        cpu = cpus.setdefault(
            spec.thread.processor,
            FifoResource(f"seq.cpu[{spec.thread.processor}]"),
        )
        processes.append(SequentThreadProcess(machine, spec, cpu))
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
