"""The thread executor: drives user generators on simulated processors.

:class:`OpProcess` is the one op path of every thread driver -- live
PLATINUM, the Sequent baseline, trace replay.  Its ``_wake`` resumes the
generator and, for an op of the class's cost table (op type ->
``(self, op, start) -> (end, value)``), starts, costs and commits it in
one frame; a machine supplies only the cost table.  PLATINUM's
(:class:`ThreadProcess`) splits a memory operation into per-page runs,
each translated by the processor's MMU (faulting into the PLATINUM fault
path if needed) and costed through the machine's contention model in a
single simulation event, while the real data moves between page frames.
What the op path knows about a processor it reads from the machine's
row of that processor (:class:`~repro.machine.interrupts.ProcessorState`),
indexed by ``thread.processor`` at each op: ``busy_until`` serializes
the threads that share it, the interrupt penalty accumulated by
shootdowns is paid at the start of its next operation, and ``dests``
holds its costing constants.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import Any, Generator

import numpy as np

from ..kernel.kernel import Kernel
from ..kernel.threads import Thread
from ..machine.memory import WORD_DTYPE
from ..machine.pmap import PmapEntry
from ..sim.engine import Engine, SimulationError
from ..sim.process import Delay, Op, Process, WaitFor
from . import ops


class ExecutionError(RuntimeError):
    """A user thread issued an operation the executor cannot perform."""


def check_access(va: int, n: int) -> None:
    """Refuse an access of no words, or at a negative address."""
    if n <= 0:
        raise ExecutionError(f"access of {n} words at va {va}")
    if va < 0:
        raise ExecutionError(f"negative address {va}")


def write_words(value: Any) -> np.ndarray:
    """What a ``Write`` of ``value`` stores, on either machine: an
    integer or bool, or an array or sequence of them.  Anything else
    would be cast to a silently wrong word: an ``ExecutionError``."""
    if isinstance(value, (int, np.integer, np.bool_)):  # bool is an int
        return np.full(1, value, dtype=WORD_DTYPE)
    words = np.asarray(value)
    if words.dtype.kind not in ("i", "u", "b"):
        raise ExecutionError(
            f"cannot write {value!r}: a word is an integer or a bool")
    return words.astype(WORD_DTYPE, copy=False)


class OpProcess(Process):
    """Runs one thread's generator in simulated time, on any machine:
    ``rows`` are the machine's per-processor states, and a subclass
    prices ops with its ``_COSTS`` and may extend ``_HANDLERS``.
    """

    __slots__ = ("thread", "rows", "_costs")

    def __init__(
        self,
        engine: Engine,
        thread: Thread,
        body: Generator[Op, Any, Any],
        rows: list,
    ) -> None:
        super().__init__(engine, body, name=thread.name)
        self.thread = thread
        self.rows = rows
        self._costs = self._COSTS  # a slot: the fused _wake reads it

    # -- operation dispatch -------------------------------------------------

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # the fused _wake below spells Process._resume and interpret
        # inline; a class that redefines either (or _throw) must have
        # every wake-up go through its own version
        super().__init_subclass__(**kwargs)
        if "_wake" not in vars(cls) and any(
            name in vars(cls) for name in ("_resume", "_throw", "interpret")
        ):
            cls._wake = Process._wake

    def _wake(self) -> None:
        """``Process._wake`` -> ``_resume`` -> ``interpret`` -> ``_run``
        in one frame, for an op of the cost table; those four stay the
        reference (tests/test_engine_loop.py), and run any other op."""
        value = self._wake_value
        self._wake_value = None
        if self.finished:
            raise SimulationError(f"{self.name} resumed after finishing")
        try:
            op = self.gen.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - recorded, not hidden
            self._finish(error=exc)
            return
        cost = self._costs.get(type(op))
        if cost is None:
            self.interpret(op)
            return
        engine = self.engine  # _begin, in place
        now = engine._now
        row = self.rows[self.thread.processor]
        busy = row.busy_until
        start = now if now > busy else busy
        penalty = row.pending_penalty
        if penalty:
            row.pending_penalty = 0
            start += penalty
        try:
            end, value = cost(self, op, start)
        except Exception as exc:  # noqa: BLE001 - as _run does
            if cost is OpProcess._cost_compute:
                row.pending_penalty += penalty  # it never started
            self._throw(exc)
            return
        # _commit, in place: no cost in the table moves the thread
        if end < now:
            end = now
        if end > row.busy_until:
            row.busy_until = end
        if end > now:
            seq = engine._seq
            engine._seq = seq + 1
            heappush(engine._queue, (end, seq, self._wake))
        else:
            engine.schedule_at(end, self._wake)
        self._wake_value = value

    def interpret(self, op: Op) -> None:
        try:
            # the exact type first; an op subclass runs as its nearest
            # known base
            for klass in type(op).__mro__:
                cost = self._costs.get(klass)
                if cost is not None:
                    self._run(cost, op)
                    return
                handler = self._HANDLERS.get(klass)
                if handler is not None:
                    handler(self, op)
                    return
            raise ExecutionError(f"unsupported operation {op!r}")
        except Exception as exc:  # noqa: BLE001 - becomes a thread crash
            # any executor or kernel error (protection fault, wild access,
            # out of memory) kills the simulated thread, not the engine
            self._throw(exc)

    def _run(self, cost, op: Op) -> None:
        """``_begin``, ``cost(self, op, start) -> (end, value)``, then
        ``_commit``.  An invalid ``Compute`` leaves the penalty pending;
        any other error is raised after the penalty is taken."""
        row = self.rows[self.thread.processor]
        penalty = row.pending_penalty
        start = self._begin()
        try:
            end, value = cost(self, op, start)
        except ExecutionError:
            if cost is OpProcess._cost_compute:
                row.pending_penalty += penalty
            raise
        self._commit(end, value)

    # -- timing helpers --------------------------------------------------------

    def _begin(self) -> int:
        """Start time of the next op: after the thread's processor is
        free and any pending interrupt penalty, which this takes (and
        clears)."""
        now = self.engine._now
        row = self.rows[self.thread.processor]
        busy = row.busy_until
        start = now if now > busy else busy
        penalty = row.pending_penalty
        if penalty:
            row.pending_penalty = 0
        return start + penalty

    def _commit(self, end: int, value: Any = None) -> None:
        """Occupy the thread's processor until ``end``, then resume with
        ``value`` (one ``_wake`` event).  A future wake-up is pushed here
        as ``Engine.schedule_at``, the reference, would push it
        (tests/test_engine_loop.py)."""
        engine = self.engine
        now = engine._now
        if end < now:
            end = now
        row = self.rows[self.thread.processor]
        if end > row.busy_until:
            row.busy_until = end
        if end > now:
            seq = engine._seq
            engine._seq = seq + 1
            heappush(engine._queue, (end, seq, self._wake))
        else:
            engine.schedule_at(end, self._wake)
        self._wake_value = value

    # -- the shared cost and handlers -----------------------------------------

    def _cost_compute(self, op: ops.Compute, start: int) -> tuple:
        ns = op.ns
        if not 0 <= ns < math.inf:  # NaN compares false
            raise ExecutionError(f"compute time {ns} is not in [0, inf)")
        # a program may compute its think time: rounded onto the clock
        return int(round(start + ns)), None

    def _do_wait_newer(self, op: ops.WaitNewer) -> None:
        if op.channel.version > op.seen:
            self._resume(None)
            return
        op.channel.event.wait(self._resume)

    def _do_get_time(self, op: ops.GetTime) -> None:
        self._resume(self.engine.now)

    #: the ops every machine runs alike; a handler's op may block or
    #: resume without committing
    _COSTS = {ops.Compute: _cost_compute}
    _HANDLERS = {
        ops.WaitNewer: _do_wait_newer,
        ops.GetTime: _do_get_time,
        Delay: Process.interpret,
        WaitFor: Process.interpret,
    }


class ThreadProcess(OpProcess):
    """Runs one user thread's generator on a PLATINUM kernel."""

    __slots__ = ("kernel", "_consts", "_wpp")

    def __init__(
        self,
        kernel: Kernel,
        thread: Thread,
        body: Generator[Op, Any, Any],
    ) -> None:
        super().__init__(kernel.engine, thread, body,
                         kernel.machine.interrupts.state)
        self.kernel = kernel
        # immutable machine constants, hoisted out of the per-op path
        p = kernel.params
        self._consts = (
            p.t_module_service, p.t_switch_service, p.t_local,
            p.t_remote_read, p.t_remote_write,
        )
        self._wpp = p.words_per_page
        self.on_finish(lambda _p: self.kernel.threads.exit(self.thread))

    # -- memory access -------------------------------------------------------------

    def _cost_run(
        self, vpage: int, n: int, write: bool, t: int
    ) -> tuple[int, PmapEntry]:
        """Translate and cost one ``n``-word within-page run starting at
        time ``t``: the one definition of what a reference costs.

        Returns (completion_time, translation entry).  The translation
        is ``MMU.translate`` in place, retried after each fault into the
        kernel (at most three): an ATC hit with sufficient rights, or an
        ATC miss that finds such an entry in the Pmap -- the lookup
        before a fault and the retry after it -- with ``translate``'s
        counter updates; a rights-restricted ATC entry is left to
        ``translate`` itself, which flushes it and faults.  The costing:
        one block for every reference, ``Machine.access`` +
        ``FifoResource.occupy`` spelled inline over the constants of the
        destination module (the row's ``dests``, ``_destination``).
        ``MMU.translate`` and ``Machine.access`` stay the reference
        spelling; the differential test in tests/test_cost_run.py holds
        this one to the same arithmetic and the same counters.
        """
        kernel = self.kernel
        machine = kernel.machine
        thread = self.thread
        proc = thread.processor
        aspace_id = thread.aspace_id
        mmu = machine.mmus[proc]
        atc = mmu.atc
        key = (aspace_id, vpage)
        entries = atc._entries
        faults = 0
        while True:
            entry = entries.get(key)
            if entry is not None:
                # rights are the ints 0 < 1 < 3 (an IntFlag & is slow)
                if entry.rights == 3 or (entry.rights == 1 and not write):
                    entries.move_to_end(key)
                    atc.hits += 1
                    entry.referenced = True
                    if write:
                        entry.modified = True
                    break
                # a rights-restricted ATC entry: MMU.translate, its
                # reference, flushes it and faults
                t += mmu.translate(aspace_id, vpage, write).cost
            else:
                # MMU.translate's ATC-miss arm, in place
                pmap = mmu._pmaps.get(aspace_id)
                entry = pmap._entries.get(vpage) if pmap is not None \
                    else None
                atc.misses += 1
                t += mmu.params.atc_miss_cost
                if entry is not None and (
                    entry.rights == 3 or (entry.rights == 1 and not write)
                ):
                    entry.referenced = True
                    if write:
                        entry.modified = True
                    entries[key] = entry
                    while len(entries) > atc.capacity:
                        entries.popitem(last=False)
                    break
                mmu.faults += 1
            t = kernel.fault(proc, aspace_id, vpage, write, t)
            faults += 1
            if faults == 3:
                raise ExecutionError(
                    f"cpu{proc} could not obtain a translation for vpage "
                    f"{vpage} (aspace {aspace_id}, write={write}) after "
                    "repeated faults"
                )
        if n <= 0:
            raise ValueError(f"access of {n} words")
        dst = entry.frame.module_index
        cost = self.rows[proc].dests[dst]
        if cost is None:
            cost = self._destination(proc, dst)
        module, bus, t_module, route, per_word, extra_read, extra_write, \
            remote = cost
        tt = t
        if route:
            # FifoResource.occupy(tt, n * t_switch) per port, inlined
            duration = n * self._consts[1]
            for port in route:
                busy = port.busy_until
                start = tt if tt > busy else busy
                port.wait_time += start - tt
                tt = start + duration
                port.busy_until = tt
                port.busy_time += duration
                port.requests += 1
        # FifoResource.occupy(tt, n * t_module) inlined
        duration = n * t_module
        busy = bus.busy_until
        start = tt if tt > busy else busy
        bus.wait_time += start - tt
        tt = start + duration
        bus.busy_until = tt
        bus.busy_time += duration
        bus.requests += 1
        completion = tt + n * (extra_write if write else extra_read)
        queue_delay = tt - (t + n * per_word)
        if queue_delay < 0:
            queue_delay = 0
        if remote:
            machine.remote_words[proc] += n
            if write:
                machine.remote_write_words[proc] += n
        else:
            machine.local_words[proc] += n
        machine.queue_delay_ns[proc] += queue_delay
        module.words_served += n
        module.accesses_served += 1
        cpage_index = entry.cpage_index
        if cpage_index is not None:
            coherent = kernel.coherent
            if remote and coherent.reference_counting:
                coherent.note_remote_access(cpage_index, proc, n)
            probe = coherent.access_probe
            if probe is not None:
                probe.note(cpage_index, proc, write, remote, n,
                           queue_delay)
        return completion, entry

    def _destination(self, proc: int, dst: int) -> tuple:
        """The constants ``_cost_run`` costs a reference from processor
        ``proc`` to memory module ``dst`` with, built on first use and
        kept in ``proc``'s row, where every thread on it finds them:
        ``(module, bus, t_module, route, service per word, extra per
        word read, extra per word written, remote)``.  ``remote`` is its
        own flag: the uniform topology's remote routes are empty.  The
        route is asked for here, at the first such reference, as
        ``Machine.access`` would ask, so switch ports come into being in
        the same order."""
        machine = self.kernel.machine
        t_module, t_switch, t_local, t_rread, t_rwrite = self._consts
        module = machine.modules[dst]
        remote = proc != dst
        if remote:
            route = machine.topology.route(proc, dst)
            per_word = t_module + len(route) * t_switch
            extra_read = max(t_rread - per_word, 0)
            extra_write = max(t_rwrite - per_word, 0)
        else:
            route = ()
            per_word = t_module
            extra_read = extra_write = max(t_local - t_module, 0)
        cost = (module, module.bus, t_module, route, per_word, extra_read,
                extra_write, remote)
        self.rows[proc].dests[dst] = cost
        return cost

    def _split_runs(self, va: int, n: int) -> list[tuple[int, int, int]]:
        """The within-page runs ``(vpage, offset, words)`` of an access."""
        check_access(va, n)
        wpp = self._wpp
        vpage, offset = divmod(va, wpp)
        runs = []
        while n > 0:
            take = min(n, wpp - offset)
            runs.append((vpage, offset, take))
            vpage += 1
            offset = 0
            n -= take
        return runs

    def _cost_read(self, op: ops.Read, start: int) -> tuple:
        # the common access never leaves its page and goes straight to
        # _cost_run; anything else takes the checked split
        va, n = op.va, op.n
        wpp = self._wpp
        offset = va % wpp
        if 0 < n <= wpp - offset and va >= 0:
            t, entry = self._cost_run(va // wpp, n, False, start)
            return t, entry.frame.data[offset: offset + n].copy()
        t = start
        parts = []
        for vpage, offset, take in self._split_runs(va, n):
            t, entry = self._cost_run(vpage, take, False, t)
            parts.append(entry.frame.data[offset: offset + take].copy())
        return t, np.concatenate(parts)

    def _cost_write(self, op: ops.Write, start: int) -> tuple:
        values = op.value
        if values.__class__ is not np.ndarray or values.dtype != WORD_DTYPE:
            values = write_words(values)  # an int64 array is its own
        va, n = op.va, len(values)
        wpp = self._wpp
        offset = va % wpp
        if 0 < n <= wpp - offset and va >= 0:
            t, entry = self._cost_run(va // wpp, n, True, start)
            entry.frame.data[offset: offset + n] = values
            return t, None
        t = start
        for vpage, offset, take in self._split_runs(va, n):
            t, entry = self._cost_run(vpage, take, True, t)
            entry.frame.data[offset: offset + take] = values[:take]
            values = values[take:]
        return t, None

    def _cost_test_and_set(self, op: ops.TestAndSet, start: int) -> tuple:
        va = op.va
        if va < 0:  # check_access's rule, without its call
            raise ExecutionError(f"negative address {va}")
        vpage, i = divmod(va, self._wpp)
        t, entry = self._cost_run(vpage, 1, True, start)
        old = int(entry.frame.data[i])
        entry.frame.data[i] = op.value
        return t, old

    def _cost_fetch_add(self, op: ops.FetchAdd, start: int) -> tuple:
        va = op.va
        if va < 0:  # check_access's rule, without its call
            raise ExecutionError(f"negative address {va}")
        vpage, i = divmod(va, self._wpp)
        t, entry = self._cost_run(vpage, 1, True, start)
        entry.frame.data[i] += op.delta
        return t, int(entry.frame.data[i])

    def _cost_send(self, op: ops.SendPort, start: int) -> tuple:
        data = np.asarray(op.data, dtype=WORD_DTYPE)
        return op.port.send(data, self.thread.tid, self.thread.processor,
                            start), None

    # -- thread migration and ports -------------------------------------------

    def _do_migrate(self, op: ops.Migrate) -> None:
        # starts on the old processor's row, commits on the new one's
        start = self._begin()
        cost = self.kernel.threads.migrate(self.thread, op.processor)
        self._commit(start + cost)

    def _do_recv(self, op: ops.RecvPort) -> None:
        t = self._begin()
        result = op.port.try_receive(self.thread.processor, t)
        if result is None:
            # no message: sleep until an arrival, then retry.  Registration
            # happens in this same event, so no arrival can be missed.
            op.port.arrival.wait(lambda _v: self.interpret(op))
            return
        message, end = result
        self._commit(end, message.data)

    #: the cost table: the ops ``_wake`` starts, costs and commits in its
    #: own frame, keyed by exact type (``interpret`` resolves a subclass
    #: through its MRO and runs it with ``_run``)
    _COSTS = {
        ops.Compute: OpProcess._cost_compute,
        ops.Read: _cost_read,
        ops.Write: _cost_write,
        ops.TestAndSet: _cost_test_and_set,
        ops.FetchAdd: _cost_fetch_add,
        ops.SendPort: _cost_send,
    }
    #: ``Migrate`` moves the thread between its start and its commit
    _HANDLERS = {
        **OpProcess._HANDLERS,
        ops.Migrate: _do_migrate,
        ops.RecvPort: _do_recv,
    }

