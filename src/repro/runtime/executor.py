"""The thread executor: drives user generators on simulated processors.

One :class:`ThreadProcess` runs each kernel thread.  It translates the
operations of ``runtime.ops`` into machine and kernel activity:

* memory operations are split into per-page runs; each run is translated
  by the processor's MMU, faults into the PLATINUM fault path if needed,
  and is then costed through the machine's contention model while the real
  data moves between the simulated page frames;
* the entire chain of a memory operation is computed in a single
  simulation event -- shared resources are reserved into the future (see
  ``repro.sim.resource``) -- and the generator resumes when the final
  completion time arrives;
* a per-processor ``cpu`` resource serializes threads that share a
  processor, and interprocessor-interrupt penalties accumulated by
  shootdowns are paid at the start of the next operation.
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
from ..sim.engine import SimulationError
from ..sim.process import Delay, Op, Process, WaitFor
from ..sim.resource import FifoResource
from . import ops


class ExecutionError(RuntimeError):
    """A user thread issued an operation the executor cannot perform."""


def commit(proc: Process, end: int, value: Any = None) -> None:
    """Occupy ``proc.cpu`` until ``end`` and resume ``proc``, with
    ``value``, then (one ``_wake`` event).  Both executors' ``_commit``:
    any :class:`Process` with a ``cpu`` :class:`FifoResource`.

    A wake-up in the future with ties unperturbed is pushed here, as
    ``Engine.schedule_at`` would push it; every other case goes through
    ``schedule_at``, the reference (tests/test_engine_loop.py)."""
    engine = proc.engine
    now = engine._now
    if end < now:
        end = now
    cpu = proc.cpu
    if end > cpu.busy_until:
        cpu.busy_until = end
    if (
        end > now
        and engine._tie_rng is None
        and end >= engine._no_fast_before
    ):
        seq = engine._seq
        engine._seq = seq + 1
        heappush(engine._queue, (end, 0.0, seq, proc._wake))
    else:
        engine.schedule_at(end, proc._wake)
    proc._wake_value = value


def write_words(value: Any) -> np.ndarray:
    """What a ``Write`` of ``value`` stores, on either machine."""
    if isinstance(value, np.ndarray):  # first: np.isscalar is slow
        return np.asarray(value, dtype=WORD_DTYPE)
    if np.isscalar(value) or isinstance(value, (int, np.integer)):
        return np.full(1, value, dtype=WORD_DTYPE)
    return np.asarray(value, dtype=WORD_DTYPE)


class ThreadProcess(Process):
    """Runs one user thread's generator in simulated time."""

    __slots__ = ("kernel", "thread", "cpu", "_consts", "_wpp", "_dests")

    def __init__(
        self,
        kernel: Kernel,
        thread: Thread,
        body: Generator[Op, Any, Any],
        cpu: FifoResource,
    ) -> None:
        super().__init__(kernel.engine, body, name=thread.name)
        self.kernel = kernel
        self.thread = thread
        self.cpu = cpu
        # immutable machine constants, hoisted out of the per-op path
        p = kernel.params
        self._consts = (
            p.t_module_service, p.t_switch_service, p.t_local,
            p.t_remote_read, p.t_remote_write,
        )
        self._wpp = p.words_per_page
        # _destination's tables: one row per processor the thread may
        # run on, so a migration needs no invalidation
        n_modules = len(kernel.machine.modules)
        self._dests = [[None] * n_modules for _ in range(p.n_processors)]
        self.on_finish(lambda _p: self.kernel.threads.exit(self.thread))

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
        """``Process._wake`` -> ``_resume`` -> ``interpret`` in one frame:
        the generator is resumed and its op dispatched here.  Those three
        stay the reference (tests/test_engine_loop.py); an op subclass
        and every handler error still go through ``interpret``."""
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
        handler = _HANDLERS.get(type(op))
        if handler is None:
            self.interpret(op)
            return
        try:
            handler(self, op)
        except Exception as exc:  # noqa: BLE001 - as interpret does
            self._throw(exc)

    def interpret(self, op: Op) -> None:
        try:
            handler = _HANDLERS.get(type(op))
            if handler is None:
                # an op subclass runs as its nearest known base
                for base in type(op).__mro__[1:]:
                    handler = _HANDLERS.get(base)
                    if handler is not None:
                        break
                else:
                    raise ExecutionError(f"unsupported operation {op!r}")
            handler(self, op)
        except Exception as exc:  # noqa: BLE001 - becomes a thread crash
            # any executor or kernel error (protection fault, wild access,
            # out of memory) kills the simulated thread, not the engine
            self._throw(exc)

    # -- timing helpers --------------------------------------------------------

    def _begin(self) -> int:
        """Start time of the next op: after CPU availability and any
        pending interrupt penalty, which this takes (and clears)."""
        now = self.engine._now
        busy = self.cpu.busy_until
        start = now if now > busy else busy
        st = self.kernel.machine.interrupts.state[self.thread.processor]
        penalty = st.pending_penalty
        if penalty:
            st.pending_penalty = 0
        return start + penalty

    _commit = commit  # shared with the Sequent baseline

    # -- compute -----------------------------------------------------------------

    def _do_compute(self, op: ops.Compute) -> None:
        if not 0 <= op.ns < math.inf:  # NaN compares false
            raise ExecutionError(f"compute time {op.ns} is not in [0, inf)")
        # a program may compute its think time: rounded onto the clock
        self._commit(int(round(self._begin() + op.ns)))

    # -- memory access -------------------------------------------------------------

    def _cost_run(
        self, vpage: int, n: int, write: bool, t: int
    ) -> tuple[int, PmapEntry]:
        """Translate and cost one ``n``-word within-page run starting at
        time ``t``: the one definition of what a reference costs.

        Returns (completion_time, translation entry).  The translation:
        an ATC hit with sufficient rights is taken inline (the ATC is
        touched here only on such a hit, with ``MMU.translate``'s counter
        updates); anything else goes through ``translate``'s single
        authoritative lookup, faulting into the kernel.  The retry after
        a fault reads the entry the handler installed straight from the
        Pmap (``translate``'s ATC-miss/Pmap-hit arm, in place); any other
        outcome takes the reference loop, ``_translate``.  The costing:
        one block for every reference, ``Machine.access`` +
        ``FifoResource.occupy`` spelled inline over the constants of the
        destination module (``_destination``).  ``MMU.translate`` and
        ``Machine.access`` stay the reference spelling; the differential
        test in tests/test_cost_run.py holds this one to the same
        arithmetic and the same counters.
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
        entry = entries.get(key)
        # rights check via plain int comparison (Rights values are
        # only ever NONE=0, READ=1, WRITE=3; IntFlag.__and__ is slow)
        if entry is not None and (
            entry.rights == 3 or (entry.rights == 1 and not write)
        ):
            entries.move_to_end(key)
            atc.hits += 1
            entry.referenced = True
            if write:
                entry.modified = True
        else:
            result = mmu.translate(aspace_id, vpage, write)
            t += result.cost
            entry = result.entry
            if entry is None:
                t = kernel.fault(proc, aspace_id, vpage, write,
                                 t).completion
                pmap = mmu._pmaps.get(aspace_id)
                entry = pmap._entries.get(vpage) if pmap is not None \
                    else None
                if entry is not None and (
                    entry.rights == 3 or (entry.rights == 1 and not write)
                ) and key not in entries:
                    # MMU.translate's ATC-miss/Pmap-hit arm, in place
                    atc.misses += 1
                    t += mmu.params.atc_miss_cost
                    entry.referenced = True
                    if write:
                        entry.modified = True
                    entries[key] = entry
                    while len(entries) > atc.capacity:
                        entries.popitem(last=False)
                else:
                    t, entry = self._translate(vpage, write, t, 1)
        if n <= 0:
            raise ValueError(f"access of {n} words")
        dst = entry.frame.module_index
        cost = self._dests[proc][dst]
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

    def _translate(
        self, vpage: int, write: bool, t: int, faults: int
    ) -> tuple[int, PmapEntry]:
        """``MMU.translate`` from time ``t``, faulting into the kernel
        until there is a translation: the reference loop, entered after
        ``faults`` faults already taken.  Returns (time, entry); a
        reference still untranslated after three faults is an error."""
        kernel = self.kernel
        thread = self.thread
        proc = thread.processor
        aspace_id = thread.aspace_id
        mmu = kernel.machine.mmus[proc]
        while faults < 3:
            result = mmu.translate(aspace_id, vpage, write)
            t += result.cost
            if result.entry is not None:
                return t, result.entry
            t = kernel.fault(proc, aspace_id, vpage, write, t).completion
            faults += 1
        raise ExecutionError(
            f"cpu{proc} could not obtain a translation for vpage "
            f"{vpage} (aspace {aspace_id}, write={write}) after "
            "repeated faults"
        )

    def _destination(self, proc: int, dst: int) -> tuple:
        """The constants ``_cost_run`` costs a reference from processor
        ``proc`` to memory module ``dst`` with, built on first use:
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
        self._dests[proc][dst] = cost
        return cost

    def _split_runs(self, va: int, n: int) -> list[tuple[int, int, int]]:
        """The within-page runs ``(vpage, offset, words)`` of an access."""
        if n <= 0:
            raise ExecutionError(f"access of {n} words at va {va}")
        if va < 0:
            raise ExecutionError(f"negative address {va}")
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

    def _do_read(self, op: ops.Read) -> None:
        # the common access never leaves its page and goes straight to
        # _cost_run; anything else takes the checked split
        t = self._begin()
        va, n = op.va, op.n
        offset = va % self._wpp
        if 0 < n <= self._wpp - offset and va >= 0:
            t, entry = self._cost_run(va // self._wpp, n, False, t)
            self._commit(t, entry.frame.data[offset: offset + n].copy())
            return
        parts = []
        for vpage, offset, take in self._split_runs(va, n):
            t, entry = self._cost_run(vpage, take, False, t)
            parts.append(entry.frame.data[offset: offset + take].copy())
        self._commit(t, np.concatenate(parts))

    def _do_write(self, op: ops.Write) -> None:
        t = self._begin()
        values = write_words(op.value)
        va, n = op.va, len(values)
        offset = va % self._wpp
        if 0 < n <= self._wpp - offset and va >= 0:
            t, entry = self._cost_run(va // self._wpp, n, True, t)
            entry.frame.data[offset: offset + n] = values
        else:
            for vpage, offset, take in self._split_runs(va, n):
                t, entry = self._cost_run(vpage, take, True, t)
                entry.frame.data[offset: offset + take] = values[:take]
                values = values[take:]
        self._commit(t)

    def _do_test_and_set(self, op: ops.TestAndSet) -> None:
        t = self._begin()
        vpage, i = divmod(op.va, self._wpp)
        t, entry = self._cost_run(vpage, 1, True, t)
        old = int(entry.frame.data[i])
        entry.frame.data[i] = op.value
        self._commit(t, old)

    def _do_fetch_add(self, op: ops.FetchAdd) -> None:
        t = self._begin()
        vpage, i = divmod(op.va, self._wpp)
        t, entry = self._cost_run(vpage, 1, True, t)
        entry.frame.data[i] += op.delta
        self._commit(t, int(entry.frame.data[i]))

    # -- thread migration --------------------------------------------------------------

    def _do_migrate(self, op: ops.Migrate) -> None:
        self._migrate(op.processor)

    def _migrate(self, processor: int) -> None:
        start = self._begin()
        cost = self.kernel.threads.migrate(self.thread, processor)
        # after migration the thread competes for the new processor
        self.cpu = _cpu_resource(self.kernel, processor)
        self._commit(start + cost)

    # -- ports -------------------------------------------------------------------------

    def _do_send(self, op: ops.SendPort) -> None:
        t = self._begin()
        data = np.asarray(op.data, dtype=WORD_DTYPE)
        end = op.port.send(data, self.thread.tid, self.thread.processor, t)
        self._commit(end)

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

    # -- broadcast wait -------------------------------------------------------------------

    def _do_wait_newer(self, op: ops.WaitNewer) -> None:
        if op.channel.version > op.seen:
            self._resume(None)
            return
        op.channel.event.wait(self._resume)

    def _do_get_time(self, op: ops.GetTime) -> None:
        self._resume(self.engine.now)


#: the one dispatch table of ``ThreadProcess.interpret``, keyed by the
#: exact op type (subclasses of these resolve through their MRO)
_HANDLERS = {
    ops.Compute: ThreadProcess._do_compute,
    ops.Read: ThreadProcess._do_read,
    ops.Write: ThreadProcess._do_write,
    ops.TestAndSet: ThreadProcess._do_test_and_set,
    ops.FetchAdd: ThreadProcess._do_fetch_add,
    ops.Migrate: ThreadProcess._do_migrate,
    ops.SendPort: ThreadProcess._do_send,
    ops.RecvPort: ThreadProcess._do_recv,
    ops.WaitNewer: ThreadProcess._do_wait_newer,
    ops.GetTime: ThreadProcess._do_get_time,
    Delay: Process.interpret,
    WaitFor: Process.interpret,
}


def _cpu_resource(kernel: Kernel, processor: int) -> FifoResource:
    """The kernel's cpu resource of ``processor``, created on first use."""
    res = kernel.cpu_resources.get(processor)
    if res is None:
        res = FifoResource(f"cpu[{processor}]")
        kernel.cpu_resources[processor] = res
    return res
