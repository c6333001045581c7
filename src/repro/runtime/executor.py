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

from typing import Any, Generator

import numpy as np

from ..kernel.kernel import Kernel
from ..kernel.threads import Thread
from ..machine.machine import AccessOutcome
from ..machine.memory import WORD_DTYPE
from ..machine.pmap import PmapEntry
from ..sim.process import Delay, Op, Process, WaitFor
from ..sim.resource import FifoResource
from . import ops


class ExecutionError(RuntimeError):
    """A user thread issued an operation the executor cannot perform."""


class ThreadProcess(Process):
    """Runs one user thread's generator in simulated time."""

    __slots__ = ("kernel", "thread", "cpu", "_wake", "_consts")

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
        # one reusable callback instead of a fresh closure per op
        self._wake = lambda: self._resume(None)
        # immutable timing constants, hoisted out of the per-op path
        p = kernel.params
        self._consts = (
            p.t_module_service, p.t_switch_service, p.t_local,
            p.t_remote_read, p.t_remote_write,
        )
        self.on_finish(lambda _p: self.kernel.threads.exit(self.thread))

    # -- operation dispatch -------------------------------------------------

    def interpret(self, op: Op) -> None:  # noqa: C901 - a dispatcher
        try:
            if isinstance(op, ops.Compute):
                self._do_compute(op)
            elif isinstance(op, ops.Read):
                self._do_read(op)
            elif isinstance(op, ops.Write):
                self._do_write(op)
            elif isinstance(op, ops.TestAndSet):
                self._do_test_and_set(op)
            elif isinstance(op, ops.FetchAdd):
                self._do_fetch_add(op)
            elif isinstance(op, ops.Migrate):
                self._migrate(op.processor)
            elif isinstance(op, ops.SendPort):
                self._do_send(op)
            elif isinstance(op, ops.RecvPort):
                self._do_recv(op)
            elif isinstance(op, ops.WaitNewer):
                self._do_wait_newer(op)
            elif isinstance(op, ops.GetTime):
                self._resume(self.engine.now)
            elif isinstance(op, (Delay, WaitFor)):
                super().interpret(op)
            else:
                raise ExecutionError(f"unsupported operation {op!r}")
        except Exception as exc:  # noqa: BLE001 - becomes a thread crash
            # any executor or kernel error (protection fault, wild access,
            # out of memory) kills the simulated thread, not the engine
            self._throw(exc)

    # -- timing helpers --------------------------------------------------------

    def _begin(self) -> int:
        """Start time of the next op: after CPU availability and any
        pending interrupt penalty."""
        now = self.engine.now
        busy = self.cpu.busy_until
        penalty = self.kernel.machine.interrupts.collect_penalty(
            self.thread.processor
        )
        return int(round((now if now > busy else busy) + penalty))

    def _commit(self, end: float, value: Any = None) -> None:
        """Occupy the CPU until ``end`` and resume the thread then."""
        engine = self.engine
        now = engine.now
        end = int(round(end if end > now else now))
        cpu = self.cpu
        if end > cpu.busy_until:
            cpu.busy_until = end
        engine.schedule_at(
            end,
            self._wake if value is None else (lambda: self._resume(value)),
        )

    # -- compute -----------------------------------------------------------------

    def _do_compute(self, op: ops.Compute) -> None:
        if op.ns < 0:
            raise ExecutionError(f"negative compute time {op.ns}")
        start = self._begin()
        self._commit(start + op.ns)

    # -- memory access -------------------------------------------------------------

    def _fault(self, vpage: int, write: bool, t: int) -> int:
        """Trap into the Cpage fault handler at time ``t``; returns the
        time the handler completes."""
        thread = self.thread
        return self.kernel.fault(
            thread.processor, thread.aspace_id, vpage, write, t
        ).completion

    def _cost_run(
        self, vpage: int, n: int, write: bool, t: int
    ) -> tuple[int, PmapEntry]:
        """Translate and cost one ``n``-word within-page run starting at
        time ``t``: the one definition of what a reference costs.

        Returns (completion_time, translation entry).  An ATC hit with
        sufficient rights is costed inline -- ``MMU.translate`` +
        ``Machine.access`` + ``FifoResource.occupy`` with the same
        arithmetic and the same counter updates (the differential test
        in tests/test_cost_run.py holds the two together).  Counter
        equivalence holds because the inline path touches the ATC only
        on a sufficient-rights hit; any other case falls through to
        ``translate``'s single authoritative lookup, faulting into the
        kernel until a translation is obtained.
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
            t_module, t_switch, t_local, t_rread, t_rwrite = self._consts
            dst = entry.frame.module_index
            module = machine.modules[dst]
            remote = proc != dst
            tt = t
            if remote:
                route = machine.topology.route(proc, dst)
                for port in route:
                    _, tt = port.occupy(tt, n * t_switch)
                t_word = t_rwrite if write else t_rread
                service_per_word = t_module + len(route) * t_switch
            else:
                t_word = t_local
                service_per_word = t_module
            # FifoResource.occupy(tt, n * t_module) inlined
            bus = module.bus
            duration = int(round(n * t_module))
            busy = bus.busy_until
            start = tt if tt > busy else busy
            bus.wait_time += start - tt
            tt = start + duration
            bus.busy_until = tt
            bus.busy_time += duration
            bus.requests += 1
            extra = t_word - service_per_word
            if extra < 0.0:
                extra = 0.0
            completion = int(round(tt + n * extra))
            queue_delay = tt - (t + int(round(n * service_per_word)))
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
            outcome = None
        else:
            for _attempt in range(3):
                result = mmu.translate(aspace_id, vpage, write)
                t += int(round(result.cost))
                entry = result.entry
                if entry is not None:
                    break
                t = self._fault(vpage, write, t)
            else:
                raise ExecutionError(
                    f"cpu{proc} could not obtain a translation for vpage "
                    f"{vpage} (aspace {aspace_id}, write={write}) after "
                    "repeated faults"
                )
            outcome = machine.access(proc, entry.frame, n, write, t)
            completion = outcome.completion
            remote = outcome.remote
        cpage_index = entry.cpage_index
        if cpage_index is not None:
            coherent = kernel.coherent
            if remote and coherent.reference_counting:
                coherent.note_remote_access(cpage_index, proc, n)
            probe = coherent.access_probe
            if probe is not None:
                if outcome is None:
                    outcome = AccessOutcome(
                        completion=completion,
                        queue_delay=queue_delay,
                        remote=remote,
                        words=n,
                    )
                probe.note(cpage_index, proc, write, outcome)
        return completion, entry

    def _access_run(
        self, va: int, n: int, write: bool, t: int
    ) -> tuple[int, np.ndarray]:
        """Cost one within-page run starting at time ``t``.

        Returns (completion_time, view-of-frame-data).  The view is live
        frame data: callers read from or write into it at event time.
        """
        wpp = self.kernel.machine.params.words_per_page
        vpage, offset = divmod(va, wpp)
        if offset + n > wpp:
            raise ExecutionError("access run crosses a page boundary")
        t, entry = self._cost_run(vpage, n, write, t)
        return t, entry.frame.data[offset: offset + n]

    def _split_runs(self, va: int, n: int) -> list[tuple[int, int]]:
        if n <= 0:
            raise ExecutionError(f"access of {n} words at va {va}")
        if va < 0:
            raise ExecutionError(f"negative address {va}")
        wpp = self.kernel.machine.params.words_per_page
        if va % wpp + n <= wpp:
            return [(va, n)]
        runs = []
        while n > 0:
            offset = va % wpp
            take = min(n, wpp - offset)
            runs.append((va, take))
            va += take
            n -= take
        return runs

    def _do_read(self, op: ops.Read) -> None:
        t = self._begin()
        runs = self._split_runs(op.va, op.n)
        if len(runs) == 1:
            t, data = self._access_run(op.va, op.n, write=False, t=t)
            self._commit(t, data.copy())
            return
        out = np.empty(op.n, dtype=WORD_DTYPE)
        pos = 0
        for va, take in runs:
            t, data = self._access_run(va, take, write=False, t=t)
            out[pos: pos + take] = data
            pos += take
        self._commit(t, out)

    def _do_write(self, op: ops.Write) -> None:
        t = self._begin()
        if np.isscalar(op.value) or isinstance(op.value, (int, np.integer)):
            values = np.full(1, op.value, dtype=WORD_DTYPE)
        else:
            values = np.asarray(op.value, dtype=WORD_DTYPE)
        n = len(values)
        pos = 0
        for va, take in self._split_runs(op.va, n):
            t, data = self._access_run(va, take, write=True, t=t)
            data[:] = values[pos: pos + take]
            pos += take
        self._commit(t)

    def _do_test_and_set(self, op: ops.TestAndSet) -> None:
        t = self._begin()
        t, data = self._access_run(op.va, 1, write=True, t=t)
        old = int(data[0])
        data[0] = op.value
        self._commit(t, old)

    def _do_fetch_add(self, op: ops.FetchAdd) -> None:
        t = self._begin()
        t, data = self._access_run(op.va, 1, write=True, t=t)
        data[0] += op.delta
        self._commit(t, int(data[0]))

    # -- thread migration --------------------------------------------------------------

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


def _cpu_resource(kernel: Kernel, processor: int) -> FifoResource:
    """The kernel's cpu resource of ``processor``, created on first use."""
    res = kernel.cpu_resources.get(processor)
    if res is None:
        res = FifoResource(f"cpu[{processor}]")
        kernel.cpu_resources[processor] = res
    return res
