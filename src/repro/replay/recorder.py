"""Record one live run into a ``repro-trace/1`` bundle.

The recorder piggybacks on the normal execution path: each thread runs as
a :class:`RecordingThreadProcess` -- a :class:`ThreadProcess` that encodes
every operation its generator yields before executing it normally.  The
simulation is therefore bit-identical to an unrecorded run (the A/B suite
asserts this); recording only *observes*.

Two things need care beyond logging yielded ops:

* **Wakeup causality.**  Programs fire :class:`Broadcast` channels from
  plain Python inside their generators (lock releases, barrier arrivals)
  without yielding an operation, and waiter wakeups depend on channel
  versions.  A class-level hook on :meth:`Broadcast.fire` records each
  fire into the stream of the thread whose generator is currently
  executing, at its exact position between that thread's ops -- so replay
  fires the channel at the same logical point and every recorded
  ``WaitNewer`` sees the same version arithmetic.

* **Data-dependent control flow.**  Generators branch on values (a
  test-and-set result, a read of a flag page).  The trace does not store
  data; it stores the *reference string the branches produced*.  Replay
  under the recording configuration is exact; replay under a variant
  holds the reference string fixed -- the same approximation as the
  paper's cost model.  Operations whose control flow cannot be flattened
  this way (ports, raw event waits) raise :class:`RecordError`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..analysis.costmodel import run_counters
from ..point import point_kernel, point_program
from ..runtime import ops
from ..runtime.executor import ThreadProcess
from ..runtime.program import Program, ProgramAPI
from ..runtime.run import RunResult, run_threads
from ..runtime.sync import Broadcast
from ..sim.process import Delay, Op
from .bundle import (
    K_DELAY,
    K_FIRE,
    K_GETTIME,
    K_MIGRATE,
    K_READ,
    K_RMW,
    K_THINK,
    K_WAIT,
    K_WRITE,
    RecordError,
    TraceBundle,
)


class TraceRecorder:
    """Accumulates per-thread op streams and the broadcast-channel table."""

    def __init__(self) -> None:
        #: per-local-tid lists of (kind, a, b, c) rows
        self.streams: list[list[tuple]] = []
        #: local tid of the thread whose generator is currently executing
        self.current: Optional[int] = None
        #: id(channel) -> (cid, channel, base_version).  The channel object
        #: itself is held: if it were collected, id() could be reused by a
        #: new channel and silently alias two channels in the trace.
        self._channels: dict = {}
        self._channel_order: list = []
        self.errors: list[str] = []

    def add_thread(self) -> int:
        self.streams.append([])
        return len(self.streams) - 1

    def _channel_id(self, channel: Broadcast, fired: bool) -> int:
        entry = self._channels.get(id(channel))
        if entry is not None:
            return entry[0]
        cid = len(self._channel_order)
        # the fire hook runs after the version increment, so a channel
        # first seen firing was at version - 1 when recording started;
        # one first seen in a WaitNewer has had no recorded fires yet
        base = channel.version - 1 if fired else channel.version
        self._channels[id(channel)] = (cid, channel, base)
        self._channel_order.append((channel, base))
        return cid

    def note_fire(self, channel: Broadcast) -> None:
        """Broadcast.fire hook: log the fire inline in the current thread."""
        cid = self._channel_id(channel, fired=True)
        if self.current is None:
            self.errors.append(
                f"broadcast {channel.name!r} fired outside any recorded "
                "thread; the replayer has no position to fire it from"
            )
            return
        self.streams[self.current].append((K_FIRE, float(cid), 0.0, 0.0))

    def log_op(self, local_tid: int, op: Op) -> None:
        self.streams[local_tid].append(self._encode(op))

    def _encode(self, op: Op) -> tuple:
        if isinstance(op, ops.Compute):
            return (K_THINK, float(op.ns), 0.0, 0.0)
        if isinstance(op, ops.Read):
            return (K_READ, float(op.va), float(op.n), 0.0)
        if isinstance(op, ops.Write):
            if np.isscalar(op.value) or isinstance(
                op.value, (int, np.integer)
            ):
                n = 1
            else:
                n = len(np.asarray(op.value))
            return (K_WRITE, float(op.va), float(n), 0.0)
        if isinstance(op, (ops.TestAndSet, ops.FetchAdd)):
            # a one-word write run; the returned value steered the live
            # generator, whose chosen path is what the stream records
            return (K_RMW, float(op.va), 0.0, 0.0)
        if isinstance(op, ops.Migrate):
            return (K_MIGRATE, float(op.processor), 0.0, 0.0)
        if isinstance(op, ops.WaitNewer):
            cid = self._channel_id(op.channel, fired=False)
            return (K_WAIT, float(cid), float(op.seen), 0.0)
        if isinstance(op, ops.GetTime):
            return (K_GETTIME, 0.0, 0.0, 0.0)
        if isinstance(op, Delay):
            return (K_DELAY, float(op.ns), 0.0, 0.0)
        raise RecordError(
            f"operation {op!r} is not replayable: its outcome carries "
            "data-dependent control flow the trace cannot capture "
            "(ports and raw event waits)"
        )

    def channel_layout(self) -> list[dict]:
        return [
            {"cid": i, "name": ch.name, "base_version": base}
            for i, (ch, base) in enumerate(self._channel_order)
        ]

    def stream_arrays(self) -> list[np.ndarray]:
        # float64 keeps fractional Compute/Delay durations exact through
        # the round trip (and integers below 2**53, far beyond any va)
        return [
            np.array(s, dtype=np.float64).reshape(len(s), 4)
            for s in self.streams
        ]


class RecordingThreadProcess(ThreadProcess):
    """A ThreadProcess that logs each yielded op before executing it."""

    __slots__ = ("rec", "local_tid")

    def __init__(self, rec, local_tid, kernel, thread, body) -> None:
        super().__init__(kernel, thread, body)
        self.rec = rec
        self.local_tid = local_tid

    # generator execution happens inside _resume/_throw; mark this thread
    # current for its duration so fires from plain Python land in the
    # right stream.  Save/restore handles nested synchronous resumes
    # (a satisfied WaitNewer resumes the generator within interpret).

    def _resume(self, value) -> None:
        rec = self.rec
        prev = rec.current
        rec.current = self.local_tid
        try:
            super()._resume(value)
        finally:
            rec.current = prev

    def _throw(self, exc) -> None:
        rec = self.rec
        prev = rec.current
        rec.current = self.local_tid
        try:
            super()._throw(exc)
        finally:
            rec.current = prev

    def interpret(self, op: Op) -> None:
        # encode before executing: a non-replayable op aborts the recording
        # loudly instead of leaving a silently truncated stream
        self.rec.log_op(self.local_tid, op)
        super().interpret(op)


def _capture_layout(kernel, thread_specs) -> dict:
    """Snapshot the post-setup VM image.

    Replay rebuilds objects/address spaces/threads by re-issuing the same
    creation calls in recorded order; ids are sequential on a fresh
    kernel, so the guards below pin the identity assumptions.
    """
    vm = kernel.vm
    objects = []
    for oid in sorted(vm.objects):
        obj = vm.objects[oid]
        if oid != len(objects):
            raise RecordError(
                f"object ids not sequential from zero (saw {oid}); "
                "recording needs a fresh kernel"
            )
        indices = [c.index for c in obj.cpages]
        if indices != list(range(indices[0], indices[0] + len(indices))):
            raise RecordError(
                f"object {oid} has non-contiguous coherent pages"
            )
        objects.append({
            "oid": oid,
            "label": obj.label,
            "n_pages": obj.n_pages,
            "cpage_start": indices[0],
            "placement": [c.placement_module for c in obj.cpages],
        })
    aspaces = []
    for asid in sorted(vm.aspaces):
        aspace = vm.aspaces[asid]
        if asid != len(aspaces):
            raise RecordError(
                f"address-space ids not sequential from zero (saw {asid})"
            )
        aspaces.append({
            "asid": asid,
            "bindings": [
                {
                    "vpage_start": b.vpage_start,
                    "n_pages": b.n_pages,
                    "oid": b.obj.oid,
                    "obj_page_start": b.obj_page_start,
                    "rights": int(b.rights),
                }
                for b in aspace.bindings
            ],
        })
    threads = []
    for i, spec in enumerate(thread_specs):
        t = spec.thread
        if t.tid != i:
            raise RecordError(
                f"thread ids not sequential from zero (saw {t.tid})"
            )
        threads.append({
            "tid": t.tid,
            "asid": t.aspace_id,
            "processor": t.processor,
            "name": t.name,
        })
    return {"objects": objects, "aspaces": aspaces, "threads": threads}


def record_program(
    kernel,
    program: Program,
    config: Optional[dict] = None,
    max_events: Optional[int] = None,
    stall_limit_ns: float = 30e9,
) -> tuple[TraceBundle, RunResult]:
    """Run ``program`` on ``kernel`` (as ``run_program`` would) while
    recording a trace bundle.  Returns ``(bundle, result)``.

    ``config`` carries replay-relevant provenance the kernel object cannot
    answer for itself (workload name/args, policy name, defrost flags);
    :func:`record_spec` fills it from a point spec.  The resolved
    machine parameters are always captured from the kernel.
    """
    if Broadcast.recorder is not None:
        raise RecordError("another recording is already in progress")
    if (
        kernel.engine.now != 0
        or kernel.vm._next_oid
        or kernel.vm._next_asid
        or kernel.threads._next_tid
    ):
        raise RecordError(
            "recording needs a fresh kernel: replay rebuilds the layout "
            "by re-issuing creations with sequential ids from zero"
        )
    api = ProgramAPI(kernel)
    program.setup(api)
    if not api.thread_specs:
        raise ValueError(f"{program.name}: setup spawned no threads")
    layout = _capture_layout(kernel, api.thread_specs)
    rec = TraceRecorder()
    start = kernel.engine.now
    processes = [
        RecordingThreadProcess(
            rec, rec.add_thread(), kernel, spec.thread, spec.body)
        for spec in api.thread_specs
    ]
    # install the fire hook only now: setup-time fires are part of each
    # channel's base version, not of any thread's stream
    Broadcast.recorder = rec
    try:
        results = run_threads(
            kernel, processes, program.name, max_events, stall_limit_ns
        )
    finally:
        Broadcast.recorder = None
    kernel.check_invariants()
    program.verify(results)
    if rec.errors:
        raise RecordError(rec.errors[0])
    result = RunResult(
        program=program,
        kernel=kernel,
        sim_time_ns=kernel.engine.now - start,
        thread_results=results,
        report=kernel.report(),
    )
    layout["channels"] = rec.channel_layout()
    full_config = {
        "workload": getattr(program, "name", ""),
        "args": {},
        "machine": kernel.params.n_processors,
        "policy": None,
        "policy_args": {},
        "defrost": True,
        "defrost_period": None,
    }
    if config:
        full_config.update(config)
    full_config["params"] = kernel.params.to_dict()
    expected = {
        "sim_time_ns": int(result.sim_time_ns),
        "events_executed": int(kernel.engine.events_executed),
        "n_threads": len(processes),
        "counters": run_counters(result),
    }
    bundle = TraceBundle(
        config=full_config,
        layout=layout,
        expected=expected,
        streams=rec.stream_arrays(),
    )
    return bundle, result


def record_spec(spec: dict) -> tuple[TraceBundle, RunResult]:
    """Record the run described by a ``{"kind": "run"}`` point spec."""
    if spec.get("kind", "run") != "run":
        raise RecordError(
            f"cannot record point kind {spec.get('kind')!r}; only full "
            "program runs have a reference string"
        )
    if spec.get("system", "platinum") != "platinum" or spec.get(
        "competitive"
    ):
        raise RecordError(
            "recording supports plain PLATINUM kernels only (baseline "
            "systems use ports or different executors)"
        )
    kernel = point_kernel(spec)
    program = point_program(spec)
    config = {
        "workload": spec.get("workload", ""),
        "args": dict(spec.get("args", {})),
        "machine": spec.get("machine", 16),
        "policy": spec.get("policy"),
        "policy_args": dict(spec.get("policy_args", {}) or {}),
        "defrost": bool(spec.get("defrost", True)),
        "defrost_period": spec.get("defrost_period"),
    }
    return record_program(kernel, program, config=config)
