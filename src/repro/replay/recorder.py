"""Record one live run into a ``repro-trace/1`` bundle.

The recorder piggybacks on the normal execution path: each thread runs as
a plain :class:`ThreadProcess` over its body wrapped by :func:`_recorded`,
which encodes every operation the body yields before the executor runs
it normally.  The simulation is therefore bit-identical to an unrecorded
run (the A/B suite asserts this); recording only *observes*.

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

from array import array
from typing import Optional

import numpy as np

from ..analysis.costmodel import run_counters
from ..point import plain_platinum, point_kernel, point_program
from ..runtime import ops
from ..runtime.executor import ThreadProcess, write_words
from ..runtime.program import Program, ProgramAPI
from ..runtime.run import RunResult, run_threads
from ..runtime.sync import Broadcast
from ..sim.process import Delay, Op, ProcessCrashed
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
        #: per-local-tid (kind, a, b, c) rows, four doubles (32 B) an op
        self.streams: list[array] = []
        #: local tid of the thread whose generator is currently executing
        self.current: Optional[int] = None
        #: id(channel) -> (cid, channel, base_version), in cid order.  The
        #: channel object itself is held: if it were collected, id() could
        #: be reused by a new channel and silently alias two channels.
        self._channels: dict = {}
        self.errors: list[str] = []

    def add_thread(self) -> int:
        self.streams.append(array("d"))
        return len(self.streams) - 1

    def _channel_id(self, channel: Broadcast, fired: bool) -> int:
        entry = self._channels.get(id(channel))
        if entry is not None:
            return entry[0]
        cid = len(self._channels)
        # the fire hook runs after the version increment, so a channel
        # first seen firing was at version - 1 when recording started;
        # one first seen in a WaitNewer has had no recorded fires yet
        base = channel.version - 1 if fired else channel.version
        self._channels[id(channel)] = (cid, channel, base)
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
        self.streams[self.current].extend((K_FIRE, cid, 0.0, 0.0))

    def _encode(self, op: Op) -> tuple:
        if isinstance(op, ops.Compute):
            return (K_THINK, float(op.ns), 0.0, 0.0)
        if isinstance(op, ops.Read):
            return (K_READ, float(op.va), float(op.n), 0.0)
        if isinstance(op, ops.Write):  # the words the executor stores
            return (K_WRITE, float(op.va), write_words(op.value).size, 0.0)
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
            for i, ch, base in self._channels.values()
        ]

    def stream_arrays(self) -> list[np.ndarray]:
        # float64 keeps fractional durations and integers below 2**53
        # exact; each array views its doubles (an empty one is not viewed)
        return [
            np.frombuffer(s, np.float64).reshape(-1, 4) if s
            else np.zeros((0, 4)) for s in self.streams
        ]


def _recorded(rec: TraceRecorder, tid: int, body):
    """Wrap ``body`` for recording: each op it yields is logged, then
    yielded.

    ``rec.current`` is ``tid`` while ``body`` runs (and restored after),
    so a fire from plain Python lands in this thread's stream; the
    executor runs the ops outside it, as for any ``ThreadProcess``, on
    the fused ``OpProcess._wake``.  A non-replayable op raises
    ``RecordError`` before it runs, so the recording aborts loudly
    instead of leaving a silently truncated stream.  Whatever the
    executor throws goes into ``body``.
    """
    value, error = None, None
    stream, encode = rec.streams[tid], rec._encode
    while True:
        prev, rec.current = rec.current, tid
        try:
            op = body.send(value) if error is None else body.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.current = prev
        stream.extend(encode(op))  # logged before it runs
        try:
            value, error = (yield op), None
        except BaseException as exc:  # noqa: BLE001 - thrown into body
            value, error = None, exc


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
        ThreadProcess(kernel, spec.thread,
                      _recorded(rec, rec.add_thread(), spec.body))
        for spec in api.thread_specs
    ]
    # install the fire hook only now: setup-time fires are part of each
    # channel's base version, not of any thread's stream
    Broadcast.recorder = rec
    try:
        results = run_threads(
            kernel, processes, program.name, max_events, stall_limit_ns
        )
    except ProcessCrashed as crash:
        if isinstance(crash.__cause__, RecordError):
            raise crash.__cause__ from None
        raise
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
    if not plain_platinum(spec):
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
