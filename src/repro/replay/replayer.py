"""Re-simulate a recorded trace under any policy/machine variant.

The replayer rebuilds a kernel from the bundle's layout (same object,
address-space, thread and coherent-page identities -- ids are sequential
re-creations in recorded order) and drives one
:class:`ReplayThreadProcess` per recorded thread.  Each process issues the
*identical* sequence of translate / fault / access / migrate / fire /
wait calls the live run made, in the same engine-event structure, so a
replay under the recording configuration reproduces the live run's event
ordering, protocol event counts, attribution totals and completion time
exactly.  What is elided -- generator execution and data movement (the
machine is built *dataless*) -- carries no simulated cost.

Nothing is priced or timed here.  A replayed thread is the executor's
own :class:`~repro.runtime.executor.ThreadProcess` whose generator is a
cursor over pre-decoded executor ops -- ``Compute``, ``Delay``,
``Migrate``, ``GetTime`` and :class:`Runs`, a memory operation already
split into per-page ``(vpage, words)`` runs, each priced by
``_cost_run`` as a live reference is.  The executor's one op path starts,
costs and commits every op, and :func:`~repro.runtime.run.run_threads`
runs the threads, as live.  A channel fire runs inside the cursor where
the recorder logged it; a wait is yielded as the live ``WaitNewer``.  So
the protocol path -- the thing being studied -- is always the real
kernel code, never an approximation.

Replays under a *variant* (different policy, freeze window, latency
constants) hold the recorded reference string fixed: spin iterations and
branch outcomes are the live run's.  Structural parameters that would
invalidate the recorded addresses (``page_bytes``, ``word_bytes``,
``n_processors``) cannot be overridden.

Two fidelity modes share that op path.  ``mode="exact"`` (the default)
replays one engine event per op and is bit-identical to the live run
under the recording configuration.  ``mode="fast"`` has its own cursor,
which asks, before each op, whether a fault-free *window* starts there
(:meth:`FastReplayThreadProcess._window`); a stretch of mapped memory
references and thinks is then costed in one pass and yielded as one
``Compute``, and only protocol events -- faults, shootdowns, freezes,
defrosts -- and synchronization take the shared scalar path.  Fast mode
alone owns the window costing and its per-slot tables
(:class:`_SlotTable`); what is mapped it reads off the thread's live
pmap when a window starts, so it keeps no state the kernel could
invalidate.  It is deterministic, conserves the reference string's word
counts exactly, and prices every access with the same latency
constants, but approximates three things: batched accesses do not
contend for buses or switch ports (no queueing delay), the ATC is
treated as unbounded (no refill cost), and a concurrent shootdown takes
effect for a thread at its next batch boundary rather than mid-stretch.
It therefore refuses ``check_expected``, probes and protocol tracing --
exactness claims belong to exact mode.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from ..analysis.costmodel import run_counters
from ..core.instrumentation import MemoryReport
from ..kernel.kernel import Kernel
from ..machine.pmap import Rights
from ..point import point_kernel
from ..runtime.executor import ThreadProcess, _cpu_resource
from ..runtime.ops import Compute, GetTime, Migrate, WaitNewer
from ..runtime.run import run_threads
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
    ReplayError,
    TraceBundle,
    load_trace,
)

#: machine-parameter overrides that would invalidate the recorded
#: reference string (virtual addresses, run splits, processor ids)
_STRUCTURAL_PARAMS = ("page_bytes", "word_bytes", "n_processors")


@dataclass
class ReplayResult:
    """Everything measured in one replay."""

    kernel: Kernel
    sim_time_ns: int
    report: MemoryReport
    events_executed: int
    counters: dict
    thread_results: list
    probe: Any = None
    mode: str = "exact"
    #: ops costed inside windows (fast mode only)
    batched_ops: int = 0
    #: windows committed (fast mode only)
    windows: int = 0

    @property
    def sim_time_ms(self) -> float:
        return self.sim_time_ns / 1e6

    def __repr__(self) -> str:
        return (
            f"<ReplayResult {self.sim_time_ms:.3f} ms "
            f"faults={self.report.total_faults}>"
        )


@dataclass(slots=True, unsafe_hash=True)
class Runs(Op):
    """A recorded read (``write`` false), write or read-modify-write,
    pre-split into its per-page ``(vpage, words)`` runs at the
    recording page size: the replay op ``_cost_runs`` prices."""

    write: bool
    runs: tuple


def _decode_stream(index: int, arr, wpp: int) -> list:
    """Turn thread ``index``'s (n, 4) op array into the ops its cursor
    yields: executor ops, :class:`Runs`, and ``(K_FIRE, cid)`` /
    ``(K_WAIT, cid, seen)`` rows for the replay's channels.  An op no
    recording can hold -- unknown kind, operands that are not integers,
    a reference the live executor refuses (``check_access``: negative
    address, no words), a think or delay that is not finite and >= 0
    (live ``Compute`` and ``Engine.schedule`` refuse it) -- is a corrupt
    trace, reported here so that neither mode ever prices it."""
    decoded: list = []
    for j, (kind, a, b, _c) in enumerate(arr.tolist()):
        try:
            k = int(kind)
            if k != kind:
                raise ValueError(f"unknown op kind {kind!r}")
            if k in (K_READ, K_WRITE, K_RMW):
                words = 1 if k == K_RMW else b
                va, n = int(a), int(words)
                if va != a or va < 0:
                    raise ValueError(f"bad address {a!r}")
                if n != words or n <= 0:
                    raise ValueError(f"access of {words!r} words")
                vpage, offset = divmod(va, wpp)
                runs = []
                while n > 0:
                    take = min(n, wpp - offset)
                    runs.append((vpage, take))
                    vpage += 1
                    offset = 0
                    n -= take
                decoded.append(Runs(k != K_READ, tuple(runs)))
            elif k in (K_THINK, K_DELAY):
                what = "think" if k == K_THINK else "delay"
                if not 0 <= a < math.inf:  # NaN compares false
                    raise ValueError(f"{what} time {a!r} is not in [0, inf)")
                decoded.append(Compute(a) if k == K_THINK else Delay(a))
            elif k == K_WAIT:
                decoded.append((k, int(a), int(b)))
            elif k == K_FIRE:
                decoded.append((k, int(a)))
            elif k == K_MIGRATE:
                decoded.append(Migrate(int(a)))
            elif k == K_GETTIME:
                decoded.append(GetTime())
            else:
                raise ValueError(f"unknown op kind {k}")
        except (ValueError, OverflowError) as exc:  # int(nan), int(inf)
            raise ReplayError(f"stream {index} op {j}: {exc}") from None
    return decoded


def _decoded_streams(bundle: TraceBundle, wpp: int) -> list[list]:
    """The bundle's decoded streams, decoded once: decoding depends only
    on the recording page size (structural params cannot be overridden),
    so a variant sweep over one bundle shares the read-only result."""
    key = (wpp, *map(id, bundle.streams))
    cached = bundle._decoded
    if cached is None or cached[0] != key:
        decoded = [
            _decode_stream(i, arr, wpp)
            for i, arr in enumerate(bundle.streams)
        ]
        # holding the arrays keeps the ids in the key from being reused
        cached = bundle._decoded = (key, list(bundle.streams), decoded)
        bundle._slots = None
    return cached[2]


def _prefix(values) -> array:
    """Exclusive prefix sums of a per-slot vector, as plain doubles:
    ``p[j] - p[i]`` totals slots ``i .. j-1`` and indexing yields a
    Python float (8 bytes a slot, no numpy on the window path)."""
    sums = np.zeros(len(values) + 1)
    np.cumsum(values, out=sums[1:])
    return array("d", sums.tobytes())


#: slot codes of :class:`_SlotTable`
_S_FREE, _S_READ, _S_WRITE, _S_SCALAR = 0, 1, 2, 3


class _SlotTable:
    """One thread's decoded ops as fast mode sees them, built once per
    bundle.

    ``code[i]`` classifies op ``i``: ``_S_FREE`` is a pure delay on the
    issuing cpu (``Compute``, ``GetTime``), ``_S_READ``/``_S_WRITE`` a
    single-run memory reference to ``vpage[i]``, ``_S_SCALAR`` anything
    only the scalar path executes (sync, migrate, delay, page-crossing
    memory op); one ``_S_SCALAR`` past the end stops every walk.  ``wcum`` is
    the prefix sum of words referenced.  All of that depends only on
    the decode; the two prefix sums that depend on the variant's
    latency constants -- ``dbc`` (slot duration assuming a local hit)
    and ``rnmc`` (module busy time) -- are kept for the constants they
    were last built with, so a policy sweep shares them.
    """

    __slots__ = ("code", "vpage", "wcum", "_words", "_think", "_costs")

    def __init__(self, decoded: list) -> None:
        m = len(decoded)
        self.code = code = [_S_SCALAR] * (m + 1)
        # the vpage ints are the decoded tuples' own: 8 bytes a slot
        self.vpage = vpage = [None] * m
        self._words = words = np.zeros(m)
        self._think = think = np.zeros(m)
        for i, op in enumerate(decoded):
            cls = op.__class__
            if cls is Runs:
                if len(op.runs) == 1:
                    code[i] = _S_WRITE if op.write else _S_READ
                    vpage[i], words[i] = op.runs[0]
            elif cls is Compute:
                code[i] = _S_FREE
                think[i] = op.ns
            elif cls is GetTime:
                code[i] = _S_FREE
        self.wcum = _prefix(words)
        self._costs = None

    def costs(self, consts: tuple) -> tuple[array, array]:
        """``(dbc, rnmc)`` under the latency constants ``consts``
        (``ThreadProcess._consts``)."""
        if self._costs is None or self._costs[0] != consts:
            t_module, _t_switch, t_local, _t_rr, _t_rw = consts
            words = self._words
            rnm = words * t_module
            local = rnm + words * max(t_local - t_module, 0)
            self._costs = (
                consts, _prefix(local + self._think), _prefix(rnm))
        return self._costs[1], self._costs[2]


class ReplayThreadProcess(ThreadProcess):
    """Drives one thread's decoded op stream instead of a generator:
    only the cursor and the price of :class:`Runs` live here, so replay
    cannot drift from the live run."""

    __slots__ = ("ops", "channels")

    def __init__(self, kernel, thread, cpu, decoded, channels) -> None:
        super().__init__(kernel, thread, None, cpu)
        self.ops = decoded
        self.channels = channels
        self.gen = self._cursor()

    def _cursor(self):
        """The thread's generator: yields its recorded ops in order."""
        for op in self.ops:
            if op.__class__ is tuple:
                op = self._channel_op(op)
                if op is None:
                    continue
            yield op

    def _channel_op(self, row: tuple):
        """A recorded channel row: a fire runs now, where the recorder
        logged it (``None``); a wait is the ``WaitNewer`` the live thread
        yielded."""
        channel = self.channels[row[1]]
        if row[0] == K_FIRE:
            channel.fire()
            return None
        return WaitNewer(channel, row[2])

    def _cost_runs(self, op: Runs, start: int) -> tuple:
        write = op.write
        for vpage, words in op.runs:
            start, _entry = self._cost_run(vpage, words, write, start)
        return start, None

    _COSTS = {**ThreadProcess._COSTS, Runs: _cost_runs}


class FastReplayThreadProcess(ReplayThreadProcess):
    """Window-at-a-time replay: one engine event per fault-free stretch.

    A *window* is a run of consecutive think/gettime ops and
    single-run memory references whose pages are mapped with
    sufficient rights in this processor's pmap.  The whole window is
    costed in one pass -- per-run latency math identical to the exact
    path, minus bus/port queueing -- and yielded as a single
    ``Compute``.  Anything else (faults, page-crossing runs, sync,
    migration) drops to the scalar machinery of the parent class, so the
    protocol path is still the real kernel code.

    Classification is one lookup per memory slot in the thread's live
    pmap, made when the window starts: the page table is the only
    authority, so nothing has to be told about faults, defrost actions
    or migrations.  The window is then committed whole, so a shootdown
    that lands while it is in flight takes effect for this thread at
    its next window boundary -- the documented staleness of fast mode.

    Costing is O(1): durations, word counts and module busy time come
    from the slot table's prefix sums, which assume local service, and
    the slots that reference a remote-mapped page (few, unless the
    policy never caches) are then adjusted one by one.  Module/bus
    counters accumulate per process and flush once at the end of the
    replay.
    """

    __slots__ = (
        "_code", "_vpage", "_wcum", "_dbc", "_rnmc",
        "_acc_served", "_acc_count", "_acc_busy",
        "batched_ops", "windows",
    )

    def __init__(
        self, kernel, thread, cpu, decoded, channels, slots
    ) -> None:
        super().__init__(kernel, thread, cpu, decoded, channels)
        self._code = slots.code
        self._vpage = slots.vpage
        self._wcum = slots.wcum
        self._dbc, self._rnmc = slots.costs(self._consts)
        nmod = len(kernel.machine.modules)
        self._acc_served = [0.0] * nmod
        self._acc_count = [0] * nmod
        self._acc_busy = [0.0] * nmod
        self.batched_ops = 0
        self.windows = 0

    def _cursor(self):
        """The exact cursor, but each op is first offered to
        ``_window``: a window is yielded as one ``Compute``."""
        ops = self.ops
        pos, n = 0, len(ops)
        while pos < n:
            window = self._window(pos)
            if window is not None:
                pos, ns = window
                yield Compute(ns)
                continue
            op = ops[pos]
            pos += 1
            if op.__class__ is tuple:
                op = self._channel_op(op)
                if op is None:
                    continue
            yield op

    def _window(self, pos: int) -> Optional[tuple[int, int]]:
        """Cost ops[pos:stretch-end] in one pass: ``(stretch-end, ns)``,
        or None if ops[pos] itself needs the scalar path."""
        code = self._code
        # a scalar-only op, or a one-op stretch: the scalar path prices
        # a lone reference exactly, contention included
        if code[pos] == _S_SCALAR or code[pos + 1] == _S_SCALAR:
            return None
        thread = self.thread
        proc = thread.processor
        machine = self.kernel.machine
        pmap = machine.mmus[proc]._pmaps.get(thread.aspace_id)
        lookup = {}.get if pmap is None else pmap._entries.get
        vpage = self._vpage
        n_mem = 0
        remote = None
        stop = pos
        while True:
            c = code[stop]
            if c:
                if c == _S_SCALAR:
                    break
                entry = lookup(vpage[stop])
                # entries never carry Rights.NONE: 1 reads, 3 writes too
                if entry is None or (c == _S_WRITE and entry.rights != 3):
                    break  # this reference faults: the window ends here
                n_mem += 1
                mi = entry.frame.module_index
                if mi != proc:
                    if remote is None:
                        remote = []
                    remote.append((stop, mi))
            stop += 1
        if stop == pos:
            return None
        dbc = self._dbc
        total = dbc[stop] - dbc[pos]
        if n_mem:
            wcum = self._wcum
            rnmc = self._rnmc
            local = wtot = wcum[stop] - wcum[pos]
            served = self._acc_served
            count = self._acc_count
            busy = self._acc_busy
            served[proc] += wtot
            count[proc] += n_mem
            busy[proc] += rnmc[stop] - rnmc[pos]
            machine.mmus[proc].atc.hits += n_mem
            if remote is not None:
                t_mod, _t_sw, t_local, _t_rr, _t_rw = self._consts
                extra_local = max(t_local - t_mod, 0)
                ops = self.ops
                dests = self._dests[proc]
                rw = rww = 0
                for s, mi in remote:
                    op = ops[s]
                    write = op.write
                    ((_vp, w),) = op.runs
                    # the executor's costing constants for this module
                    cost = dests[mi] or self._destination(proc, mi)
                    per_word, extra_read, extra_write = cost[4:7]
                    rnm = w * t_mod
                    # what the slot costs remotely, less what the
                    # prefix sums charged for it as a local hit
                    total += w * (per_word - t_mod + (
                        extra_write if write else extra_read) - extra_local)
                    rw += w
                    if write:
                        rww += w
                    served[proc] -= w
                    served[mi] += w
                    count[proc] -= 1
                    count[mi] += 1
                    busy[proc] -= rnm
                    busy[mi] += rnm
                local = wtot - rw
                machine.remote_words[proc] += rw
                machine.remote_write_words[proc] += rww
            machine.local_words[proc] += int(local)
        self.windows += 1
        self.batched_ops += stop - pos
        # fractional think slots, approximate by design: rounded once
        return stop, int(round(total))

    def _flush_counters(self) -> None:
        """Apply the deferred module/bus counter accumulations."""
        modules = self.kernel.machine.modules
        for i, c in enumerate(self._acc_count):
            if not c:
                continue
            module = modules[i]
            module.words_served += int(self._acc_served[i])
            module.accesses_served += c
            bus = module.bus
            bus.busy_time += int(self._acc_busy[i])
            bus.requests += c


def _variant_spec(
    config: dict,
    policy: Optional[str],
    policy_args: Optional[dict],
    defrost: Optional[bool],
    defrost_period,
    params: Optional[dict],
) -> dict:
    """The recorded ``config`` with the variant overrides merged in: the
    point spec of the kernel to replay on (``None`` = as recorded)."""
    recorded = config.get("params")
    if not isinstance(recorded, dict):
        raise ReplayError("bundle has unusable machine params")
    forbidden = sorted(set(params or ()) & set(_STRUCTURAL_PARAMS))
    if forbidden:
        raise ReplayError(
            f"cannot override {', '.join(forbidden)}: the recorded "
            "reference string depends on them structurally"
        )
    spec = dict(config, params={**recorded, **(params or {})})
    if policy is not None:
        # a new policy starts from its own defaults, not the recorded args
        spec["policy"] = policy
        spec["policy_args"] = policy_args
    elif policy_args is not None:
        spec["policy_args"] = policy_args
    if defrost is not None:
        spec["defrost"] = defrost
    if defrost_period is not None:
        spec["defrost_period"] = defrost_period
    return spec


def _rebuild_layout(
    kernel: Kernel, layout: dict
) -> tuple[list[Broadcast], list]:
    vm = kernel.vm
    for obj_l in layout.get("objects", []):
        obj = vm.create_object(obj_l["n_pages"], label=obj_l["label"])
        if obj.oid != obj_l["oid"] or (
            obj.cpages[0].index != obj_l["cpage_start"]
        ):
            raise ReplayError(
                f"layout rebuild diverged at object {obj_l['oid']}"
            )
        for cpage, placement in zip(obj.cpages, obj_l["placement"]):
            cpage.placement_module = placement
    for asp_l in layout.get("aspaces", []):
        aspace = vm.create_address_space()
        if aspace.asid != asp_l["asid"]:
            raise ReplayError(
                f"layout rebuild diverged at aspace {asp_l['asid']}"
            )
        for b in asp_l["bindings"]:
            vm.bind(
                aspace,
                b["vpage_start"],
                vm.objects[b["oid"]],
                rights=Rights(b["rights"]),
                obj_page_start=b["obj_page_start"],
                n_pages=b["n_pages"],
            )
    channels = []
    for ch_l in layout.get("channels", []):
        ch = Broadcast(kernel.engine, ch_l["name"])
        ch.version = ch_l["base_version"]
        channels.append(ch)
    threads = []
    for t_l in layout.get("threads", []):
        thread = kernel.threads.spawn(
            t_l["asid"], t_l["processor"], name=t_l["name"]
        )
        if thread.tid != t_l["tid"]:
            raise ReplayError(
                f"layout rebuild diverged at thread {t_l['tid']}"
            )
        threads.append(thread)
    return channels, threads


def _verify_expected(result: ReplayResult, expected: dict) -> None:
    problems = []
    if result.sim_time_ns != expected.get("sim_time_ns"):
        problems.append(
            f"sim_time_ns: live {expected.get('sim_time_ns')} "
            f"vs replay {result.sim_time_ns}"
        )
    if result.events_executed != expected.get("events_executed"):
        problems.append(
            f"events_executed: live {expected.get('events_executed')} "
            f"vs replay {result.events_executed}"
        )
    for key, want in (expected.get("counters") or {}).items():
        got = result.counters.get(key)
        if got != want:
            problems.append(f"counters[{key}]: live {want} vs replay {got}")
    if problems:
        raise ReplayError(
            "replay diverged from the recording run under the recording "
            "configuration: " + "; ".join(problems)
        )


def replay_trace(
    bundle: Union[TraceBundle, str, Path],
    policy: Optional[str] = None,
    policy_args: Optional[dict] = None,
    defrost: Optional[bool] = None,
    defrost_period=None,
    params: Optional[dict] = None,
    trace: bool = False,
    metrics=False,
    probe: bool = False,
    dataless: bool = True,
    check_expected: bool = False,
    max_events: Optional[int] = None,
    stall_limit_ns: float = 30e9,
    mode: str = "exact",
) -> ReplayResult:
    """Re-simulate a trace bundle (or a path to one).

    With no overrides, the replay runs the recording configuration and --
    with ``check_expected=True`` -- is verified to reproduce the live
    run's completion time, event count and protocol counters exactly.
    ``policy``/``policy_args``/``defrost``/``defrost_period``/``params``
    select a variant; ``None`` means "as recorded".  ``mode="fast"``
    selects window-at-a-time cost accounting (see module docstring): much
    faster for policy sweeps, deterministic, but approximate on queueing
    and shootdown latency, so it cannot back exactness claims.
    """
    if mode not in ("exact", "fast"):
        raise ReplayError(f"unknown replay mode {mode!r}")
    if mode == "fast" and (check_expected or probe or trace or metrics):
        raise ReplayError(
            "fast mode is approximate: check_expected, probe, trace and "
            "metrics require mode='exact'"
        )
    if not isinstance(bundle, TraceBundle):
        bundle = load_trace(bundle)
    spec = _variant_spec(
        bundle.config, policy, policy_args, defrost, defrost_period, params
    )
    try:
        kernel = point_kernel(
            spec, trace=trace, metrics=metrics, dataless=dataless
        )
    except ValueError as exc:
        raise ReplayError(str(exc)) from None
    channels, threads = _rebuild_layout(kernel, bundle.layout)
    if len(threads) != len(bundle.streams):
        raise ReplayError(
            f"bundle has {len(bundle.streams)} op streams for "
            f"{len(threads)} threads"
        )
    probe_obj = None
    if probe:
        from ..profile import AccessProbe

        probe_obj = AccessProbe.install(kernel.coherent)
    decoded_streams = _decoded_streams(
        bundle, kernel.params.words_per_page)
    start = kernel.engine.now
    if mode == "fast":
        if bundle._slots is None:
            bundle._slots = [_SlotTable(d) for d in decoded_streams]
        processes = [
            FastReplayThreadProcess(
                kernel, thread, _cpu_resource(kernel, thread.processor),
                decoded, channels, slots)
            for thread, decoded, slots in zip(
                threads, decoded_streams, bundle._slots)
        ]
    else:
        processes = [
            ReplayThreadProcess(
                kernel, thread, _cpu_resource(kernel, thread.processor),
                decoded, channels)
            for thread, decoded in zip(threads, decoded_streams)
        ]

    results = run_threads(
        kernel, processes, bundle.config.get("workload") or "replay",
        max_events, stall_limit_ns, error=ReplayError,
    )
    if mode == "fast":
        for proc in processes:
            proc._flush_counters()
    kernel.check_invariants()
    result = ReplayResult(
        kernel=kernel,
        sim_time_ns=kernel.engine.now - start,
        report=kernel.report(),
        events_executed=int(kernel.engine.events_executed),
        counters={},
        thread_results=results,
        probe=probe_obj,
        mode=mode,
        batched_ops=sum(
            getattr(p, "batched_ops", 0) for p in processes),
        windows=sum(getattr(p, "windows", 0) for p in processes),
    )
    result.counters = run_counters(result)
    if check_expected:
        _verify_expected(result, bundle.expected)
    return result
