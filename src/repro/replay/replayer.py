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
own :class:`~repro.runtime.executor.ThreadProcess` with the generator
swapped for a cursor over pre-decoded ops (memory operations already
split into per-page ``(vpage, words)`` runs): op start and completion
come from its ``_begin``/``_commit``, every run is priced by its
``_cost_run`` -- the same call a live read or write makes -- and the
threads are run by :func:`~repro.runtime.run.run_threads`, the driver of
live and recording runs too.  So the protocol path -- the thing being
studied -- is always the real kernel code, never an approximation.

Replays under a *variant* (different policy, freeze window, latency
constants) hold the recorded reference string fixed: spin iterations and
branch outcomes are the live run's.  Structural parameters that would
invalidate the recorded addresses (``page_bytes``, ``word_bytes``,
``n_processors``) cannot be overridden.

Two fidelity modes share that cursor.  ``mode="exact"`` (the default)
replays one engine event per op and is bit-identical to the live run
under the recording configuration.  ``mode="fast"`` asks, before each
op, whether a fault-free *window* starts there
(:meth:`FastReplayThreadProcess._window`); a stretch of mapped memory
references and thinks is then costed in one vectorized pass and
committed as one engine event, and only protocol events -- faults,
shootdowns, freezes, defrosts -- and synchronization take the shared
scalar path.  Fast mode alone owns the window costing, its precomputed
per-slot arrays and the pmap mirror that classifies a window.  It is
deterministic, conserves the reference string's word counts exactly,
and prices every access with the same latency constants, but
approximates three things: batched accesses do not contend for buses or
switch ports (no queueing delay), the ATC is treated as unbounded (no
refill cost), and a concurrent shootdown takes effect for a thread at
its next batch boundary rather than mid-stretch.  It therefore refuses
``check_expected``, probes and protocol tracing -- exactness claims
belong to exact mode.
"""

from __future__ import annotations

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
from ..runtime.run import run_threads
from ..runtime.sync import Broadcast
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

#: decoded-stream tag for a memory op pre-split into per-page runs
K_MEM = 10

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
    #: ops costed inside vectorized windows (fast mode only)
    batched_ops: int = 0
    #: vectorized windows committed (fast mode only)
    windows: int = 0

    @property
    def sim_time_ms(self) -> float:
        return self.sim_time_ns / 1e6

    def __repr__(self) -> str:
        return (
            f"<ReplayResult {self.sim_time_ms:.3f} ms "
            f"faults={self.report.total_faults}>"
        )


def _decode_stream(arr, wpp: int) -> list[tuple]:
    """Turn one (n, 4) op array into dispatch-ready tuples, splitting
    memory ops into per-page runs at the recording page size."""
    decoded: list[tuple] = []
    for kind, a, b, _c in arr.tolist():
        k = int(kind)
        if k in (K_READ, K_WRITE, K_RMW):
            va = int(a)
            n = 1 if k == K_RMW else int(b)
            vpage, offset = divmod(va, wpp)
            runs = []
            while n > 0:
                take = min(n, wpp - offset)
                runs.append((vpage, take))
                vpage += 1
                offset = 0
                n -= take
            decoded.append((K_MEM, k != K_READ, tuple(runs)))
        elif k in (K_THINK, K_DELAY):
            decoded.append((k, a))
        elif k == K_WAIT:
            decoded.append((k, int(a), int(b)))
        elif k in (K_FIRE, K_MIGRATE):
            decoded.append((k, int(a)))
        elif k == K_GETTIME:
            decoded.append((k,))
        else:
            raise ReplayError(f"unknown op kind {k} in trace stream")
    return decoded


def _fast_arrays(decoded: list[tuple]) -> dict:
    """Static per-op arrays for fast-mode windows.

    ``kind`` classifies each decoded op: 0 = pure delay on the issuing
    cpu (think, gettime), 1 = single-run memory reference, 2 = scalar
    only (sync, migrate, delay, page-crossing memory op).  ``nso[i]``
    is the index of the next scalar-only op at or after ``i``, so a
    window's stretch end is an O(1) lookup; the ``mcum``/``wcum``
    cumulative sums make a window's access and word counts O(1) too.
    Think slots carry vpage -1, which indexes the always-mapped
    sentinel column of the classification mirror.  Everything here
    depends only on the decode (recording page size), never on the
    variant.
    """
    m = len(decoded)
    kind = np.full(m, 2, dtype=np.uint8)
    vpage = np.full(m, -1, dtype=np.int64)
    nn = np.zeros(m, dtype=np.float64)
    wr = np.zeros(m, dtype=bool)
    for i, op in enumerate(decoded):
        k = op[0]
        if k == K_MEM:
            runs = op[2]
            if len(runs) == 1:
                kind[i] = 1
                vpage[i], take = runs[0]
                nn[i] = take
                wr[i] = op[1]
        elif k == K_THINK:
            kind[i] = 0
            nn[i] = op[1]
        elif k == K_GETTIME:
            kind[i] = 0
    scalar_idx = np.nonzero(kind == 2)[0]
    if m == 0 or len(scalar_idx) == 0:
        nso = np.full(m, m, dtype=np.int64)
    else:
        j = np.searchsorted(scalar_idx, np.arange(m))
        nso = np.where(
            j < len(scalar_idx),
            scalar_idx[np.minimum(j, len(scalar_idx) - 1)],
            m,
        ).astype(np.int64)
    mem = kind == 1
    nnz = np.where(mem, nn, 0.0)
    zero = np.zeros(1)
    return {
        "kind": kind, "vpage": vpage, "nn": nn, "wr": wr,
        "wri8": wr.astype(np.int8), "mem": mem, "nnz": nnz,
        "nso": nso,
        "mcum": np.concatenate([zero, np.cumsum(mem)]),
        "wcum": np.concatenate([zero, np.cumsum(nnz)]),
    }


class ReplayThreadProcess(ThreadProcess):
    """Drives one thread's decoded op stream instead of a generator.

    Only the cursor lives here: every op is timed by the executor's own
    ``_begin``/``_commit`` and every reference priced by its
    ``_cost_run``, so replay cannot drift from the live run.
    """

    __slots__ = ("ops", "pos", "channels")

    def __init__(self, kernel, thread, cpu, decoded, channels) -> None:
        super().__init__(kernel, thread, None, cpu)
        self.ops = decoded
        self.pos = 0
        self.channels = channels

    def _window(self, pos: int) -> bool:
        """Cost a stretch of ops starting at ``pos`` in one event and
        advance the cursor past it; exact mode never batches."""
        return False

    def _resume(self, value) -> None:
        # the generator is gone; step the cursor instead.  Fires, satisfied
        # waits and GetTime are synchronous in the live executor too, so
        # looping over them here keeps the engine-event structure identical.
        try:
            ops = self.ops
            n = len(ops)
            while True:
                pos = self.pos
                if pos >= n:
                    self._finish(result=None)
                    return
                if self._window(pos):
                    return
                op = ops[pos]
                self.pos = pos + 1
                k = op[0]
                if k == K_MEM:
                    t = self._begin()
                    write = op[1]
                    for vpage, words in op[2]:
                        t, _entry = self._cost_run(vpage, words, write, t)
                    self._commit(t)
                    return
                if k == K_THINK:
                    self._commit(self._begin() + op[1])
                    return
                if k == K_FIRE:
                    self.channels[op[1]].fire()
                    continue
                if k == K_WAIT:
                    ch = self.channels[op[1]]
                    if ch.version > op[2]:
                        continue  # the live path resumes synchronously
                    ch.event.wait(self._resume)
                    return
                if k == K_GETTIME:
                    continue
                if k == K_DELAY:
                    self.engine.schedule(op[1], self._wake)
                    return
                if k == K_MIGRATE:
                    self._migrate(op[1])
                    return
                raise ReplayError(f"unknown decoded op {op!r}")
        except Exception as exc:  # noqa: BLE001 - recorded, like a crash
            self._finish(error=exc)


class FastReplayThreadProcess(ReplayThreadProcess):
    """Array-at-a-time replay: one engine event per fault-free stretch.

    A *window* is a run of consecutive think/gettime ops and
    single-run memory references whose pages are mapped with
    sufficient rights in this processor's pmap.  The whole window is
    costed in one vectorized pass -- per-run latency math identical to
    the exact path, minus bus/port queueing -- and committed as a
    single engine event.  Anything else (faults, page-crossing runs,
    sync, migration) drops to the scalar machinery of the parent
    class, so the protocol path is still the real kernel code.

    Classification is a numpy mirror of the pmap (mapped rights and
    backing module per vpage), kept current by precise dirty-page
    deltas: every fault dirties the faulted page's cpage siblings
    (fault-handler mutations never leave the faulted cpage), a defrost
    action bumps a full-rebuild epoch, and a migration rebuilds the
    migrating thread's own mirror.  A shootdown therefore takes effect
    for a *batching* thread at its next window boundary -- the
    documented staleness of fast mode.

    Every window is costed in O(1) numpy work -- durations, word
    counts and module-counter contributions come from precomputed
    per-slot cumulative sums that assume local service -- and the rare
    slots referencing a remote-mapped page (words moved remotely are a
    fraction of a percent of the total) are then adjusted one by one
    in plain scalar arithmetic.  Module/bus counters accumulate in
    arrays and flush once at the end of the replay.
    """

    __slots__ = (
        "_kind", "_vpage", "_nn", "_wr", "_wri8",
        "_nso", "_mcum", "_wcum", "_shared", "_sibs", "_epoch",
        "_seen", "_cls", "_any_remote", "_hops", "_rns", "_rnm",
        "_rnmc",
        "_tword", "_dur_base", "_dbc", "_nmod", "_t_module",
        "_t_switch", "_acc_served", "_acc_count", "_acc_busy",
        "batched_ops", "windows",
    )

    def __init__(
        self, kernel, thread, cpu, decoded, channels, fast, nv, hops,
        shared, sibs,
    ) -> None:
        super().__init__(kernel, thread, cpu, decoded, channels)
        self._kind = fast["kind"]
        self._vpage = fast["vpage"]
        self._nn = fast["nn"]
        self._wr = fast["wr"]
        self._wri8 = fast["wri8"]
        self._nso = fast["nso"]
        self._mcum = fast["mcum"]
        self._wcum = fast["wcum"]
        t_module, t_switch, t_local, t_rr, t_rw = self._consts
        self._t_module = t_module
        self._t_switch = t_switch
        rint = np.rint
        nn = self._nn
        mem = fast["mem"]
        # variant-params-dependent slot costs, one vector pass each
        self._rns = rint(nn * t_switch)
        self._rnm = np.where(mem, rint(nn * t_module), 0.0)
        extra_local = t_local - t_module
        if extra_local < 0.0:
            extra_local = 0.0
        dur_local = self._rnm + np.where(
            mem, rint(nn * extra_local), 0.0)
        # per-slot duration assuming every reference is a local hit
        self._dur_base = np.where(
            mem, dur_local, np.where(self._kind == 0, nn, 0.0))
        zero = np.zeros(1)
        self._dbc = np.concatenate([zero, np.cumsum(self._dur_base)])
        self._rnmc = np.concatenate([zero, np.cumsum(self._rnm)])
        self._tword = np.where(self._wr, t_rw, t_rr)
        self._shared = shared
        self._sibs = sibs
        self._epoch = -1  # forces the initial full rebuild
        self._seen = 0
        # classification mirror, one gather classifies a window:
        # cls[w, v] = backing module if vpage v is mapped with
        # (write if w) rights, -2 if a reference must fault; column -1
        # is the always-ok sentinel (-1) that think slots index
        self._cls = np.full((2, nv + 1), -2, dtype=np.int64)
        self._any_remote = False
        self._hops = hops
        self._nmod = len(kernel.machine.modules)
        self._acc_served = np.zeros(self._nmod)
        self._acc_count = np.zeros(self._nmod)
        self._acc_busy = np.zeros(self._nmod)
        self.batched_ops = 0
        self.windows = 0

    def _fault(self, vpage: int, write: bool, t: int) -> int:
        t = super()._fault(vpage, write, t)
        # the fault mutated mappings machine-wide, but only for the
        # faulted page's cpage: dirty its sibling vpages everywhere
        self._shared["dirty"].extend(self._sibs.get(vpage, (vpage,)))
        return t

    def _migrate(self, processor: int) -> None:
        super()._migrate(processor)
        self._epoch = -1  # new cpu, new pmap: rebuild mirror

    def _full_rebuild(self) -> None:
        shared = self._shared
        cls = self._cls
        cls.fill(-2)
        cls[0, -1] = -1
        cls[1, -1] = -1
        pmap = self.kernel.machine.mmus[self.thread.processor].pmap_for(
            self.thread.aspace_id
        )
        proc = self.thread.processor
        any_remote = False
        if pmap is not None:
            for vp, entry in pmap._entries.items():
                mi = entry.frame.module_index
                cls[0, vp] = mi  # entries never carry Rights.NONE
                cls[1, vp] = mi if entry.rights == 3 else -2
                if mi != proc:
                    any_remote = True
        self._any_remote = any_remote
        self._epoch = shared["epoch"]
        self._seen = len(shared["dirty"])

    def _sync_cls(self) -> None:
        shared = self._shared
        if self._epoch != shared["epoch"]:
            self._full_rebuild()
            return
        dirty = shared["dirty"]
        seen = self._seen
        if seen == len(dirty):
            return
        pmap = self.kernel.machine.mmus[self.thread.processor].pmap_for(
            self.thread.aspace_id
        )
        lookup = pmap.lookup if pmap is not None else None
        cls = self._cls
        proc = self.thread.processor
        for vp in dirty[seen:]:
            entry = lookup(vp) if lookup is not None else None
            if entry is None:
                cls[0, vp] = -2
                cls[1, vp] = -2
            else:
                mi = entry.frame.module_index
                cls[0, vp] = mi
                cls[1, vp] = mi if entry.rights == 3 else -2
                if mi != proc:
                    self._any_remote = True
        self._seen = len(dirty)

    def _window(self, pos: int) -> bool:
        """Cost ops[pos:stretch-end] in one event; False if ops[pos]
        itself needs the scalar slow path."""
        if self._kind[pos] == 2:
            return False
        self._sync_cls()
        cls = self._cls
        wri8 = self._wri8
        vp = self._vpage
        # scalar pre-checks: a faulting first op or a one-op window is
        # cheaper on the parent's scalar path than as a numpy window
        if cls[wri8[pos], vp[pos]] == -2:
            return False
        stop = int(self._nso[pos])
        if stop - pos == 1:
            return False
        m = cls[wri8[pos:stop], vp[pos:stop]]
        if int(m.min()) == -2:  # a fault inside the stretch: truncate
            fb = int(np.argmax(m == -2))
            if fb == 0:
                return False
            stop = pos + fb
            m = m[:fb]
        proc = self.thread.processor
        machine = self.kernel.machine
        n_mem = int(self._mcum[stop] - self._mcum[pos])
        wtot = self._wcum[stop] - self._wcum[pos]
        # assume local service for the whole window (the precomputed
        # cumsums), then correct the rare remote-mapped slots
        total = self._dbc[stop] - self._dbc[pos]
        lw = wtot
        if n_mem:
            served = self._acc_served
            count = self._acc_count
            busy = self._acc_busy
            served[proc] += wtot
            count[proc] += n_mem
            busy[proc] += self._rnmc[stop] - self._rnmc[pos]
            machine.mmus[proc].atc.hits += n_mem
            rsel = (
                np.nonzero((m >= 0) & (m != proc))[0]
                if self._any_remote else ()
            )
            if len(rsel):
                t_mod = self._t_module
                t_sw = self._t_switch
                hrow = self._hops[proc]
                rw = rww = 0.0
                for i in rsel.tolist():
                    s = pos + i
                    mi = int(m[i])
                    h = hrow[mi]
                    w = float(self._nn[s])
                    rnm_i = float(self._rnm[s])
                    extra = float(self._tword[s]) - (t_mod + h * t_sw)
                    if extra < 0.0:
                        extra = 0.0
                    dur_r = (h * float(self._rns[s]) + rnm_i
                             + round(w * extra))
                    total += dur_r - float(self._dur_base[s])
                    rw += w
                    if self._wr[s]:
                        rww += w
                    served[proc] -= w
                    served[mi] += w
                    count[proc] -= 1
                    count[mi] += 1
                    busy[proc] -= rnm_i
                    busy[mi] += rnm_i
                lw = wtot - rw
                machine.remote_words[proc] += int(rw)
                machine.remote_write_words[proc] += int(rww)
        machine.local_words[proc] += int(lw)
        self.pos = stop
        self.windows += 1
        self.batched_ops += stop - pos
        self._commit(self._begin() + int(round(float(total))))
        return True

    def _flush_counters(self) -> None:
        """Apply the deferred module/bus counter accumulations."""
        machine = self.kernel.machine
        nmod = self._nmod
        served = self._acc_served
        count = self._acc_count
        busy = self._acc_busy
        for i in range(nmod):
            c = int(count[i])
            if not c:
                continue
            module = machine.modules[i]
            module.words_served += int(served[i])
            module.accesses_served += c
            bus = module.bus
            bus.busy_time += int(busy[i])
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
    check_invariants: bool = True,
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
    selects array-at-a-time cost accounting (see module docstring): much
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
    wpp = kernel.params.words_per_page
    # decoding depends only on the recording page size (structural
    # params cannot be overridden), so a variant sweep over one bundle
    # decodes once and shares the read-only streams
    decoded_streams = getattr(bundle, "_decoded", None)
    if decoded_streams is None:
        decoded_streams = [
            _decode_stream(arr, wpp) for arr in bundle.streams
        ]
        bundle._decoded = decoded_streams
    start = kernel.engine.now
    processes = []
    if mode == "fast":
        fast_streams = getattr(bundle, "_fast", None)
        if fast_streams is None:
            fast_streams = [_fast_arrays(d) for d in decoded_streams]
            bundle._fast = fast_streams
        # mirror arrays must cover every bindable vpage, not just the
        # traced ones: the fault handler may map neighbours
        nv = 1
        for asp in bundle.layout.get("aspaces", []):
            for b in asp["bindings"]:
                nv = max(nv, b["vpage_start"] + b["n_pages"] + 1)
        for fs in fast_streams:
            vp = fs["vpage"]
            if len(vp):
                nv = max(nv, int(vp.max()) + 1)
        # vpage -> every vpage backed by the same coherent page: a
        # fault's pmap mutations never leave the faulted cpage, so
        # these are exactly the mirror entries it can invalidate
        sibs = getattr(bundle, "_sibs", None)
        if sibs is None:
            obj_start = {
                o["oid"]: o["cpage_start"]
                for o in bundle.layout.get("objects", [])
            }
            by_cpage: dict[int, list] = {}
            for asp in bundle.layout.get("aspaces", []):
                for b in asp["bindings"]:
                    base = obj_start[b["oid"]] + b["obj_page_start"]
                    for i in range(b["n_pages"]):
                        by_cpage.setdefault(base + i, []).append(
                            b["vpage_start"] + i)
            sibs = {}
            for vps in by_cpage.values():
                group = tuple(sorted(set(vps)))
                for vp in group:
                    sibs[vp] = group
            bundle._sibs = sibs
        n_mod = len(kernel.machine.modules)
        topo = kernel.machine.topology
        hops = np.array(
            [[float(len(topo.route(s, d))) if s != d else 0.0
              for d in range(n_mod)] for s in range(n_mod)]
        )
        shared = {"dirty": [], "epoch": 0}
        # a defrost action invalidates an unknown set of mappings:
        # force full mirror rebuilds
        kernel.coherent.defrost.post_action_hooks.append(
            lambda: shared.__setitem__("epoch", shared["epoch"] + 1)
        )
        for thread, decoded, fs in zip(
            threads, decoded_streams, fast_streams
        ):
            cpu = _cpu_resource(kernel, thread.processor)
            processes.append(FastReplayThreadProcess(
                kernel, thread, cpu, decoded, channels, fs, nv, hops,
                shared, sibs,
            ))
    else:
        for thread, decoded in zip(threads, decoded_streams):
            cpu = _cpu_resource(kernel, thread.processor)
            processes.append(
                ReplayThreadProcess(kernel, thread, cpu, decoded,
                                    channels)
            )

    results = run_threads(
        kernel, processes, bundle.config.get("workload") or "replay",
        max_events, stall_limit_ns, error=ReplayError,
    )
    if mode == "fast":
        for proc in processes:
            proc._flush_counters()
    if check_invariants:
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
