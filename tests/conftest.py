"""Shared fixtures and helpers for the PLATINUM test suite."""

from __future__ import annotations

import dataclasses
import faulthandler
import hashlib
import os
import pickle
import sys
from contextlib import contextmanager

import pytest

from repro.doc import compact
from repro.policy.fixed import (
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    TimestampFreezePolicy,
)
from repro.kernel.kernel import Kernel
from repro.machine.params import MachineParams
from repro.machine.pmap import Rights
from repro.telemetry.sampler import SimTimeSampler


class ActionLog:
    """A recording observer (``repro.core.trace.Observers``): what each
    fault ended in and waited, and each shootdown's cost and target
    masks, as the protocol published them."""

    def __init__(self) -> None:
        #: ``(action, end, wait)`` per fault, in order
        self.faults: list[tuple] = []
        #: ``(cost, interrupted, deferred, hits)`` per shootdown
        self.shootdowns: list[tuple] = []

    def fault(self, now, cpage, proc, write, eid, action, end, wait,
              *rest) -> None:
        self.faults.append((action, end, wait))

    def shootdown(self, now, cpage, directive, initiator, cause, cost,
                  interrupted, deferred, hits) -> None:
        self.shootdowns.append((cost, interrupted, deferred, hits))

    def transfer(self, *args) -> None:
        pass

    apply_pending = thaw = defrost_run = transfer


@contextmanager
def observing(kernel: Kernel):
    """An :class:`ActionLog` on the kernel's observer list for the
    block: only then does the protocol publish to it."""
    log = ActionLog()
    observers = kernel.coherent.observers
    observers.append(log)
    try:
        yield log
    finally:
        observers.remove(log)


def bits(mask: int) -> list[int]:
    """The processors of a mask, lowest first."""
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


# -- the machine's state ------------------------------------------------------


def machine_state(kernel: Kernel) -> dict:
    """The valuation of every location of the simulated machine, as
    JSON data: the only spelling of one (DESIGN.md section 5, "The
    machine's state").  Order is kept where the machine reads it (ATC
    LRU order, queues, free lists, a Cpage's bindings); dicts it only
    looks up in are sorted.  Frame contents count only where frames
    carry data; observers and host-only caches are not locations."""
    machine, coherent, engine = kernel.machine, kernel.coherent, kernel.engine
    modules, rows = machine.modules, machine.interrupts.state
    xfer, shootdown, rng = machine.xfer, coherent.shootdown, engine._tie_rng
    state = {
        "cpages": [{
            "label": c.label, "home_module": c.home_module,
            "placement_module": c.placement_module, "state": c.state.value,
            "directory": [[m, f.frame_index]
                          for m, f in sorted(c.frames.items())],
            "has_write_mapping": c.has_write_mapping,
            "last_invalidation": c.last_invalidation, "frozen": c.frozen,
            "frozen_at": c.frozen_at, "thaw_exempt": c.thaw_exempt,
            "handler_busy_until": c.handler_busy_until,
            "bindings": [list(b) for b in c.bindings],
            "stats": list(vars(c.stats).values()),
        } for c in coherent.cpages],
        "frozen_list": [c.index for c in coherent.policy.frozen_pages],
        # what the policy and the daemons decide later freezes, thaws
        # and moves by (a sampler is an observer)
        "policy": _fields(coherent.policy),
        "daemons": [_fields(d) for d in [coherent.defrost, *coherent.daemons]
                    if not isinstance(d, SimTimeSampler)],
        # an entry's Cpage is spelled by the Cpage's bindings
        "cmaps": {str(asid): {
            "vm_rights": {str(v): int(e.vm_rights)
                          for v, e in sorted(cmap.entries.items())},
            "ref_masks": {str(v): e.ref_mask
                          for v, e in sorted(cmap.entries.items())},
            "active_mask": cmap.active_mask,
            "queue": [[m.vpage, m.directive.value, int(m.rights),
                       m.target_mask, m.posted_at] for m in cmap.messages],
            "posted": cmap.messages_posted,
            "applied": cmap.messages_applied,
            "pmaps": {str(proc): [_pentry(e) for e in sorted(
                pmap._entries.values(), key=lambda e: e.vpage)]
                for proc, pmap in sorted(cmap._pmaps.items())},
        } for asid, cmap in sorted(coherent.cmaps.items())},
        "mmus": [{
            "attached": sorted(mmu._pmaps),
            "atc": [[list(key), _pentry(e)]
                    for key, e in mmu.atc._entries.items()],
            "hits": mmu.atc.hits, "misses": mmu.atc.misses,
            "flushes": mmu.atc.flushes, "faults": mmu.faults,
        } for mmu in machine.mmus],
        "busy_until": [s.busy_until for s in rows],
        "interrupts": [[s.pending_penalty, s.ipis_received, s.ipis_sent]
                       for s in rows],
        "resources": [
            [r.name, r.busy_until, r.busy_time, r.wait_time, r.requests]
            for r in [m.bus for m in modules]
            + machine.topology.all_resources()],
        "modules": [[m.n_free, m.alloc_count, m.free_count, ipt.probe_count,
                     sorted(ipt._by_cpage.items())]
                    for m, ipt in zip(modules, machine.ipts)],
        "free_lists": [_digest(pickle.dumps(m._free)) for m in modules],
        "words": [list(machine.local_words), list(machine.remote_words),
                  list(machine.remote_write_words),
                  list(machine.queue_delay_ns),
                  [[m.words_served, m.accesses_served] for m in modules]],
        "xfer": [xfer.transfer_count, xfer.words_transferred,
                 xfer.total_busy_time],
        "shootdown": [shootdown.shootdowns, shootdown.total_interrupted,
                      shootdown.total_deferred],
        "fault_count": coherent.fault_handler.fault_count,
        # each pending event as (when, seq, qualname); the ready deque's
        # are due now and keep no seq
        "engine": {
            "now": engine.now, "scheduled": engine._seq,
            "queue": [[when, seq, _qualname(fn)]
                      for when, seq, fn in sorted(engine._queue)],
            "ready": [_qualname(fn) for fn in engine._ready],
            "ties": None if rng is None
            else _digest(pickle.dumps(rng.getstate())),
        },
    }
    if not modules[0].dataless:
        state["frames"] = {
            "copies": [[m.index, f.frame_index, _digest(f.data.tobytes())]
                       for m in modules for f in filter(None, m.frames._items)
                       if f.allocated],
            "backing": [[c.index, _digest(c.backing.tobytes())]
                        for c in coherent.cpages if c.backing is not None],
        }
    return state


def state_digest(kernel: Kernel) -> str:
    """sha256 of the machine's state, spelled by ``repro.doc.compact``."""
    return hashlib.sha256(compact(machine_state(kernel)).encode()).hexdigest()


def _pentry(entry) -> list:
    return [entry.vpage, entry.frame.module_index, entry.frame.frame_index,
            int(entry.rights), entry.remote, entry.cpage_index,
            entry.referenced, entry.modified]


def _fields(obj) -> list:
    """An object's class and data fields: scalars, and sets and dicts
    of them, sorted.  Its references to other parts (the frozen list,
    observers) are spelled where those parts are."""
    fields = {}
    for name, value in vars(obj).items():
        if isinstance(value, (set, dict)):
            value = sorted(value.items() if isinstance(value, dict) else value)
        elif not isinstance(value, (bool, int, float, str, type(None))):
            continue
        fields[name] = value
    return [type(obj).__qualname__, fields]


def _qualname(fn) -> str:
    return getattr(fn, "__qualname__", type(fn).__qualname__)


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


@dataclasses.dataclass
class ProtocolHarness:
    """A kernel plus one mapped Cpage, with helpers to drive faults.

    Mirrors the setup the section 4 microbenchmarks use: a single-page
    memory object mapped read-write into one address space that is active
    on every processor.
    """

    kernel: Kernel
    aspace_id: int
    vpage: int
    cpage: object

    @property
    def machine(self):
        return self.kernel.machine

    def settle(self, gap_ns: float = 20e6) -> None:
        engine = self.kernel.engine
        engine.run(until=engine.now + gap_ns)

    def fault(self, proc: int, write: bool, settle: bool = True) -> str:
        """Fault from ``proc``; returns the action the handler took."""
        if settle:
            self.settle()
        now = self.kernel.engine.now
        with observing(self.kernel) as log:
            self.kernel.fault(proc, self.aspace_id, self.vpage, write, now)
        return log.faults[-1][0]

    def latency(self, proc: int, write: bool) -> float:
        self.settle()
        now = self.kernel.engine.now
        end = self.kernel.fault(proc, self.aspace_id, self.vpage, write, now)
        return float(end - now)

    def pmap_entry(self, proc: int):
        cmap = self.kernel.coherent.cmaps[self.aspace_id]
        pmap = cmap.pmap_for(proc)
        return pmap.lookup(self.vpage) if pmap is not None else None

    def cmap_entry(self, proc: int = 0):
        return self.kernel.coherent.cmaps[self.aspace_id].lookup(self.vpage)


def make_harness(
    policy="always",
    n_processors: int = 4,
    home_module: int = 0,
    rights: Rights = Rights.WRITE,
    defrost_enabled: bool = False,
    **param_overrides,
) -> ProtocolHarness:
    """Build a ProtocolHarness with the given replication policy."""
    policies = {
        "always": AlwaysReplicatePolicy,
        "never": NeverCachePolicy,
        "freeze": TimestampFreezePolicy,
    }
    params = MachineParams(n_processors=n_processors).scaled(
        **param_overrides
    )
    kernel = Kernel(
        params=params,
        policy=policies[policy]() if isinstance(policy, str) else policy,
        defrost_enabled=defrost_enabled,
    )
    cpage = kernel.coherent.cpages.create(
        home_module=home_module, label="test"
    )
    aspace = kernel.vm.create_address_space()
    kernel.coherent.map_page(aspace.asid, 0, cpage, rights)
    for proc in range(params.n_processors):
        kernel.coherent.activate(aspace.asid, proc)
    return ProtocolHarness(kernel, aspace.asid, 0, cpage)


@pytest.fixture
def harness():
    return make_harness()


@pytest.fixture
def freeze_harness():
    return make_harness(policy="freeze")


# -- the generated-workload corpus --------------------------------------------


#: corpus seeds the cross-suite fixture parametrizes over: one plain
#: sharing spec and one false-sharing injector (seed 102), so every
#: suite using the fixture covers both regimes
GENERATED_FIXTURE_SEEDS = (100, 102)


@pytest.fixture(params=GENERATED_FIXTURE_SEEDS,
                ids=lambda s: f"gen-seed{s}")
def generated_workload(request):
    """A generated workload: ``(spec, make_program)``.

    ``make_program()`` returns a *fresh* Program instance each call, so
    suites that run the same spec twice (determinism A/B, record then
    replay) never share generator state between runs.
    """
    from repro.workloads import GeneratedWorkload, generate_spec

    spec = generate_spec(request.param, "smoke")
    return spec, lambda: GeneratedWorkload(spec)


# -- optional suite-wide invariant checking -----------------------------------


def pytest_addoption(parser):
    parser.addoption(
        "--check-invariants",
        action="store_true",
        default=False,
        help="hook the repro.check global coherence invariant checker "
        "into every coherent memory system the suite builds, so every "
        "protocol action in every test is invariant-checked",
    )


def _patch_invariant_install(monkeypatch):
    """Make every CoherentMemorySystem built while patched self-install
    the invariant checker as a post-action protocol hook."""
    from repro.check import install_invariant_checker
    from repro.core.coherent_memory import CoherentMemorySystem

    original = CoherentMemorySystem.__init__

    def patched(self, *args, **kwargs):
        original(self, *args, **kwargs)
        install_invariant_checker(self)

    monkeypatch.setattr(CoherentMemorySystem, "__init__", patched)


@pytest.fixture(autouse=True)
def _suite_invariant_checking(request, monkeypatch):
    if request.config.getoption("--check-invariants"):
        _patch_invariant_install(monkeypatch)
    yield


# -- a watchdog for hung tests ------------------------------------------------

#: seconds one phase of a test (set-up, call, teardown) may take before
#: the watchdog prints every thread's stack and ends the run, so a hang
#: fails with a traceback instead of holding the job.  The slowest test
#: takes about 2 s (15 s under --check-invariants): only a hang gets
#: near it.
WATCHDOG_S = 120

_WATCHDOG_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # the session's stderr, taken before any test captures it: a dump
    # into a test's captured output would be lost with the process
    config.stash[_WATCHDOG_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_WATCHDOG_FD])


def _watched(item):
    """Arm the watchdog around one phase of ``item``.  Each phase arms
    it anew: pytest's own faulthandler plugin cancels it when a phase
    fails, which would leave that test's teardown unwatched."""
    faulthandler.dump_traceback_later(
        WATCHDOG_S, exit=True, file=item.config.stash[_WATCHDOG_FD])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _watched(item)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _watched(item)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    yield from _watched(item)
