"""Shared fixtures and helpers for the PLATINUM test suite."""

from __future__ import annotations

import faulthandler
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from repro.policy.fixed import (
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    TimestampFreezePolicy,
)
from repro.kernel.kernel import Kernel
from repro.machine.params import MachineParams
from repro.machine.pmap import Rights


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


@dataclass
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
