"""Stateful property testing of the coherency protocol.

A hypothesis rule-based state machine drives the live kernel through
arbitrary interleavings of faults, address-space activation changes,
defrost runs, and time passage, while checking after every step that

* every protocol invariant holds (the seven of ``repro.check``:
  directory/state agreement, replica byte-equality, reference-mask
  soundness, frame ownership, frozen pages, defrost and message
  queues), plus frame accounting;
* a shadow model of memory semantics agrees: reads through any
  processor's mapping see the latest shadow value.

This is the strongest correctness artifact in the suite: the protocol's
whole reachable state space is sampled, not just the scripted paths.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.policy.fixed import TimestampFreezePolicy
from repro.kernel.kernel import Kernel
from repro.machine.params import MachineParams
from repro.machine.pmap import Rights

N_PROCS = 4
N_PAGES = 3


class ProtocolMachine(RuleBasedStateMachine):
    @initialize()
    def boot(self):
        params = MachineParams(
            n_processors=N_PROCS, frames_per_module=16
        )
        self.kernel = Kernel(
            params=params,
            policy=TimestampFreezePolicy(t1=2_000_000),  # 2 ms: freezes
            defrost_enabled=False,
        )
        self.aspace = self.kernel.vm.create_address_space()
        self.cpages = []
        for vpage in range(N_PAGES):
            cpage = self.kernel.coherent.cpages.create(label=f"p{vpage}")
            self.kernel.coherent.map_page(
                self.aspace.asid, vpage, cpage, Rights.WRITE
            )
            self.cpages.append(cpage)
        self.active = set()
        for proc in range(N_PROCS):
            self.kernel.coherent.activate(self.aspace.asid, proc)
            self.active.add(proc)
        self.shadow = {}

    # -- rules -------------------------------------------------------------

    @rule(
        proc=st.integers(0, N_PROCS - 1),
        vpage=st.integers(0, N_PAGES - 1),
        write=st.booleans(),
        value=st.integers(0, 10_000),
    )
    def fault_and_access(self, proc, vpage, write, value):
        # an inactive processor must activate before touching the space
        if proc not in self.active:
            self.kernel.coherent.activate(self.aspace.asid, proc)
            self.active.add(proc)
        kernel = self.kernel
        kernel.fault(proc, self.aspace.asid, vpage, write,
                     kernel.engine.now)
        cmap = kernel.coherent.cmaps[self.aspace.asid]
        entry = cmap.pmap_for(proc).lookup(vpage)
        assert entry is not None and entry.rights.allows(write)
        if write:
            entry.frame.data[0] = value
            self.shadow[vpage] = value
        else:
            expected = self.shadow.get(vpage)
            if expected is not None:
                assert int(entry.frame.data[0]) == expected, (
                    f"cpu{proc} read stale data on page {vpage}"
                )

    @rule(proc=st.integers(0, N_PROCS - 1))
    def deactivate(self, proc):
        if proc in self.active and len(self.active) > 1:
            self.kernel.coherent.deactivate(self.aspace.asid, proc)
            self.active.discard(proc)

    @rule(ms=st.integers(1, 5))
    def pass_time(self, ms):
        engine = self.kernel.engine
        engine.run(until=engine.now + ms * 1_000_000)

    @rule()
    def defrost(self):
        self.kernel.coherent.defrost.run_once()

    # -- invariants ------------------------------------------------------------

    @invariant()
    def protocol_invariants_hold(self):
        if not hasattr(self, "kernel"):
            return
        self.kernel.check_invariants()

    @invariant()
    def frames_match_directories(self):
        if not hasattr(self, "kernel"):
            return
        allocated = sum(
            len(m.frames) - m.n_free for m in self.kernel.machine.modules
        )
        in_directories = sum(cp.n_copies for cp in self.cpages)
        assert allocated == in_directories

    @invariant()
    def frozen_pages_have_one_copy(self):
        if not hasattr(self, "kernel"):
            return
        for cpage in self.cpages:
            if cpage.frozen:
                assert cpage.n_copies == 1


ProtocolMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestProtocolStateMachine = ProtocolMachine.TestCase


class CheckedProtocolMachine(RuleBasedStateMachine):
    """Three nodes interleaving reads, writes, explicit freezes and
    defrost runs, with the full :mod:`repro.check` invariant sweep run
    after **every** step -- both hooked into every protocol action and
    asserted as a hypothesis invariant.

    Where :class:`ProtocolMachine` checks the complete global invariant
    set (single-writer, translation-copyset, frame-ownership,
    pmap-state, frozen-pages, defrost-queue, message-queue) between
    steps, through ``Kernel.check_invariants()``, this machine also
    checks it inside each step, after every protocol action.
    """

    N = 3

    @initialize()
    def boot(self):
        from repro.check import install_invariant_checker

        params = MachineParams(
            n_processors=self.N, frames_per_module=16
        )
        self.kernel = Kernel(
            params=params,
            policy=TimestampFreezePolicy(t1=2_000_000),
            defrost_enabled=False,
        )
        self.checker = install_invariant_checker(self.kernel.coherent)
        self.aspace = self.kernel.vm.create_address_space()
        self.cpages = []
        for vpage in range(N_PAGES):
            cpage = self.kernel.coherent.cpages.create(label=f"c{vpage}")
            self.kernel.coherent.map_page(
                self.aspace.asid, vpage, cpage, Rights.WRITE
            )
            self.cpages.append(cpage)
        self.active = set()
        for proc in range(self.N):
            self.kernel.coherent.activate(self.aspace.asid, proc)
            self.active.add(proc)
        self.shadow = {}

    # -- rules -------------------------------------------------------------

    @rule(
        proc=st.integers(0, N - 1),
        vpage=st.integers(0, N_PAGES - 1),
        write=st.booleans(),
        value=st.integers(0, 10_000),
    )
    def fault_and_access(self, proc, vpage, write, value):
        if proc not in self.active:
            self.kernel.coherent.activate(self.aspace.asid, proc)
            self.active.add(proc)
        kernel = self.kernel
        kernel.fault(proc, self.aspace.asid, vpage, write,
                     kernel.engine.now)
        cmap = kernel.coherent.cmaps[self.aspace.asid]
        entry = cmap.pmap_for(proc).lookup(vpage)
        assert entry is not None and entry.rights.allows(write)
        if write:
            entry.frame.data[0] = value
            self.shadow[vpage] = value
        else:
            expected = self.shadow.get(vpage)
            if expected is not None:
                assert int(entry.frame.data[0]) == expected, (
                    f"cpu{proc} read stale data on page {vpage}"
                )

    @rule(vpage=st.integers(0, N_PAGES - 1))
    def freeze(self, vpage):
        """An explicit policy freeze, legal only on single-copy pages."""
        cpage = self.cpages[vpage]
        if cpage.frozen or cpage.n_copies != 1:
            return
        self.kernel.coherent.policy.freeze(
            cpage, int(self.kernel.engine.now)
        )

    @rule(proc=st.integers(0, N - 1))
    def deactivate(self, proc):
        if proc in self.active and len(self.active) > 1:
            self.kernel.coherent.deactivate(self.aspace.asid, proc)
            self.active.discard(proc)

    @rule(ms=st.integers(1, 5))
    def pass_time(self, ms):
        engine = self.kernel.engine
        engine.run(until=engine.now + ms * 1_000_000)

    @rule()
    def defrost(self):
        self.kernel.coherent.defrost.run_once()

    # -- invariants --------------------------------------------------------

    @invariant()
    def every_global_invariant_holds(self):
        if not hasattr(self, "checker"):
            return
        self.checker.check()  # raises InvariantViolation


CheckedProtocolMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
TestCheckedProtocolStateMachine = CheckedProtocolMachine.TestCase
