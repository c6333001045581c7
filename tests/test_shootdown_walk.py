"""Differential test: the shootdown walks only the reference mask's set bits.

``ShootdownMechanism._shoot_one`` visits the set bits of each mask
lowest first (``bit = mask & -mask``) and applies
``InterruptController.send_ipi`` in place.  The walk they
replaced -- every processor number up to the highest set bit, one
shift at a time, with a ``send_ipi`` call per target -- lives on here as
the reference.  Twin machines get the same random address space
(reference masks with holes, stale bits, the initiator among the
holders, inactive targets, translations on several modules, ATC copies)
and the same directive, one through each walk, and must agree on the
whole machine state and the metrics afterwards.
"""

import random

import numpy as np
import pytest

from repro.core.cmap import CmapEntry, CmapMessage, Directive
from repro.core.shootdown import ShootdownMechanism
from repro.kernel.kernel import Kernel
from repro.machine.memory import WORD_DTYPE, Frame
from repro.machine.params import MachineParams
from repro.machine.pmap import PmapEntry, Rights

from tests.conftest import machine_state

N_PROCESSORS = 12
VPAGES = (3, 4, 9)


class ReferenceShootdown(ShootdownMechanism):
    """The bit-by-bit walk, as it was spelled before; it notes, per
    call, whether any translation matched."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.found: list[bool] = []

    def _shoot_one(self, cmap, entry, directive, rights, initiator, now,
                   modules):
        vpage = entry.vpage
        invalidate = directive is Directive.INVALIDATE
        key = (cmap.aspace_id, vpage)
        pmaps = cmap._pmaps
        active = cmap.active_mask
        mmus = self.machine.mmus
        send_ipi = self.machine.interrupts.send_ipi
        ipi_cost = self.machine.params.ipi_target_cost
        found = False
        interrupted = deferred = 0
        mask = entry.ref_mask
        proc = 0
        while mask:
            if mask & 1:
                bit = 1 << proc
                pmap = pmaps.get(proc)
                pentry = pmap._entries.get(vpage) if pmap is not None \
                    else None
                if pentry is None:
                    if invalidate and modules is None:
                        entry.ref_mask &= ~bit
                elif modules is None or pentry.frame.module_index in modules:
                    found = True
                    if proc != initiator and not active & bit:
                        deferred |= bit
                    else:
                        if proc != initiator:
                            send_ipi(initiator, proc, ipi_cost)
                            interrupted |= bit
                        atc = mmus[proc].atc
                        if atc._entries.pop(key, None) is not None:
                            atc.flushes += 1
                        if invalidate:
                            del pmap._entries[vpage]
                        else:
                            pmap.restrict(vpage, rights)
                    if invalidate:
                        entry.ref_mask &= ~bit
            mask >>= 1
            proc += 1
        if deferred:
            cmap.post_message(
                CmapMessage(vpage, directive, rights, deferred, now))
        elif interrupted:
            cmap.messages_posted += 1
        cmap.messages_applied += interrupted.bit_count()
        self.found.append(found)
        return interrupted, deferred


def build(cls, seed, metrics):
    """A kernel whose shootdown mechanism is of class ``cls`` (observed
    by the metrics fold when ``metrics``), with one address space whose
    every structure is drawn from ``seed``: the kernel, the mechanism
    and the address space's Cmap."""
    rng = random.Random(seed)
    kernel = Kernel(params=MachineParams(n_processors=N_PROCESSORS),
                    defrost_enabled=False, metrics=metrics)
    machine, coherent = kernel.machine, kernel.coherent
    mech = coherent.shootdown = cls(machine, coherent.cmaps,
                                    coherent.observers)
    cmap = coherent.cmap_for(1, create=True)
    cmap.active_mask = rng.getrandbits(N_PROCESSORS)
    for vpage in VPAGES:
        entry = CmapEntry(vpage, None, Rights.WRITE)
        cmap.entries[vpage] = entry
        for proc in range(N_PROCESSORS):
            # the last page has few holders, often one or none
            holds = rng.random() < (0.15 if vpage == VPAGES[-1] else 0.5)
            # a stale bit (no translation) and a translation without a
            # bit both occur; the walk must treat each as before
            if rng.random() < (0.85 if holds else 0.1):
                entry.ref_mask |= 1 << proc
            if not holds:
                continue
            pmap = cmap.pmap_for(proc, create=True)
            machine.mmus[proc].attach_pmap(pmap)
            module = rng.randrange(4)
            frame = Frame(module, vpage,
                          np.zeros(4, dtype=WORD_DTYPE))
            pentry = PmapEntry(vpage, frame,
                               rng.choice((Rights.READ, Rights.WRITE)),
                               remote=module != proc)
            pmap._entries[vpage] = pentry
            if rng.random() < 0.6:
                machine.mmus[proc].atc._entries[(1, vpage)] = pentry
    return kernel, mech, cmap


def shoot(kernel, mech, cmap, rng):
    """One walk per page drawn from ``rng`` (published to the observers
    as a shootdown), then one shootdown of every page through
    ``shoot_vpages``; the walks' masks and the shootdown's cost, which
    must be the section 4 sum over the processors it interrupted."""
    out = []
    for vpage in VPAGES:
        directive = rng.choice(list(Directive))
        rights = rng.choice((Rights.NONE, Rights.READ))
        holders = sorted(p for p, pm in cmap._pmaps.items()
                         if vpage in pm._entries)
        if holders and rng.random() < 0.5:
            initiator = rng.choice(holders)
        else:
            initiator = rng.randrange(N_PROCESSORS)
        modules = rng.choice((None, {0}, {1, 3}, set()))
        hit, missed = mech._shoot_one(cmap, cmap.entries[vpage], directive,
                                      rights, initiator, 1_000 * vpage,
                                      modules)
        for observer in mech.observers:
            observer.shootdown(1_000 * vpage, None, directive, initiator,
                               None, 0, hit, missed, [hit])
        out.append((hit, missed))
    before = mech.total_interrupted
    cost = mech.shoot_vpages(cmap, VPAGES, Directive.INVALIDATE,
                             initiator=rng.randrange(N_PROCESSORS), now=7)
    n = mech.total_interrupted - before
    p = kernel.params
    assert cost == (p.shootdown_first + p.shootdown_per_cpu * (n - 1)
                    if n else 0)
    out.append(cost)
    return out


@pytest.mark.parametrize("metrics", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_set_bit_walk_matches_the_bit_by_bit_walk(seed, metrics):
    fast = build(ShootdownMechanism, seed, metrics)
    ref = build(ReferenceShootdown, seed, metrics)
    assert machine_state(fast[0]) == machine_state(ref[0])
    got = shoot(*fast, random.Random(seed))
    want = shoot(*ref, random.Random(seed))
    assert got == want
    assert machine_state(fast[0]) == machine_state(ref[0])
    assert fast[0].metrics.collect() == ref[0].metrics.collect()


def test_the_random_states_cover_every_case():
    """Holes, stale bits, a holding initiator, inactive targets, a module
    filter that spares some translations, and IPIs all occur."""
    seen = set()
    for seed in range(40):
        kernel, mech, cmap = build(ReferenceShootdown, seed, False)
        rng = random.Random(seed)
        for vpage in VPAGES:
            entry = cmap.entries[vpage]
            mask = entry.ref_mask
            holders = {p for p, pm in cmap._pmaps.items()
                       if vpage in pm._entries}
            bits = {p for p in range(N_PROCESSORS) if mask >> p & 1}
            if bits - holders:
                seen.add("stale bit")
            if bits and max(bits) + 1 > len(bits):
                seen.add("hole")
            if {p for p in bits if not cmap.active_mask >> p & 1}:
                seen.add("inactive holder")
        results = shoot(kernel, mech, cmap, rng)
        for (hit, missed), found in zip(results[:-1], mech.found):
            if hit:
                seen.add("interrupted")
            if missed:
                seen.add("deferred")
            if found and not hit and not missed:
                seen.add("initiator only")
            if not found:
                seen.add("nothing matched")
    assert seen == {
        "stale bit", "hole", "inactive holder", "interrupted", "deferred",
        "initiator only", "nothing matched",
    }, seen
