"""Unit tests for Cmaps: entries, reference masks, message queues."""

import pytest

from repro.core import Cmap, CmapMessage, Cpage, Directive
from repro.machine.pmap import Rights


@pytest.fixture
def cmap():
    return Cmap(aspace_id=0, n_processors=4)


@pytest.fixture
def cpage():
    return Cpage(0, home_module=0)


def test_enter_and_lookup(cmap, cpage):
    entry = cmap.enter(5, cpage, Rights.WRITE)
    assert cmap.lookup(5) is entry
    assert cmap.lookup(6) is None
    assert (cmap, 5) in cpage.bindings


def test_double_enter_rejected(cmap, cpage):
    cmap.enter(5, cpage, Rights.WRITE)
    with pytest.raises(ValueError):
        cmap.enter(5, cpage, Rights.READ)


def test_remove_unbinds(cmap, cpage):
    cmap.enter(5, cpage, Rights.WRITE)
    cmap.remove(5)
    assert cmap.lookup(5) is None
    assert cpage.bindings == []
    assert cmap.remove(5) is None


def test_reference_mask_bits(cmap, cpage):
    entry = cmap.enter(5, cpage, Rights.WRITE)
    entry.set_ref(2)
    entry.set_ref(0)
    assert entry.ref_mask == 0b101
    assert entry.has_ref(2) and not entry.has_ref(1)
    entry.ref_mask &= ~(1 << 2)
    assert entry.ref_mask == 0b001


def test_reference_union_across_bindings(cpage):
    cm_a, cm_b = Cmap(0, 4), Cmap(1, 4)
    ea = cm_a.enter(5, cpage, Rights.WRITE)
    eb = cm_b.enter(9, cpage, Rights.READ)
    ea.set_ref(0)
    eb.set_ref(3)
    # every processor that may hold a translation, over all bindings:
    # the union the shootdown walks
    union = 0
    for cmap, vpage in cpage.bindings:
        union |= cmap.entries[vpage].ref_mask
    assert union == 0b1001


def test_private_pmaps_per_processor(cmap):
    assert cmap.pmap_for(1) is None
    pm = cmap.pmap_for(1, create=True)
    assert cmap.pmap_for(1) is pm
    pm2 = cmap.pmap_for(2, create=True)
    assert pm2 is not pm
    assert pm.processor_index == 1


def test_activation_mask(cmap):
    cmap.activate(2)
    assert cmap.active_mask == 1 << 2
    cmap.deactivate(2)
    assert cmap.active_mask == 0


def test_message_queue_lifecycle(cmap):
    msg = CmapMessage(
        vpage=5, directive=Directive.INVALIDATE, rights=Rights.NONE,
        target_mask=0b110, posted_at=0,
    )
    cmap.post_message(msg)
    assert cmap.pending_for(1) == [msg]
    assert cmap.pending_for(0) == []
    cmap.acknowledge(msg, 1)
    assert cmap.pending_for(1) == []
    assert cmap.messages == [msg]  # cpu 2 still owes an apply
    cmap.acknowledge(msg, 2)
    assert cmap.messages == []  # retired once the mask clears
    assert cmap.messages_applied == 2


def test_empty_target_message_not_queued(cmap):
    msg = CmapMessage(
        vpage=5, directive=Directive.RESTRICT, rights=Rights.READ,
        target_mask=0, posted_at=0,
    )
    cmap.post_message(msg)
    assert cmap.messages == []


def test_message_targets_listing():
    msg = CmapMessage(
        vpage=1, directive=Directive.INVALIDATE, rights=Rights.NONE,
        target_mask=0b1010, posted_at=0,
    )
    assert msg.targets() == [1, 3]
