"""Unit tests for Cpages, directories and the Cpage table."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.check import InvariantChecker
from repro.core import CoherencyError, Cpage, CpageState, CpageTable
from repro.machine import MachineParams, MemoryModule


def problems(page, invariant="single_writer"):
    """What one per-Cpage invariant of the checker reports on ``page``."""
    found = []
    checker = InvariantChecker(SimpleNamespace(
        cpages=[page], cmaps={}, machine=None, policy=None))
    getattr(checker, f"_inv_{invariant}")(found.append)
    return found


@pytest.fixture
def modules():
    params = MachineParams(n_processors=3, frames_per_module=8)
    return [MemoryModule(i, params) for i in range(3)]


def test_new_cpage_is_empty():
    page = Cpage(0, home_module=0)
    assert page.state is CpageState.EMPTY
    assert page.n_copies == 0
    assert not page.frozen
    assert problems(page) == []


def test_module_mask_and_directory(modules):
    page = Cpage(0, 0)
    f0, f2 = modules[0].allocate(), modules[2].allocate()
    page.add_frame(f0)
    page.add_frame(f2)
    assert sorted(page.frames) == [0, 2]
    assert page.frames.get(0) is f0
    assert page.frames.get(1) is None
    assert page.any_frame() is f0  # deterministic: lowest module


def test_duplicate_module_copy_rejected(modules):
    page = Cpage(0, 0)
    page.add_frame(modules[0].allocate())
    with pytest.raises(CoherencyError):
        page.add_frame(modules[0].allocate())


def test_sole_frame(modules):
    page = Cpage(0, 0)
    with pytest.raises(CoherencyError):
        page.sole_frame()
    f = modules[1].allocate()
    page.add_frame(f)
    assert page.sole_frame() is f
    page.add_frame(modules[2].allocate())
    with pytest.raises(CoherencyError):
        page.sole_frame()


def test_drop_frame(modules):
    page = Cpage(0, 0)
    f = modules[1].allocate()
    page.add_frame(f)
    assert page.drop_frame(1) is f
    with pytest.raises(CoherencyError):
        page.drop_frame(1)


def test_recompute_state(modules):
    page = Cpage(0, 0)
    page.recompute_state()
    assert page.state is CpageState.EMPTY
    page.add_frame(modules[0].allocate())
    page.recompute_state()
    assert page.state is CpageState.PRESENT1
    page.has_write_mapping = True
    page.recompute_state()
    assert page.state is CpageState.MODIFIED
    page.has_write_mapping = False
    page.add_frame(modules[1].allocate())
    page.recompute_state()
    assert page.state is CpageState.PRESENT_PLUS


def test_recompute_rejects_replicated_write(modules):
    page = Cpage(0, 0)
    page.add_frame(modules[0].allocate())
    page.add_frame(modules[1].allocate())
    page.has_write_mapping = True
    with pytest.raises(CoherencyError):
        page.recompute_state()


def test_invariants_catch_divergent_replicas(modules):
    page = Cpage(0, 0)
    f0, f1 = modules[0].allocate(), modules[1].allocate()
    page.add_frame(f0)
    page.add_frame(f1)
    page.recompute_state()
    assert problems(page) == []
    f1.data[3] = 42
    assert "replicas differ" in problems(page)[0]


def test_invariants_catch_state_mismatch(modules):
    page = Cpage(0, 0)
    page.add_frame(modules[0].allocate())
    page.state = CpageState.EMPTY
    assert problems(page) == [
        f"single-writer: {page!r}: empty but has 1 copies"]


def test_invariants_catch_frozen_replicated(modules):
    page = Cpage(0, 0)
    page.add_frame(modules[0].allocate())
    page.add_frame(modules[1].allocate())
    page.recompute_state()
    page.frozen = True
    page.frozen_at = 0
    assert problems(page, "frozen_pages") == [
        f"frozen-pages: {page!r} is frozen with 2 copies",
        f"frozen-pages: {page!r} is frozen yet replicated"]


def test_table_round_robin_homes():
    table = CpageTable(n_modules=4)
    pages = [table.create() for _ in range(8)]
    assert [p.home_module for p in pages] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert len(table) == 8
    assert table.get(5) is pages[5]


def test_table_explicit_home_and_backing():
    table = CpageTable(n_modules=4)
    backing = np.ones(16, dtype=np.int64)
    page = table.create(backing=backing, label="x", home_module=2)
    assert page.home_module == 2
    assert page.label == "x"
    assert np.array_equal(page.backing, backing)


def test_stats_as_dict_lists_every_counter_in_declared_order():
    """The golden fault table reads the counters in declared order
    (``dataclasses.astuple``); that order is a contract."""
    import dataclasses

    from repro.core.cpage import CpageStats

    stats = CpageStats(faults=3, handler_wait_ns=7)
    assert list(dataclasses.asdict(stats)) == [
        "faults", "read_faults", "write_faults", "replications",
        "migrations", "invalidations", "restrictions", "remote_mappings",
        "local_mappings", "upgrades", "freezes", "thaws",
        "handler_wait_ns", "handler_busy_ns", "remote_access_words",
    ] == [f.name for f in dataclasses.fields(CpageStats)]
    assert dataclasses.astuple(stats)[:1] == (3,)
