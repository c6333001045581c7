"""Unit tests for the assembled machine: access costing, block transfer,
interrupts."""

import numpy as np
import pytest

from repro.machine import Machine, MachineParams


@pytest.fixture
def machine():
    return Machine(
        MachineParams(n_processors=4, frames_per_module=16)
    )


def test_local_access_costs_t_local(machine):
    frame = machine.modules[0].allocate()
    out = machine.access(0, frame, 10, write=False, now=0)
    assert out.completion == 10 * 320
    assert not out.remote
    assert out.queue_delay == 0


def test_remote_read_costs_t_remote(machine):
    frame = machine.modules[1].allocate()
    out = machine.access(0, frame, 10, write=False, now=0)
    assert out.completion == 10 * 5000
    assert out.remote


def test_remote_write_faster_than_read(machine):
    frame = machine.modules[1].allocate()
    read = machine.access(0, frame, 10, write=False, now=0)
    machine2 = Machine(MachineParams(n_processors=4, frames_per_module=16))
    frame2 = machine2.modules[1].allocate()
    write = machine2.access(0, frame2, 10, write=True, now=0)
    assert write.completion < read.completion


def test_module_contention_queues(machine):
    frame = machine.modules[1].allocate()
    machine.access(0, frame, 100, write=False, now=0)
    out = machine.access(2, frame, 10, write=False, now=0)
    assert out.queue_delay > 0
    assert out.completion > 10 * 5000


def test_accesses_to_different_modules_do_not_contend(machine):
    f1 = machine.modules[1].allocate()
    f2 = machine.modules[2].allocate()
    machine.access(0, f1, 100, write=False, now=0)
    out = machine.access(3, f2, 10, write=False, now=0)
    assert out.queue_delay == 0


def test_word_counters(machine):
    f_local = machine.modules[0].allocate()
    f_remote = machine.modules[1].allocate()
    machine.access(0, f_local, 7, write=False, now=0)
    machine.access(0, f_remote, 3, write=True, now=0)
    assert machine.local_words[0] == 7
    assert machine.remote_words[0] == 3


def test_zero_word_access_rejected(machine):
    frame = machine.modules[0].allocate()
    with pytest.raises(ValueError):
        machine.access(0, frame, 0, write=False, now=0)


# -- block transfer ------------------------------------------------------------


def test_block_transfer_copies_data_and_costs_page_time(machine):
    src = machine.modules[0].allocate()
    dst = machine.modules[1].allocate()
    src.data[:] = np.arange(len(src.data))
    end = machine.xfer.transfer_page(src, dst, now=0)
    assert np.array_equal(src.data, dst.data)
    assert end == pytest.approx(machine.params.page_copy_time, rel=0.01)


def test_block_transfer_occupies_both_buses_at_fraction(machine):
    src = machine.modules[0].allocate()
    dst = machine.modules[1].allocate()
    machine.xfer.transfer_page(src, dst, now=0)
    expected = machine.params.page_copy_time * 0.75
    assert machine.modules[0].bus.busy_time == pytest.approx(
        expected, rel=0.01
    )
    assert machine.modules[1].bus.busy_time == pytest.approx(
        expected, rel=0.01
    )


def test_block_transfer_waits_for_both_buses(machine):
    src = machine.modules[0].allocate()
    dst = machine.modules[1].allocate()
    machine.modules[1].bus.occupy(0, 500_000)
    end = machine.xfer.transfer_page(src, dst, now=0)
    assert end == pytest.approx(
        500_000 + machine.params.page_copy_time, rel=0.01
    )


def test_local_block_transfer_uses_one_bus(machine):
    src = machine.modules[0].allocate()
    dst = machine.modules[0].allocate()
    machine.xfer.transfer_page(src, dst, now=0)
    assert machine.modules[0].bus.busy_time == pytest.approx(
        machine.params.page_copy_time, rel=0.01
    )


def test_transfer_counters(machine):
    src = machine.modules[0].allocate()
    dst = machine.modules[1].allocate()
    machine.xfer.transfer_page(src, dst, now=0)
    assert machine.xfer.transfer_count == 1
    assert machine.xfer.words_transferred == machine.params.words_per_page


# -- interrupts -------------------------------------------------------------------


def test_ipi_charges_target_penalty(machine):
    # taken (and cleared) by ThreadProcess._begin: tests/test_cost_run.py
    machine.interrupts.send_ipi(0, 2, 7000)
    machine.interrupts.send_ipi(1, 2, 500)
    assert machine.interrupts.state[2].ipis_received == 2
    assert machine.interrupts.state[2].pending_penalty == 7500
    assert machine.interrupts.state[0].pending_penalty == 0


def test_self_ipi_rejected(machine):
    with pytest.raises(ValueError):
        machine.interrupts.send_ipi(1, 1, 100)


def test_interrupt_totals(machine):
    machine.interrupts.send_ipi(0, 1, 10)
    machine.interrupts.send_ipi(0, 2, 10)
    totals = machine.interrupts.totals()
    assert totals == {"ipis_sent": 2, "ipis_received": 2}


def test_utilization_report(machine):
    frame = machine.modules[1].allocate()
    machine.access(0, frame, 10, write=False, now=0)
    report = machine.utilization_report()
    assert any("module[1]" in k for k in report)
