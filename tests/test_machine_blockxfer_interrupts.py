"""Additional machine-layer tests: block-transfer engine details and
interrupt accounting under protocol load."""

import numpy as np
import pytest

from repro import make_kernel, run_program
from repro.machine import Machine, MachineParams
from repro.workloads import GaussianElimination


@pytest.fixture
def machine():
    return Machine(MachineParams(n_processors=4, frames_per_module=16))


def test_transfer_size_mismatch_rejected():
    a = Machine(MachineParams(n_processors=2, page_bytes=4096))
    b = Machine(MachineParams(n_processors=2, page_bytes=8192))
    src = a.modules[0].allocate()
    dst = b.modules[0].allocate()
    with pytest.raises(ValueError):
        a.xfer.transfer_page(src, dst, now=0)


def test_back_to_back_transfers_serialize_on_shared_endpoint(machine):
    src = machine.modules[0].allocate()
    d1 = machine.modules[1].allocate()
    d2 = machine.modules[2].allocate()
    end1 = machine.xfer.transfer_page(src, d1, now=0)
    end2 = machine.xfer.transfer_page(src, d2, now=0)
    # the second transfer waits for the source bus occupancy (75%)
    copy = machine.params.page_copy_time
    assert end2 >= copy * 0.75 + copy * 0.99


def test_transfers_between_disjoint_pairs_overlap(machine):
    a = machine.modules[0].allocate()
    b = machine.modules[1].allocate()
    c = machine.modules[2].allocate()
    d = machine.modules[3].allocate()
    end1 = machine.xfer.transfer_page(a, b, now=0)
    end2 = machine.xfer.transfer_page(c, d, now=0)
    assert end1 == end2  # fully parallel


def test_transfer_data_integrity_chain(machine):
    frames = [machine.modules[i].allocate() for i in range(4)]
    frames[0].data[:] = np.arange(len(frames[0].data))
    t = 0
    for src, dst in zip(frames, frames[1:]):
        t = machine.xfer.transfer_page(src, dst, now=t)
    assert np.array_equal(frames[0].data, frames[3].data)


def test_busy_time_accounting(machine):
    src = machine.modules[0].allocate()
    dst = machine.modules[1].allocate()
    machine.xfer.transfer_page(src, dst, now=0)
    assert machine.xfer.total_busy_time >= machine.params.page_copy_time


def test_ipis_flow_during_real_program():
    kernel = make_kernel(n_processors=4)
    run_program(
        kernel, GaussianElimination(n=24, n_threads=4,
                                    verify_result=False)
    )
    totals = kernel.machine.interrupts.totals()
    assert totals["ipis_sent"] == totals["ipis_received"]
    assert totals["ipis_received"] > 0
    # all penalties were eventually collected by the running threads
    pending = sum(
        s.pending_penalty for s in kernel.machine.interrupts.state
    )
    # a last shootdown may leave an uncollected penalty; it is bounded
    assert pending < 10 * kernel.params.ipi_target_cost


def test_interrupt_penalty_slows_victim():
    """A processor that keeps getting interrupted makes less progress
    than an undisturbed one doing identical work."""
    from repro.runtime import Compute, Program

    class Victim(Program):
        name = "victim"

        def setup(self, api):
            api.spawn(0, self.body, name="victim")
            api.spawn(1, self.body, name="control")

        def body(self, env):
            for _ in range(50):
                if env.tid == 0:
                    env.kernel.machine.interrupts.charge(0, 10_000)
                yield Compute(1000)
            return env.kernel.engine.now

    kernel = make_kernel(n_processors=2)
    result = run_program(kernel, Victim())
    victim_finish, control_finish = result.thread_results
    assert victim_finish > control_finish
    assert victim_finish >= 50 * 11_000


# -- a page copy's in-place bus reservation against occupy_endpoints ---------------


def _reference_transfer(xfer, src, dst, now):
    """``transfer_page`` as it was spelled before: ``occupy_endpoints``
    for the page's duration, then ``Frame.copy_from``."""
    words = len(src.data)
    end = xfer.occupy_endpoints(src.module_index, dst.module_index, now,
                                xfer.params.t_block_word * words)
    if not xfer.modules[dst.module_index].dataless:
        dst.copy_from(src)
    xfer.transfer_count += 1
    xfer.words_transferred += words
    xfer.total_busy_time += end - now
    return end


@pytest.mark.parametrize("fraction", [0.75, 1.0, 0.3])
@pytest.mark.parametrize("seed", range(10))
def test_page_copy_reserves_as_occupy_endpoints_does(seed, fraction):
    """Copies between random modules (the same one among them) at random
    times, with the buses already busy to random horizons: both
    spellings end at the same time and leave every bus, counter and
    word the same.  The odd page sizes make the occupancy round."""
    import random

    rng = random.Random(seed)
    params = MachineParams(n_processors=4, frames_per_module=4,
                           page_bytes=rng.choice((64, 68, 4096)),
                           t_block_word=rng.choice((1085, 1083, 7)),
                           block_transfer_bus_fraction=fraction)
    twins = [Machine(params), Machine(params)]
    frames = [[[m.modules[i].allocate() for _ in range(2)]
               for i in range(4)] for m in twins]
    for machine, mine in zip(twins, frames):
        for i, pair in enumerate(mine):
            for j, frame in enumerate(pair):
                frame.data[:] = 10 * i + j
    t = 0
    for _ in range(40):
        t += rng.randrange(0, 3_000_000)
        a, b = rng.randrange(4), rng.randrange(4)
        slot = rng.randrange(2)
        bump = rng.choice((None, rng.randrange(4)))
        late = t + rng.randrange(0, 2_000_000)
        ends = []
        for machine, mine, how in zip(
                twins, frames, ("fast", "reference")):
            if bump is not None:
                machine.modules[bump].bus.occupy(t, late - t)
            src, dst = mine[a][slot], mine[b][1 - slot]
            if how == "fast":
                ends.append(machine.xfer.transfer_page(src, dst, t))
            else:
                ends.append(_reference_transfer(machine.xfer, src, dst, t))
        assert ends[0] == ends[1]
        fast, ref = twins
        assert [(m.bus.busy_until, m.bus.busy_time, m.bus.wait_time,
                 m.bus.requests) for m in fast.modules] == \
            [(m.bus.busy_until, m.bus.busy_time, m.bus.wait_time,
              m.bus.requests) for m in ref.modules]
        assert (fast.xfer.transfer_count, fast.xfer.words_transferred,
                fast.xfer.total_busy_time) == \
            (ref.xfer.transfer_count, ref.xfer.words_transferred,
             ref.xfer.total_busy_time)
        assert [f.data.tolist() for pair in frames[0] for f in pair] == \
            [f.data.tolist() for pair in frames[1] for f in pair]
