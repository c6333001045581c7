"""A deterministic budget on the op path: calls and heap pushes per op.

Every op of every simulated thread is one engine event, so the host
cost of an op is, to a first approximation, the Python calls the
engine, the process and the executor make for it -- and the heap push
and pop its event takes when it is queued.  Both are exact and
repeatable where a timing is not: this test runs the benchmark's
private and sharing specs (``perf/workloads.py``, quick size, seed
1989) live and as an exact replay of their recording, and counts, with
``sys.setprofile`` active only inside ``Engine.run``, the Python
``call`` events (function and generator frames; C calls are not
counted) and the ``heapq.heappush`` calls, per op.

The Sequent baseline (``run_on_sequent`` on the same generated
program, 8 processors) is counted too: it shares the op path
(``OpProcess._wake``) and the run loop with the executor, so a frame
taken off either shows there.

History (calls / pushes per op: private live, private replay, sharing
live, sharing replay):

* before the penalty was taken inline in ``_begin``: 15.63 / 10.97 /
  27.08 / 20.14 calls, 0.988 / 0.988 / 0.993 / 0.993 pushes;
* after it, and one ``Compute`` per generated phase: 14.05 / 9.98 /
  25.46 / 19.16 calls, same pushes (Sequent, not yet budgeted: 101.98 /
  142.19 calls, 0.988 / 0.981 pushes);
* ``Engine.run`` popping inline, ``ThreadProcess._wake`` resuming and
  dispatching in one frame and ``commit`` pushing its own wake-up:
  10.08 / 7.99 / 21.49 / 17.16 calls (Sequent 99.99 / 140.20), same
  pushes;
* the replay cursor stepping in its own ``_wake``, which never asks
  ``_window`` in exact mode: 10.08 / 6.00 / 21.49 / 15.18 calls, same
  pushes;
* the generator's draws spelled in place (no ``_pick_page``,
  ``_pick_offset`` or ``randrange`` frame per op), the post-fault retry
  read from the Pmap instead of a second ``MMU.translate``, the
  shootdown's ``send_ipi`` in place and the switch ports occupied
  inline: 8.78 / 5.69 / 16.50 / 12.95 calls (Sequent 99.04 / 137.49),
  same pushes;
* the op round trip in ``ThreadProcess._wake``'s one frame (it takes the
  start time, calls the op's cost function and pushes its own wake-up:
  no ``_begin``, handler or ``commit`` frame), an ATC miss taken in
  ``_cost_run`` without ``MMU.translate``, a ``FaultContext`` built
  without its ``__new__`` frame and an int64 ``Write`` stored without a
  ``write_words`` call: 6.29 / 5.57 / 12.80 / 11.81 calls (Sequent
  98.77 / 137.06), same pushes;
* one op path for the three drivers: the Sequent starts, costs and
  commits each op in ``OpProcess._wake`` (no ``_resume``,
  ``interpret``, ``_begin`` or ``commit`` frame; a bus write per atomic
  without a helper) and the replay cursor is a generator whose
  ``GetTime`` and channel waits take the executor's handlers: live
  unchanged, replay 5.66 / 11.96 calls (Sequent 95.24 / 133.52), same
  pushes;
* one row per processor (the op path reads ``busy_until``, the penalty
  and the costing table from ``rows[thread.processor]``; no frame
  added or taken): 6.30 / 5.66 / 12.82 / 11.96 calls (Sequent 95.24 /
  133.52), same pushes -- no budget is more than 10 % above its count,
  so none is lowered;
* a fault in fewer frames (``Kernel.fault`` is the handler's bound
  ``handle``, read through a C getter; the entry and the shootdown
  return the time instead of a result record; the IPT allocates and
  releases in one frame each; a page copy reserves its buses in
  ``transfer_page``): 5.92 / 5.29 / 10.79 / 10.10 calls (Sequent 95.24
  / 133.52), same pushes -- the four live and replay rows are lowered
  to these plus 10 %.

The budgets are a row's counts plus 10 % -- the Sequent's and the
pushes an earlier row's, which they still hold: a change that
pushes a run over its budget has put a call or a queued event back on
the path -- take it out again, or raise the budget in the same change
and say why.
"""

from __future__ import annotations

import heapq
import sys

import pytest

from repro.baselines.sequent import run_on_sequent
from repro.replay import record_spec, replay_trace
from repro.sim.engine import Engine
from repro.workloads.generate import (
    GeneratedWorkload,
    bench_spec_for,
    run_spec,
)
from repro.workloads.spec import PhaseSpec, WorkloadSpec

#: (spec, how it runs) -> (Python calls per op, heap pushes per op)
BUDGET = {
    ("private", "live"): (6.51, 1.087),       # 5.92, 0.988
    ("private", "replay"): (5.82, 1.087),     # 5.29, 0.988
    ("private", "sequent"): (104.76, 1.087),  # 95.24, 0.988
    ("sharing", "live"): (11.87, 1.092),      # 10.79, 0.993
    ("sharing", "replay"): (11.11, 1.092),    # 10.10, 0.993
    ("sharing", "sequent"): (146.87, 1.079),  # 133.52, 0.981
}

#: defrost period of the sharing spec: pages freeze and thaw in the run
SHARING_DEFROST_NS = 5e6


def spec(which: str) -> WorkloadSpec:
    """``perf/workloads.py``'s two specs at their quick live size."""
    if which == "private":
        phase = PhaseSpec(ops=40, mix={"read": 0.7, "write": 0.3},
                          access="sequential", compute_ns=200.0)
        sharing, pages = "private", 64
    else:
        phase = PhaseSpec(ops=24, mix={"read": 0.5, "write": 0.5},
                          access="uniform", compute_ns=200.0)
        sharing, pages = "uniform", 16
    return WorkloadSpec(
        name=f"perf-{which}", seed=1989, threads=8, machine=8,
        words_per_op=16, phases=(phase, phase), sharing=sharing,
        pages=pages,
    ).validate()


def count(run, monkeypatch) -> tuple[int, int]:
    """``(calls, pushes)`` made inside ``Engine.run`` while ``run()``."""
    calls = pushes = 0
    push = heapq.heappush

    def profile(frame, event, arg):
        nonlocal calls, pushes
        if event == "call":
            calls += 1
        elif event == "c_call" and arg is push:
            pushes += 1

    engine_run = Engine.run

    def profiled(engine, *args, **kwargs):
        sys.setprofile(profile)
        try:
            return engine_run(engine, *args, **kwargs)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(Engine, "run", profiled)
    run()
    monkeypatch.undo()
    return calls, pushes


@pytest.mark.parametrize("which, how", list(BUDGET),
                         ids=[f"{w}-{h}" for w, h in BUDGET])
def test_calls_and_pushes_per_op_stay_within_budget(
        monkeypatch, which, how):
    the_spec = spec(which)
    period = SHARING_DEFROST_NS if which == "sharing" else None
    point = bench_spec_for(the_spec)
    point["defrost_period"] = period
    bundle = record_spec(point)[0]
    runs = {
        "live": lambda: run_spec(the_spec, defrost_period=period),
        "replay": lambda: replay_trace(bundle, mode="exact"),
        "sequent": lambda: run_on_sequent(GeneratedWorkload(the_spec),
                                          n_processors=8),
    }
    calls, pushes = count(runs[how], monkeypatch)
    got = (calls / bundle.n_ops, pushes / bundle.n_ops)
    budget = BUDGET[which, how]
    assert got[0] <= budget[0] and got[1] <= budget[1], (got, budget)
    # a budget nobody can miss gates nothing: each stays within 25 % of
    # what is measured, so it is lowered when the path gets leaner
    assert budget[0] <= 1.25 * got[0] and budget[1] <= 1.25 * got[1], \
        (got, budget)
