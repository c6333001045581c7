"""A deterministic budget on the fault path: Python calls per fault.

``Kernel.fault`` (``CoherentFaultHandler.handle``) -> shootdown ->
block transfer is the floor under four of the five benchmark workloads,
and its host cost is, to a first approximation, the number of Python
function calls it makes.  That number is exact and repeatable, so it
can be gated where a timing cannot: this test replays the benchmark's
sharing bundle (quick size, seed 1989) under the three replay policies
and counts, with ``sys.setprofile``, the ``call`` events inside the
handler's entry, by the action the fault ended in.  Only Python-level
``call`` events are counted (not ``c_call``), so interpreter versions
agree up to comprehension inlining, which only lowers the count.

Before PR 23 a fault made 45.5 calls on this bundle (collapse 78.5,
migrate 75.0, replicate 50.2, fill 43.0, remote_map 26.2, upgrade 23.0,
map_local 22.0; mean 48.0 at the benchmark's full size).  The budgets
are what that PR ended with plus 10 %: a change that pushes an action
over its budget has put a layer, a lookup or a throw-away object back
on the path -- take it out again, or raise the budget in the same
change and say why.

With the metrics registry enabled, the same three replays made 38.7
calls per fault: a ``labels()`` and an ``inc()`` call per counter write,
three per histogram write, and two for each enum ``.value`` label.
Each write is now one call (``Metric.add``; the two fault histograms
are binned inline), 25.4 calls per fault, budgeted at that plus 10 %.

History (mean calls per fault, metrics off / on): 20.14 / 25.42 after
the one-call metric writes; 19.66 / 24.94 once the shootdown applies
``send_ipi`` in place (migrate 33.1 -> 31.7, collapse 26.0 -> 23.5,
replicate 22.5 -> 22.1; the other actions send no IPI).  The budgets
of the actions that changed and both means are now that plus 10 %.
19.66 / 26.74 once the protocol publishes each action to one observer
list: off, nothing is on it; on, a fault, a transfer and a shootdown
each make one call into the metrics fold (migrate 39.5 -> 42.5,
replicate 28.4 -> 30.8, collapse 31.7 -> 33.7).  The budgets stay.
18.72 / 25.80 once a policy-consulted fault builds its ``FaultContext``
without the namedtuple's ``__new__`` frame (migrate 31.7 -> 30.7,
replicate 22.1 -> 21.1, remote_map 10.7 -> 9.5).  Every action's budget
and the metrics-off mean are now that plus 10 %; the metrics-on mean
(27.5) was already below it.
12.80 / 19.88 once a fault is one frame on entry and ends in no
throwaway record: ``Kernel.fault`` reads the handler's bound ``handle``
through a C getter (the entry, counted from here on, resolves the
binding itself), the entry and ``shoot_cpage`` return the time instead
of a ``FaultResult``/``ShootdownResult`` (no ``_account``), the
observer-only facts are taken only for an observer, the IPT allocates
and releases without ``MemoryModule``'s frame or a ``LazyList`` call
for a built item, and a page copy reserves its buses in
``transfer_page`` (migrate 30.7 -> 18.9, collapse 23.5 -> 14.3,
replicate 21.1 -> 13.5, fill 27.0 -> 21.8, remote_map 9.5 -> 7.5,
upgrade 7.0 -> 5.0, map_local 6.0 -> 4.0).  Every budget is now that
plus 10 %, the metrics-off mean rounded down to 14.0.

Some costs a call count cannot see: a load of an ``Enum`` member through
its class (``CpageState.EMPTY``) is one attribute load to a bytecode
count and to this one, yet costs as much as a dozen module-global loads
on CPython 3.11, and a record built and dropped at once costs a frame a
C tuple does not.  The second test counts both, per fault, over the same
three replays (DESIGN.md section 5, "What a bytecode count cannot
see").  History (Enum-class member loads / ``TranslationResult`` frames
/ ``FaultContext`` frames, per fault): 5.92 / 1.005 / 0.844 before the
protocol path bound its members once and the executor took an ATC miss
in place; 0.088 / 0.066 / 0 after.  Two rows count the frames a fault
spends on bookkeeping inside the handler's entry: ``LazyList`` item
lookups and dataclass records built (``__init__`` frames): 1.69 / 2.83
with the ``FaultResult`` and ``ShootdownResult`` records and the
allocation's ``LazyList`` calls; 0.40 / 1.50 without (what is left: a
frame and its IPT entry built on first use, a ``PmapEntry`` per install,
a ``CmapEntry`` per VM resolve).
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import is_dataclass

from repro.core.cpage import CpageState
from repro.core.fault import CoherentFaultHandler
from repro.machine.memory import LazyList
from repro.machine.mmu import TranslationResult
from repro.policy.base import FaultContext
from repro.replay import record_spec, replay_trace
from repro.workloads.generate import bench_spec_for
from repro.workloads.spec import PhaseSpec, WorkloadSpec

#: mean Python calls inside one fault (the handler's entry), by action
BUDGET = {
    "migrate": 20.8,     # 18.9 (was 30.7)
    "fill": 23.9,        # 21.8 (was 27.0), the VM layer's resolve included
    "collapse": 15.7,    # 14.3 (was 23.5)
    "replicate": 14.9,   # 13.5 (was 21.1)
    "remote_map": 8.2,   # 7.5 (was 9.5)
    "upgrade": 5.5,      # 5.0 (was 7.0)
    "map_local": 4.4,    # 4.0 (was 6.0)
}
#: ... and over every fault of the three replays (12.8; was 18.7)
BUDGET_MEAN = 14.0
#: ... and with the metrics registry enabled (19.9; 25.8 with the fault
#: records, 38.7 before each metric write became one call)
BUDGET_MEAN_METRICS = 21.9

#: per fault, inside ``Engine.run``: loads of an Enum member through its
#: class, and Python frames that build a ``TranslationResult`` or a
#: ``FaultContext``; inside the handler's entry: ``LazyList`` item
#: lookups and dataclass records built (see the module docstring)
HIDDEN_BUDGET = {
    "enum loads": 0.097,        # 0.088 (was 5.92)
    "TranslationResult": 0.1,   # 0.066: rights-restricted ATC hits only
    "FaultContext": 0,          # 0 (was 0.844)
    "LazyList lookups": 0.44,   # 0.396: first use of a frame (was 1.69)
    "records": 1.65,            # 1.495 (was 2.83)
}

POLICIES = (None, "always", "never")

#: where a fault enters Python: ``Kernel.fault`` reads the handler's
#: bound ``handle`` through a C getter, so this is the one frame
ENTRY = CoherentFaultHandler.handle


def sharing_bundle():
    """``perf/workloads.py``'s sharing spec at its quick size: eight
    threads draw any of 16 pages, half the ops write, and the defrost
    period is short enough that pages freeze and thaw inside the run."""
    phase = PhaseSpec(ops=12, mix={"read": 0.5, "write": 0.5},
                      access="uniform", compute_ns=200.0)
    spec = WorkloadSpec(
        name="perf-sharing", seed=1989, threads=8, machine=8,
        words_per_op=16, phases=(phase, phase), sharing="uniform",
        pages=16,
    ).validate()
    point = bench_spec_for(spec)
    point["defrost_period"] = 5e6
    return record_spec(point)[0]


def count_calls(bundle, metrics: bool = False) -> tuple[Counter, Counter]:
    """``(calls, faults)`` by action over the three replays.  A fault's
    action is what its ``_handle_read``/``_handle_write`` frame returned
    (the entry returns only the time, and an observer would change the
    path being counted); a fault that raised counts as ``raised``."""
    fault_code = ENTRY.__code__
    handlers = {CoherentFaultHandler._handle_read.__code__,
                CoherentFaultHandler._handle_write.__code__}
    calls, faults = Counter(), Counter()
    inside = [0, 0]  # depth in the entry, calls made in this fault
    action = ["raised"]

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code is fault_code:
                inside[0] += 1
                inside[1] = 0
                action[0] = "raised"
            elif inside[0]:
                inside[1] += 1
        elif event == "return":
            code = frame.f_code
            if code in handlers and arg is not None:
                action[0] = arg[1]
            elif code is fault_code:
                inside[0] -= 1
                calls[action[0]] += inside[1]
                faults[action[0]] += 1

    for policy in POLICIES:
        sys.setprofile(profile)
        try:
            replay_trace(bundle, mode="exact", policy=policy,
                         metrics=metrics)
        finally:
            sys.setprofile(None)
    return calls, faults


def test_calls_per_fault_stay_within_budget():
    calls, faults = count_calls(sharing_bundle())
    # the replay reaches every action the budget names, and only those
    assert set(faults) == set(BUDGET), faults
    means = {a: calls[a] / faults[a] for a in faults}
    over = {a: (round(means[a], 1), BUDGET[a])
            for a in means if means[a] > BUDGET[a]}
    assert not over, f"calls per fault over budget (got, budget): {over}"
    mean = sum(calls.values()) / sum(faults.values())
    assert mean <= BUDGET_MEAN, mean
    # a budget nobody can miss gates nothing: each stays within 25 % of
    # what is measured, so it is lowered when the path gets leaner
    slack = {a: (round(means[a], 1), BUDGET[a])
             for a in means if BUDGET[a] > 1.25 * means[a]}
    assert not slack, f"budget far above the count (got, budget): {slack}"


def test_calls_per_fault_with_metrics_on_stay_within_budget():
    calls, faults = count_calls(sharing_bundle(), metrics=True)
    mean = sum(calls.values()) / sum(faults.values())
    assert mean <= BUDGET_MEAN_METRICS, mean
    assert BUDGET_MEAN_METRICS <= 1.25 * mean, mean  # the slack rule


def count_hidden(bundle, monkeypatch) -> tuple[Counter, int]:
    """``(counts, faults)`` over the three replays, counted only inside
    ``Engine.run``: Enum-class member loads (through a counting
    ``__getattribute__`` on the Enum metaclass, installed for the count)
    and the frames that build a ``TranslationResult`` or a
    ``FaultContext`` (its dataclass ``__init__``, its namedtuple
    ``__new__``); inside the handler's entry, ``LazyList.__getitem__``
    frames and dataclass ``__init__`` frames."""
    counts = Counter()
    fault_code = ENTRY.__code__
    lazy_code = LazyList.__getitem__.__code__
    faults = 0
    inside = [False]
    depth = [0]  # in the handler's entry
    meta = type(CpageState)  # EnumMeta / EnumType on every version
    lookup = meta.__getattribute__

    def counting(cls, name):
        if inside[0] and name in type.__getattribute__(cls, "_member_map_"):
            counts["enum loads"] += 1
        return lookup(cls, name)

    records = {TranslationResult.__init__.__code__: "TranslationResult",
               FaultContext.__new__.__code__: "FaultContext"}

    def profile(frame, event, arg):
        nonlocal faults
        if event == "call":
            code = frame.f_code
            if code is fault_code:
                faults += 1
                depth[0] += 1
                return
            if code in records:
                counts[records[code]] += 1
            if depth[0]:
                if code is lazy_code:
                    counts["LazyList lookups"] += 1
                elif code.co_name == "__init__" and is_dataclass(
                        type(frame.f_locals.get("self"))):
                    counts["records"] += 1
        elif event == "return" and frame.f_code is fault_code:
            depth[0] -= 1

    from repro.sim.engine import Engine

    engine_run = Engine.run

    def counted(engine, *args, **kwargs):
        inside[0] = True
        sys.setprofile(profile)
        try:
            return engine_run(engine, *args, **kwargs)
        finally:
            sys.setprofile(None)
            inside[0] = False

    monkeypatch.setattr(meta, "__getattribute__", counting)
    monkeypatch.setattr(Engine, "run", counted)
    try:
        for policy in POLICIES:
            replay_trace(bundle, mode="exact", policy=policy)
    finally:
        monkeypatch.undo()
    return counts, faults


def test_hidden_costs_per_fault_stay_within_budget(monkeypatch):
    counts, faults = count_hidden(sharing_bundle(), monkeypatch)
    assert faults > 500  # the three replays fault, often
    over = {k: (round(counts[k] / faults, 3), budget)
            for k, budget in HIDDEN_BUDGET.items()
            if counts[k] / faults > budget}
    assert not over, f"hidden costs per fault over budget: {over}"
    # the two counted rows are measured, not assumed: within 25 %
    for key in ("LazyList lookups", "records"):
        assert HIDDEN_BUDGET[key] <= 1.25 * counts[key] / faults, key
