"""The observer list: every protocol action is published exactly once.

The fault handler, the shootdown mechanism and the defrost daemon each
publish a completed action to ``CoherentMemorySystem.observers``, and
the tracer, the metrics fold and the invariant checker are folds over
that one stream.  A recording observer on a generated workload -- with
both daemons sweeping, then an unmap and a protect, then a fault that
raises -- must see as many actions of each kind as the components
count themselves; a publish site that goes missing or fires twice
breaks an equality here.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.check import install_invariant_checker
from repro.core.trace import Observers, ProtocolTracer
from repro.machine.memory import OutOfFramesError
from repro.machine.pmap import Rights
from repro.point import point_kernel
from repro.policy.competitive import MigrationDaemon
from repro.runtime.run import run_program
from repro.workloads import GeneratedWorkload
from repro.workloads.generate import bench_spec_for, corpus_paths
from repro.workloads.spec import WorkloadSpec

CORPUS = Path(__file__).parent / "corpus"
KINDS = ("fault", "transfer", "shootdown", "apply_pending", "thaw",
         "defrost_run")


class Recorder:
    """Counts each published action by kind, and keeps its arguments."""

    def __init__(self) -> None:
        self.seen: list[tuple[str, tuple]] = []

    def __getattr__(self, kind: str):
        if kind not in KINDS:
            raise AttributeError(kind)
        return lambda *args: self.seen.append((kind, args))

    def counts(self) -> Counter:
        return Counter(kind for kind, _ in self.seen)


def sharing_spec() -> WorkloadSpec:
    """The first corpus spec whose pages are shared by every thread."""
    for path in corpus_paths(CORPUS):
        spec = WorkloadSpec.load(path)
        if spec.sharing == "uniform":
            return spec
    raise AssertionError("the corpus has no uniform-sharing spec")


@pytest.fixture(scope="module")
def observed():
    spec = sharing_spec()
    point = bench_spec_for(spec)
    point["defrost_period"] = 2e6  # pages thaw inside the run
    kernel = point_kernel(point, trace=True, metrics=True)
    coherent = kernel.coherent
    recorder = Recorder()
    coherent.observers.append(recorder)
    install_invariant_checker(coherent)
    daemon = MigrationDaemon(coherent, period=2e6, threshold_words=16)
    daemon.start()
    run_program(kernel, GeneratedWorkload(spec))
    # the virtual memory layer's shootdowns: a protect deferred to
    # every holder (the threads have exited, so the address space is
    # active nowhere), applied on reactivation, then an unmap
    aspace = next(a for a in kernel.vm.aspaces.values() if a.bindings)
    binding = aspace.bindings[0]
    kernel.vm.protect(aspace, binding, Rights.READ)
    for proc in range(kernel.params.n_processors):
        coherent.activate(aspace.asid, proc)
    kernel.vm.unbind(aspace, binding)
    # a fault that raises: a fresh page with every module full
    cpage = coherent.cpages.create(label="no-room")
    coherent.map_page(aspace.asid, 10_000, cpage, Rights.WRITE)
    for module in kernel.machine.modules:
        while module.n_free:
            module.allocate()
    with pytest.raises(OutOfFramesError):
        kernel.fault(0, aspace.asid, 10_000, False, kernel.engine.now)
    return kernel, recorder, daemon


def test_each_action_is_published_exactly_once(observed):
    kernel, recorder, daemon = observed
    coherent = kernel.coherent
    counts = recorder.counts()
    assert counts["fault"] == coherent.fault_handler.fault_count
    assert counts["transfer"] == kernel.machine.xfer.transfer_count
    assert counts["shootdown"] == coherent.shootdown.shootdowns
    assert counts["defrost_run"] == coherent.defrost.runs
    assert counts["thaw"] == coherent.defrost.pages_thawed
    # every Cmap message is applied by an interrupt (one bit of a
    # shootdown's per-binding masks) or on activation (apply_pending)
    interrupted = sum(
        mask.bit_count()
        for kind, args in recorder.seen if kind == "shootdown"
        for mask in args[-1])
    on_activation = sum(
        len(args[-1]) for kind, args in recorder.seen
        if kind == "apply_pending")
    assert interrupted + on_activation == sum(
        cmap.messages_applied for cmap in coherent.cmaps.values())


def test_the_run_reaches_every_kind_and_both_raise_and_vm_paths(observed):
    kernel, recorder, daemon = observed
    counts = recorder.counts()
    assert all(counts[kind] for kind in KINDS), counts
    assert daemon.pages_replaced > 0
    raised = [args for kind, args in recorder.seen
              if kind == "fault" and args[5] is None]
    assert len(raised) == 1
    by_vpages = [args for kind, args in recorder.seen
                 if kind == "shootdown" and args[1] is None]
    assert len(by_vpages) >= 2  # the protect and the unmap


def test_the_folds_agree_with_the_stream(observed):
    """The tracer skips what it never traced (a raised fault,
    virtual-range shootdowns); the metrics fold counts everything."""
    kernel, recorder, _ = observed
    counts = recorder.counts()
    traced = kernel.tracer.counts()
    raised = sum(1 for kind, args in recorder.seen
                 if kind == "fault" and args[5] is None)
    by_vpages = sum(1 for kind, args in recorder.seen
                    if kind == "shootdown" and args[1] is None)
    assert kernel.tracer.dropped == 0
    assert traced["fault"] == counts["fault"] - raised
    assert traced["shootdown"] == counts["shootdown"] - by_vpages
    assert traced["transfer"] == counts["transfer"]
    assert traced["defrost_run"] == counts["defrost_run"]
    totals = kernel.metrics.totals()
    assert totals["faults_total"] == counts["fault"]
    assert totals["shootdowns_total"] == counts["shootdown"]
    assert totals["transfers_total"] == counts["transfer"]
    assert totals["defrost_runs_total"] == counts["defrost_run"]


def test_the_tracer_goes_first_and_leaves_when_disabled():
    observers = Observers()
    checker = object()
    observers.append(checker)
    tracer = ProtocolTracer(observers=observers)
    assert tracer not in observers and not observers.tracing
    assert observers.new_eid() is None  # no ids drawn while untraced
    tracer.enable()
    tracer.enable()
    assert observers == [tracer, checker]
    assert [observers.new_eid(), observers.new_eid()] == [0, 1]
    tracer.disable()
    assert observers == [checker] and observers.new_eid() is None
    tracer.add_sink(type("Sink", (), {"emit": lambda self, e: None})())
    assert observers[0] is tracer
