"""Seeded schedule fuzzing of the coherency protocol.

The discrete-event engine normally breaks timestamp ties by insertion
order, so every run explores exactly one interleaving.  Real protocol
bugs hide in the *other* legal interleavings -- the orderings a NUMA
machine would produce when two processors fault in the same nanosecond.
This fuzzer explores them:

1. a seeded RNG generates a small synthetic schedule of protocol
   operations (reads, writes, defrost runs, address-space activation
   changes) with deliberately colliding timestamps;
2. the same seed perturbs the engine's tie-breaking order
   (:meth:`repro.sim.engine.Engine.perturb_ties`), so same-time events
   execute in a seed-dependent shuffle;
3. every operation runs with the full invariant checker installed as a
   protocol hook and a shadow memory model asserting read values, so a
   silent divergence surfaces at the step that caused it;
4. a failing schedule is *shrunk* (delta debugging over the operation
   list) to a minimal schedule that still fails, which is what the
   report presents.

Everything is deterministic per seed: ``fuzz(n_seeds=100)`` today and in
CI next year run byte-identical schedules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..kernel.kernel import Kernel
from ..machine.pmap import Rights
from ..point import point_kernel
from ..policy.registry import policy_names
from .invariants import install_invariant_checker

#: operation kinds a schedule is built from
OP_KINDS = ("read", "write", "defrost", "deactivate", "activate")

#: delays (ns) between consecutive operations; the zeros are the point:
#: they pile operations onto one timestamp so tie perturbation matters
DELAY_CHOICES = (0, 0, 0, 0, 50_000, 200_000, 1_000_000, 3_000_000)


@dataclass(frozen=True)
class FuzzOp:
    """One scheduled protocol operation."""

    kind: str
    proc: int
    vpage: int
    value: int
    delay_ns: int

    def describe(self) -> str:
        if self.kind in ("read", "write"):
            return (
                f"+{self.delay_ns / 1e6:g}ms cpu{self.proc} "
                f"{self.kind} page {self.vpage}"
                + (f" <- {self.value}" if self.kind == "write" else "")
            )
        return f"+{self.delay_ns / 1e6:g}ms {self.kind} cpu{self.proc}"


def make_schedule(
    rng: random.Random,
    n_ops: int,
    n_processors: int,
    n_pages: int,
) -> Tuple[FuzzOp, ...]:
    """A seeded random schedule, read/write heavy with rarer daemon and
    activation churn."""
    ops = []
    for _ in range(n_ops):
        kind = rng.choices(
            OP_KINDS, weights=(40, 35, 5, 10, 10), k=1
        )[0]
        ops.append(
            FuzzOp(
                kind=kind,
                proc=rng.randrange(n_processors),
                vpage=rng.randrange(n_pages),
                value=rng.randrange(1, 100_000),
                delay_ns=rng.choice(DELAY_CHOICES),
            )
        )
    return tuple(ops)


@dataclass
class ScheduleOutcome:
    """What happened when one schedule ran."""

    ops_run: int
    checks: int
    #: (step index, op, exception) of the first failure, or None
    failure: Optional[Tuple[int, Optional[FuzzOp], Exception]] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_schedule(
    ops: Sequence[FuzzOp],
    *,
    n_processors: int = 3,
    n_pages: int = 3,
    tie_seed: Optional[int] = None,
    t1: float = 2_000_000.0,
    policy: Optional[str] = None,
    frames_per_module: int = 16,
    on_step: Optional[Callable[[int, Kernel], None]] = None,
    trace: bool = False,
    trace_max_events: int = 4_096,
) -> ScheduleOutcome:
    """Run one schedule on a fresh small kernel with invariants hooked.

    The freeze policy runs with a short ``t1`` so freezes actually occur
    within the schedule's time span; ``policy`` swaps in another
    ``policy.registry`` name (at its defaults) for corpus sweeps.
    ``on_step(i, kernel)`` is called after operation ``i`` -- the
    corruption-injection tests use it.  Tracing, when requested, uses
    the ring-buffer mode so unbounded schedules cannot exhaust memory.
    """
    if policy is None:
        policy = "freeze"
    elif policy not in policy_names():
        raise ValueError(f"unknown fuzz policy {policy!r}")
    kernel = point_kernel({
        "machine": n_processors,
        "params": {"frames_per_module": frames_per_module},
        "policy": policy,
        "policy_args": {"t1": t1} if policy == "freeze" else None,
        "defrost": False,
    })
    if trace:
        kernel.tracer.use_ring(trace_max_events)
        kernel.tracer.enable()
    if tie_seed is not None:
        kernel.engine.perturb_ties(random.Random(tie_seed))
    checker = install_invariant_checker(kernel.coherent)

    aspace = kernel.vm.create_address_space()
    for vpage in range(n_pages):
        cpage = kernel.coherent.cpages.create(label=f"fuzz{vpage}")
        kernel.coherent.map_page(aspace.asid, vpage, cpage, Rights.WRITE)
    active = set()
    for proc in range(n_processors):
        kernel.coherent.activate(aspace.asid, proc)
        active.add(proc)

    shadow: dict[int, int] = {}
    outcome = ScheduleOutcome(ops_run=0, checks=0)
    engine = kernel.engine

    def execute(step: int, op: FuzzOp) -> None:
        if outcome.failure is not None:
            return
        try:
            if op.kind in ("read", "write"):
                if op.proc not in active:
                    kernel.coherent.activate(aspace.asid, op.proc)
                    active.add(op.proc)
                write = op.kind == "write"
                kernel.fault(
                    op.proc, aspace.asid, op.vpage, write, engine.now
                )
                cmap = kernel.coherent.cmaps[aspace.asid]
                entry = cmap.pmap_for(op.proc).lookup(op.vpage)
                assert entry is not None and entry.rights.allows(write)
                if write:
                    entry.frame.data[0] = op.value
                    shadow[op.vpage] = op.value
                else:
                    expected = shadow.get(op.vpage)
                    if expected is not None:
                        got = int(entry.frame.data[0])
                        assert got == expected, (
                            f"cpu{op.proc} read {got} from page "
                            f"{op.vpage}, expected {expected}"
                        )
            elif op.kind == "defrost":
                kernel.coherent.defrost.run_once()
            elif op.kind == "deactivate":
                if op.proc in active and len(active) > 1:
                    kernel.coherent.deactivate(aspace.asid, op.proc)
                    active.discard(op.proc)
            elif op.kind == "activate":
                if op.proc not in active:
                    kernel.coherent.activate(aspace.asid, op.proc)
                    active.add(op.proc)
            if on_step is not None:
                on_step(step, kernel)
            checker.check()
            outcome.ops_run += 1
        except Exception as exc:  # noqa: BLE001 - any failure is a find
            outcome.failure = (step, op, exc)
            engine.stop()

    when = 0
    for step, op in enumerate(ops):
        when += op.delay_ns
        engine.schedule_at(
            when, (lambda s=step, o=op: execute(s, o))
        )
    try:
        engine.run()
    except Exception as exc:  # a daemon/engine-level failure
        if outcome.failure is None:
            outcome.failure = (outcome.ops_run, None, exc)
    outcome.checks = checker.checks
    return outcome


def shrink_schedule(
    ops: Sequence[FuzzOp],
    still_fails: Callable[[Sequence[FuzzOp]], bool],
) -> Tuple[FuzzOp, ...]:
    """Delta-debug a failing schedule down to a minimal failing one.

    Greedy ddmin: try dropping chunks (halving the chunk size each
    sweep) and keep any removal that still fails.  The result is
    1-minimal: removing any single remaining operation makes the
    failure disappear.
    """
    ops = list(ops)
    chunk = max(1, len(ops) // 2)
    while True:
        removed_any = False
        i = 0
        while i < len(ops):
            candidate = ops[:i] + ops[i + chunk:]
            if candidate and still_fails(candidate):
                ops = candidate
                removed_any = True
            else:
                i += chunk
        if chunk == 1:
            if not removed_any:
                break
        else:
            chunk = max(1, chunk // 2)
    return tuple(ops)


@dataclass
class FuzzFailure:
    """One seed's failure, with its shrunk reproduction."""

    seed: int
    error: str
    schedule: Tuple[FuzzOp, ...]
    shrunk: Tuple[FuzzOp, ...]

    def describe(self) -> str:
        lines = [
            f"seed {self.seed}: {self.error}",
            f"  minimal failing schedule "
            f"({len(self.shrunk)} of {len(self.schedule)} ops):",
        ]
        lines.extend(f"    {op.describe()}" for op in self.shrunk)
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Aggregate over all seeds of one fuzzing campaign."""

    n_seeds: int
    n_ops: int
    schedules_run: int = 0
    ops_run: int = 0
    checks: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        head = (
            f"fuzz: {self.schedules_run} schedules "
            f"({self.n_ops} ops each), {self.ops_run} ops run, "
            f"{self.checks} invariant sweeps, "
            f"{len(self.failures)} failure(s)"
        )
        if self.ok:
            return head + " -- all interleavings conform"
        return "\n".join(
            [head] + [f.describe() for f in self.failures]
        )


def fuzz(
    n_seeds: int = 20,
    *,
    base_seed: int = 0,
    n_ops: int = 40,
    n_processors: int = 3,
    n_pages: int = 3,
    shrink: bool = True,
    on_step: Optional[Callable[[int, Kernel], None]] = None,
    progress: Optional[Callable[[int, ScheduleOutcome], None]] = None,
) -> FuzzReport:
    """Run ``n_seeds`` seeded schedules; shrink and report any failure.

    Each seed generates both the operation schedule and the engine's
    tie-breaking perturbation, so a reported seed is a complete
    reproduction recipe.
    """
    report = FuzzReport(n_seeds=n_seeds, n_ops=n_ops)

    def run(ops: Sequence[FuzzOp], seed: int) -> ScheduleOutcome:
        return run_schedule(
            ops,
            n_processors=n_processors,
            n_pages=n_pages,
            tie_seed=seed,
            on_step=on_step,
        )

    for seed in range(base_seed, base_seed + n_seeds):
        ops = make_schedule(
            random.Random(seed), n_ops, n_processors, n_pages
        )
        outcome = run(ops, seed)
        report.schedules_run += 1
        report.ops_run += outcome.ops_run
        report.checks += outcome.checks
        if progress is not None:
            progress(seed, outcome)
        if outcome.failure is not None:
            _step, _op, exc = outcome.failure
            shrunk = (
                shrink_schedule(
                    ops, lambda sub: not run(sub, seed).ok
                )
                if shrink
                else tuple(ops)
            )
            report.failures.append(
                FuzzFailure(
                    seed=seed,
                    error=f"{type(exc).__name__}: {exc}",
                    schedule=tuple(ops),
                    shrunk=shrunk,
                )
            )
    return report


# -- generated-corpus adapter -------------------------------------------------


def schedule_from_spec(spec, max_ops: int = 120) -> Tuple[
    Tuple[FuzzOp, ...], int, int
]:
    """Lower a declarative workload spec into a fuzz schedule.

    Instead of the uniform random schedules of :func:`make_schedule`,
    the operation stream follows the spec: the read/write mix and page
    choice track each phase's distribution and the spec's sharing
    pattern (private partitioning, hotspot skew, round-robin handoff,
    ...), with the usual sprinkle of daemon and activation churn.  The
    result is deterministic per spec (seeded from ``spec.seed``) and
    returns ``(ops, n_processors, n_pages)`` sized to the spec.
    """
    from ..workloads.spec import WorkloadSpec

    if isinstance(spec, dict):
        spec = WorkloadSpec.from_dict(spec)
    rng = random.Random(spec.seed ^ 0x5EED)
    n_processors = max(2, min(spec.threads, spec.machine))
    n_pages = max(2, min(spec.pages, 8))
    ops: List[FuzzOp] = []
    for phase in spec.phases:
        read_frac = phase.mix["read"]
        for k in range(phase.ops):
            for tid in range(spec.threads):
                if len(ops) >= max_ops:
                    return tuple(ops), n_processors, n_pages
                roll = rng.random()
                if roll < 0.08:
                    kind = rng.choice(
                        ("defrost", "deactivate", "activate"))
                else:
                    kind = (
                        "read" if rng.random() < read_frac else "write"
                    )
                sharing = spec.sharing
                if sharing == "private":
                    page = tid % n_pages
                elif sharing == "round-robin":
                    page = (tid + k) % n_pages
                elif sharing == "producer-consumer":
                    page = k % n_pages
                elif sharing == "hotspot" and rng.random() < 0.75:
                    page = 0
                else:
                    page = rng.randrange(n_pages)
                if spec.false_sharing and rng.random() < 0.25:
                    # model the falsely-shared counter page: all threads
                    # write the same page back to back
                    page = n_pages - 1
                    if kind in ("read", "write"):
                        kind = "write"
                ops.append(FuzzOp(
                    kind=kind,
                    proc=tid % n_processors,
                    vpage=page,
                    value=rng.randrange(1, 100_000),
                    delay_ns=rng.choice(DELAY_CHOICES),
                ))
    return tuple(ops), n_processors, n_pages


def fuzz_corpus(
    specs: Sequence,
    *,
    policies: Sequence[Optional[str]] = ("freeze", "always"),
    max_ops: int = 120,
    shrink: bool = True,
    progress: Optional[Callable[[str, ScheduleOutcome], None]] = None,
) -> FuzzReport:
    """Fuzz every (corpus spec, policy) pair; shrink any failure.

    The same invariant + shadow-memory nets as :func:`fuzz`, but the
    schedules come from generated workload specs rather than uniform
    randomness, so machine-generated scenarios (skewed mixes, false
    sharing, phase structure) reach the protocol's tie-perturbed paths.
    """
    report = FuzzReport(n_seeds=len(specs) * len(policies), n_ops=max_ops)
    for spec in specs:
        ops, n_processors, n_pages = schedule_from_spec(
            spec, max_ops=max_ops)
        seed = spec.seed if not isinstance(spec, dict) else spec["seed"]
        name = spec.name if not isinstance(spec, dict) else spec["name"]
        for policy in policies:

            def run(sub: Sequence[FuzzOp]) -> ScheduleOutcome:
                return run_schedule(
                    sub,
                    n_processors=n_processors,
                    n_pages=n_pages,
                    tie_seed=seed,
                    policy=policy,
                )

            outcome = run(ops)
            report.schedules_run += 1
            report.ops_run += outcome.ops_run
            report.checks += outcome.checks
            if progress is not None:
                progress(f"{name}/{policy or 'freeze'}", outcome)
            if outcome.failure is not None:
                _step, _op, exc = outcome.failure
                shrunk = (
                    shrink_schedule(ops, lambda sub: not run(sub).ok)
                    if shrink else tuple(ops)
                )
                report.failures.append(FuzzFailure(
                    seed=seed,
                    error=(f"{name} under {policy or 'freeze'}: "
                           f"{type(exc).__name__}: {exc}"),
                    schedule=tuple(ops),
                    shrunk=shrunk,
                ))
    return report
