"""One way to run a point: a spec dict becomes a kernel and a program.

Every result in the paper is a *point* -- one program on one configured
machine -- and its data form is the ``{"kind": "run"}`` spec the bench
sweeps, ``repro-trace/1`` bundles (as ``config``) and the CLI all
speak::

    workload, args         which program, with which constructor args
    machine, params        processors, MachineParams field overrides
    system                 "platinum" (default), "uniform" or "smp"
    competitive[_period]   the section 8 migration-daemon comparator
    policy, policy_args    a ``policy.registry`` name + constructor args
    defrost, defrost_period

This module is the only place that knows how those keys become a
:class:`Kernel` and a :class:`Program`, and it builds every kernel with
one ``Kernel(...)`` call: what a comparator fixes of its kernel -- the
section 5.1 systems, section 8's migration daemon -- is a data row
(``SYSTEMS``, ``COMPETITIVE``) that refuses the spec's own policy and
defrost keys.  ``cli``, ``bench``, ``replay`` (``plain_platinum`` only),
``workloads.generate.run_spec`` and the fuzzer lower their inputs to a
spec and call it.  Anything wrong with a spec -- an unknown workload,
system, policy or parameter name, bad constructor arguments, an
impossible machine -- leaves here as a one-line :class:`ValueError`.
Instruments (access probe, sampler, trace sinks, invariant checker) are
attached by the caller that wants them.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from .baselines import SMPGauss, UniformSystemGauss
from .kernel.kernel import Kernel
from .machine.machine import Machine
from .machine.params import MachineParams
from .policy.competitive import CompetitivePolicy, MigrationDaemon
from .policy.fixed import NeverCachePolicy
from .policy.registry import make_policy
from .runtime.program import Program
from .workloads import (
    GaussianElimination,
    GeneratedWorkload,
    JacobiSOR,
    MatrixMultiply,
    MergeSort,
    NeuralNetSimulator,
    PhaseChangeSharing,
    ReadOnlySharing,
    RoundRobinRPC,
    RoundRobinSharing,
)

WORKLOADS: dict[str, Callable[..., Program]] = {
    "gauss": GaussianElimination,
    "mergesort": MergeSort,
    "neural": NeuralNetSimulator,
    "jacobi": JacobiSOR,
    "matmul": MatrixMultiply,
    "roundrobin": RoundRobinSharing,
    "roundrobin_rpc": RoundRobinRPC,
    "phasechange": PhaseChangeSharing,
    "readonly": ReadOnlySharing,
    # constrained-random programs; args = {"spec": WorkloadSpec.to_dict()}
    "generated": GeneratedWorkload,
}

#: programming system -> the programs written for it (section 5.1 ran
#: Gauss three ways; everything else is a PLATINUM program) and the
#: kernel a comparator fixes, whatever its spec says: ``(policy class or
#: None for the kernel default, defrost on)``.  The Uniform System has
#: no coherent memory (static placement, remote access in place); SMP's
#: message passing never leans on it, so its kernel is stock.
SYSTEMS: dict[str, tuple[dict[str, Callable[..., Program]], tuple]] = {
    "platinum": (WORKLOADS, None),
    "uniform": ({"gauss": UniformSystemGauss}, (NeverCachePolicy, False)),
    "smp": ({"gauss": SMPGauss}, (None, True)),
}

#: section 8's comparator (``competitive: true`` on a PLATINUM point):
#: pages held in one copy until a MigrationDaemon, sweeping every
#: ``competitive_period`` (default 100 ms), moves them to their heaviest
#: user; its reference counts take the place of defrost
COMPETITIVE = (CompetitivePolicy, False)

_PARAM_NAMES = frozenset(f.name for f in dataclasses.fields(MachineParams))


def _period_ns(spec: dict, key: str, default=None):
    """A daemon period of a spec, to the nearest ns as ``Engine.schedule``
    takes it; one that is not finite or rounds below 1 ns (the daemon
    would reschedule itself at the same instant forever) is refused."""
    value = spec.get(key, default)
    if value is None:
        return None
    try:
        period = int(round(value))
    except (TypeError, ValueError, OverflowError):  # text, nan, inf
        period = 0
    if period < 1:
        raise ValueError(
            f"{key} must be a finite time >= 1 ns, got {value!r}")
    return period


def _system_of(spec: dict) -> str:
    system = spec.get("system", "platinum")
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    return system


def plain_platinum(spec: dict) -> bool:
    """No comparator: the only kernels recorded and replayed (section
    5.1's use other executors, section 8's counts no trace holds)."""
    return (spec.get("system", "platinum") == "platinum"
            and not spec.get("competitive"))


def point_program(spec: dict) -> Program:
    """A fresh instance of the program a point spec describes."""
    system = _system_of(spec)
    programs = SYSTEMS[system][0]
    name = spec.get("workload")
    if name is None and len(programs) == 1:
        (name,) = programs  # a comparator system *is* its one program
    try:
        build = programs[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}"
            + ("" if system == "platinum" else f" for system {system!r}")
        ) from None
    try:
        return build(**dict(spec.get("args") or {}))
    except TypeError as exc:
        raise ValueError(f"workload {name!r}: bad arguments: {exc}") from None


def point_kernel(
    spec: dict,
    *,
    trace: bool = False,
    metrics=False,
    dataless: bool = False,
) -> Kernel:
    """A fresh kernel configured as a point spec describes.

    ``metrics`` is ``make_kernel``'s: ``True`` for an enabled registry,
    or a registry instance to share.  ``dataless`` builds a plain
    PLATINUM machine whose frames share one word array -- the replayer
    costs accesses without moving data; the comparator systems always
    carry theirs.  A bundle's ``config`` is itself a spec: its
    ``params`` is the full recorded parameter set.
    """
    system = _system_of(spec)
    overrides = dict(spec.get("params") or {})
    unknown = sorted(set(overrides) - _PARAM_NAMES)
    if unknown:
        raise ValueError(f"unknown machine parameter {', '.join(unknown)}")
    params = MachineParams(
        n_processors=spec.get("machine", 16)
    ).scaled(**overrides)
    fixed = SYSTEMS[system][1]
    if fixed is None and spec.get("competitive"):
        fixed = COMPETITIVE
        daemon_period = _period_ns(spec, "competitive_period", 100_000_000)
    if fixed is None:
        policy = make_policy(spec.get("policy"), spec.get("policy_args"))
        defrost = bool(spec.get("defrost", True))
        defrost_period = _period_ns(spec, "defrost_period")
    else:  # a comparator fixes its kernel and carries its data
        named = [key for key in ("policy", "policy_args", "defrost",
                                 "defrost_period") if key in spec]
        if named:
            raise ValueError(
                f"{'competitive' if fixed is COMPETITIVE else system} fixes "
                f"its kernel: {', '.join(named)} cannot be set")
        policy_class, defrost = fixed
        policy = policy_class() if policy_class else None
        defrost_period, dataless = None, False
    kernel = Kernel(
        machine=Machine(params, dataless=dataless),
        policy=policy,
        defrost_enabled=defrost,
        defrost_period=defrost_period,
        trace=trace,
        metrics=metrics,
    )
    if fixed is COMPETITIVE:
        MigrationDaemon(kernel.coherent, period=daemon_period).start()
    return kernel


def sec42_spec(
    n: int,
    machine: int,
    threads: int,
    *,
    colocate: bool = True,
    defrost: bool = True,
) -> dict:
    """The paper's section 4.2 anecdote as a point: Gauss with the
    column-size word sharing a page with the column lock (``colocate``),
    and a short defrost period so freeze/thaw shows up in a small run."""
    return {
        "kind": "run",
        "workload": "gauss",
        "machine": machine,
        "defrost": defrost,
        "defrost_period": 20e6,
        "args": {
            "n": n,
            "n_threads": threads,
            "verify_result": False,
            "colocate_lock_with_size": colocate,
        },
    }
