"""Shared fixtures and helpers for the PLATINUM test suite."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.policy.fixed import (
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    TimestampFreezePolicy,
)
from repro.kernel.kernel import Kernel
from repro.machine.params import MachineParams
from repro.machine.pmap import Rights


@dataclass
class ProtocolHarness:
    """A kernel plus one mapped Cpage, with helpers to drive faults.

    Mirrors the setup the section 4 microbenchmarks use: a single-page
    memory object mapped read-write into one address space that is active
    on every processor.
    """

    kernel: Kernel
    aspace_id: int
    vpage: int
    cpage: object

    @property
    def machine(self):
        return self.kernel.machine

    def settle(self, gap_ns: float = 20e6) -> None:
        engine = self.kernel.engine
        engine.run(until=engine.now + gap_ns)

    def fault(self, proc: int, write: bool, settle: bool = True):
        if settle:
            self.settle()
        now = self.kernel.engine.now
        return self.kernel.fault(
            proc, self.aspace_id, self.vpage, write, now
        )

    def latency(self, proc: int, write: bool) -> float:
        self.settle()
        now = self.kernel.engine.now
        result = self.kernel.fault(
            proc, self.aspace_id, self.vpage, write, now
        )
        return float(result.completion - now)

    def pmap_entry(self, proc: int):
        cmap = self.kernel.coherent.cmaps[self.aspace_id]
        pmap = cmap.pmap_for(proc)
        return pmap.lookup(self.vpage) if pmap is not None else None

    def cmap_entry(self, proc: int = 0):
        return self.kernel.coherent.cmaps[self.aspace_id].lookup(self.vpage)


def make_harness(
    policy="always",
    n_processors: int = 4,
    home_module: int = 0,
    rights: Rights = Rights.WRITE,
    defrost_enabled: bool = False,
    **param_overrides,
) -> ProtocolHarness:
    """Build a ProtocolHarness with the given replication policy."""
    policies = {
        "always": AlwaysReplicatePolicy,
        "never": NeverCachePolicy,
        "freeze": TimestampFreezePolicy,
    }
    params = MachineParams(n_processors=n_processors).scaled(
        **param_overrides
    )
    kernel = Kernel(
        params=params,
        policy=policies[policy]() if isinstance(policy, str) else policy,
        defrost_enabled=defrost_enabled,
    )
    cpage = kernel.coherent.cpages.create(
        home_module=home_module, label="test"
    )
    aspace = kernel.vm.create_address_space()
    kernel.coherent.map_page(aspace.asid, 0, cpage, rights)
    for proc in range(params.n_processors):
        kernel.coherent.activate(aspace.asid, proc)
    return ProtocolHarness(kernel, aspace.asid, 0, cpage)


@pytest.fixture
def harness():
    return make_harness()


@pytest.fixture
def freeze_harness():
    return make_harness(policy="freeze")


# -- the generated-workload corpus --------------------------------------------


#: corpus seeds the cross-suite fixture parametrizes over: one plain
#: sharing spec and one false-sharing injector (seed 102), so every
#: suite using the fixture covers both regimes
GENERATED_FIXTURE_SEEDS = (100, 102)


@pytest.fixture(params=GENERATED_FIXTURE_SEEDS,
                ids=lambda s: f"gen-seed{s}")
def generated_workload(request):
    """A generated workload: ``(spec, make_program)``.

    ``make_program()`` returns a *fresh* Program instance each call, so
    suites that run the same spec twice (determinism A/B, record then
    replay) never share generator state between runs.
    """
    from repro.workloads import GeneratedWorkload, generate_spec

    spec = generate_spec(request.param, "smoke")
    return spec, lambda: GeneratedWorkload(spec)


# -- optional suite-wide invariant checking -----------------------------------


def pytest_addoption(parser):
    parser.addoption(
        "--check-invariants",
        action="store_true",
        default=False,
        help="hook the repro.check global coherence invariant checker "
        "into every coherent memory system the suite builds, so every "
        "protocol action in every test is invariant-checked",
    )


def _patch_invariant_install(monkeypatch):
    """Make every CoherentMemorySystem built while patched self-install
    the invariant checker as a post-action protocol hook."""
    from repro.check import install_invariant_checker
    from repro.core.coherent_memory import CoherentMemorySystem

    original = CoherentMemorySystem.__init__

    def patched(self, *args, **kwargs):
        original(self, *args, **kwargs)
        install_invariant_checker(self)

    monkeypatch.setattr(CoherentMemorySystem, "__init__", patched)


@pytest.fixture(autouse=True)
def _suite_invariant_checking(request, monkeypatch):
    if request.config.getoption("--check-invariants"):
        _patch_invariant_install(monkeypatch)
    yield
