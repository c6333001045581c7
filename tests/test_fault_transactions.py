"""A golden table of fault transactions.

``tests/snapshots/fault_transactions.json`` was generated at the commit
*before* the fault path was rewritten for host speed (PR 23) and pins,
for every reachable combination of

    state {empty, present1, present+, modified} x {read, write}
    x {local copy, none} x policy {cache, remote-map} x {frozen, not}
    x shootdown targets {all active, one deferred}
    x local module {full, not}

(the cases of ``tests/test_core_fault.py`` generalised) plus the error
and policy-driven freeze/thaw paths, everything a fault can be observed
to do: the completion time it returns and the action and lock wait it
publishes, the Cpage, every Pmap, reference mask and Cmap queue, every
ATC, bus, switch port and interrupt state, the trace events with their
ids and causes, and the metrics registry.  A change to the fault path
must reproduce the file byte for byte.

The handler takes what only an observer reads (the Cpage's state before
the fault, the policy's decision) only when an observer listens, so
every case also runs with no observer at all and must leave the same
machine state (``tests.conftest.machine_state``) and return the same
times.

    python tests/test_fault_transactions.py --write   # regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.cmap import Directive
from repro.doc import compact
from repro.kernel.kernel import Kernel
from repro.machine.params import MachineParams
from repro.machine.pmap import Rights
from repro.policy.base import Action, ReplicationPolicy
from repro.policy.fixed import TimestampFreezePolicy
from repro.telemetry.metrics import MetricsRegistry

from tests.conftest import ActionLog, bits, machine_state

SNAPSHOT = Path(__file__).parent / "snapshots" / "fault_transactions.json"

N_PROCESSORS = 4
#: ns between the steps of a case: shorter than a fault handler runs, so
#: handler-lock waits and bus queueing are part of what is pinned
STEP_GAP = 20_000
#: the two virtual pages the Cpage is bound at (address spaces A and B)
VPAGE = {"A": 0, "B": 5, "C": 2}


class Scripted(ReplicationPolicy):
    """A policy that answers what the case tells it to; like the
    paper's thaw-on-fault variant it thaws a frozen page it caches."""

    name = "scripted"

    def __init__(self) -> None:
        super().__init__()
        self.answer = Action.CACHE

    def decide(self, ctx) -> Action:
        if self.answer is Action.CACHE:
            self.thaw(ctx.cpage, ctx.now)
        return self.answer


class World:
    """Four processors, one Cpage bound into address spaces A and B
    (active everywhere) and C (active nowhere, bound read-only).

    ``observed`` puts the tracer, the metrics fold and an
    :class:`ActionLog` on the observer list; without it the list is
    empty, and a step returns only what the kernel returns."""

    def __init__(self, policy=None, frames_per_module: int = 3,
                 observed: bool = True) -> None:
        params = MachineParams(n_processors=N_PROCESSORS).scaled(
            frames_per_module=frames_per_module, atc_entries=2)
        self.policy = policy if policy is not None else Scripted()
        self.kernel = Kernel(
            params=params, policy=self.policy, defrost_enabled=False,
            trace=observed, metrics=MetricsRegistry(enabled=observed))
        coherent = self.kernel.coherent
        self.log = ActionLog() if observed else None
        if observed:
            coherent.observers.append(self.log)
        self.cpage = coherent.cpages.create(home_module=1, label="golden")
        self.asid = {}
        for name, rights in (("A", Rights.WRITE), ("B", Rights.WRITE),
                             ("C", Rights.READ)):
            aspace = self.kernel.vm.create_address_space()
            self.asid[name] = aspace.asid
            coherent.map_page(aspace.asid, VPAGE[name], self.cpage, rights)
            if name != "C":
                for proc in range(N_PROCESSORS):
                    coherent.activate(aspace.asid, proc)
        self.now = 0

    # -- steps ---------------------------------------------------------------

    def step(self, step: tuple) -> dict:
        """Run one step ``(verb, *args)`` and return what it returned."""
        verb, args = step[0], step[1:]
        self.now += STEP_GAP
        out = getattr(self, "_" + verb)(*args)
        return {"step": list(step), **(out or {})}

    def _fault(self, proc: int, aspace: str, write: bool,
               vpage: int | None = None) -> dict:
        vpage = VPAGE[aspace] if vpage is None else vpage
        try:
            end = self.kernel.fault(
                proc, self.asid[aspace], vpage, write, self.now)
        except Exception as exc:  # noqa: BLE001 - the error is the datum
            return {"error": [type(exc).__name__, str(exc)]}
        if self.log is None:
            return {"completion": end}
        action, _end, wait = self.log.faults[-1]
        return {"completion": end, "action": action,
                "contention_wait": wait}

    def _answer(self, action: str) -> None:
        self.policy.answer = Action(action)

    def _touch(self, proc: int, aspace: str, write: bool) -> dict:
        """A reference through the MMU: loads the ATC, sets R/M bits."""
        result = self.kernel.machine.mmus[proc].translate(
            self.asid[aspace], VPAGE[aspace], write)
        return {"fault": result.fault, "cost": result.cost,
                "atc_hit": result.atc_hit}

    def _freeze(self) -> None:
        self.policy.freeze(self.cpage, self.now)

    def _advance(self, ns: int) -> None:
        self.now += ns

    def _deactivate(self, aspace: str, proc: int) -> None:
        self.kernel.coherent.deactivate(self.asid[aspace], proc)

    def _activate(self, aspace: str, proc: int) -> dict:
        return {"cost": self.kernel.coherent.activate(
            self.asid[aspace], proc)}

    def _fill_module(self, module: int) -> None:
        mod = self.kernel.machine.modules[module]
        while mod.n_free:
            mod.allocate()

    def _restrict_vm(self, aspace: str) -> None:
        """The VM layer withdraws every right on the binding."""
        cmap = self.kernel.coherent.cmaps[self.asid[aspace]]
        cmap.entries[VPAGE[aspace]].vm_rights = Rights.NONE

    def _shoot(self, directive: str, initiator: int) -> dict:
        # the bindings in which a translation matches, the initiator's
        # own included (what the pinned "messages_posted" counts)
        matched = 0
        for aspace_id, vpage in self.cpage.bindings:
            cmap = self.kernel.coherent.cmaps[aspace_id]
            entry = cmap.entries.get(vpage)
            if entry is not None and any(
                    vpage in cmap._pmaps[proc]._entries
                    for proc in bits(entry.ref_mask)
                    if proc in cmap._pmaps):
                matched += 1
        cost = self.kernel.coherent.shootdown.shoot_cpage(
            self.cpage, Directive(directive), initiator, self.now)
        if self.log is None:
            return {"initiator_cost": cost}
        _cost, interrupted, deferred, _hits = self.log.shootdowns[-1]
        return {"initiator_cost": cost,
                "interrupted": bits(interrupted),
                "deferred": bits(deferred),
                "messages_posted": matched,
                "n_targets": (interrupted | deferred).bit_count()}

    # -- everything observable -----------------------------------------------

    def observe(self) -> dict:
        kernel = self.kernel
        return {
            **pinned(machine_state(kernel)),
            "trace": [e.record() for e in kernel.tracer.events],
            "next_eid": kernel.coherent.observers.next_eid,
            "metrics": kernel.metrics.summary(),
            "metrics_sha256": hashlib.sha256(
                kernel.metrics.to_jsonl().encode()).hexdigest(),
        }


#: the locations the table pins, as ``machine_state`` spells them: of
#: the one Cpage, of each Cmap, and of the machine
PINNED_CPAGE = ("state", "directory", "has_write_mapping",
                "last_invalidation", "frozen", "frozen_at",
                "handler_busy_until", "stats")
PINNED_CMAP = ("ref_masks", "active_mask", "queue", "posted", "applied",
               "pmaps")
PINNED = ("frozen_list", "mmus", "resources", "modules", "interrupts",
          "xfer", "shootdown", "fault_count")


def pinned(state: dict) -> dict:
    """The machine's state projected onto the keys the table pins."""
    (cpage,) = state["cpages"]
    return {
        "cpage": {key: cpage[key] for key in PINNED_CPAGE},
        "cmaps": {asid: {key: cmap[key] for key in PINNED_CMAP}
                  for asid, cmap in state["cmaps"].items()},
        **{key: state[key] for key in PINNED},
    }


def run_case(steps: list[tuple], policy=None, **world) -> dict:
    """Every step's return value and a digest of the state after it;
    the whole observable state after the last step."""
    w = World(policy, **world)
    rows = []
    for step in steps:
        row = w.step(step)
        state = w.observe()
        row["state_sha256"] = hashlib.sha256(
            compact(state).encode()).hexdigest()[:16]
        rows.append(row)
    w.kernel.check_invariants()
    return {"steps": rows, "final": state}


# -- the table ----------------------------------------------------------------------

#: processor roles: 0 holds the copy, 1 the second copy or a mapping
#: through address space B, 2 is the stranger, 3 maps through B and is
#: the target that may have gone inactive
HOLDER, SECOND, STRANGER, SLEEPER = 0, 1, 2, 3

SETUP = {
    "empty": [],
    "present1": [
        ("fault", HOLDER, "A", False),
        ("answer", "remote_map"),
        ("fault", SECOND, "B", False),
        ("fault", SLEEPER, "B", False),
    ],
    "present+": [
        ("fault", HOLDER, "A", False),
        ("fault", SECOND, "B", False),
        ("answer", "remote_map"),
        ("fault", SLEEPER, "B", False),
    ],
    "modified": [
        ("fault", HOLDER, "A", True),
        ("answer", "remote_map"),
        ("fault", SECOND, "B", True),
        ("fault", SLEEPER, "B", False),
    ],
}


def matrix() -> dict[str, list[tuple]]:
    cases = {}
    for state, setup in SETUP.items():
        for write in (False, True):
            for local in (True, False):
                if local and state == "empty":
                    continue
                prober = HOLDER if local else STRANGER
                # the policy is consulted, and a frame allocated, only
                # on a miss with no local copy of a non-empty page
                consulted = not local and state != "empty"
                for answer in ("cache", "remote_map") if consulted \
                        else ("cache",):
                    for frozen in (False, True):
                        if frozen and state in ("empty", "present+"):
                            continue
                        for deferred in (False, True):
                            if deferred and state == "empty":
                                continue
                            for full in (False, True):
                                if full and local:
                                    continue
                                name = "/".join([
                                    state, "write" if write else "read",
                                    "local" if local else "nolocal",
                                    answer,
                                    "frozen" if frozen else "thawed",
                                    "deferred" if deferred else "active",
                                    "full" if full else "room",
                                ])
                                steps = list(setup)
                                # load every holder's ATC so shootdowns
                                # and installs have descriptors to flush
                                if setup:
                                    steps += [
                                        ("touch", HOLDER, "A", False),
                                        ("touch", SECOND, "B", False),
                                        ("touch", SLEEPER, "B", False),
                                    ]
                                if frozen:
                                    steps.append(("freeze",))
                                if deferred:
                                    steps.append(
                                        ("deactivate", "B", SLEEPER))
                                if full:
                                    steps.append(("fill_module", prober))
                                steps += [
                                    ("answer", answer),
                                    ("fault", prober, "A", write),
                                    # the retry the executor would make
                                    ("touch", prober, "A", write),
                                ]
                                if deferred:
                                    steps.append(("activate", "B", SLEEPER))
                                cases[name] = steps
    return cases


def scripted() -> dict[str, list[tuple]]:
    """Paths the matrix does not reach."""
    return {
        # an empty page whose faulting node is full is filled at home (the
        # matrix's empty/full cases); with the home full too the fault
        # fails and nothing may change
        "empty/read/out-of-frames": [
            ("fill_module", STRANGER), ("fill_module", 1),
            ("fault", STRANGER, "A", False)],
        "empty/write/out-of-frames": [
            ("fill_module", STRANGER), ("fill_module", 1),
            ("fault", STRANGER, "A", True)],
        # rights and address errors (a fault on an address space that
        # does not exist is tests/test_kernel_vm.py's: PR 23 changed what
        # it leaves behind)
        "error/write-to-read-only-binding": [
            ("fault", HOLDER, "A", False), ("fault", STRANGER, "C", True)],
        "error/unmapped-vpage": [("fault", HOLDER, "A", False, 77)],
        "error/binding-without-rights": [
            ("fault", HOLDER, "A", False), ("restrict_vm", "B"),
            ("fault", SECOND, "B", False)],
        # a processor that never activated the address space: the fault
        # creates and attaches its Pmap; the binding is read-only, so a
        # frozen page is remote-mapped with the binding's rights
        "inactive-aspace/read-replicates": [
            ("fault", HOLDER, "A", True), ("fault", STRANGER, "C", False),
            ("touch", STRANGER, "C", False)],
        "inactive-aspace/frozen-remote-map": [
            ("fault", HOLDER, "A", True), ("freeze",),
            ("answer", "remote_map"), ("fault", STRANGER, "C", False),
            ("fault", SLEEPER, "B", False)],
        # the reference mask is conservative: a target whose translation
        # is already gone is skipped, and a direct shootdown reports it
        "shootdown/restrict-then-invalidate": [
            ("fault", HOLDER, "A", True), ("answer", "remote_map"),
            ("fault", SECOND, "B", True), ("fault", SLEEPER, "B", True),
            ("deactivate", "B", SLEEPER),
            ("shoot", "restrict", STRANGER),
            ("shoot", "invalidate", SECOND),
            ("activate", "B", SLEEPER)],
        # the same processor holds the page through both address spaces
        "two-bindings/one-processor": [
            ("fault", HOLDER, "A", False), ("fault", HOLDER, "B", False),
            ("fault", SECOND, "A", False), ("fault", SECOND, "B", True),
            ("fault", HOLDER, "A", True)],
    }


def policy_driven() -> dict[str, tuple[dict, list[tuple]]]:
    """The paper's own policy: a ping-pong freezes the page inside a
    fault (FREEZE event), and the thaw-on-fault variant thaws it inside
    one (THAW event)."""
    pingpong = [
        ("fault", HOLDER, "A", True), ("fault", SECOND, "A", True),
        ("fault", HOLDER, "A", True), ("fault", STRANGER, "B", False),
    ]
    return {
        "policy/freeze-on-pingpong": (
            {"t1": 10_000_000},
            pingpong + [("fault", SLEEPER, "A", True)]),
        "policy/thaw-on-fault": (
            {"t1": 700_000, "thaw_on_fault": True},
            pingpong + [("advance", 5_000_000),
                        ("fault", SLEEPER, "B", False),
                        ("advance", 5_000_000),
                        ("fault", STRANGER, "A", True)]),
    }


def generate() -> dict[str, dict]:
    table = {}
    for name, steps in {**matrix(), **scripted()}.items():
        table[name] = run_case(steps)
    for name, (args, steps) in policy_driven().items():
        table[name] = run_case(steps, policy=TimestampFreezePolicy(**args))
    return table


def render(table: dict[str, dict]) -> str:
    """One line per case, so a drift shows up as that case's line."""
    lines = [f"{json.dumps(name)}: {compact(case)}"
             for name, case in table.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


# -- tests -----------------------------------------------------------------------------

CASES = list({**matrix(), **scripted(), **policy_driven()})


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(SNAPSHOT.read_text())


@pytest.fixture(scope="module")
def table() -> dict:
    return generate()


def test_the_table_has_exactly_the_pinned_cases(golden):
    assert list(golden) == CASES


@pytest.mark.parametrize("name", CASES)
def test_fault_transaction(name, golden, table):
    want, got = golden[name], json.loads(compact(table[name]))
    # the first step that differs, then the first part of the final
    # state, before the whole: a drift should name where it is
    for w, g in zip(want["steps"], got["steps"]):
        assert g == w
    for key in want["final"]:
        assert got["final"][key] == want["final"][key], key
    assert got == want


def test_the_file_is_reproduced_byte_for_byte(table):
    assert render(table) == SNAPSHOT.read_text()


#: what a step returns only when an observer published it
OBSERVED_ONLY = ("action", "contention_wait", "interrupted", "deferred",
                 "messages_posted", "n_targets")


def run_twice(name: str) -> tuple[list, list]:
    """The case's steps in an observed and an unobserved world: per
    step, what the kernel returned and the machine's state after it."""
    cases = {**matrix(), **scripted()}
    runs = []
    for observed in (True, False):
        if name in cases:
            world = World(observed=observed)
            steps = cases[name]
        else:
            args, steps = policy_driven()[name]
            world = World(TimestampFreezePolicy(**args), observed=observed)
        rows = []
        for step in steps:
            out = world.step(step)
            rows.append(({k: v for k, v in out.items()
                          if k not in OBSERVED_ONLY},
                         machine_state(world.kernel)))
        runs.append(rows)
    return runs[0], runs[1]


@pytest.mark.parametrize("name", CASES)
def test_an_unobserved_fault_does_what_an_observed_one_does(name):
    """The whole machine state and every returned time agree step by
    step with and without observers on the list."""
    observed, unobserved = run_twice(name)
    for (want_out, want), (got_out, got) in zip(observed, unobserved):
        assert got_out == want_out
        for key in want:
            assert got[key] == want[key], (want_out["step"], key)
    assert len(observed) == len(unobserved)


def test_every_action_and_error_is_reached(golden):
    actions, errors, kinds = set(), set(), set()
    for case in golden.values():
        for row in case["steps"]:
            actions.add(row.get("action"))
            if "error" in row:
                errors.add(row["error"][0])
        kinds.update(e["kind"] for e in case["final"]["trace"])
    assert actions >= {"fill", "map_local", "upgrade", "collapse",
                       "replicate", "migrate", "remote_map"}
    assert errors >= {"ProtectionError", "OutOfFramesError",
                      "AddressError"}
    assert kinds >= {"fault", "shootdown", "transfer", "freeze", "thaw"}
    waits = [row["contention_wait"] for case in golden.values()
             for row in case["steps"] if "contention_wait" in row]
    assert any(waits) and not all(waits)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    SNAPSHOT.write_text(render(generate()))
    print(f"wrote {SNAPSHOT} ({SNAPSHOT.stat().st_size} bytes, "
          f"{len(CASES)} cases)")
