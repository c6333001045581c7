"""Figure 4: the protocol state-transition diagram.

Prints the declarative transition table and cross-validates every
no-local-copy transition against the live fault handler.
"""

from _common import publish

from repro.core import CpageState, format_table, lookup
from repro.policy.base import Action

from tests.conftest import make_harness


def _drive_handler() -> str:
    """Exercise each (state, access, policy) case on a live kernel and
    check the successor state against the table."""
    checks = []
    cases = [
        (CpageState.PRESENT1, False), (CpageState.PRESENT1, True),
        (CpageState.MODIFIED, False), (CpageState.MODIFIED, True),
        (CpageState.PRESENT_PLUS, False), (CpageState.PRESENT_PLUS, True),
    ]
    for policy, action in (("always", Action.CACHE),
                           ("never", Action.REMOTE_MAP)):
        for state, write in cases:
            harness = make_harness(policy=policy)
            if state is CpageState.PRESENT1:
                harness.fault(0, write=False)
            elif state is CpageState.MODIFIED:
                harness.fault(0, write=True)
            else:  # present+
                from repro.policy.fixed import AlwaysReplicatePolicy

                saved = harness.kernel.coherent.fault_handler.policy
                harness.kernel.coherent.fault_handler.policy = (
                    AlwaysReplicatePolicy()
                )
                harness.fault(0, write=False)
                harness.fault(1, write=False)
                harness.kernel.coherent.fault_handler.policy = saved
            before = harness.cpage.state
            harness.fault(2, write=write)
            expected = lookup(before, write, False, action)
            ok = harness.cpage.state is expected.next_state
            checks.append(
                f"  {'ok' if ok else 'FAIL':>4}  "
                f"{before.value:>9} --{'write' if write else 'read'} "
                f"({action.value})--> {harness.cpage.state.value:<9} "
                f"(expected {expected.next_state.value})"
            )
    return "\n".join(checks)


def _render() -> str:
    return (
        format_table()
        + "\nlive-handler cross-validation (no local copy cases):\n"
        + _drive_handler()
    )


def test_figure4_transitions(benchmark):
    text = benchmark.pedantic(_render, rounds=1, iterations=1)
    assert "FAIL" not in text
    n_checks = sum(1 for line in text.splitlines()
                   if line.lstrip().startswith("ok"))
    publish(
        "fig4_transitions", text,
        derived={"live_checks_ok": True, "live_checks": n_checks},
    )
