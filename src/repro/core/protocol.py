"""Declarative form of the Figure 4 state-transition diagram.

This table is the specification the fault handler (``core.fault``) is
tested against: for every (state, access kind, local-copy?, policy action)
combination it names the successor state and the protocol work performed.
``repro transitions`` prints it as the reproduction of Figure 4,
``repro bench --filter fig4_transitions`` replays traced runs against it
and the tests cross-check the live handler's behaviour row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cpage import CpageState
from ..policy.base import Action

E = CpageState.EMPTY
P1 = CpageState.PRESENT1
PP = CpageState.PRESENT_PLUS
M = CpageState.MODIFIED


@dataclass(frozen=True)
class Transition:
    """One row of the protocol transition table."""

    state: CpageState
    write: bool
    #: does the faulting node already hold a physical copy?
    local_copy: bool
    #: policy decision; None where the policy is not consulted
    action: Optional[Action]
    next_state: CpageState
    #: handler work: 'fill', 'map_local', 'upgrade', 'collapse',
    #: 'replicate', 'migrate', 'remote_map'
    work: str
    #: does this transition restrict mappings (shootdown, no reclamation)?
    restricts: bool = False
    #: does this transition invalidate mappings and free pages?
    invalidates: bool = False
    #: does this transition block-transfer a page?
    copies: bool = False

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        where = "local copy" if self.local_copy else "no local copy"
        pol = f", policy={self.action.value}" if self.action else ""
        effects = ",".join(
            name
            for name, flag in (
                ("restrict", self.restricts),
                ("invalidate", self.invalidates),
                ("copy", self.copies),
            )
            if flag
        )
        effects = f" [{effects}]" if effects else ""
        return (
            f"{self.state.value:>9} --{kind} miss ({where}{pol})--> "
            f"{self.next_state.value:<9} {self.work}{effects}"
        )


#: The full transition relation of the PLATINUM data-coherency protocol.
TRANSITIONS: tuple[Transition, ...] = (
    # --- empty: first touch allocates and fills ---------------------------
    Transition(E, False, False, None, P1, "fill"),
    Transition(E, True, False, None, M, "fill"),
    # --- present1 ----------------------------------------------------------
    Transition(P1, False, True, None, P1, "map_local"),
    Transition(P1, False, False, Action.CACHE, PP, "replicate", copies=True),
    Transition(P1, False, False, Action.REMOTE_MAP, P1, "remote_map"),
    Transition(P1, True, True, None, M, "upgrade"),
    Transition(
        P1, True, False, Action.CACHE, M, "migrate",
        invalidates=True, copies=True,
    ),
    Transition(P1, True, False, Action.REMOTE_MAP, M, "remote_map"),
    # --- present+ ------------------------------------------------------------
    Transition(PP, False, True, None, PP, "map_local"),
    Transition(PP, False, False, Action.CACHE, PP, "replicate", copies=True),
    Transition(PP, False, False, Action.REMOTE_MAP, PP, "remote_map"),
    Transition(PP, True, True, None, M, "collapse", invalidates=True),
    Transition(
        PP, True, False, Action.CACHE, M, "migrate",
        invalidates=True, copies=True,
    ),
    Transition(
        PP, True, False, Action.REMOTE_MAP, M, "remote_map",
        invalidates=True,
    ),
    # --- modified ---------------------------------------------------------------
    Transition(M, False, True, None, M, "map_local"),
    Transition(
        M, False, False, Action.CACHE, PP, "replicate",
        restricts=True, copies=True,
    ),
    Transition(M, False, False, Action.REMOTE_MAP, M, "remote_map"),
    Transition(M, True, True, None, M, "upgrade"),
    Transition(
        M, True, False, Action.CACHE, M, "migrate",
        invalidates=True, copies=True,
    ),
    Transition(M, True, False, Action.REMOTE_MAP, M, "remote_map"),
)


def lookup(
    state: CpageState,
    write: bool,
    local_copy: bool,
    action: Optional[Action],
) -> Transition:
    """Find the unique transition matching the given conditions."""
    matches = [
        tr
        for tr in TRANSITIONS
        if tr.state is state
        and tr.write == write
        and tr.local_copy == local_copy
        and (tr.action is action or tr.action is None)
    ]
    if not matches:
        raise KeyError(
            f"no transition for {state.value} write={write} "
            f"local={local_copy} action={action}"
        )
    if len(matches) > 1:
        # prefer the policy-independent row when both match
        matches = [tr for tr in matches if tr.action is None] or matches
    return matches[0]


def format_table() -> str:
    """Render the transition diagram as text (Figure 4 reproduction)."""
    lines = ["PLATINUM data-coherency protocol (Figure 4)", ""]
    for state in (E, P1, PP, M):
        lines.extend(
            tr.describe() for tr in TRANSITIONS if tr.state is state
        )
        lines.append("")
    return "\n".join(lines)
