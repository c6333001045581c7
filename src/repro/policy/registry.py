"""The policy registry: every zoo member by its CLI/bench/replay name.

One table behind every place a policy crosses a serialization boundary
(``--policy`` flags, point specs, trace bundles, tuned-parameter
documents); ``repro.point`` is the one caller of :func:`make_policy`.
Names are stable -- they appear in committed BENCH snapshots and
tuned-parameter documents.
"""

from __future__ import annotations

from typing import Callable, Optional

from .adaptive import AdaptiveFreezePolicy
from .base import ReplicationPolicy
from .competitive import OnlineCompetitivePolicy
from .fixed import (
    AceStylePolicy,
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    TimestampFreezePolicy,
)
from .tuned import TunedPolicy

POLICIES: dict[str, Callable[..., ReplicationPolicy]] = {
    "freeze": TimestampFreezePolicy,
    "always": AlwaysReplicatePolicy,
    "never": NeverCachePolicy,
    "ace": AceStylePolicy,
    "competitive": OnlineCompetitivePolicy,
    "adaptive": AdaptiveFreezePolicy,
    "tuned": TunedPolicy,
}


def policy_names() -> tuple[str, ...]:
    """Registry names in stable (sorted) order, for CLI choices."""
    return tuple(sorted(POLICIES))


def make_policy(
    name: Optional[str], args: Optional[dict] = None
) -> Optional[ReplicationPolicy]:
    """Instantiate a replication policy by registry name.

    No name and no args is the kernel default (``None``); args without a
    name configure the default ``freeze`` policy rather than being
    dropped."""
    if name is None:
        if not args:
            return None
        name = "freeze"
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}")
    try:
        return cls(**(args or {}))
    except TypeError as exc:
        raise ValueError(f"policy {name!r}: bad arguments: {exc}")
