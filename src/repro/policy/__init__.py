"""The replication policy zoo.

Everything the kernel's fault handler and defrost daemon consult lives
behind one interface (:class:`~repro.policy.base.ReplicationPolicy`);
members are selected by registry name (:data:`~repro.policy.registry.
POLICIES`) everywhere a policy crosses a serialization boundary.  See
``docs/POLICIES.md`` for the tour and the equivalence contract.
"""

from .adaptive import AdaptiveFreezePolicy  # noqa: F401
from .base import Action, FaultContext, ReplicationPolicy  # noqa: F401
from .competitive import (  # noqa: F401
    OnlineCompetitivePolicy,
    rent_or_buy_cost,
)
from .fixed import (  # noqa: F401
    AceStylePolicy,
    AlwaysReplicatePolicy,
    NeverCachePolicy,
    TimestampFreezePolicy,
)
from .registry import POLICIES, make_policy, policy_names  # noqa: F401
from .tune import (  # noqa: F401
    TUNE_SCHEMA,
    TuneError,
    load_tuned,
    tune,
)
from .tuned import TunedPolicy  # noqa: F401
