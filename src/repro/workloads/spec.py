"""The declarative workload specification format (``repro-workload/1``).

The paper's evaluation rests on a handful of hand-written programs; the
spec layer turns "a workload" into a first-class, checkable object
instead: a :class:`WorkloadSpec` names a sharing pattern, a working set,
a read/write mix, a phase structure and optional false-sharing
injection, and the generator (:mod:`repro.workloads.generate`) lowers it
into a simulatable :class:`~repro.runtime.program.Program`.  The design
follows riescue's declarative-spec + constrained-random test style --
specs are data, validated before use, serialized canonically so the
same spec is byte-identical everywhere it is written.

Serialization is strict and canonical on purpose:

* ``to_json`` emits sorted-key, two-space-indented JSON with a trailing
  newline, so a committed corpus file equals its regeneration
  byte-for-byte (the golden-corpus drift check relies on this);
* ``from_dict`` rejects unknown keys and malformed values with one-line
  :class:`SpecError` messages, matching the ``repro explain`` exit-2
  error convention at the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .. import doc as _doc

SPEC_SCHEMA = "repro-workload/1"

#: how threads pick pages out of the shared working set
SHARING_PATTERNS = (
    "private",            # pages partitioned per thread: no interference
    "uniform",            # every thread draws any page
    "hotspot",            # most accesses pile onto page 0
    "round-robin",        # threads march over the pages, offset by tid
    "producer-consumer",  # even tids write, odd tids read
    "read-mostly",        # uniform pages, generation forces a read-heavy mix
)

#: how an access's page/offset is drawn within the allowed pages
ACCESS_DISTRIBUTIONS = ("uniform", "sequential", "zipf")

#: spec generation size profiles (see ``generate.PROFILES``)
PROFILES = ("smoke", "quick", "custom")

#: the largest per-op think time of a phase: one default defrost period,
#: so daemon ticks per op stay bounded (the profiles draw <= 800 ns)
MAX_COMPUTE_NS = 1e9


#: the document's keys and their types; unknown keys are refused, and
#: the ranges, enumerations and phase arithmetic are ``validate()``'s
SHAPE = {
    "schema?": str,
    "name": str,
    "seed": int,
    "profile?": str,
    "threads": int,
    "machine": int,
    "pages": int,
    "sharing?": str,
    "words_per_op?": int,
    "false_sharing?": int,
    "placement?": (None, str, int),
    "zipf_s?": (int, float),
    "phases?": [{
        "ops": int,
        "mix?": dict,
        "access?": str,
        "working_pages?": (int, None),
        "compute_ns?": (int, float),
        "barrier?": bool,
    }],
}


class SpecError(_doc.DocError):
    """A malformed workload spec (one-line message, CLI exits 2)."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SpecError(message)


def _only_known_keys(d: dict, shape: dict, context: str) -> None:
    unknown = set(d) - {key.rstrip("?") for key in shape}
    _require(not unknown, f"{context}: unknown key(s) {sorted(unknown)}")


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a generated workload: every thread performs ``ops``
    operations drawn from this phase's mix and access distribution."""

    ops: int
    #: operation mix; must have exactly ``read`` and ``write`` keys
    #: summing to 1.0
    mix: dict = field(default_factory=lambda: {"read": 0.5, "write": 0.5})
    access: str = "uniform"
    #: use only the first N pages of the working set (None = all)
    working_pages: Optional[int] = None
    #: think time per operation, nanoseconds
    compute_ns: float = 200.0
    #: synchronize all threads on a barrier before entering this phase
    barrier: bool = True

    def validate(self, context: str = "phase") -> None:
        _require(isinstance(self.ops, int) and self.ops >= 1,
                 f"{context}: ops must be at least 1, got {self.ops!r}")
        _require(isinstance(self.mix, dict)
                 and set(self.mix) == {"read", "write"},
                 f"{context}: mix must have exactly 'read' and 'write' "
                 f"keys, got {sorted(self.mix) if isinstance(self.mix, dict) else self.mix!r}")
        for key, value in self.mix.items():
            _require(isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
                     f"{context}: mix[{key!r}] must be in [0, 1], "
                     f"got {value!r}")
        total = sum(self.mix.values())
        _require(abs(total - 1.0) < 1e-9,
                 f"{context}: mix must sum to 1, got {total:g}")
        _require(self.access in ACCESS_DISTRIBUTIONS,
                 f"{context}: unknown access distribution "
                 f"{self.access!r} (want one of "
                 f"{', '.join(ACCESS_DISTRIBUTIONS)})")
        if self.working_pages is not None:
            _require(isinstance(self.working_pages, int)
                     and self.working_pages >= 1,
                     f"{context}: working_pages must be at least 1, "
                     f"got {self.working_pages!r}")
        _require(isinstance(self.compute_ns, (int, float))
                 and 0 <= self.compute_ns <= MAX_COMPUTE_NS,
                 f"{context}: compute_ns must be non-negative and at "
                 f"most {MAX_COMPUTE_NS:g}, got {self.compute_ns!r}")
        _require(isinstance(self.barrier, bool),
                 f"{context}: barrier must be true or false, "
                 f"got {self.barrier!r}")

    def to_dict(self) -> dict:
        return {
            "ops": self.ops,
            "mix": {"read": self.mix["read"], "write": self.mix["write"]},
            "access": self.access,
            "working_pages": self.working_pages,
            "compute_ns": self.compute_ns,
            "barrier": self.barrier,
        }

    @classmethod
    def from_dict(cls, d: dict, context: str = "phase") -> "PhaseSpec":
        """A phase object of a shape-checked spec document."""
        _only_known_keys(d, SHAPE["phases?"][0], context)
        phase = cls(
            ops=d["ops"],
            mix=dict(d.get("mix", {"read": 0.5, "write": 0.5})),
            access=d.get("access", "uniform"),
            working_pages=d.get("working_pages"),
            compute_ns=d.get("compute_ns", 200.0),
            barrier=d.get("barrier", True),
        )
        phase.validate(context)
        return phase


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete declarative workload: what to share, how hard, and in
    what shape -- everything the generator needs to lower a program."""

    name: str
    #: generation seed; also seeds every thread's access RNG at run time
    seed: int
    threads: int
    #: processors in the simulated machine this spec is sized for
    machine: int
    #: shared working-set size in coherent pages
    pages: int
    sharing: str = "uniform"
    #: words per read/write run
    words_per_op: int = 8
    #: falsely-shared pages to inject: each packs one private slot word
    #: per thread onto the same page (0 = no injection)
    false_sharing: int = 0
    #: initial page placement: null = first-touch, "interleave" =
    #: round-robin scatter, an integer = pin to that memory module
    placement: Union[None, str, int] = None
    #: zipf exponent for ``access: zipf`` phases
    zipf_s: float = 1.2
    #: generation profile this spec was drawn from ("custom" for
    #: hand-written specs; anything else must regenerate byte-identically)
    profile: str = "custom"
    phases: tuple = field(
        default_factory=lambda: (PhaseSpec(ops=16),)
    )

    # -- validation ----------------------------------------------------------

    def validate(self) -> "WorkloadSpec":
        ctx = f"spec {self.name!r}" if self.name else "spec"
        _require(isinstance(self.name, str) and self.name,
                 "spec: name must be a non-empty string")
        _require(isinstance(self.seed, int) and self.seed >= 0,
                 f"{ctx}: seed must be a non-negative integer, "
                 f"got {self.seed!r}")
        _require(isinstance(self.threads, int) and self.threads >= 1,
                 f"{ctx}: threads must be at least 1, got {self.threads!r}")
        _require(isinstance(self.machine, int) and self.machine >= 1,
                 f"{ctx}: machine must be at least 1 processor, "
                 f"got {self.machine!r}")
        _require(isinstance(self.pages, int) and self.pages >= 1,
                 f"{ctx}: pages must be at least 1, got {self.pages!r}")
        _require(self.sharing in SHARING_PATTERNS,
                 f"{ctx}: unknown sharing pattern {self.sharing!r} "
                 f"(want one of {', '.join(SHARING_PATTERNS)})")
        _require(isinstance(self.words_per_op, int)
                 and self.words_per_op >= 1,
                 f"{ctx}: words_per_op must be at least 1, "
                 f"got {self.words_per_op!r}")
        _require(isinstance(self.false_sharing, int)
                 and self.false_sharing >= 0,
                 f"{ctx}: false_sharing must be a non-negative page "
                 f"count, got {self.false_sharing!r}")
        _require(
            self.placement is None
            or self.placement == "interleave"
            or (isinstance(self.placement, int)
                and not isinstance(self.placement, bool)
                and self.placement >= 0),
            f"{ctx}: placement must be null, \"interleave\" or a "
            f"module index, got {self.placement!r}")
        _require(isinstance(self.zipf_s, (int, float)) and self.zipf_s > 0,
                 f"{ctx}: zipf_s must be positive, got {self.zipf_s!r}")
        _require(self.profile in PROFILES,
                 f"{ctx}: unknown profile {self.profile!r} "
                 f"(want one of {', '.join(PROFILES)})")
        _require(isinstance(self.phases, tuple) and len(self.phases) >= 1,
                 f"{ctx}: phases must be a non-empty list")
        for i, phase in enumerate(self.phases):
            _require(isinstance(phase, PhaseSpec),
                     f"{ctx}: phases[{i}] is not a phase spec")
            phase.validate(f"{ctx}: phases[{i}]")
            if phase.working_pages is not None:
                _require(phase.working_pages <= self.pages,
                         f"{ctx}: phases[{i}]: working_pages "
                         f"{phase.working_pages} exceeds the working "
                         f"set ({self.pages} pages)")
        return self

    @property
    def total_ops_per_thread(self) -> int:
        return sum(ph.ops for ph in self.phases)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "profile": self.profile,
            "threads": self.threads,
            "machine": self.machine,
            "pages": self.pages,
            "sharing": self.sharing,
            "words_per_op": self.words_per_op,
            "false_sharing": self.false_sharing,
            "placement": self.placement,
            "zipf_s": self.zipf_s,
            "phases": [ph.to_dict() for ph in self.phases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadSpec":
        _doc.expect(d, "spec", shape=SHAPE, error=SpecError)
        schema = d.get("schema", SPEC_SCHEMA)
        _require(schema == SPEC_SCHEMA,
                 f"spec: schema {schema!r} is not {SPEC_SCHEMA!r}")
        _only_known_keys(d, SHAPE, "spec")
        ctx = f"spec {d['name']!r}" if d["name"] else "spec"
        phases = tuple(
            PhaseSpec.from_dict(ph, f"{ctx}: phases[{i}]")
            for i, ph in enumerate(d.get("phases", [{"ops": 16}]))
        )
        spec = cls(
            name=d["name"],
            seed=d["seed"],
            profile=d.get("profile", "custom"),
            threads=d["threads"],
            machine=d["machine"],
            pages=d["pages"],
            sharing=d.get("sharing", "uniform"),
            words_per_op=d.get("words_per_op", 8),
            false_sharing=d.get("false_sharing", 0),
            placement=d.get("placement"),
            zipf_s=d.get("zipf_s", 1.2),
            phases=phases,
        )
        return spec.validate()

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, two-space indent, trailing
        newline -- writing the same spec twice yields identical bytes."""
        return _doc.pretty(self.to_dict())

    def save(self, path: Union[str, Path]) -> Path:
        return _doc.write(path, self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WorkloadSpec":
        d = _doc.read(path, error=SpecError)
        try:
            return cls.from_dict(d)
        except SpecError as exc:
            raise SpecError(f"{path}: {exc}") from None

    def __repr__(self) -> str:
        return (
            f"<WorkloadSpec {self.name!r} {self.sharing} "
            f"threads={self.threads} pages={self.pages} "
            f"phases={len(self.phases)}"
            + (f" fs={self.false_sharing}" if self.false_sharing else "")
            + ">"
        )
