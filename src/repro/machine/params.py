"""Machine timing and sizing parameters.

Defaults model the 16-processor BBN Butterfly Plus the paper measured:
16.67 MHz MC68020 + MC68851 MMU per node, 4 MB of memory per node, a
multistage switch, and a microcoded block-transfer engine.  Every constant
that the paper states is used verbatim; the few the paper leaves
unspecified are documented assumptions (see DESIGN.md section 1).

All times are whole nanoseconds, and this module owns that decision:
a field annotated ``int`` -- latency or size -- is stored as an ``int``
whatever it was given as (a bundle's recorded ``320.0``, ``--param
t_remote_read=10000.0``), and a value that is not a whole number >= 0 is
a ``ValueError`` at construction, as is a set of fields no machine can
have (no processor, a page that is not whole words, remote reads faster
than local ones): an instance is valid from the moment it exists.
Behind this boundary sums of times are exact and nothing rounds
(DESIGN.md section 5).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

#: the ``int`` fields that count things; every other one is a time in
#: ns, which ``to_dict`` spells as a float
_COUNT_FIELDS = frozenset((
    "n_processors", "page_bytes", "word_bytes", "frames_per_module",
    "atc_entries", "switch_arity",
))


def coerce_int_fields(params) -> None:
    """``__post_init__`` of a frozen parameter dataclass: a number from
    outside (a spec, a bundle, the command line) given for a field
    annotated ``int`` is stored as the ``int`` it equals, or refused."""
    for f in fields(params):
        if f.type != "int":
            continue
        value = getattr(params, f.name)
        if type(value) is int and value >= 0:
            continue
        try:
            whole = int(value)
        except (TypeError, ValueError, OverflowError):  # None, nan, inf
            whole = -1
        if whole != value or whole < 0:
            raise ValueError(
                f"{f.name} must be a whole number >= 0, got {value!r}")
        object.__setattr__(params, f.name, whole)


@dataclass(frozen=True)
class MachineParams:
    """Parameters of the simulated NUMA multiprocessor."""

    # --- sizing -----------------------------------------------------------
    n_processors: int = 16
    #: bytes per page (paper: default page size 4 KB)
    page_bytes: int = 4096
    #: bytes per word, the unit of access (paper: 32-bit words)
    word_bytes: int = 4
    #: physical page frames per memory module (4 MB / 4 KB = 1024)
    frames_per_module: int = 1024

    # --- reference timing (paper section 4.1) -----------------------------
    #: local 32-bit reference (paper: ~320 ns)
    t_local: int = 320
    #: remote 32-bit read (paper: ~5000 ns)
    t_remote_read: int = 5000
    #: remote 32-bit write; paper says only "write operations are faster".
    #: Assumption: half the read latency (no round-trip data return).
    t_remote_write: int = 2500
    #: block-transfer time per word (paper: ~1100 ns/word and 1.11 ms per
    #: 4 KB page; 1084 ns * 1024 words = 1.110 ms matches the page figure)
    t_block_word: int = 1084
    #: occupancy of a memory module per word served.  The module is busy
    #: for the local access time regardless of who issued the reference;
    #: the remainder of a remote reference's latency is switch transit.
    t_module_service: int = 320
    #: fraction of each endpoint module's bandwidth a block transfer
    #: consumes (paper section 7: 75% on both nodes involved)
    block_transfer_bus_fraction: float = 0.75

    # --- kernel fault-path fixed costs (paper section 4) -------------------
    #: fixed overhead of allocating + mapping a physical page when the
    #: relevant kernel data structures are local (paper: 0.23 ms)
    fault_fixed_local: int = 230_000
    #: same, when kernel data structures are remote (paper: 0.27 ms)
    fault_fixed_remote: int = 270_000
    #: extra cost of a shootdown that must interrupt one processor.
    #: The paper brackets this indirectly: a read miss replicating a
    #: modified page has fixed overhead 0.27--0.48 ms vs 0.23--0.27 ms
    #: without the shootdown, i.e. interrupting one processor costs
    #: roughly 0.04--0.21 ms depending on how long the initiator waits.
    #: We use the midpoint, which puts every section-4 microbenchmark
    #: inside the paper's reported range.
    shootdown_first: int = 120_000
    #: incremental initiator delay per additional interrupted processor
    #: (paper: ~7 us to interrupt + restrict a mapping)
    shootdown_per_cpu: int = 7_000
    #: cost of freeing one physical page: one remote read + one write
    #: (paper: ~10 us)
    page_free: int = 10_000
    #: cost charged to a *target* processor for taking the interprocessor
    #: interrupt and applying Cmap messages.  The paper does not report the
    #: target-side cost; assumption: comparable to the initiator's per-CPU
    #: cost.
    ipi_target_cost: int = 7_000
    #: cost of a Pmap lookup on an address-translation-cache miss that hits
    #: a valid local Pmap entry (a few local references).
    atc_miss_cost: int = 1_500
    #: how long the per-Cpage critical section of the fault handler holds
    #: its lock.  The kernel serializes only the directory manipulation --
    #: "wherever possible, atomic memory operations are used" and lock
    #: scopes "are kept small" (section 2.2); frame allocation and mapping
    #: are per-processor and proceed in parallel, and the block transfer
    #: happens outside the lock (the hardware engine is asynchronous).
    t_cpage_lock: int = 25_000
    #: entries in the hardware address translation cache (MC68851: 64)
    atc_entries: int = 64

    # --- ports (message passing) -------------------------------------------
    #: fixed kernel cost of sending one port message.  The paper does not
    #: report port costs; assumption informed by Scott & Cox's Butterfly
    #: message-passing overhead study (tens of microseconds per message).
    port_send_fixed: int = 50_000
    #: fixed kernel cost of receiving one port message
    port_recv_fixed: int = 25_000

    # --- replication policy (paper section 4.2) ----------------------------
    #: freeze window t1: replicate only if the last coherency invalidation
    #: is at least this long ago (paper: 10 ms)
    t1_freeze_window: int = 10_000_000
    #: defrost daemon period t2 (paper: 1 s)
    t2_defrost_period: int = 1_000_000_000

    # --- topology ----------------------------------------------------------
    #: "butterfly" (multistage switch), "bus", or "uniform" (no contention
    #: or transit modelling beyond latency)
    topology: str = "butterfly"
    #: fan-in/out of each switching element in the butterfly network
    switch_arity: int = 4
    #: per-word occupancy of a switch output port.  The switch is much
    #: faster than the memory modules; it matters only under heavy fan-in.
    t_switch_service: int = 100

    def __post_init__(self) -> None:
        coerce_int_fields(self)
        if self.n_processors < 1:
            raise ValueError("need at least one processor")
        if self.page_bytes <= 0 or self.word_bytes <= 0:
            raise ValueError("page and word sizes must be positive")
        if self.page_bytes % self.word_bytes != 0:
            raise ValueError("page size must be a whole number of words")
        if self.frames_per_module < 1:
            raise ValueError("each module needs at least one frame")
        if not 0.0 < self.block_transfer_bus_fraction <= 1.0:
            raise ValueError("bus fraction must be in (0, 1]")
        if self.topology not in ("butterfly", "bus", "uniform"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.t_remote_read < self.t_local:
            raise ValueError("remote reads cannot be faster than local")

    # --- derived -----------------------------------------------------------
    @property
    def words_per_page(self) -> int:
        return self.page_bytes // self.word_bytes

    @property
    def page_copy_time(self) -> int:
        """Contention-free time to block-transfer one page."""
        return self.t_block_word * self.words_per_page

    @property
    def n_modules(self) -> int:
        """One memory module per processor node."""
        return self.n_processors

    def to_dict(self) -> dict:
        """The JSON form ``repro-trace/1`` bundles and
        ``repro-profile/1`` footers store.  Times are spelled as floats
        (``320.0``), as when they were held as floats, so recorded bytes
        and digests stay as they were; loading is the constructor."""
        return {
            name: float(value)
            if type(value) is int and name not in _COUNT_FIELDS else value
            for name, value in asdict(self).items()
        }

    def scaled(self, **overrides) -> "MachineParams":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


#: The machine the paper measured.
BUTTERFLY_PLUS = MachineParams()


def butterfly_plus(n_processors: int = 16, **overrides) -> MachineParams:
    """Butterfly Plus parameters with a different processor count."""
    return BUTTERFLY_PLUS.scaled(n_processors=n_processors, **overrides)
