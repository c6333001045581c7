"""The sim-time sampler: periodic snapshots of whole-system state.

The post-mortem report answers "what happened to each page"; the sampler
answers "what did the system look like *over time*" -- the per-node
fault-rate / placement timelines that modern NUMA-placement studies
(Phoenix, numaPTE) build their analyses on.  A sampler schedules itself
on the simulation engine like the defrost daemon does and, every
``period_ms`` of *simulated* time, appends one :class:`Sample` row:

* cumulative and per-interval coherent fault counts (-> fault rate);
* frozen-page count and cumulative freezes/thaws;
* cumulative remote mappings, block transfers, shootdowns;
* local/remote word traffic for the interval;
* engine queue depth and events executed (scheduler pressure);
* per-node memory pressure (fraction of each module's frames in use).

Samples are plain dicts (JSON-able, byte-deterministic for a given
simulated run).  ``repro.analysis.visualize.sample_timeline`` renders
them as terminal heat strips; ``to_jsonl`` streams them for offline
tooling.  Sampling only *reads* simulator state, so enabling it never
changes simulated results (pinned by ``tests/test_determinism.py``).
"""

from __future__ import annotations

from typing import IO, Optional

from ..doc import jsonl
from ..sim.engine import Daemon

SAMPLE_RECORD = "sample"


class SimTimeSampler(Daemon):
    """Snapshots kernel/machine state every N simulated milliseconds."""

    def __init__(
        self,
        kernel,
        period_ms: float = 1.0,
        max_samples: int = 1_000_000,
        registry=None,
    ) -> None:
        if period_ms <= 0:
            raise ValueError(f"sample period must be positive, "
                             f"got {period_ms}")
        # what a sample reads, not the kernel: that owns the sampler
        kernel.coherent.daemons.append(self)
        self.machine = kernel.machine
        self.cpages = kernel.coherent.cpages
        self.shootdown = kernel.coherent.shootdown
        self.period = period_ms * 1e6  # ns
        self.max_samples = max_samples
        self.samples: list[dict] = []
        self.dropped = 0
        self._last = {"faults": 0, "local_words": 0, "remote_words": 0,
                      "events": 0, "time_ns": 0}
        self.registry = registry
        if registry is not None:
            self._g_frozen = registry.gauge(
                "frozen_pages", "currently frozen cpages", unit="pages")
            self._g_queue = registry.gauge(
                "engine_queue_depth", "pending simulation events",
                unit="events")
            self._g_pressure = registry.gauge(
                "node_memory_pressure",
                "fraction of the module's frames in use",
                labels=("node",), unit="fraction")
        else:
            self._g_frozen = self._g_queue = self._g_pressure = None

    @property
    def period_ms(self) -> float:
        return self.period / 1e6

    # -- snapshotting --------------------------------------------------------

    def sample_now(self) -> dict:
        """Take one snapshot immediately (also used for the final row)."""
        machine = self.machine
        engine = machine.engine
        now = engine.now
        rows = list(self.cpages)
        faults = sum(cp.stats.faults for cp in rows)
        frozen = sum(1 for cp in rows if cp.frozen)
        remote_mappings = sum(cp.stats.remote_mappings for cp in rows)
        freezes = sum(cp.stats.freezes for cp in rows)
        thaws = sum(cp.stats.thaws for cp in rows)
        local_words = int(sum(machine.local_words))
        remote_words = int(sum(machine.remote_words))
        events = engine.events_executed
        pressure = [
            round(1.0 - ipt.n_free / max(1, len(ipt)), 6)
            for ipt in machine.ipts
        ]
        last = self._last
        # the *actual* elapsed sim time, not the nominal period: a
        # final row on an already-finished (or zero-duration) run can
        # land at the same instant as the previous tick -- rate is then
        # 0.0 by definition, never a ZeroDivisionError.  On-schedule
        # ticks see interval == period exactly, as before.
        interval_ms = (now - last["time_ns"]) / 1e6
        if interval_ms > 0:
            fault_rate = round(
                (faults - last["faults"]) / interval_ms, 6)
        else:
            fault_rate = 0.0
        sample = {
            "record": SAMPLE_RECORD,
            "time_ns": now,
            "time_ms": now / 1e6,
            "faults": faults,
            "faults_interval": faults - last["faults"],
            "fault_rate_per_ms": fault_rate,
            "frozen_pages": frozen,
            "freezes": freezes,
            "thaws": thaws,
            "remote_mappings": remote_mappings,
            "transfers": machine.xfer.transfer_count,
            "shootdowns": self.shootdown.shootdowns,
            "local_words_interval": local_words - last["local_words"],
            "remote_words_interval": remote_words - last["remote_words"],
            "queue_depth": engine.pending_events,
            "events_interval": events - last["events"],
            "node_memory_pressure": pressure,
        }
        last["faults"] = faults
        last["local_words"] = local_words
        last["remote_words"] = remote_words
        last["events"] = events
        last["time_ns"] = now
        if self._g_frozen is not None:
            self._g_frozen.set(frozen)
            self._g_queue.set(engine.pending_events)
            for node, frac in enumerate(pressure):
                self._g_pressure.labels(node).set(frac)
        if len(self.samples) >= self.max_samples:
            self.dropped += 1
        else:
            self.samples.append(sample)
        return sample

    run_once = sample_now  # the periodic tick

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.samples)

    def series(self, key: str) -> list:
        """One column of the time series, e.g. ``series('frozen_pages')``."""
        return [s[key] for s in self.samples]

    def to_jsonl(self, stream: Optional[IO[str]] = None) -> str:
        """Samples as JSON Lines (sorted keys, byte-deterministic)."""
        text = jsonl(self.samples)
        if stream is not None:
            stream.write(text)
        return text
