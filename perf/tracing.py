"""The traced pass: spans around the calls into each layer.

The spans are recorded from here, not from inside the program: for the
duration of a traced run the layer entry points are replaced, on their
classes, by wrappers that record ``(layer, start, end, parent)``.
Spans stay in memory; the Chrome trace is written once, at exit.

A layer's self time is its spans' duration minus the part their child
spans cover, so the shares of one iteration sum to 1 with the root
span's own self time as ``other``.  Each wrapper costs about a
microsecond that lands in the *parent's* self time; the traced/untraced
ratio (``trace.overhead_ratio``) says how much that inflates a workload.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from repro import replay
from repro.core.defrost import DefrostDaemon
from repro.core.shootdown import ShootdownMechanism
from repro.kernel.kernel import Kernel
from repro.machine.blockxfer import BlockTransferEngine
from repro.machine.machine import Machine
from repro.machine.mmu import MMU
from repro.replay import replayer
from repro.runtime.executor import ThreadProcess
from repro.sim.engine import Engine
from repro.sim.process import Process

OTHER = "other"

#: layer entry points, as ``(owner, attribute, layer)``.  The replay
#: thread processes override ``Process._resume`` with the cursor loop
#: that *is* the replayer, so their resumes count as ``replay.replayer``.
#: ``replay_trace`` is wrapped where callers look it up: on the package.
#: Building a kernel allocates every page frame of the machine, which is
#: most of what would otherwise be unattributed on the 16-node points.
ENTRY_POINTS = (
    (Kernel, "__init__", "kernel.kernel"),
    (Engine, "step", "sim.engine"),
    (Process, "_resume", "sim.process"),
    (ThreadProcess, "interpret", "runtime.executor"),
    (MMU, "translate", "machine.mmu"),
    (Machine, "access", "machine.machine"),
    (BlockTransferEngine, "transfer_page", "machine.blockxfer"),
    (Kernel, "fault", "core.fault"),
    (ShootdownMechanism, "shoot_cpage", "core.shootdown"),
    (DefrostDaemon, "run_once", "core.defrost"),
    (replay, "replay_trace", "replay.replayer"),
    (replayer.ReplayThreadProcess, "_resume", "replay.replayer"),
    (replayer.FastReplayThreadProcess, "_resume", "replay.replayer"),
)

LAYERS = tuple(dict.fromkeys(layer for _o, _a, layer in ENTRY_POINTS)) \
    + (OTHER,)


@contextmanager
def captured_kernels():
    """Yields a list that collects every kernel built meanwhile, so the
    exact per-layer counts of an iteration can be read off them.  Kept
    apart from the spans: holding the kernels alive makes the next one's
    frames come fresh from the OS, which is no time to be measuring."""
    kernels: list[Kernel] = []
    init = Kernel.__init__

    def capture(kernel, *args, **kwargs):
        init(kernel, *args, **kwargs)
        kernels.append(kernel)

    Kernel.__init__ = capture
    try:
        yield kernels
    finally:
        Kernel.__init__ = init


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        # one span = one index into these parallel lists
        self.layer: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        #: span index of each iteration's root span
        self.roots: list[int] = []
        self._stack = [-1]

    def _wrap(self, orig, layer_id: int):
        layers, starts, ends = self.layer, self.start, self.end
        parents, stack = self.parent, self._stack
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                return orig(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point; restore them all on exit."""
        saved = []
        try:
            for owner, attr, layer in ENTRY_POINTS:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr,
                        self._wrap(orig, LAYERS.index(layer)))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    @contextmanager
    def iteration(self):
        """The root span of one traced iteration."""
        idx = len(self.start)
        self.roots.append(idx)
        self.layer.append(LAYERS.index(OTHER))
        self.parent.append(-1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    # -- reduction ---------------------------------------------------------

    def self_time_ns(self) -> dict[str, int]:
        """Total self time per layer over every recorded span."""
        total = [0] * len(LAYERS)
        layer, parent = self.layer, self.parent
        for idx, (start, end) in enumerate(zip(self.start, self.end)):
            duration = end - start
            total[layer[idx]] += duration
            if parent[idx] >= 0:
                total[layer[parent[idx]]] -= duration
        return dict(zip(LAYERS, total))

    def self_shares(self) -> dict[str, float]:
        times = self.self_time_ns()
        whole = sum(times.values())
        return {name: (ns / whole if whole else 0.0)
                for name, ns in times.items()}

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON: one complete (``X``) event per span,
        one thread lane per iteration.  Written event by event: a run
        holds a few hundred thousand spans."""
        roots = set(self.roots)
        iteration = -1
        with open(path, "w") as stream:
            stream.write('{"displayTimeUnit":"ns","traceEvents":[')
            for idx, (start, end) in enumerate(zip(self.start, self.end)):
                if idx in roots:
                    iteration += 1
                stream.write(("," if idx else "") + json.dumps({
                    "name": LAYERS[self.layer[idx]],
                    "ph": "X",
                    "ts": start / 1e3,
                    "dur": (end - start) / 1e3,
                    "pid": 0,
                    "tid": iteration,
                    "args": {"span": idx, "parent": self.parent[idx],
                             "iteration": iteration},
                }))
            stream.write("]}\n")
