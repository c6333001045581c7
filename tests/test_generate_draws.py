"""Differential test: the generator's in-place draws vs the reference.

``GeneratedWorkload._body`` picks each op's page, offset and kind with
every branch on the sharing pattern and access distribution hoisted
out of the per-op loop, and draws ``randrange(n)`` as the
``getrandbits`` rejection loop it is.  The per-op methods it replaced
live on here as the reference: both bodies are driven without a
kernel over every sharing x access pattern and several seeds, and must
yield the same ops in the same order and leave their RNGs in the same
state.  A reordered or extra draw changes every later op.
"""

import itertools
import random
from bisect import bisect_left
from types import SimpleNamespace

import numpy as np
import pytest

from repro.machine.memory import WORD_DTYPE
from repro.runtime.ops import Compute, FetchAdd, Read, Write
from repro.workloads import generate
from repro.workloads.generate import GeneratedWorkload
from repro.workloads.spec import (
    ACCESS_DISTRIBUTIONS,
    SHARING_PATTERNS,
    PhaseSpec,
    WorkloadSpec,
)

WPP = 64


class ReferenceWorkload(GeneratedWorkload):
    """The per-op draws as they were spelled before they were inlined."""

    def _pick_page(self, rng, tid, k, phase, pool, working):
        sharing = self.spec.sharing
        if sharing == "round-robin":
            return (tid + k) % working
        if sharing == "producer-consumer":
            return k % working
        if sharing == "hotspot" and rng.random() < 0.75:
            return pool[0]
        if phase.access == "sequential":
            return pool[k % len(pool)]
        if phase.access == "zipf":
            cum = self._zipf_cum(len(pool))
            return pool[min(bisect_left(cum, rng.random()),
                            len(pool) - 1)]
        return pool[rng.randrange(len(pool))]

    def _pick_offset(self, rng, k, phase):
        max_off = self.wpp - self.words
        if max_off <= 0:
            return 0
        if phase.access == "sequential":
            return (k * self.words) % (max_off + 1)
        return rng.randrange(max_off + 1)

    def _body(self, env):
        spec = self.spec
        tid = env.tid
        rng = random.Random(spec.seed * 1_000_003 + tid * 9176 + 17)
        env.rng = rng
        words = self.words
        fs_va = None
        if self.fs_base is not None:
            fs_va = (self.fs_base
                     + (tid % spec.false_sharing) * self.wpp
                     + tid // spec.false_sharing)
        ops_done = 0
        for phase in spec.phases:
            if phase.barrier and self.barrier is not None:
                yield from self.barrier.wait()
            working = min(phase.working_pages or spec.pages, spec.pages)
            pool = self._pool(tid, working)
            read_frac = phase.mix["read"]
            think = Compute(phase.compute_ns) if phase.compute_ns else None
            for k in range(phase.ops):
                page = self._pick_page(rng, tid, k, phase, pool, working)
                offset = self._pick_offset(rng, k, phase)
                va = self.shared_base + page * self.wpp + offset
                if spec.sharing == "producer-consumer" \
                        and spec.threads > 1:
                    is_read = tid % 2 == 1
                else:
                    is_read = rng.random() < read_frac
                if is_read:
                    yield Read(va, words)
                elif words == 1:
                    yield Write(va, (k + tid + 1) % 100_000)
                else:
                    yield Write(va, np.full(
                        words, (k + tid + 1) % 100_000,
                        dtype=WORD_DTYPE))
                if think is not None:
                    yield think
                if fs_va is not None:
                    yield FetchAdd(fs_va, 1)
                ops_done += 1
        fs_val = None
        if fs_va is not None:
            val = yield Read(fs_va, 1)
            fs_val = int(val[0])
        return (tid, ops_done, fs_val)


def lowered(cls, spec):
    """``cls(spec)`` with the attributes ``setup`` would give it."""
    workload = cls(spec)
    workload.wpp = WPP
    workload.words = min(spec.words_per_op, WPP)
    workload.shared_base = 10 * WPP
    workload.fs_base = 2 * WPP if spec.false_sharing else None
    workload.barrier = None
    workload._zipf_cache = {}
    return workload


def stream(workload, tid, env=None):
    """Every op one thread's body yields, as comparable tuples, and the
    body's result."""
    out = []
    gen = workload._body(env or SimpleNamespace(tid=tid))
    value = None
    try:
        while True:
            op = gen.send(value)
            value = None
            if isinstance(op, Write):
                out.append(("w", op.va, np.asarray(op.value).tolist()))
            elif isinstance(op, Read):
                out.append(("r", op.va, op.n))
                value = np.array([7], dtype=WORD_DTYPE)
            else:
                out.append(op)
    except StopIteration as stop:
        return out, stop.value


def spec_for(sharing, access, seed, words, threads=4, **extra):
    phases = (
        PhaseSpec(ops=40, mix={"read": 0.6, "write": 0.4}, access=access,
                  compute_ns=200.0),
        # a narrower working set, no think time
        PhaseSpec(ops=25, mix={"read": 0.3, "write": 0.7}, access=access,
                  working_pages=3, compute_ns=0.0),
    )
    return WorkloadSpec(
        name="draws", seed=seed, threads=threads, machine=4, pages=7,
        sharing=sharing, words_per_op=words, phases=phases, **extra,
    ).validate()


CASES = [
    (sharing, access, seed, words)
    for sharing, access in itertools.product(
        SHARING_PATTERNS, ACCESS_DISTRIBUTIONS)
    for seed, words in ((1, 8), (23, 1), (1989, WPP), (4242, 13))
]


class RecordingRandom(random.Random):
    """A ``random.Random`` that notes every instance made."""

    made: list = []

    def __init__(self, seed) -> None:
        super().__init__(seed)
        RecordingRandom.made.append(self)


@pytest.mark.parametrize("sharing,access,seed,words", CASES)
def test_inline_draws_yield_the_reference_stream(sharing, access, seed,
                                                 words, monkeypatch):
    monkeypatch.setattr(generate, "random",
                        SimpleNamespace(Random=RecordingRandom))
    spec = spec_for(sharing, access, seed, words,
                    false_sharing=1 if seed == 23 else 0)
    fast = lowered(GeneratedWorkload, spec)
    ref = lowered(ReferenceWorkload, spec)
    for tid in range(spec.threads):
        RecordingRandom.made = []
        env = SimpleNamespace(tid=tid)
        assert stream(fast, tid) == stream(ref, tid, env), (tid, spec.name)
        # the same draws and no more: both RNGs end in the same state
        (rng,) = RecordingRandom.made
        assert rng.getstate() == env.rng.getstate()


def test_one_thread_producer_consumer_draws_its_reads():
    """With one thread producer-consumer draws the op kind like any
    other pattern (the fixed reader/writer split needs two threads)."""
    spec = spec_for("producer-consumer", "uniform", 5, 8, threads=1)
    assert stream(lowered(GeneratedWorkload, spec), 0) == \
        stream(lowered(ReferenceWorkload, spec), 0)


def test_an_extra_draw_is_caught():
    """The comparison is sharp: one extra draw in the reference changes
    the stream."""

    class Extra(ReferenceWorkload):
        def _pick_offset(self, rng, k, phase):
            rng.random()
            return super()._pick_offset(rng, k, phase)

    spec = spec_for("uniform", "uniform", 1, 8)
    assert stream(lowered(GeneratedWorkload, spec), 0) != \
        stream(lowered(Extra, spec), 0)
