"""A recorded trace costs its bytes, on both sides of the bundle.

Recording keeps four doubles (32 B) an op, not a tuple of four floats
that is later copied again into the stream; decoding builds one op
object per distinct op of a bundle, shared by every row that decodes
to it (ops are never mutated once built, DESIGN.md section 5).  The
edge cases ride along: a thread that yields nothing records an empty
``(0, 4)`` stream, and a 0-d integer array is written, recorded and
replayed as one word.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro import make_kernel
from repro.point import point_kernel, point_program
from repro.replay import (
    ReplayError,
    record_program,
    record_spec,
    replay_trace,
)
from repro.replay.bundle import K_FIRE, K_WAIT, K_WRITE, TraceBundle
from repro.replay.replayer import _decode_stream, _decoded_streams
from repro.runtime import Program, Read, Write
from repro.runtime.run import run_program
from repro.workloads.generate import bench_spec_for
from repro.workloads.spec import PhaseSpec, WorkloadSpec

#: the recording tax allowed per op: the 32 B row plus the array's
#: growth slack (it was 140 B/op with a tuple row per op)
TAX_B_PER_OP = 48


def _perf_private_spec(seed: int = 1989, ops: int = 330) -> WorkloadSpec:
    """The host benchmark's private workload (``perf/workloads.py``
    ``private_spec``) at its full size: eight threads marching over
    their own pages, > 99 % ATC hits."""
    phase = PhaseSpec(ops=ops, mix={"read": 0.7, "write": 0.3},
                      access="sequential", compute_ns=200.0)
    return WorkloadSpec(
        name="perf-private", seed=seed, threads=8, machine=8,
        words_per_op=16, sharing="private", pages=64, phases=(phase, phase),
    ).validate()


def _traced_peak(fn) -> tuple:
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recording_costs_at_most_its_row_over_a_live_run():
    point = bench_spec_for(_perf_private_spec())

    def live():
        return run_program(point_kernel(point), point_program(point))

    record_spec(point)  # imports and first-use caches, for both
    (bundle, _result), recorded = _traced_peak(lambda: record_spec(point))
    _result, plain = _traced_peak(live)
    tax = (recorded - plain) / bundle.n_ops
    assert tax <= TAX_B_PER_OP, f"{tax:.1f} B/op over the live run"


def test_a_decoded_bundle_holds_one_object_per_distinct_op():
    spec = {"kind": "run", "workload": "gauss", "machine": 4,
            "args": {"n": 16, "n_threads": 2, "verify_result": False}}
    bundle, _result = record_spec(spec)
    params = bundle.config["params"]
    wpp = params["page_bytes"] // params["word_bytes"]
    decoded, _names = _decoded_streams(bundle, wpp)
    ops = [op for stream in decoded for op in stream]
    rows = [tuple(row) for arr in bundle.streams for row in arr.tolist()]
    assert len(ops) == len(rows)
    # equal rows decode to one object, and so do unequal rows whose ops
    # are equal (references of as many words to one page, any offset)
    by_row = {}
    for row, op in zip(rows, ops):
        assert by_row.setdefault(row, op) is op
    by_value = {}
    for op in ops:
        assert by_value.setdefault(op, op) is op
    memory = [row for row in rows if row[0] not in (K_FIRE, K_WAIT)]
    objects = {id(op) for op in ops if op.__class__ is not tuple}
    assert len(objects) <= len(set(memory)) < len(memory)


def test_a_corrupt_row_is_reported_at_its_first_position():
    """Each distinct row is checked once, but the op a corrupt trace
    names is still the first bad one in stream order."""
    good, bad = [1.0, 0.0, 4.0, 0.0], [1.0, -8.0, 4.0, 0.0]
    worse = [0.0, float("nan"), 0.0, 0.0]
    arr = np.array([good, good, worse, bad, good, worse])
    with pytest.raises(ReplayError, match=r"^stream 3 op 2: think time"):
        _decode_stream(3, arr, 256, {})
    with pytest.raises(ReplayError, match=r"^stream 3 op 1: bad address"):
        _decode_stream(3, arr[[0, 3, 2, 3]], 256, {})


class _WriteAndIdle(Program):
    """One thread writes ``value`` and reads the word back; the other
    returns before it yields any op."""

    name = "write-and-idle"

    def __init__(self, value):
        self.value = value

    def setup(self, api):
        self.base = api.arena(2, label="data").base_va
        api.spawn(0, self.worker, name="worker")
        api.spawn(1, self.idler, name="idler")

    def worker(self, env):
        yield Write(self.base + 3, self.value)
        data = yield Read(self.base + 3, 1)
        return int(data[0])

    def idler(self, env):
        return 0
        yield  # pragma: no cover - a generator that yields nothing


def _record_and_replay(value) -> TraceBundle:
    """Record ``_WriteAndIdle(value)`` and replay it, and its saved
    bytes, exactly and fast."""
    bundle, result = record_program(
        make_kernel(n_processors=2), _WriteAndIdle(value))
    assert result.thread_results == [5, 0]
    loaded = TraceBundle.from_bytes(bundle.to_bytes())
    assert loaded.to_bytes() == bundle.to_bytes()
    for b in (bundle, loaded):
        replay = replay_trace(b, check_expected=True)
        assert replay.sim_time_ns == bundle.expected["sim_time_ns"]
        replay_trace(b, mode="fast")
    return bundle


def test_a_thread_that_yields_no_op_records_an_empty_stream():
    _worker, idler = _record_and_replay(5).streams
    assert idler.shape == (0, 4) and idler.dtype == np.float64


def test_a_0d_integer_array_is_recorded_as_one_word():
    worker, _idler = _record_and_replay(np.array(5)).streams
    (write,) = worker[worker[:, 0] == K_WRITE].tolist()
    assert write[2] == 1.0
