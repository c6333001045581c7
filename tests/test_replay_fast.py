"""Fast replay: the window semantics stated directly.

``replay_trace(mode="fast")`` classifies a window by looking each memory
slot up in the thread's live pmap when the window starts, and costs it
from prefix sums.  Its results over the golden corpus are pinned
(``tests/snapshots/replay_fast.json``) and its words conserved by rows
of the equivalence plan (``tests/test_matrix.py``).  These tests hold
it to

* the words exact mode moves, on generated specs beyond the corpus;
* the staleness contract -- another processor's shootdown, a defrost
  thaw and the thread's own migration are all seen at the next window
  boundary;
* the window rules -- a lone op and a faulting first op stay on the
  scalar path, a window cut short by a fault still commits;
* hostile bundles -- a corrupt memory op is a one-line ``ReplayError``
  in both modes, exit 2 from ``repro replay``.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.replay import (
    ReplayError,
    TraceBundle,
    record_spec,
    replay_trace,
    replayer,
    save_trace,
)
from repro.replay.bundle import (
    K_DELAY,
    K_FIRE,
    K_MIGRATE,
    K_READ,
    K_RMW,
    K_THINK,
    K_WAIT,
    K_WRITE,
)
from repro.workloads import WorkloadSpec, bench_spec_for
from repro.workloads.generate import corpus_paths, generate_spec

HERE = Path(__file__).parent
FIRST_SPEC = WorkloadSpec.load(corpus_paths(HERE / "corpus")[0])


# -- hand-built bundles ---------------------------------------------------------

WPP = 1024  # words per page of the default machine


def _bundle(streams, processors, **config) -> TraceBundle:
    """Threads on ``processors`` sharing one address space whose vpages
    0-3 are the four pages of one object; two broadcast channels."""
    layout = {
        "objects": [{
            "oid": 0, "label": "hand", "n_pages": 4, "cpage_start": 0,
            "placement": [None] * 4,
        }],
        "aspaces": [{"asid": 0, "bindings": [{
            "vpage_start": 0, "n_pages": 4, "oid": 0,
            "obj_page_start": 0, "rights": 3,
        }]}],
        "threads": [
            {"tid": i, "asid": 0, "processor": p, "name": f"t{i}"}
            for i, p in enumerate(processors)
        ],
        "channels": [
            {"cid": c, "name": f"ch{c}", "base_version": 0}
            for c in range(2)
        ],
    }
    return TraceBundle(
        {"workload": "hand", "machine": 4, "params": {}, **config},
        layout, {},
        [np.array(s, dtype=float).reshape(-1, 4) for s in streams],
    )


def rd(page, n=4):
    return [K_READ, page * WPP, n, 0]


def wr(page, n=4):
    return [K_WRITE, page * WPP, n, 0]


def think(ns=200):
    return [K_THINK, ns, 0, 0]


def fire(channel):
    return [K_FIRE, channel, 0, 0]


def wait(channel):
    return [K_WAIT, channel, 0, 0]


#: B waits for A to map its pages, takes page 0 away, tells A
B_WRITES_PAGE_0 = [wait(0), wr(0), fire(1)]
#: the stretch A then walks: page 1 is still mapped, page 0 is not
A_STRETCH = [think(), rd(1), rd(0), think()]


def _both_modes(bundle):
    return (replay_trace(bundle, mode="fast"),
            replay_trace(bundle, mode="exact"))


def _assert_windows(fast, exact, windows, batched_ops):
    """The hand count, and that batching is all that separates the
    modes: uncontended, they cost the same simulated time, and every
    window stands for its ops' events."""
    assert (fast.windows, fast.batched_ops) == (windows, batched_ops)
    assert fast.counters == exact.counters
    assert fast.events_executed == \
        exact.events_executed - (batched_ops - windows)


def test_window_stops_before_a_page_another_processor_took():
    a = [rd(0), rd(1), fire(0), wait(1)] + A_STRETCH
    fast, exact = _both_modes(_bundle([a, B_WRITES_PAGE_0], [0, 1]))
    assert fast.counters["invalidations"] == 1  # B's write shot A down
    # rd(0): first op faults; rd(1): one-op stretch; then
    # [think, rd(1)] commits and rd(0) faults again; the last think is
    # alone.  A stale view of page 0 would batch all four.
    _assert_windows(fast, exact, windows=1, batched_ops=2)
    assert fast.counters["read_faults"] == 3


def test_window_stops_before_a_page_the_defrost_daemon_thawed():
    # A's re-read of page 0 freezes it (remote mapping); the delay lets
    # the daemon thaw it, which invalidates that mapping
    a = ([rd(0), rd(1), fire(0), wait(1)] + A_STRETCH
         + [[K_DELAY, 5e6, 0, 0]] + A_STRETCH)
    fast, exact = _both_modes(_bundle(
        [a, B_WRITES_PAGE_0], [0, 1], defrost=True, defrost_period=2e6))
    assert fast.counters["freezes"] == 1
    assert fast.kernel.coherent.defrost.pages_thawed == 1
    # both stretches stop at rd(0): [think, rd(1)] twice
    _assert_windows(fast, exact, windows=2, batched_ops=4)
    assert fast.counters["read_faults"] == 4


def test_window_reads_the_pmap_of_the_processor_migrated_to():
    # A maps page 0 on cpu0, moves to cpu2 and maps both pages there:
    # cpu0's pmap never held page 1, so reading it would end the window
    # one op early; cpu2's holds page 1 and lost page 0 to B
    a = ([rd(0), [K_MIGRATE, 2, 0, 0], rd(0), rd(1), fire(0), wait(1)]
         + A_STRETCH)
    fast, exact = _both_modes(_bundle([a, B_WRITES_PAGE_0], [0, 1]))
    assert fast.counters["invalidations"] == 1
    _assert_windows(fast, exact, windows=1, batched_ops=2)


def test_window_rules_on_a_hand_counted_stream():
    stream = [
        think(), fire(0),                       # lone op: scalar
        rd(0), think(), fire(0),                # fault, then a lone op
        think(), rd(0), rd(1), think(), fire(0),  # cut short at rd(1)
        think(), think(), rd(1, 8), rd(0), [K_RMW, 5, 0, 0],  # rights
    ]
    fast, exact = _both_modes(_bundle([stream], [0]))
    # windows: [think, rd(0)], cut short by the unmapped page 1 (rd(1)
    # then faults on its own and the think after it is a lone op), and
    # the four ops before the atomic, cut short by rights: it writes
    # page 0, which the read fault mapped read-only
    _assert_windows(fast, exact, windows=2, batched_ops=6)
    assert fast.counters["read_faults"] == 2
    assert fast.counters["write_faults"] == 1
    assert fast.sim_time_ns == exact.sim_time_ns


def test_a_page_crossing_reference_ends_the_stretch():
    stream = [think(), rd(0), [K_READ, WPP - 2, 4, 0], think(), rd(0)]
    fast, exact = _both_modes(_bundle([stream], [0]))
    # [think] commits (rd(0) faults), the crossing read is scalar-only,
    # [think, rd(0)] commits
    _assert_windows(fast, exact, windows=2, batched_ops=3)


def test_second_replay_touches_no_numpy(monkeypatch, recorded):
    """The slot tables are built once per bundle and per constants
    tuple: a policy sweep's later replays -- and every window -- run
    without the replayer calling numpy at all."""
    bundle = recorded(bench_spec_for(FIRST_SPEC))[0]
    first = replay_trace(bundle, mode="fast")
    monkeypatch.setattr(replayer, "np", None)
    again = replay_trace(bundle, mode="fast")
    assert (again.counters, again.sim_time_ns, again.windows) == \
        (first.counters, first.sim_time_ns, first.windows)
    assert replay_trace(bundle, mode="fast", policy="never").windows > 0
    with pytest.raises(AttributeError):  # new constants: tables rebuilt
        replay_trace(bundle, mode="fast", params={"t_local": 400.0})


# -- the decode caches ------------------------------------------------------------


def test_decode_caches_are_declared_and_keyed_to_the_streams():
    names = {f.name for f in dataclasses.fields(TraceBundle)}
    assert {"_decoded", "_slots"} <= names
    bundle = _bundle([[think(), rd(0), think()]], [0])
    twin = _bundle([[think(), rd(0), think()]], [0])
    assert replay_trace(bundle, mode="fast").counters["local_words"] == 4
    assert bundle._decoded is not None and bundle._slots is not None
    assert twin._decoded is None
    assert "_decoded" not in repr(bundle)
    # replaced streams are decoded afresh, in both modes
    bundle.streams = [np.array([think(), rd(0, 16), think()], dtype=float)]
    for mode in ("fast", "exact"):
        assert replay_trace(
            bundle, mode=mode).counters["local_words"] == 16


# -- words conserved ---------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), policy=st.sampled_from(
    (None, "always", "never", "adaptive", "competitive")))
def test_fast_mode_moves_the_words_exact_mode_moves(seed, policy):
    bundle, _live = record_spec(bench_spec_for(generate_spec(seed)))
    fast = replay_trace(bundle, mode="fast", policy=policy).counters
    exact = replay_trace(bundle, mode="exact", policy=policy).counters
    assert fast["local_words"] + fast["remote_words"] == \
        exact["local_words"] + exact["remote_words"]


# -- hostile bundles ----------------------------------------------------------------

#: (row that replaces op 1 of stream 0, what the message names)
CORRUPT_OPS = [
    ([K_READ, -16, 4, 0], "address"),
    ([K_WRITE, 10.5, 4, 0], "address"),
    ([K_RMW, -1, 0, 0], "address"),
    ([K_READ, float("nan"), 4, 0], "NaN"),
    ([K_READ, 16, 0, 0], "words"),
    ([K_WRITE, 16, -3, 0], "words"),
    ([K_READ, 16, 2.5, 0], "words"),
    ([K_READ, 16, float("inf"), 0], "infinity"),
    ([42, 0, 0, 0], "kind"),
    ([K_THINK, float("nan"), 0, 0], "think time nan"),
    ([K_THINK, float("inf"), 0, 0], "think time inf"),
    ([K_THINK, -5.0, 0, 0], "think time -5.0"),
    ([K_DELAY, -1.0, 0, 0], "delay time -1.0"),
    ([K_DELAY, float("nan"), 0, 0], "delay time nan"),
]


@pytest.mark.parametrize("mode", ("exact", "fast"))
@pytest.mark.parametrize(
    "row, names", CORRUPT_OPS, ids=[n + str(i) for i, (_r, n)
                                    in enumerate(CORRUPT_OPS)])
def test_corrupt_op_is_a_one_line_replay_error(row, names, mode):
    clean = [think(), rd(0), think(), rd(0)]
    bundle = _bundle([clean, clean[:1] + [row] + clean[2:]], [0, 1])
    with pytest.raises(ReplayError) as excinfo:
        replay_trace(bundle, mode=mode)
    message = str(excinfo.value)
    assert message.startswith("stream 1 op 1: ")
    assert names in message
    assert "\n" not in message


def test_cli_replay_of_a_corrupt_trace_exits_2(capsys, tmp_path, recorded):
    bundle = recorded(bench_spec_for(FIRST_SPEC))[0]
    good = save_trace(bundle, tmp_path / "good.trace")
    stream = bundle.streams[0].copy()
    index = int(np.nonzero(stream[:, 0] == K_READ)[0][0])
    stream[index, 1] = -stream[index, 1] - 16
    bad = save_trace(
        dataclasses.replace(bundle, streams=[stream] + bundle.streams[1:]),
        tmp_path / "bad.trace")
    for flags in ([], ["--fast"]):
        assert cli_main(["replay", str(good), *flags]) == 0
        capsys.readouterr()
        assert cli_main(["replay", str(bad), *flags]) == 2
        out = capsys.readouterr().out
        assert out == (f"repro replay: stream 0 op {index}: "
                       f"bad address {float(stream[index, 1])!r}\n")


@pytest.mark.parametrize("ns", [float("nan"), float("inf"), -5.0])
def test_cli_replay_of_a_corrupt_think_exits_2(capsys, tmp_path, ns,
                                              recorded):
    """A think that live ``Compute`` would refuse was a ``ProcessCrashed``
    traceback (NaN, inf) or replayed "ok", clamped to the current time
    (-5.0): now the same one-line refusal as a corrupt address."""
    bundle = recorded(bench_spec_for(FIRST_SPEC))[0]
    stream = bundle.streams[0].copy()
    index = int(np.nonzero(stream[:, 0] == K_THINK)[0][0])
    stream[index, 1] = ns
    bad = save_trace(
        dataclasses.replace(bundle, streams=[stream] + bundle.streams[1:]),
        tmp_path / "bad.trace")
    for flags in ([], ["--fast"]):
        assert cli_main(["replay", str(bad), *flags]) == 2
        out = capsys.readouterr().out
        assert out == (f"repro replay: stream 0 op {index}: "
                       f"think time {ns!r} is not in [0, inf)\n")
