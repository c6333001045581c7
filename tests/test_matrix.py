"""The equivalence plan: PLATINUM's transparency claim as one table.

Memory policy may change *when* references complete, never what a
program computes (paper sections 3-4); instruments and the engine's
fast path change nothing.  Each claim is a row ``(cell, cell,
relation)``: a cell is a point of the axes below, seen by
:func:`observe`; a relation is ``same``, ``structure``, ``fast`` or
``pinned`` (against a committed record: no second cell).  Tier-1 checks
the rows of the cells the former hand-written pairs covered plus an
all-pairs sample; ``-m matrix_full`` (weekly) checks every cell.
"""

import functools
import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

import repro.machine.machine as machine_mod
import repro.replay.replayer as replayer_mod
from repro.analysis import COUNTER_FIELDS, run_counters
from repro.bench import TARGETS
from repro.doc import compact
from repro.point import plain_platinum, point_kernel, point_program, sec42_spec
from repro.policy.registry import make_policy, policy_names
from repro.replay import ReplayError, replay_trace
from repro.runtime import make_kernel, run_program
from repro.sim import Engine
from repro.telemetry import MetricsRegistry, SimTimeSampler
from repro.workloads import WorkloadSpec
from repro.workloads.generate import FINGERPRINTS_FILE, corpus_paths
from repro.workloads.generate import bench_spec_for

from tests.conftest import memo_recorder, run_facts

HERE = Path(__file__).parent
CORPUS = {spec.name: spec for spec in map(
    WorkloadSpec.load, corpus_paths(HERE / "corpus"))}
FINGERPRINTS = json.loads((HERE / "corpus" / FINGERPRINTS_FILE).read_text())
FAST_PINS = json.loads((HERE / "snapshots" / "replay_fast.json").read_text())

# -- the axes -----------------------------------------------------------------

#: what a cell runs: the golden corpus (the cross's spec axis), and the
#: points and recordable bench smoke points the replaced pairs ran
POINTS = {name: bench_spec_for(spec) for name, spec in CORPUS.items()}
POINTS.update({
    "gauss": {"kind": "run", "workload": "gauss", "machine": 4, "args": {
        "n": 24, "n_threads": 4, "seed": 1989, "verify_result": False}},
    "gauss-n16": {"kind": "run", "workload": "gauss", "machine": 4,
                  "args": {"n": 16, "n_threads": 2, "verify_result": False}},
    "roundrobin": {"kind": "run", "workload": "roundrobin", "machine": 4,
                   "args": {"n_threads": 4, "operations": 16}},
    "sec42": sec42_spec(24, machine=4, threads=4),
})
SMOKE_POINTS = {
    f"{target}/{name}": spec for target in sorted(TARGETS)
    for name, spec in TARGETS[target].points("smoke")[1]
    if spec.get("kind", "run") == "run" and plain_platinum(spec)}
POINTS.update(SMOKE_POINTS)

POLICIES = (None,) + policy_names()  # None: the kernel default, as recorded
TOPOLOGIES = ("butterfly", "bus", "uniform")
MACHINES = (1, 2, 4, 16)
#: a sampler adds events of its own: sampled cells meet sampled cells
TELEMETRY = ("off", "trace", "metrics", "shared", "sampled")
BUILDERS = ("point", "make_kernel")
#: a live run, the recording run itself, and replays of the recording
MODES = ("live", "record", "exact", "fast")


class Cell(NamedTuple):
    spec: str
    machine: int
    policy: Optional[str] = None
    topology: str = "butterfly"
    fast_path: bool = True
    telemetry: str = "off"
    builder: str = "point"
    mode: str = "live"

    def __str__(self) -> str:
        return "/".join([self.spec, self.mode] + [
            f"{axis}={value}" for axis, value, default
            in zip(self._fields[1:-1], self[1:-1], cell(self.spec)[1:-1])
            if value != default])


def cell(spec: str, **axes) -> Cell:
    """A cell of ``spec``, on its own P unless ``axes`` say."""
    return Cell(spec, **{"machine": POINTS[spec]["machine"], **axes})


#: a live run under policy X against the default recording replayed
#: under X, as measured over the cross.  Under a policy that shifts
#: timing, the last thread to reach a barrier live may not be the
#: recording's: then only the counters or the words moved survive
VARIANT = {None: "same", "freeze": "same", "adaptive": "same",
           "tuned": "same", "competitive": "structure",
           "never": "structure", "always": "fast", "ace": "fast"}
#: measured to hold less than ``VARIANT``: counters equal, sim time
#: 5.3-7.7 % apart on a bus
WEAKER = {("gen-smoke-00100-uniform", "bus", policy): "fast"
          for policy in ("never", "competitive")}


def not_a_cell(c: Cell) -> Optional[str]:
    """Why ``c`` is not a cell (the plan states these), or ``None``."""
    if c.mode == "fast" and c.telemetry in ("trace", "metrics", "shared"):
        return "fast replay is approximate: it refuses the tracer and metrics"
    if c.mode == "record" and (c.telemetry != "off" or not c.fast_path):
        return ("a configuration is recorded once, uninstrumented on the "
                "default engine: every replay of it shares the recording")
    if c.builder != "point" and c.mode != "live":
        return "record_spec and replay_trace build through point_kernel"
    return None  # nor is a replay at another P, page or word size


# -- one observation ----------------------------------------------------------


def point_of(c: Cell, policy: Optional[str]) -> dict:
    point = {**POINTS[c.spec], "machine": c.machine}
    if policy is not None:
        point["policy"] = policy
    if c.topology != "butterfly":
        point["params"] = {"topology": c.topology}
    return point


def _sha(doc) -> str:
    return hashlib.sha256(compact(doc).encode()).hexdigest()[:16]


def observe(c: Cell, recorded) -> dict:
    """Everything a row may compare of one cell, through the public
    builders alone.  ``recorded(point)`` is ``conftest.memo_recorder``'s;
    a replay replays the recording under the default policy."""
    trace = c.telemetry in ("trace", "metrics", "shared")
    metrics = {"metrics": True, "shared": MetricsRegistry(enabled=True)
               }.get(c.telemetry, False)
    samplers = []

    def instrumented(kernel):
        if c.telemetry == "sampled":
            samplers.append(SimTimeSampler(kernel, period_ms=0.05))
            samplers[-1].start()
        return kernel

    point, windows = point_of(c, c.policy), None  # a replay's windows
    with pytest.MonkeyPatch.context() as patch:
        if not c.fast_path:
            patch.setattr(machine_mod, "Engine",
                          lambda: Engine(fast_path=False))
        patch.setattr(replayer_mod, "point_kernel", lambda *args, **kw:
                      instrumented(point_kernel(*args, **kw)))
        if c.mode == "live":
            kernel = instrumented(point_kernel(
                point, trace=trace, metrics=metrics,
            ) if c.builder == "point" else make_kernel(
                n_processors=c.machine,
                policy=make_policy(c.policy, None),
                defrost_period=point.get("defrost_period"),
                trace=trace, metrics=metrics, **point.get("params", {})))
            result = run_program(kernel, point_program(point))
            run = run_facts(result, kernel, run_counters(result))
        elif c.mode == "record":  # no instrument: ``kernel`` is not read
            run = recorded(point)[1]
        else:
            result = replay_trace(
                recorded(point_of(c, None))[0], policy=c.policy,
                mode=c.mode, trace=trace, metrics=metrics)
            kernel, windows = result.kernel, [result.windows,
                                              result.batched_ops]
            run = run_facts(result, kernel, result.counters)
    return {
        **run,
        "trace": _sha([(e.time, e.kind.value, e.cpage_index, e.processor,
                        sorted(e.detail.items()))
                       for e in kernel.tracer.events]) if trace else None,
        "metrics": _sha(kernel.metrics.to_jsonl())
        if metrics is not False else None,
        "samples": samplers and [len(samplers[0].samples),
                                 _sha(samplers[0].samples)] or None,
        "windows": windows,
    }


# -- the relations ------------------------------------------------------------


def same(a: dict, b: dict) -> list:
    """All observed is equal, each state location; the rest where kept."""
    return [f"{key}: {a[key]!r} vs {b[key]!r}" for key in a if key != "state"
            and a[key] != b[key] and None not in (a[key], b[key])] + [
        f"state differs at {where}" for where in a["state"]
        if a["state"][where] != b["state"][where]]


def structure(a: dict, b: dict) -> list:
    """The protocol counters are equal, sim time within 5 %."""
    time_a, time_b = a["sim_time_ns"], b["sim_time_ns"]
    counts_a, counts_b = a["counters"], b["counters"]
    return [f"counters[{key}]: {counts_a[key]} vs {counts_b[key]}"
            for key in COUNTER_FIELDS if counts_a[key] != counts_b[key]] + [
        f"sim time {time_a} vs {time_b}"] * (
            abs(time_a - time_b) > 0.05 * time_a)


def fast(a: dict, b: dict) -> list:
    """Words are conserved: the reference string is the trace's."""
    words = [o["counters"]["local_words"] + o["counters"]["remote_words"]
             for o in (a, b)]
    return [] if words[0] == words[1] else [f"words {words[0]} vs {words[1]}"]


def pin_of(c: Cell) -> Optional[tuple]:
    """``(file, key)`` of ``c``'s committed record: corpus fingerprints
    of the default and ``freeze`` recordings, fast-replay digests."""
    key = f"{c.spec}:{c.policy or 'recorded'}"
    if c.spec in CORPUS and c == cell(c.spec, policy=c.policy, mode=c.mode):
        if c.mode == "record" and c.policy in (None, "freeze"):
            return FINGERPRINTS_FILE, c.spec
        if c.mode == "fast" and key in FAST_PINS:
            return "replay_fast.json", key
    return None


def pinned(c: Cell, obs: dict, recorded) -> list:
    where, key = pin_of(c)
    if where == "replay_fast.json":
        got = hashlib.sha256(json.dumps({
            "counters": obs["counters"], "sim_time_ns": obs["sim_time_ns"],
            "windows": obs["windows"][0], "batched_ops": obs["windows"][1],
            "events_executed": obs["events"],
        }, sort_keys=True).encode()).hexdigest()
        return [] if got == FAST_PINS[key] else [f"fast digest {got}"]
    bundle = recorded(point_of(c, c.policy))[0]
    # the policy named in config may differ from the committed default
    config = {**bundle.config, "policy": None, "policy_args": {}}
    got = {"trace_sha256": hashlib.sha256(type(bundle)(
               config, bundle.layout, bundle.expected,
               bundle.streams).to_bytes()).hexdigest(),
           "n_ops": bundle.n_ops, "n_threads": bundle.n_threads,
           "events_executed": obs["events"], "counters": obs["counters"]}
    return [f"{field} {value!r}" for field, value in got.items()
            if value != FINGERPRINTS[key][field]]


RELATIONS = {"same": same, "structure": structure, "fast": fast}

# -- rows ---------------------------------------------------------------------

NEXT_TELEMETRY = {"off": "trace", "trace": "metrics", "metrics": "shared"}
KINDS = ("again", "fast_path", "telemetry", "builder", "record", "exact",
         "fast", "pinned")


def rows_of(c: Cell, kinds=KINDS) -> list:
    """``c``'s rows of ``kinds``: ``c`` again (a recording is made once),
    ``c`` against each cell one axis away (fast path off, the next
    instrument, ``make_kernel``, the recording, the replays), and
    against its pin."""
    exact = WEAKER.get((c.spec, c.topology, c.policy), VARIANT[c.policy])
    rows = [
        ("again", c.mode != "record" and c, "same"),
        ("fast_path", c.fast_path and c._replace(fast_path=False), "same"),
        ("telemetry", c.telemetry in NEXT_TELEMETRY and c._replace(
            telemetry=NEXT_TELEMETRY[c.telemetry]), "same"),
        ("builder", c.builder == "point" and c.mode == "live"
         and c._replace(builder="make_kernel"), "same"),
        ("record", c.mode == "live" and c._replace(mode="record"), "same"),
        ("exact", c.mode in ("live", "record") and c._replace(mode="exact"),
         exact),
        ("fast", c.mode == "exact" and c._replace(mode="fast"), "fast"),
        ("pinned", bool(pin_of(c)) and None, "pinned"),
    ]
    return [(c, b, relation) for kind, b, relation in rows
            if kind in kinds and b is not False and not not_a_cell(c)
            and (b is None or not not_a_cell(b))]


def all_pairs_sample() -> list:
    """Cells in which any two values of two axes (spec aside) that a
    cell can hold meet; the specs are dealt round the corpus."""
    candidates = list(itertools.product(MACHINES, POLICIES, TOPOLOGIES,
                                        (True, False), TELEMETRY, BUILDERS,
                                        MODES))
    random.Random(1989).shuffle(candidates)
    names, chosen, covered = sorted(CORPUS), [], set()
    for values in candidates:
        c = Cell(names[len(chosen) % len(names)], *values)
        pairs = set(itertools.combinations(enumerate(values), 2))
        if not not_a_cell(c) and not pairs <= covered:
            chosen.append(c)
            covered |= pairs
    return chosen


def tier1() -> list:
    """``(cell, row kinds)``: the pairs this plan replaced, then the
    all-pairs sample with all its rows."""
    plan = [(cell(name, telemetry=telemetry), ("fast_path",))
            for name in ("gauss", "roundrobin")
            for telemetry in ("trace", "sampled")]
    plan += [(cell("gauss", telemetry="trace"), ("again", "telemetry")),
             (cell("gauss"), ("telemetry",)), (cell("sec42"), ("builder",)),
             (cell("gauss", telemetry="metrics"), ("again", "telemetry"))]
    plan += [(cell("gauss-n16", mode=mode), kinds) for mode, kinds in (
        ("live", ("record",)), ("record", ("exact",)),
        ("exact", ("again", "fast")), ("fast", ("again",)))]
    plan += [(cell(name, mode="record"), ("exact",)) for name in SMOKE_POINTS]
    for name in CORPUS:
        plan += [(cell(name, mode=mode, telemetry=telemetry), ("fast_path",))
                 for mode, telemetry in (
                     ("live", "sampled"), ("exact", "trace"),
                     ("exact", "sampled"), ("fast", "sampled"))]
        plan += [(cell(name, telemetry="trace"),
                  ("again", "fast_path", "telemetry")),
                 (cell(name), ("record", "telemetry")),
                 (cell(name, mode="record"), ("exact", "pinned")),
                 (cell(name, mode="record", policy="freeze"), ("pinned",))]
        plan += [(cell(name, policy=policy, mode=mode), (kind,))
                 for policy in POLICIES for mode, kind in (
                     ("live", "exact"), ("exact", "fast"), ("fast", "pinned"))
                 if kind != "pinned" or f"{name}:{policy or 'recorded'}"
                 in FAST_PINS]
    return plan + [(c, KINDS) for c in all_pairs_sample()]


def row_id(row: tuple) -> str:
    a, b, relation = row
    return f"{a} {relation} {'again' if b == a else b or 'its pin'}"


def problems(row: tuple, observed, recorded) -> list:
    """How ``row`` breaks; ``observed`` is :func:`observe` once per cell,
    and a row of a cell with itself runs that cell again."""
    a, b, relation = row
    if b is None:
        return pinned(a, observed(a), recorded)
    return RELATIONS[relation](
        observed(a), observe(b, recorded) if b == a else observed(b))


@pytest.fixture(scope="module")
def observed(recorded):
    return functools.cache(functools.partial(observe, recorded=recorded))


TIER1 = tier1()
#: the tier-1 rows, each once, in plan order
TIER1_ROWS = list(dict.fromkeys(row for c, kinds in TIER1
                                for row in rows_of(c, kinds)))


def test_every_tier1_cell_has_a_row():
    assert [(c, kinds) for c, kinds in TIER1 if not rows_of(c, kinds)] == []


@pytest.mark.parametrize("row", TIER1_ROWS, ids=row_id)
def test_row(row, observed, recorded):
    """One tier-1 row (a pair this plan replaced, or a row of the
    all-pairs sample); a failure names each differing state location."""
    assert problems(row, observed, recorded) == []


def test_every_pin_is_a_row():
    assert {pin_of(c) for c, kinds in TIER1 if "pinned" in kinds} == {
        (FINGERPRINTS_FILE, name) for name in FINGERPRINTS} | {
        ("replay_fast.json", key) for key in FAST_PINS} | {None}


def test_observe_tells_runs_apart(observed):
    """No relation is vacuous: another problem size moves the trace, the
    state and the counters, and a sampled cell samples."""
    a = observed(cell("gauss", telemetry="trace"))
    b = observed(cell("gauss-n16", telemetry="trace"))
    assert a["trace"] != b["trace"] and same(a, b) and structure(a, b)
    assert observed(cell("gauss", telemetry="sampled"))["samples"][0] > 5


def test_what_is_not_a_cell_is_refused(recorded):
    bundle = recorded(POINTS["gauss-n16"])[0]
    for telemetry in ("trace", "metrics", "shared"):
        assert not_a_cell(cell("gauss-n16", mode="fast", telemetry=telemetry))
        with pytest.raises(ReplayError, match="fast mode is approximate"):
            replay_trace(bundle, mode="fast", trace=telemetry == "trace",
                         metrics=telemetry != "trace")


@pytest.mark.matrix_full
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_the_full_cross(name):
    """Every row of every cell of one spec; fast mode's signed sim-time
    error per cell goes to ``benchmarks/results/matrix/``.  No row
    varies spec, policy, topology or P: each group observes alone."""
    failures, errors = [], {}
    for topology, machine in itertools.product(TOPOLOGIES, MACHINES):
        recorded = memo_recorder()
        for policy in POLICIES:
            observed = functools.cache(
                functools.partial(observe, recorded=recorded))
            for rest in itertools.product((True, False), TELEMETRY,
                                          BUILDERS, MODES):
                c = Cell(name, machine, policy, topology, *rest)
                failures += [f"{row_id(row)}: {p}" for row in rows_of(c)
                             for p in problems(row, observed, recorded)]
                if c == c._replace(mode="fast", telemetry="off",
                                   fast_path=True, builder="point"):
                    exact = observed(c._replace(mode="exact"))["sim_time_ns"]
                    errors[str(c)] = observed(c)["sim_time_ns"] / exact - 1
    out = HERE.parent / "benchmarks" / "results" / "matrix" / f"{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(errors, sort_keys=True, indent=1))
    assert failures == []
