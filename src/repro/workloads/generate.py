"""Constrained-random workload generation and spec lowering.

Two halves, mirroring riescue's split between declarative test specs and
the constrained-random generator that fills them in:

* :func:`generate_spec` draws a valid :class:`WorkloadSpec` from a
  seeded RNG under a size *profile* (``smoke`` for tests/CI, ``quick``
  for benchmark sweeps).  Generation is pure and deterministic: the same
  ``(seed, profile)`` yields byte-identical spec JSON forever, which is
  what the committed golden corpus under ``tests/corpus/`` pins.

* :class:`GeneratedWorkload` lowers a spec into a normal
  :class:`~repro.runtime.program.Program`: threads draw page accesses
  from per-thread RNGs seeded by the spec, phases are separated by a
  sense-reversing barrier, and ``false_sharing`` packs one private
  counter word per thread onto a shared page -- the section 4.2 anecdote
  as an injectable ingredient.  Every operation is an ordinary
  ``runtime.ops`` yield, so generated programs get the full stack for
  free: invariant checking, telemetry, the profiler, recording/replay.

A spec's *fingerprint* is trace-level: the recorded ``repro-trace/1``
bundle's SHA-256 plus the run's protocol counters.  Two invocations that
agree on the fingerprint executed the same reference string and produced
the same simulation -- the strongest cheap equality we can assert.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .. import doc as _doc
from ..machine.memory import WORD_DTYPE
from ..runtime.ops import Compute, FetchAdd, Read, Write
from ..runtime.program import Program, ProgramAPI, ThreadEnv
from .spec import (
    ACCESS_DISTRIBUTIONS,
    SHARING_PATTERNS,
    PhaseSpec,
    SpecError,
    WorkloadSpec,
)

FINGERPRINT_SCHEMA = "repro-genfp/1"
FINGERPRINTS_FILE = "FINGERPRINTS.json"

#: ``FINGERPRINTS.json``: spec name -> ``fingerprint_spec`` result
FINGERPRINTS_SHAPE = {"*": {
    "schema": str,
    "spec_sha256": str,
    "trace_sha256": str,
    "n_ops": int,
    "n_threads": int,
    "events_executed": int,
    "counters": dict,
}}

#: constrained-random ranges per generation profile.  Smoke stays tiny
#: on purpose: corpus fingerprinting records a full trace per spec, and
#: the cross-suite fixtures re-run specs many times.
_PROFILE_RANGES = {
    "smoke": {
        "threads": (2, 4),
        "machine": 4,
        "pages": (2, 6),
        "words": (4, 8, 16),
        "n_phases": (1, 3),
        "ops": (6, 16),
        "compute": (100.0, 200.0, 400.0),
    },
    "quick": {
        "threads": (4, 8),
        "machine": 8,
        "pages": (4, 12),
        "words": (4, 8, 16, 32),
        "n_phases": (1, 4),
        "ops": (24, 64),
        "compute": (100.0, 200.0, 400.0, 800.0),
    },
}

#: read fractions the generator draws from (read-mostly is constrained
#: to the heavy end; the write fraction is 1 - read exactly)
_READ_FRACTIONS = (0.3, 0.5, 0.7, 0.9)
_READ_MOSTLY_FRACTIONS = (0.9, 0.95)


def generate_spec(
    seed: int,
    profile: str = "smoke",
    name: Optional[str] = None,
) -> WorkloadSpec:
    """Draw one valid workload spec from ``seed`` under ``profile``.

    Deterministic and pure: no simulation runs, and the same arguments
    always produce an identical (byte-for-byte) spec.
    """
    if profile not in _PROFILE_RANGES:
        raise SpecError(
            f"unknown generation profile {profile!r} "
            f"(want one of {', '.join(sorted(_PROFILE_RANGES))})")
    ranges = _PROFILE_RANGES[profile]
    rng = random.Random(seed)
    sharing = rng.choice(SHARING_PATTERNS)
    threads = rng.randint(*ranges["threads"])
    pages = rng.randint(*ranges["pages"])
    words_per_op = rng.choice(ranges["words"])
    false_sharing = 1 if rng.random() < 0.35 else 0
    placement = rng.choice((None, None, "interleave", 0))
    zipf_s = rng.choice((1.1, 1.3, 1.5))
    n_phases = rng.randint(*ranges["n_phases"])
    phases = []
    for i in range(n_phases):
        ops = rng.randint(*ranges["ops"])
        if sharing == "read-mostly":
            read = rng.choice(_READ_MOSTLY_FRACTIONS)
        else:
            read = rng.choice(_READ_FRACTIONS)
        access = rng.choice(ACCESS_DISTRIBUTIONS)
        working_pages = (
            rng.randint(1, pages)
            if pages > 1 and rng.random() < 0.3 else None
        )
        phases.append(PhaseSpec(
            ops=ops,
            mix={"read": read, "write": round(1.0 - read, 10)},
            access=access,
            working_pages=working_pages,
            compute_ns=rng.choice(ranges["compute"]),
            barrier=True if i == 0 else rng.random() < 0.75,
        ))
    spec = WorkloadSpec(
        name=name or f"gen-{profile}-{seed:05d}-{sharing}",
        seed=seed,
        profile=profile,
        threads=threads,
        machine=ranges["machine"],
        pages=pages,
        sharing=sharing,
        words_per_op=words_per_op,
        false_sharing=false_sharing,
        placement=placement,
        zipf_s=zipf_s,
        phases=tuple(phases),
    )
    return spec.validate()


def generate_corpus(
    n: int, base_seed: int = 100, profile: str = "smoke"
) -> list:
    """``n`` specs from consecutive seeds (the golden-corpus recipe)."""
    return [generate_spec(base_seed + i, profile) for i in range(n)]


# -- lowering: spec -> Program ------------------------------------------------


class GeneratedWorkload(Program):
    """A spec lowered into a simulatable program.

    Accepts a :class:`WorkloadSpec` or its ``to_dict`` form, so bench
    point specs can embed the spec as plain JSON and rebuild the program
    inside a worker process.
    """

    def __init__(self, spec: Union[WorkloadSpec, dict]) -> None:
        if isinstance(spec, dict):
            spec = WorkloadSpec.from_dict(spec)
        else:
            spec.validate()
        self.spec = spec
        self.name = spec.name

    # -- setup ---------------------------------------------------------------

    def setup(self, api: ProgramAPI) -> None:
        spec = self.spec
        wpp = api.kernel.params.words_per_page
        self.wpp = wpp
        self.words = min(spec.words_per_op, wpp)
        shared = api.arena(
            spec.pages, label="gen-shared", placement=spec.placement
        )
        self.shared_base = shared.base_va
        self.fs_base = None
        if spec.false_sharing:
            fs_arena = api.arena(spec.false_sharing, label="gen-fs")
            self.fs_base = fs_arena.base_va
        self.barrier = None
        if any(ph.barrier for ph in spec.phases):
            sync_arena = api.arena(1, label="gen-sync")
            self.barrier = api.barrier(
                sync_arena, spec.threads, name="gen-phase"
            )
        self._zipf_cache: dict[int, list[float]] = {}
        for tid in range(spec.threads):
            api.spawn(tid % api.n_processors, self._body,
                      name=f"gen{tid}")

    # -- access drawing ------------------------------------------------------

    def _zipf_cum(self, n: int) -> list:
        cum = self._zipf_cache.get(n)
        if cum is None:
            weights = [1.0 / (i + 1) ** self.spec.zipf_s
                       for i in range(n)]
            total = sum(weights)
            acc, cum = 0.0, []
            for w in weights:
                acc += w / total
                cum.append(acc)
            self._zipf_cache[n] = cum
        return cum

    def _pool(self, tid: int, working: int) -> list:
        if self.spec.sharing == "private":
            pool = [pg for pg in range(working)
                    if pg % self.spec.threads == tid]
            return pool or [tid % working]
        return list(range(working))

    # -- thread body ---------------------------------------------------------

    def _body(self, env: ThreadEnv):
        spec = self.spec
        tid = env.tid
        rng = random.Random(spec.seed * 1_000_003 + tid * 9176 + 17)
        # a uniform draw below n is Random's own rejection loop over
        # getrandbits (CPython 3.10-3.13), spelled in place below: the
        # same stream, no frames (reference: tests/test_generate_draws.py)
        draw, getrandbits = rng.random, rng.getrandbits
        words = self.words
        wpp = self.wpp
        base = self.shared_base
        sharing = spec.sharing
        hot = sharing == "hotspot"
        # round-robin and producer-consumer walk every page in turn
        walk = sharing in ("round-robin", "producer-consumer")
        shift = tid if sharing == "round-robin" else 0
        draw_read = not (sharing == "producer-consumer" and spec.threads > 1)
        is_read = tid % 2 == 1
        n_off = wpp - words + 1  # offsets 0 .. n_off - 1
        off_bits = n_off.bit_length()
        fs_va = None
        if self.fs_base is not None:
            # one private counter word per thread, packed so that
            # ``threads / false_sharing`` threads share each page:
            # classic false sharing, freezable exactly like section 4.2
            fs_va = (self.fs_base
                     + (tid % spec.false_sharing) * wpp
                     + tid // spec.false_sharing)
        ops_done = 0
        for phase in spec.phases:
            if phase.barrier and self.barrier is not None:
                yield from self.barrier.wait()
            working = min(phase.working_pages or spec.pages, spec.pages)
            pool = self._pool(tid, working)
            n_pool = len(pool)
            pool_bits = n_pool.bit_length()
            sequential = phase.access == "sequential"
            seq_page = walk or sequential
            cum = (self._zipf_cum(n_pool)
                   if phase.access == "zipf" and not seq_page else None)
            draw_off = n_off > 1 and not sequential
            read_frac = phase.mix["read"]
            # ops are never mutated once built (DESIGN.md section 5):
            # one think op serves the whole phase
            think = Compute(phase.compute_ns) if phase.compute_ns else None
            for k in range(phase.ops):
                if hot and draw() < 0.75:
                    page = pool[0]
                elif seq_page:
                    page = pool[(shift + k) % n_pool]
                elif cum is not None:
                    page = pool[min(bisect_left(cum, draw()), n_pool - 1)]
                else:
                    r = getrandbits(pool_bits)
                    while r >= n_pool:
                        r = getrandbits(pool_bits)
                    page = pool[r]
                if draw_off:
                    offset = getrandbits(off_bits)
                    while offset >= n_off:
                        offset = getrandbits(off_bits)
                else:
                    offset = (k * words) % n_off
                va = base + page * wpp + offset
                if draw_read:
                    is_read = draw() < read_frac
                if is_read:
                    yield Read(va, words)
                elif words == 1:
                    yield Write(va, (k + tid + 1) % 100_000)
                else:
                    # np.full's array, built at less than half its cost
                    values = np.empty(words, WORD_DTYPE)
                    values.fill((k + tid + 1) % 100_000)
                    yield Write(va, values)
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

    # -- verification --------------------------------------------------------

    def verify(self, results) -> None:
        spec = self.spec
        expected_ops = spec.total_ops_per_thread
        tids = sorted(r[0] for r in results)
        assert tids == list(range(spec.threads)), tids
        for tid, ops_done, fs_val in results:
            assert ops_done == expected_ops, (tid, ops_done, expected_ops)
            if spec.false_sharing:
                # the falsely-shared counter saw every one of my ops and
                # none of anyone else's: the words stayed coherent
                assert fs_val == expected_ops, (tid, fs_val, expected_ops)


# -- running and fingerprinting -----------------------------------------------


def bench_spec_for(
    spec: WorkloadSpec,
    policy: Optional[str] = None,
    policy_args: Optional[dict] = None,
    machine: Optional[int] = None,
) -> dict:
    """The ``{"kind": "run"}`` point spec that simulates ``spec`` (what
    ``repro.point``, the bench sweep and the recorder consume)."""
    point = {
        "kind": "run",
        "workload": "generated",
        "machine": machine if machine is not None else spec.machine,
        "args": {"spec": spec.to_dict()},
    }
    if policy is not None:
        point["policy"] = policy
    if policy_args:
        point["policy_args"] = dict(policy_args)
    return point


def run_spec(
    spec: Union[WorkloadSpec, dict],
    policy: Optional[str] = None,
    policy_args: Optional[dict] = None,
    machine: Optional[int] = None,
    check_invariants: bool = False,
    trace: bool = False,
    defrost: bool = True,
    defrost_period=None,
):
    """Simulate one spec; returns ``(kernel, RunResult)``.

    ``check_invariants`` hooks the global invariant checker after every
    protocol action (the ``repro gen run --check-invariants`` path).
    """
    from ..point import point_kernel
    from ..runtime.run import run_program

    if isinstance(spec, dict):
        spec = WorkloadSpec.from_dict(spec)
    point = bench_spec_for(spec, policy, policy_args, machine)
    point["defrost"] = defrost
    point["defrost_period"] = defrost_period
    kernel = point_kernel(point, trace=trace)
    if check_invariants:
        from ..check import install_invariant_checker

        install_invariant_checker(kernel.coherent)
    result = run_program(kernel, GeneratedWorkload(spec))
    return kernel, result


def fingerprint_spec(spec: Union[WorkloadSpec, dict]) -> dict:
    """Record the spec's run once and reduce it to a trace-level
    fingerprint: spec bytes, ``repro-trace/1`` bundle bytes (both as
    SHA-256) and the run's full protocol counter dict.  Byte-stable:
    two invocations anywhere must agree exactly."""
    import hashlib

    from ..replay import record_spec

    if isinstance(spec, dict):
        spec = WorkloadSpec.from_dict(spec)
    bundle, _result = record_spec(bench_spec_for(spec))
    return {
        "schema": FINGERPRINT_SCHEMA,
        "spec_sha256": hashlib.sha256(
            spec.to_json().encode()).hexdigest(),
        "trace_sha256": hashlib.sha256(bundle.to_bytes()).hexdigest(),
        "n_ops": bundle.n_ops,
        "n_threads": bundle.n_threads,
        "events_executed": bundle.expected["events_executed"],
        "counters": bundle.expected["counters"],
    }


# -- the golden corpus --------------------------------------------------------


def corpus_paths(directory: Union[str, Path]) -> list:
    """Spec files in a corpus directory, sorted by name."""
    directory = Path(directory)
    return sorted(
        p for p in directory.glob("*.json")
        if p.name != FINGERPRINTS_FILE
    )


def write_corpus(
    directory: Union[str, Path],
    n: int = 20,
    base_seed: int = 100,
    profile: str = "smoke",
) -> list:
    """Generate ``n`` specs plus their fingerprints into ``directory``.

    This is the one true way to (re)build ``tests/corpus/``: spec files
    named after the spec, and ``FINGERPRINTS.json`` mapping spec name to
    its trace-level fingerprint.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    specs = generate_corpus(n, base_seed, profile)
    written = [spec.save(directory / f"{spec.name}.json")
               for spec in specs]
    fingerprints = {spec.name: fingerprint_spec(spec) for spec in specs}
    written.append(_doc.write(directory / FINGERPRINTS_FILE,
                              _doc.pretty(fingerprints)))
    return written


def verify_corpus(
    directory: Union[str, Path], fingerprints: bool = True
) -> list:
    """Drift-check a corpus directory; returns a list of one-line
    problems (empty = everything regenerates and re-simulates exactly).

    Mirrors the ``BENCH_smoke.json`` contract: generated spec files must
    equal ``generate_spec(seed, profile)`` byte-for-byte, and (when
    ``fingerprints``) re-recording each spec must reproduce the
    committed trace hash and counters exactly.
    """
    directory = Path(directory)
    problems: list[str] = []
    paths = corpus_paths(directory)
    if not paths:
        return [f"{directory}: no spec files found"]
    committed: dict = {}
    fp_path = directory / FINGERPRINTS_FILE
    if fingerprints:
        if fp_path.exists():
            committed = _doc.read(fp_path, shape=FINGERPRINTS_SHAPE,
                                  error=SpecError)
        else:
            problems.append(f"{fp_path.name}: missing")
    seen_names = set()
    for path in paths:
        try:
            spec = WorkloadSpec.load(path)
        except SpecError as exc:
            problems.append(str(exc))
            continue
        seen_names.add(spec.name)
        if path.stem != spec.name:
            problems.append(
                f"{path.name}: file name does not match spec name "
                f"{spec.name!r}")
        if spec.profile != "custom":
            regenerated = generate_spec(spec.seed, spec.profile)
            if regenerated.to_json() != path.read_text():
                problems.append(
                    f"{path.name}: bytes differ from generate_spec("
                    f"seed={spec.seed}, profile={spec.profile!r})")
                continue
        if fingerprints and committed:
            want = committed.get(spec.name)
            if want is None:
                problems.append(
                    f"{path.name}: no committed fingerprint for "
                    f"{spec.name!r}")
            elif fingerprint_spec(spec) != want:
                problems.append(
                    f"{path.name}: fingerprint drifted (the generated "
                    "program no longer simulates to the committed "
                    "trace/counters)")
    for name in sorted(set(committed) - seen_names):
        problems.append(
            f"{FINGERPRINTS_FILE}: fingerprint for {name!r} has no "
            "spec file")
    return problems
