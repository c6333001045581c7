"""Command-line interface: run PLATINUM experiments from a shell.

::

    python -m repro table1                 # the section 4.1 table
    python -m repro transitions            # the Figure 4 diagram
    python -m repro micro                  # section 4 microbenchmarks
    python -m repro gauss -n 128 -p 8      # one Gauss run + post-mortem
    python -m repro speedup gauss -n 200   # a Figure 1-style curve
    python -m repro speedup mergesort
    python -m repro speedup neural
    python -m repro compare -n 400         # the section 5.1 three systems
    python -m repro trace -n 48 -p 4       # a traced run's protocol log
    python -m repro bench --quick --jobs 4 # the parallel benchmark sweep
    python -m repro check invariants       # invariant-checked workloads
    python -m repro check conformance      # trace replay vs Figure 4
    python -m repro check fuzz --seeds 100 # seeded schedule fuzzing

All output is plain text on stdout; every command is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import (
    MigrationCostModel,
    ascii_plot,
    format_table,
    measure_speedup,
)
from . import doc as _doc
from .core import format_table as format_transitions
from .point import point_kernel, point_program, sec42_spec
from .policy.registry import policy_names
from .runtime import run_program

#: the workloads with a verb of their own -> default problem size (-n)
_CLI_WORKLOADS = {
    "gauss": 64, "mergesort": 16384, "neural": 40,
    "jacobi": 48, "matmul": 48,
}


class _BadPoint(Exception):
    """The point a verb was asked to run cannot be built; ``_run_verb``
    prints it as ``repro <verb>: <reason>`` and exits 2."""


def _checked(build, *args, **kwargs):
    """Call a point-building function, turning its ``ValueError`` into
    the exit-2 :class:`_BadPoint`.  Wrapped around building only, never
    around a simulation: a real crash is still a crash."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise _BadPoint(str(exc)) from None


def _build_point(spec: dict, **instruments):
    """``(kernel, program)`` for a point spec (see :mod:`repro.point`)."""
    return (_checked(point_kernel, spec, **instruments),
            _checked(point_program, spec))


def _policy_spec(args: argparse.Namespace) -> dict:
    """The ``--policy/--policy-args/--tuned/--defrost*`` option group
    (whichever of it the verb declares) lowered to point-spec keys."""
    import json

    spec = {}
    if getattr(args, "policy", None):
        spec["policy"] = args.policy
    if getattr(args, "policy_args", None):
        try:
            spec["policy_args"] = json.loads(args.policy_args)
        except json.JSONDecodeError as exc:
            raise _BadPoint(f"--policy-args is not JSON: {exc}") from None
    if getattr(args, "tuned", None):
        from .policy import load_tuned

        spec["policy"], spec["policy_args"] = load_tuned(args.tuned)
    if getattr(args, "defrost", None) is not None:
        spec["defrost"] = args.defrost
    if getattr(args, "defrost_period_ms", None) is not None:
        spec["defrost_period"] = args.defrost_period_ms * 1e6
    return spec


def _point_spec(args: argparse.Namespace, workload=None, p=None) -> dict:
    """A verb's ``-n/-p/--epochs/--no-verify/--machine`` and policy
    options lowered to the ``{"kind": "run"}`` point spec it runs."""
    name = workload or args.workload
    p = args.p if p is None else p
    if name == "neural":
        program_args = {"epochs": args.epochs, "n_threads": p}
    else:
        n = args.n if args.n is not None else _CLI_WORKLOADS[name]
        program_args = {"n": n, "n_threads": p,
                        "verify_result": args.verify}
        if name == "jacobi":
            program_args["iterations"] = args.epochs
    return {"kind": "run", "workload": name, "machine": args.machine,
            "args": program_args, **_policy_spec(args)}


def _cmd_table1(args: argparse.Namespace) -> int:
    from .machine.params import MachineParams

    model = (
        MigrationCostModel.paper_constants()
        if args.paper_constants
        else MigrationCostModel.from_params(
            MachineParams(n_processors=2).validated()
        )
    )
    print(model.format_table1())
    return 0


def _cmd_transitions(args: argparse.Namespace) -> int:
    print(format_transitions())
    return 0


def _cmd_micro(args: argparse.Namespace) -> int:
    from .bench import render_checks, run_bench

    docs, _runner = run_bench("quick", filter_pattern="sec4_micro")
    print(docs["sec4_micro"]["title"])
    print(render_checks(docs["sec4_micro"]), end="")
    return 0


def _attach_trace_sink(kernel, destination: str):
    """Stream trace events to ``destination`` (extension picks the
    format: ``.jsonl`` -> JSON Lines, anything else -> Chrome
    trace-event JSON for Perfetto/chrome://tracing)."""
    from .telemetry import ChromeTraceSink, JsonlTraceSink

    if destination.endswith(".jsonl"):
        sink = JsonlTraceSink(destination)
    else:
        sink = ChromeTraceSink(
            destination, n_processors=kernel.params.n_processors
        )
    kernel.tracer.add_sink(sink)
    return sink


def _start_sampler(kernel, sample_ms: float):
    from .telemetry import SimTimeSampler

    sampler = SimTimeSampler(
        kernel, period_ms=sample_ms, registry=kernel.metrics
    )
    sampler.start()
    return sampler


def _write_metrics_jsonl(kernel, sampler, destination: str) -> int:
    """Write metric records then sampler records as one JSONL file;
    returns how many lines were written."""
    text = kernel.metrics.to_jsonl() + sampler.to_jsonl()
    _doc.write(destination, text)
    return text.count("\n")


def _cmd_run(args: argparse.Namespace) -> int:
    want_metrics = args.metrics_out is not None
    if want_metrics and args.sample_ms <= 0:
        print(f"repro {args.workload}: --sample-ms must be positive, "
              f"got {args.sample_ms}")
        return 2
    kernel, program = _build_point(
        _point_spec(args), trace=args.trace, metrics=want_metrics)
    if args.trace_out:
        _attach_trace_sink(kernel, args.trace_out)
        # without --trace the history lives only on disk: constant memory
        kernel.tracer.retain = args.trace
    sampler = _start_sampler(kernel, args.sample_ms) if want_metrics \
        else None
    try:
        from .obs import span as obs_span

        with obs_span("run.simulate", workload=args.workload,
                      machine=args.machine, p=args.p) as sp:
            result = run_program(kernel, program)
            sp.attrs["sim_time_ms"] = round(result.sim_time_ms, 6)
    finally:
        # a crashing run must still flush its trace sinks: a valid,
        # truncated trace beats a silently-buffered empty one
        kernel.tracer.close_sinks()
    print(f"{program.name}: {result.sim_time_ms:.2f} ms simulated "
          f"on {args.p} of {args.machine} processors")
    print()
    print(result.report.format(max_rows=args.rows))
    if args.trace:
        print()
        print(kernel.tracer.timeline(limit=args.rows * 2))
    if args.trace_out:
        print(f"\nwrote trace to {args.trace_out}")
    if sampler is not None:
        lines = _write_metrics_jsonl(kernel, sampler, args.metrics_out)
        print(f"wrote {lines} metric/sample records to "
              f"{args.metrics_out}")
        if sampler.dropped:
            print(f"warning: sampler dropped {sampler.dropped} samples "
                  "at the cap")
    return 0


def _metrics_from_file(destination: str, fmt: str = "text") -> int:
    """Summarize a previously written metrics JSONL file."""
    from .telemetry import read_metric_records, records_to_prometheus

    metrics, samples = read_metric_records(destination)
    if fmt == "prom":
        sys.stdout.write(records_to_prometheus(metrics))
        return 0
    print(f"{destination}: {len(metrics)} metric record(s), "
          f"{samples} sample record(s)")
    for record in metrics:
        labels = record.get("labels") or {}
        suffix = (
            "{" + ",".join(f"{k}={v}"
                           for k, v in sorted(labels.items())) + "}"
            if labels else ""
        )
        print(f"  {record['name']}{suffix} = {record.get('value')}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.from_file is not None:
        return _metrics_from_file(args.from_file, args.format)
    if args.workload is None:
        print("repro metrics: give a workload to run, or --from FILE "
              "to summarize a saved metrics file")
        return 2
    if args.sample_ms <= 0:
        print(f"repro metrics: --sample-ms must be positive, "
              f"got {args.sample_ms}")
        return 2
    kernel, program = _build_point(_point_spec(args), metrics=True)
    sampler = _start_sampler(kernel, args.sample_ms)
    result = run_program(kernel, program)
    if args.format == "prom":
        # stdout is the exposition document; human context to stderr
        print(f"{program.name}: {result.sim_time_ms:.2f} ms simulated "
              f"on {args.p} of {args.machine} processors",
              file=sys.stderr)
        from .telemetry import to_prometheus

        sys.stdout.write(to_prometheus(kernel.metrics))
        if args.out:
            lines = _write_metrics_jsonl(kernel, sampler, args.out)
            print(f"wrote {lines} metric/sample records to {args.out}",
                  file=sys.stderr)
        return 0
    print(f"{program.name}: {result.sim_time_ms:.2f} ms simulated "
          f"on {args.p} of {args.machine} processors")
    print()
    print(kernel.metrics.format())
    print()
    from .analysis import sample_timeline

    print(sample_timeline(sampler))
    if args.out:
        lines = _write_metrics_jsonl(kernel, sampler, args.out)
        print(f"\nwrote {lines} metric/sample records to {args.out}")
    return 0


def _live_profile(args: argparse.Namespace, target: str):
    """Run ``target`` live with the tracer and access probe on and
    return its :class:`~repro.profile.ProfileSource`; ``None`` when
    ``target`` names no live run (a saved bundle, trace or ledger).

    A workload name runs at the verb's ``-n/-p/--machine``; ``sec42``
    is the paper's section 4.2 anecdote (:func:`repro.point.sec42_spec`);
    a ``repro-workload/1`` spec file runs on the spec's own machine with
    the same short defrost period.
    """
    from .profile import AccessProbe, ProfileSource

    label = target
    if target in _CLI_WORKLOADS:
        spec = _point_spec(args, workload=target)
    elif target == "sec42":
        spec = sec42_spec(24 if args.n is None else args.n,
                          args.machine, args.p)
    elif _doc.tag(target) == "repro-workload/1":
        from .workloads import WorkloadSpec, bench_spec_for

        generated = WorkloadSpec.load(target)
        label = generated.name
        spec = {**bench_spec_for(generated), "defrost_period": 20e6}
    else:
        return None
    kernel, program = _build_point(spec, trace=True)
    probe = AccessProbe.install(kernel.coherent)
    result = run_program(kernel, program)
    return ProfileSource.from_run(kernel, result, probe, workload=label)


def _cmd_explain(args: argparse.Namespace) -> int:
    from .profile import ProfileSource, build_explain

    source = _live_profile(args, args.target)
    if source is None:
        source = ProfileSource.load(args.target)
    if args.save:
        path = source.save(args.save)
        # stderr so --format json stdout stays a clean document
        print(f"wrote profile bundle to {path}", file=sys.stderr)
    report = build_explain(
        source,
        top=args.top,
        page=args.page,
        critical_path=args.critical_path,
    )
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.format_text())
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Run the anomaly-detector catalog over a run (see obs.doctor)."""
    from .obs import diagnose, render_findings
    from .obs.doctor import validate_detectors
    from .profile import ProfileSource

    detectors = args.detector or None
    if detectors is not None:
        # reject an unknown detector *before* the expensive run
        validate_detectors(detectors)
    target = args.target
    ledger_records = None
    source = _live_profile(args, target)
    if source is None and _doc.tag(target) == "repro-events/1":
        from .obs import read_ledger

        ledger_records = read_ledger(target)
        if detectors is None:
            detectors = ["pool_wall"]
    elif source is None:
        source = ProfileSource.load(target)
    report = diagnose(
        source,
        ledger_records=ledger_records,
        detectors=detectors,
    )
    text = _doc.pretty(report)
    if args.out:
        _doc.write(args.out, text)
        print(f"wrote findings to {args.out}", file=sys.stderr)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        print(render_findings(report))
    return 0


def _version() -> str:
    """The installed distribution version, falling back to the package
    constant when running from a source tree."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # noqa: BLE001 - metadata absent outside installs
        from . import __version__

        return __version__


def _cmd_record(args: argparse.Namespace) -> int:
    from .replay import record_spec, save_trace

    spec = _point_spec(args)
    from .obs import span as obs_span

    try:
        with obs_span("record.simulate", workload=args.workload,
                      machine=args.machine) as sp:
            bundle, result = record_spec(spec)
            sp.attrs["ops"] = bundle.n_ops
            sp.attrs["sim_time_ms"] = round(result.sim_time_ms, 6)
    except ValueError as exc:  # the point cannot be built or recorded
        print(f"repro record: {exc}")
        return 2
    with obs_span("record.save"):
        path = save_trace(bundle, args.out or f"{args.workload}.trace")
    print(f"{args.workload}: {result.sim_time_ms:.2f} ms simulated on "
          f"{args.p} of {args.machine} processors")
    print(f"recorded {bundle.n_ops} ops on {bundle.n_threads} threads")
    print(f"wrote {path} ({path.stat().st_size} bytes)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .replay import replay_trace

    params = {}
    for kv in args.param:
        key, sep, value = kv.partition("=")
        if not sep:
            print(f"repro replay: --param wants KEY=VALUE, got {kv!r}")
            return 2
        try:
            params[key] = float(value)
        except ValueError:
            print(f"repro replay: --param {key}: {value!r} is not a "
                  "number")
            return 2
    variant = _policy_spec(args)
    if args.fast and args.check:
        print("repro replay: --fast is approximate; --check needs "
              "exact mode")
        return 2
    from .obs import span as obs_span

    with obs_span("replay.run", trace=args.trace,
                  mode="fast" if args.fast else "exact",
                  policy=variant.get("policy")) as sp:
        result = replay_trace(
            args.trace,
            **variant,
            params=params or None,
            check_expected=args.check,
            mode="fast" if args.fast else "exact",
        )
        sp.attrs["events_executed"] = result.events_executed
        sp.attrs["sim_time_ms"] = round(result.sim_time_ms, 6)
    print(f"replay: {result.sim_time_ms:.2f} ms simulated, "
          f"{result.events_executed} events executed")
    if args.fast:
        print(f"fast mode: {result.batched_ops} ops batched into "
              f"{result.windows} windows")
    if args.check:
        print("replay reproduces the recording run exactly")
    print()
    print(result.report.format(max_rows=args.rows))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .obs import span as obs_span
    from .policy import tune

    with obs_span("tune.run", trace=args.trace,
                  policy=args.policy) as sp:
        doc = tune(args.trace, policy=args.policy,
                   max_pages=args.max_pages)
        sp.attrs["trials"] = len(doc["trials"])
        sp.attrs["improvement_pct"] = doc["improvement_pct"]
    text = _doc.pretty(doc)
    if args.out and args.out != "-":
        path = _doc.write(args.out, text)
        base = doc["baseline"]
        print(f"baseline {base['policy']}: "
              f"{base['sim_time_ns'] / 1e6:.3f} ms")
        print(f"tuned {doc['policy']}: "
              f"{doc['sim_time_ns'] / 1e6:.3f} ms "
              f"({doc['improvement_pct']:+.2f}% vs baseline, "
              f"{len(doc['trials'])} trial(s))")
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from .analysis import run_dashboard

    kernel, program = _build_point(_point_spec(args), trace=True)
    # long runs: keep the newest events rather than silently truncating
    # the interesting tail (keep-first mode drops everything after the
    # cap, which starved the dashboard's late-run panels)
    kernel.tracer.use_ring()
    run_program(kernel, program)
    print(run_dashboard(kernel))
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    try:
        counts = [int(c) for c in args.counts.split(",")]
    except ValueError:
        raise _BadPoint("--counts wants comma-separated processor "
                        f"counts, got {args.counts!r}") from None
    specs = {p: _point_spec(args, p=p) for p in counts}
    curve = measure_speedup(
        lambda p: _checked(point_program, specs[p]),
        processor_counts=counts,
        kernel_factory=lambda p: _checked(point_kernel, specs[p]),
        label=args.workload,
    )
    print(curve.format())
    print()
    print(ascii_plot(
        curve.processors,
        {"measured": curve.speedups,
         "ideal": [float(p) for p in curve.processors]},
        title=f"{args.workload} speedup vs processors",
        y_label="speedup",
    ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .bench.targets import SEC51_PAPER, derive_sec51, sec51_points

    if args.machine < 2:
        raise _BadPoint("--machine must be at least 2: a speedup "
                        "compares two processor counts")
    ok = {name: {"sim_time_ns":
                 run_program(*_build_point(spec)).sim_time_ns}
          for name, spec in sec51_points(args.n, args.machine)}
    speedups = derive_sec51(ok)["speedups"]
    print(format_table(
        ["system", "paper speedup@16 (800x800)",
         f"speedup@{args.machine}", "T1 (s)", f"T{args.machine} (s)"],
        [[label, paper, f"{speedups[system]:.2f}",
          f"{ok[f'{system} p=1']['sim_time_ns'] / 1e9:.2f}",
          f"{ok[f'{system} p={args.machine}']['sim_time_ns'] / 1e9:.3f}"]
         for system, (label, paper) in SEC51_PAPER.items()],
        title=f"Gauss {args.n}x{args.n} by programming system "
        "(paper section 5.1)",
    ))
    return 0


#: the small workload battery the check commands run: every protocol
#: behaviour class (replication, migration, freeze, defrost thaw,
#: thaw-on-fault) in a few hundred milliseconds of wall time
_CHECK_BATTERY = (
    ("round-robin-sharing",
     {"workload": "roundrobin",
      "args": {"n_threads": 4, "operations": 16}}),
    ("phase-change-sharing",
     {"workload": "phasechange", "defrost_period": 30e6,
      "args": {"n_threads": 4}}),
    ("gauss-16",
     {"workload": "gauss", "args": {"n": 16, "n_threads": 4}}),
    ("gauss-16-thaw-on-fault",
     {"workload": "gauss", "args": {"n": 16, "n_threads": 4},
      "policy": "freeze", "policy_args": {"thaw_on_fault": True}}),
    ("mergesort-256",
     {"workload": "mergesort", "args": {"n": 256, "n_threads": 4}}),
)


def _check_points(machine: int):
    """``(name, traced kernel, program)`` per battery entry."""
    for name, spec in _CHECK_BATTERY:
        kernel, program = _build_point(
            {**spec, "machine": machine}, trace=True)
        yield name, kernel, program


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import false_checks, run_bench, summarize, write_results

    if args.update:
        # the one-verb snapshot-regeneration path: the committed
        # BENCH_smoke.json is always the smoke scale of every target
        if args.quick or args.full \
                or (args.scale and args.scale != "smoke"):
            print("repro bench: --update regenerates the committed "
                  "smoke snapshot; drop --quick/--full/--scale")
            return 2
        if args.filter:
            print("repro bench: --update writes the all-target "
                  "snapshot; drop --filter")
            return 2
        args.smoke = True
        if not args.snapshot:
            args.snapshot = "BENCH_smoke.json"
    scale = args.scale or (
        "full" if args.full else ("smoke" if args.smoke else "quick")
    )

    def progress(result):
        status = "ok" if result.ok else (
            "TIMEOUT" if result.timed_out else "FAILED"
        )
        print(f"  {result.name:<44} {status:>7} {result.wall_s:8.2f}s",
              flush=True)

    import time as _time

    t0 = _time.perf_counter()
    try:
        docs, runner = run_bench(
            scale=scale,
            jobs=args.jobs,
            filter_pattern=args.filter,
            base_seed=args.base_seed,
            timeout_s=args.timeout,
            progress=progress if not args.quiet else None,
        )
    except ValueError as exc:
        print(f"repro bench: {exc}")
        return 2
    wall = _time.perf_counter() - t0
    out_dir = Path(args.out)
    written = write_results(docs, out_dir)
    if args.snapshot:
        from .bench import write_snapshot

        written.append(write_snapshot(docs, scale, args.snapshot))
    total, failed, problems = summarize(docs)
    print()
    print(f"bench {scale}: {len(docs)} target(s), {total} point(s), "
          f"{failed} failed, {wall:.1f}s wall "
          f"(jobs={args.jobs}"
          + (", degraded to serial" if runner.degraded else "") + ")")
    health = getattr(runner, "health", None)
    if health is not None:
        notable = {k: v for k, v in health.summary().items()
                   if k != "tasks" and v}
        if notable:
            print("pool health: " + ", ".join(
                f"{k}={v}" for k, v in sorted(notable.items())))
    for path in written:
        if path.suffix == ".json":
            print(f"  wrote {path}")
    if problems:
        print("\nschema problems:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    false = false_checks(docs)
    for line in false:
        print(f"repro bench: {line}")
    return 1 if failed or false else 0


def _cmd_obs_ledger(args: argparse.Namespace) -> int:
    from .obs import (
        read_ledger,
        strip_wall_ledger,
        summarize_ledger,
        validate_ledger,
    )

    if args.follow:
        from .obs import follow_ledger, render_follow_record

        try:
            for record in follow_ledger(
                args.path, poll_s=args.poll_s, timeout_s=args.timeout,
            ):
                line = render_follow_record(record)
                if line:
                    print(line, flush=True)
        except KeyboardInterrupt:
            return 130
        return 0
    records = read_ledger(args.path)
    problems = validate_ledger(records)
    if args.strip_wall:
        # the rerun-comparable view: wall-clock fields dropped, spans in
        # sid order -- byte-identical across runs of the same command
        sys.stdout.write(_doc.jsonl(strip_wall_ledger(records)))
    else:
        print(summarize_ledger(records))
    if problems:
        print(f"\n{len(problems)} ledger problem(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    return 0


def _cmd_check_invariants(args: argparse.Namespace) -> int:
    from .check import InvariantViolation, install_invariant_checker

    failed = 0
    for name, kernel, program in _check_points(args.machine):
        checker = install_invariant_checker(kernel.coherent)
        try:
            run_program(kernel, program)
        except InvariantViolation as exc:
            failed += 1
            print(f"{name}: FAILED after {checker.checks} sweeps -- {exc}")
        else:
            print(
                f"{name}: ok -- {checker.checks} invariant sweeps, "
                "0 violations"
            )
    if failed:
        print(f"\n{failed} workload(s) violated the coherence invariants")
        return 1
    print("\nall workloads hold the coherence invariants")
    return 0


def _cmd_check_conformance(args: argparse.Namespace) -> int:
    from .check import check_trace

    failed = 0
    for name, kernel, program in _check_points(args.machine):
        run_program(kernel, program)
        report = check_trace(kernel.tracer)
        print(f"{name}: {report.describe()}")
        if not report.ok:
            failed += 1
    if failed:
        print(f"\n{failed} trace(s) diverged from the Figure 4 table")
        return 1
    print("\nall traces conform to the Figure 4 transition table")
    return 0


def _cmd_check_fuzz(args: argparse.Namespace) -> int:
    from .check import fuzz

    for name in ("seeds", "ops", "procs", "pages"):
        if getattr(args, name) < 1:
            print(f"repro check fuzz: --{name} must be at least 1")
            return 2

    def progress(seed, outcome):
        if args.verbose:
            status = "ok" if outcome.ok else "FAILED"
            print(
                f"seed {seed}: {status} ({outcome.ops_run} ops, "
                f"{outcome.checks} sweeps)"
            )

    if args.corpus:
        from .check import fuzz_corpus
        from .workloads import WorkloadSpec
        from .workloads.generate import corpus_paths

        specs = [WorkloadSpec.load(p) for p in corpus_paths(args.corpus)]
        if not specs:
            print(f"repro check fuzz: no spec files in {args.corpus}")
            return 2
        try:
            report = fuzz_corpus(
                specs,
                policies=tuple(args.policies.split(",")),
                shrink=args.shrink,
                progress=progress,
            )
        except ValueError as exc:
            print(f"repro check fuzz: {exc}")
            return 2
        print(report.describe())
        return 0 if report.ok else 1

    report = fuzz(
        n_seeds=args.seeds,
        base_seed=args.base_seed,
        n_ops=args.ops,
        n_processors=args.procs,
        n_pages=args.pages,
        shrink=args.shrink,
        progress=progress,
    )
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    """Dispatcher for the ``repro gen`` sub-subcommands; every spec
    problem surfaces as a one-line exit-2 error, matching ``repro
    explain``."""
    try:
        return args.gen_fn(args)
    except ValueError as exc:  # SpecError and policy-name errors
        print(f"repro gen: {exc}")
        return 2


def _cmd_gen_emit(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .workloads import SpecError, generate_spec

    if args.count < 1:
        raise SpecError("-n must be at least 1")
    specs = [generate_spec(args.seed + i, args.profile)
             for i in range(args.count)]
    if args.out == "-":
        for spec in specs:
            sys.stdout.write(spec.to_json())
        return 0
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        path = spec.save(outdir / f"{spec.name}.json")
        print(f"wrote {path}")
    return 0


def _cmd_gen_validate(args: argparse.Namespace) -> int:
    from .workloads import WorkloadSpec

    for file in args.files:
        spec = WorkloadSpec.load(file)
        print(f"{file}: ok -- {spec.name}: {spec.threads} threads, "
              f"{spec.pages} pages, {len(spec.phases)} phase(s), "
              f"{spec.total_ops_per_thread} ops/thread")
    return 0


def _cmd_gen_run(args: argparse.Namespace) -> int:
    from .analysis.costmodel import run_counters
    from .workloads import (
        SpecError,
        WorkloadSpec,
        fingerprint_spec,
        generate_spec,
        run_spec,
    )

    specs = []
    if args.seed is not None:
        specs.extend(generate_spec(args.seed + i, args.profile)
                     for i in range(args.count))
    specs.extend(WorkloadSpec.load(file) for file in args.files)
    if not specs:
        raise SpecError("give spec files to run, or --seed to generate")
    variant = _policy_spec(args)
    for spec in specs:
        _kernel, result = run_spec(
            spec,
            **variant,
            machine=args.machine,
            check_invariants=args.check_invariants,
        )
        counters = run_counters(result)
        print(f"{spec.name}: {result.sim_time_ms:.2f} ms simulated on "
              f"{spec.threads} threads / "
              f"{args.machine or spec.machine} processors -- "
              f"{counters['faults']} faults, "
              f"{counters['freezes']} freezes"
              + (", invariants clean" if args.check_invariants else ""))
        if args.fingerprint:
            fp = fingerprint_spec(spec)
            print(f"  fingerprint: spec {fp['spec_sha256'][:12]} "
                  f"trace {fp['trace_sha256'][:12]} "
                  f"({fp['events_executed']} events)")
    return 0


def _cmd_gen_corpus(args: argparse.Namespace) -> int:
    from .workloads import write_corpus

    written = write_corpus(args.out, n=args.count,
                           base_seed=args.base_seed,
                           profile=args.profile)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_gen_verify(args: argparse.Namespace) -> int:
    from .workloads import verify_corpus

    problems = verify_corpus(args.dir,
                             fingerprints=not args.no_fingerprints)
    if problems:
        for problem in problems:
            print(problem)
        print(f"{len(problems)} corpus problem(s): regenerate with "
              "'python -m repro gen corpus' and commit the result")
        return 1
    print(f"corpus ok: {args.dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PLATINUM (SOSP 1989) reproduction experiments",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_version()}")
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="write a repro-events/1 run ledger (span/event JSONL) of "
        "this invocation to PATH; the REPRO_LEDGER environment "
        "variable does the same (inspect with `repro obs ledger`)")
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="the section 4.1 cost-model table")
    t1.add_argument("--machine-constants", dest="paper_constants",
                    action="store_false",
                    help="derive constants from the simulated machine "
                    "instead of the paper's")
    t1.set_defaults(fn=_cmd_table1)

    tr = sub.add_parser("transitions",
                        help="the Figure 4 protocol diagram")
    tr.set_defaults(fn=_cmd_transitions)

    mi = sub.add_parser("micro", help="section 4 microbenchmarks")
    mi.set_defaults(fn=_cmd_micro)

    def workload_args(p, default_n, verify_flag=True):
        """``-n/-p/--machine/--epochs[/--no-verify]``, the options
        ``_point_spec`` lowers; ``default_n=None`` defers to the
        target's own default (explain/doctor)."""
        p.add_argument("-n", type=int, default=default_n,
                       help="problem size" if default_n is not None
                       else "problem size (default depends on the "
                       "workload, 24 for sec42)")
        p.add_argument("-p", type=int, default=8,
                       help="threads to use")
        p.add_argument("--machine", type=int, default=16,
                       help="processors in the simulated machine")
        p.add_argument("--epochs", type=int, default=25,
                       help="training epochs (neural only)")
        if verify_flag:
            p.add_argument("--no-verify", dest="verify",
                           action="store_false",
                           help="skip the end-to-end result check")

    def workload_choice(p, **kwargs):
        p.add_argument("workload", choices=tuple(_CLI_WORKLOADS),
                       **kwargs)

    def policy_options(p, policy_help, tuned_help=None, defrost=None):
        """The option group ``_policy_spec`` lowers.  ``defrost`` names
        the daemon flags the verb takes: ``"period"``, ``"off"`` (plus
        ``--no-defrost``) or ``"force"`` (plus ``--defrost`` too)."""
        p.add_argument("--policy", default=None, choices=policy_names(),
                       help=policy_help)
        p.add_argument("--policy-args", default=None, metavar="JSON",
                       help="policy constructor kwargs as a JSON object")
        if tuned_help:
            p.add_argument("--tuned", default=None, metavar="FILE",
                           help=tuned_help)
        if defrost == "force":
            group = p.add_mutually_exclusive_group()
            group.add_argument("--defrost", dest="defrost", default=None,
                               action="store_true",
                               help="force the defrost daemon on")
            group.add_argument("--no-defrost", dest="defrost",
                               action="store_false",
                               help="force the defrost daemon off")
        elif defrost == "off":
            p.add_argument("--no-defrost", dest="defrost",
                           action="store_false",
                           help="run with the defrost daemon disabled")
        if defrost:
            p.add_argument("--defrost-period-ms", type=float,
                           default=None,
                           help="defrost daemon period in simulated ms")

    retention_epilog = (
        "trace retention modes:\n"
        "  --trace         keep the first 1,000,000 events in memory\n"
        "                  (keep-first; later events are counted as\n"
        "                  dropped) and print a timeline\n"
        "  --trace-out     stream every event to PATH as it happens --\n"
        "                  no in-memory cap; .jsonl writes JSON Lines,\n"
        "                  any other extension writes Chrome trace-event\n"
        "                  JSON loadable in Perfetto / chrome://tracing\n"
        "  both            stream to PATH and keep events for the\n"
        "                  printed timeline\n"
        "ring mode (newest events win) is used by `repro dashboard`;\n"
        "see docs/OBSERVABILITY.md for the full catalog."
    )

    for name, default_n in _CLI_WORKLOADS.items():
        rp = sub.add_parser(
            name,
            help=f"run {name} and print the post-mortem report",
            epilog=retention_epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        workload_args(rp, default_n)
        policy_options(rp, "replication policy (default: the paper's "
                       "freeze/defrost policy)")
        rp.add_argument("--trace", action="store_true",
                        help="record and print the protocol trace")
        rp.add_argument("--trace-out", default=None, metavar="PATH",
                        help="stream the protocol trace to PATH "
                        "(.jsonl -> JSON Lines, else Chrome "
                        "trace-event JSON)")
        rp.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="enable the metrics registry + sim-time "
                        "sampler and write metric/sample records to "
                        "PATH as JSON Lines")
        rp.add_argument("--sample-ms", type=float, default=1.0,
                        help="sim-time sampling period in simulated "
                        "milliseconds (with --metrics-out)")
        rp.add_argument("--rows", type=int, default=15,
                        help="report rows to print")
        rp.set_defaults(fn=_cmd_run, workload=name)

    rc = sub.add_parser(
        "record",
        help="run a workload once and write a repro-trace bundle",
    )
    workload_choice(rc, help="workload to record")
    workload_args(rc, 64)
    rc.add_argument("-o", "--out", default=None, metavar="PATH",
                    help="bundle path (default: WORKLOAD.trace)")
    policy_options(rc, "coherence policy to record under (default: "
                   "the paper's freeze/defrost policy)", defrost="off")
    rc.set_defaults(fn=_cmd_record)

    rx = sub.add_parser(
        "replay",
        help="re-simulate a recorded trace under policy/machine "
        "variants",
    )
    rx.add_argument("trace", help="repro-trace bundle to replay")
    policy_options(
        rx, "override the recorded coherence policy",
        tuned_help="replay under the policy and parameters of a "
        "repro-tune/1 document (from `repro tune`); overrides "
        "--policy/--policy-args",
        defrost="force")
    rx.add_argument("--param", action="append", default=[],
                    metavar="KEY=VALUE",
                    help="override a machine timing parameter "
                    "(repeatable; e.g. --param t_remote_read=10000)")
    rx.add_argument("--check", action="store_true",
                    help="assert the replay reproduces the recording "
                    "run exactly (sim time, events, counters)")
    rx.add_argument("--fast", action="store_true",
                    help="array-at-a-time costing: batches fault-free "
                    "stretches into windows (approximate timing; "
                    "incompatible with --check)")
    rx.add_argument("--rows", type=int, default=15,
                    help="report rows to print")
    rx.set_defaults(fn=_cmd_replay)

    tu = sub.add_parser(
        "tune",
        help="closed-loop policy tuning: replay candidate parameter "
        "sets against a recorded trace and emit the winner as a "
        "repro-tune/1 document",
    )
    tu.add_argument("trace", help="repro-trace bundle to tune against")
    tu.add_argument("--policy", default="adaptive",
                    choices=("adaptive", "competitive", "tuned"),
                    help="zoo member to tune (default: adaptive)")
    tu.add_argument("--max-pages", type=int, default=64,
                    help="pages the counterfactual scorer prices "
                    "(--policy tuned)")
    tu.add_argument("-o", "--out", default="-", metavar="PATH",
                    help="write the tuned-parameter document to PATH "
                    "(default: stdout)")
    tu.set_defaults(fn=_cmd_tune)

    me = sub.add_parser(
        "metrics",
        help="run a workload with the telemetry registry enabled and "
        "print the metrics table + sampled timeline",
    )
    workload_choice(me, nargs="?",
                    help="workload to run (omit with --from)")
    workload_args(me, 48)
    me.add_argument("--sample-ms", type=float, default=1.0,
                    help="sim-time sampling period in simulated "
                    "milliseconds")
    me.add_argument("--out", default=None, metavar="PATH",
                    help="also write metric/sample records to PATH as "
                    "JSON Lines")
    me.add_argument("--from", dest="from_file", default=None,
                    metavar="FILE",
                    help="summarize a previously written metrics JSONL "
                    "file instead of running a workload")
    me.add_argument("--format", choices=("text", "prom"),
                    default="text",
                    help="output format: the human table (text) or "
                    "Prometheus text exposition 0.0.4 (prom; stdout "
                    "is then the exposition document)")
    me.set_defaults(fn=_cmd_metrics, verify=False)

    ex = sub.add_parser(
        "explain",
        help="the causal coherence profiler: cost attribution, "
        "critical path, and per-page policy diagnostics",
        epilog=(
            "targets:\n"
            "  gauss|mergesort|neural|jacobi|matmul\n"
            "                  run the workload live with the tracer\n"
            "                  and access probe enabled\n"
            "  sec42           the section 4.2 anecdote: Gauss with the\n"
            "                  column lock sharing a page with the\n"
            "                  column-size word (false sharing)\n"
            "  PATH.jsonl      a saved profile bundle (explain --save)\n"
            "                  or a bare --trace-out export (degraded:\n"
            "                  protocol costs only)\n"
            "see docs/OBSERVABILITY.md for the category definitions."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ex.add_argument(
        "target",
        help="workload name, 'sec42', or a saved .jsonl trace/bundle",
    )
    workload_args(ex, None, verify_flag=False)
    ex.add_argument("--page", type=int, default=None, metavar="N",
                    help="include cpage N's diagnosis and lifecycle "
                    "timeline even if it is not in the top K")
    ex.add_argument("--top", type=int, default=5, metavar="K",
                    help="pages to rank (default 5)")
    ex.add_argument("--critical-path", action="store_true",
                    help="also compute the longest causally-dependent "
                    "protocol chain")
    ex.add_argument("--format", choices=("text", "json"),
                    default="text",
                    help="report format (json is canonical and "
                    "byte-stable across same-seed runs)")
    ex.add_argument("--save", default=None, metavar="PATH",
                    help="also write the profile bundle (events + "
                    "counters) to PATH for later `repro explain PATH`")
    ex.set_defaults(fn=_cmd_explain, verify=False)

    dr = sub.add_parser(
        "doctor",
        help="the streaming anomaly doctor: run the detector catalog "
        "(false sharing, shootdown storms, frozen thrash, defrost "
        "starvation, pool wall anomalies) and emit a repro-findings/1 "
        "report",
        epilog=(
            "targets (same resolution as `repro explain`):\n"
            "  gauss|mergesort|neural|jacobi|matmul\n"
            "                  run the workload live under the tracer\n"
            "  sec42           the section 4.2 false-sharing anecdote\n"
            "  PATH.jsonl      a saved profile bundle / trace export,\n"
            "                  or a repro-events/1 run ledger (pool\n"
            "                  detector only)\n"
            "see the detector catalog in docs/OBSERVABILITY.md."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    dr.add_argument(
        "target",
        help="workload name, 'sec42', a workload spec, a saved "
        ".jsonl trace/bundle, or a run ledger",
    )
    workload_args(dr, None, verify_flag=False)
    dr.add_argument("--detector", action="append", default=None,
                    metavar="NAME",
                    help="run only this detector (repeatable; "
                    "default: the whole catalog)")
    dr.add_argument("--format", choices=("text", "json"),
                    default="text",
                    help="report format (json is the canonical "
                    "repro-findings/1 document; deterministic outside "
                    "its wall key)")
    dr.add_argument("-o", "--out", default=None, metavar="PATH",
                    help="also write the findings document to PATH")
    dr.set_defaults(fn=_cmd_doctor, verify=False)

    db = sub.add_parser(
        "dashboard",
        help="run a workload traced and print the full visualization "
        "dashboard",
    )
    workload_choice(db)
    workload_args(db, 48)
    db.set_defaults(fn=_cmd_dashboard, verify=False)

    sp = sub.add_parser("speedup", help="measure a speedup curve")
    workload_choice(sp)
    workload_args(sp, 200)
    sp.add_argument("--counts", default="1,2,4,8,16",
                    help="comma-separated processor counts")
    sp.set_defaults(fn=_cmd_speedup, verify=False)

    cp = sub.add_parser("compare",
                        help="the section 5.1 three-system comparison")
    cp.add_argument("-n", type=int, default=400, help="matrix size")
    cp.add_argument("--machine", type=int, default=16)
    cp.set_defaults(fn=_cmd_compare)

    be = sub.add_parser(
        "bench",
        help="run the benchmark sweep and write BENCH_<target>.json "
        "documents",
    )
    scale_group = be.add_mutually_exclusive_group()
    scale_group.add_argument(
        "--quick", action="store_true",
        help="CI-sized problem sizes (the default)")
    scale_group.add_argument(
        "--full", action="store_true",
        help="the paper's problem sizes (slow)")
    scale_group.add_argument(
        "--smoke", action="store_true",
        help="tiny problem sizes (test-suite use)")
    scale_group.add_argument(
        "--scale", default=None, metavar="SCALE",
        help="scale by name: smoke, quick or full")
    be.add_argument("--jobs", type=int, default=1,
                    help="worker processes (1 = serial, the default)")
    be.add_argument("--filter", default=None, metavar="PAT",
                    help="only targets whose name contains or "
                    "glob-matches PAT")
    be.add_argument("--out", default="benchmarks/results",
                    help="results directory "
                    "(default: benchmarks/results)")
    be.add_argument("--snapshot", default=None, metavar="PATH",
                    help="also write the combined snapshot document "
                    "(all targets, wall-clock fields stripped for "
                    "byte-stable comparison) to PATH")
    be.add_argument("--update", action="store_true",
                    help="regenerate the committed smoke snapshot in "
                    "one verb: forces --smoke and writes "
                    "BENCH_smoke.json (or the --snapshot path)")
    be.add_argument("--base-seed", type=int, default=0,
                    help="base seed folded into every per-point seed")
    be.add_argument("--timeout", type=float, default=None,
                    help="per-point wall-clock timeout in seconds "
                    "(default depends on scale)")
    be.add_argument("-q", "--quiet", action="store_true",
                    help="suppress the per-point progress lines")
    be.set_defaults(fn=_cmd_bench)

    ob = sub.add_parser(
        "obs", help="fleet observability: inspect run ledgers")
    obsub = ob.add_subparsers(dest="obs_mode", required=True)

    obl = obsub.add_parser(
        "ledger",
        help="validate and summarize a repro-events/1 run ledger",
    )
    obl.add_argument("path", help="ledger .jsonl file (from --ledger)")
    obl.add_argument("--strip-wall", action="store_true",
                     help="print the rerun-comparable records (wall "
                     "fields dropped, sid order) as JSON Lines "
                     "instead of the span tree")
    obl.add_argument("--follow", action="store_true",
                     help="tail mode: render records (sweep progress "
                     "ticks, pool heartbeats, spans) as they are "
                     "written, until the close record")
    obl.add_argument("--poll-s", type=float, default=0.2,
                     metavar="S",
                     help="--follow poll interval in seconds")
    obl.add_argument("--timeout", type=float, default=300.0,
                     metavar="S",
                     help="--follow gives up after S seconds without "
                     "a close record")
    obl.set_defaults(fn=_cmd_obs_ledger)

    ck = sub.add_parser(
        "check",
        help="the coherence conformance harness (invariants, trace "
        "conformance, schedule fuzzing)",
    )
    cksub = ck.add_subparsers(dest="check_mode", required=True)

    cki = cksub.add_parser(
        "invariants",
        help="run the workload battery with the global invariant "
        "checker hooked after every protocol action",
    )
    cki.add_argument("--machine", type=int, default=8,
                     help="processors in the simulated machine")
    cki.set_defaults(fn=_cmd_check_invariants)

    ckc = cksub.add_parser(
        "conformance",
        help="replay traced workload runs against the Figure 4 "
        "transition table",
    )
    ckc.add_argument("--machine", type=int, default=8,
                     help="processors in the simulated machine")
    ckc.set_defaults(fn=_cmd_check_conformance)

    ckf = cksub.add_parser(
        "fuzz",
        help="run seeded random schedules under perturbed event "
        "orderings with invariants enabled",
    )
    ckf.add_argument("--seeds", type=int, default=100,
                     help="number of seeded schedules to run")
    ckf.add_argument("--ops", type=int, default=40,
                     help="operations per schedule")
    ckf.add_argument("--procs", type=int, default=3,
                     help="processors in the fuzz kernel")
    ckf.add_argument("--pages", type=int, default=3,
                     help="shared coherent pages in the schedule")
    ckf.add_argument("--base-seed", type=int, default=0,
                     help="first seed (seeds are base..base+N-1)")
    ckf.add_argument("--no-shrink", dest="shrink", action="store_false",
                     help="report failing schedules without delta-"
                     "debugging them to a minimal reproduction")
    ckf.add_argument("-v", "--verbose", action="store_true",
                     help="print one line per seed")
    ckf.add_argument("--corpus", metavar="DIR",
                     help="fuzz schedules lowered from the generated-"
                     "workload specs in DIR instead of random ones")
    ckf.add_argument("--policies", default="freeze,always",
                     help="comma-separated policies for --corpus runs")
    ckf.set_defaults(fn=_cmd_check_fuzz)

    ge = sub.add_parser(
        "gen",
        help="declarative workload specs: emit, validate, run and "
        "drift-check a constrained-random corpus",
    )
    gesub = ge.add_subparsers(dest="gen_mode", required=True)

    gee = gesub.add_parser(
        "emit", help="generate spec files from consecutive seeds")
    gee.add_argument("--seed", type=int, required=True,
                     help="first generation seed")
    gee.add_argument("-n", "--count", type=int, default=1,
                     help="number of specs (seeds seed..seed+N-1)")
    gee.add_argument("--profile", choices=("smoke", "quick"),
                     default="smoke", help="generation size profile")
    gee.add_argument("-o", "--out", default=".",
                     help="output directory, or - for stdout")
    gee.set_defaults(fn=_cmd_gen, gen_fn=_cmd_gen_emit)

    gev = gesub.add_parser(
        "validate", help="check spec files against the schema")
    gev.add_argument("files", nargs="+", help="spec .json files")
    gev.set_defaults(fn=_cmd_gen, gen_fn=_cmd_gen_validate)

    ger = gesub.add_parser(
        "run", help="simulate spec files (or fresh seeds)")
    ger.add_argument("files", nargs="*", help="spec .json files")
    ger.add_argument("--seed", type=int,
                     help="generate and run from this seed instead")
    ger.add_argument("-n", "--count", type=int, default=1,
                     help="specs to generate with --seed")
    ger.add_argument("--profile", choices=("smoke", "quick"),
                     default="smoke", help="profile for --seed")
    ger.add_argument("--machine", type=int,
                     help="processors (default: the spec's machine)")
    policy_options(
        ger, "replication policy override",
        tuned_help="run under the policy and parameters of a "
        "repro-tune/1 document; overrides --policy",
        defrost="period")
    ger.add_argument("--check-invariants", action="store_true",
                     help="hook the invariant checker after every "
                     "protocol action")
    ger.add_argument("--fingerprint", action="store_true",
                     help="also record each run and print its "
                     "trace-level fingerprint")
    ger.set_defaults(fn=_cmd_gen, gen_fn=_cmd_gen_run)

    gec = gesub.add_parser(
        "corpus",
        help="(re)write a golden corpus: spec files + FINGERPRINTS.json")
    gec.add_argument("-o", "--out", default="tests/corpus",
                     help="corpus directory")
    gec.add_argument("-n", "--count", type=int, default=20,
                     help="number of specs")
    gec.add_argument("--base-seed", type=int, default=100,
                     help="first generation seed")
    gec.add_argument("--profile", choices=("smoke", "quick"),
                     default="smoke", help="generation size profile")
    gec.set_defaults(fn=_cmd_gen, gen_fn=_cmd_gen_corpus)

    gey = gesub.add_parser(
        "verify",
        help="drift-check a corpus directory (byte-stable specs, "
        "reproducible fingerprints)")
    gey.add_argument("dir", nargs="?", default="tests/corpus",
                     help="corpus directory")
    gey.add_argument("--no-fingerprints", action="store_true",
                     help="skip re-recording runs; check spec bytes only")
    gey.set_defaults(fn=_cmd_gen, gen_fn=_cmd_gen_verify)

    return parser


def _run_verb(args: argparse.Namespace) -> int:
    """Run the verb; the one place a point that cannot be built or a
    document that cannot be read becomes ``repro <verb>: <reason>`` and
    exit 2."""
    try:
        return args.fn(args)
    except _BadPoint as exc:
        reason = exc
    except _doc.DocError as exc:
        reason = exc
    verb = " ".join(filter(None, (
        args.command, getattr(args, "obs_mode", None))))
    print(f"repro {verb}: {reason}")
    return 2


def _dispatch(args: argparse.Namespace,
              argv: Optional[Sequence[str]]) -> int:
    """Run the verb, under a run-ledger root span when asked for
    (``--ledger PATH`` / ``REPRO_LEDGER``).  The ledger finalizes in a
    ``finally`` so a crashing verb still leaves a valid, truncated
    ledger."""
    import os

    ledger_dest = args.ledger or os.environ.get("REPRO_LEDGER")
    if not ledger_dest:
        return _run_verb(args)
    from .obs import RunLedger, set_ledger

    ledger = RunLedger(ledger_dest, verb=args.command, argv=[
        str(a) for a in (argv if argv is not None else sys.argv[1:])])
    set_ledger(ledger)
    root = ledger.span(f"cli.{args.command}")
    status = "error"
    try:
        code = _run_verb(args)
        status = "ok" if code == 0 else "error"
        root.attrs["exit_code"] = code
        return code
    finally:
        root.end(status=status)
        ledger.close(status=status)
        set_ledger(None)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, argv)
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
