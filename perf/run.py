#!/usr/bin/env python3
"""The host-performance benchmark of the simulator: one command.

    python3 perf/run.py                       # five workloads, untraced
    python3 perf/run.py --traced              # the per-layer pass
    python3 perf/run.py --workload live-sharing --seed 7 --out B.json
    python3 perf/run.py --compare A.json B.json

Every workload runs alone in fresh subprocesses, one at a time (the
simulator is single-threaded; the sandbox has two shared cores).  The
untraced pass splits ``--seconds`` over ``PROCESSES`` subprocesses so
that set-up time and peak memory are medians of several set-ups; the
traced pass is one subprocess.  Every metric is printed by name with
its unit, the last line of output is one JSON object, and the exit code
is non-zero when an iteration failed one of its checks.

``BENCHMARK.json`` at the repository root is the metric catalogue: this
file reads names, units and bounds from it and refuses to print a result
that does not carry exactly the metrics it lists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "repro-perfbench/1"
#: subprocesses the untraced pass of one workload is split over
PROCESSES = 3
#: the workers of one workload are killed when, together, they would
#: run longer than this
WORKLOAD_TIMEOUT_S = 165.0


def load_catalogue() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the worker: one subprocess, one workload --------------------------------------


def worker_main(args) -> int:
    import numpy

    from perf import measure

    if args.trace:
        result = measure.measure_traced(
            args.workload, args.seed, args.size, args.trace_out)
    else:
        result = measure.measure(
            args.workload, args.seed, args.seconds, args.size,
            args.inject_failure, args.started_at)
    result["python"] = sys.version.split()[0]
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


def spawn_worker(args, workload: str, seconds: float,
                 timeout_s: float = WORKLOAD_TIMEOUT_S) -> dict:
    """Run one worker to completion and return its result."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(int(args.trace)),
        "--started-at", repr(time.time()),
    ]
    if args.size == "quick":
        cmd.append("--quick")
    if args.inject_failure:
        cmd.append("--inject-failure")
    if args.trace_out:
        cmd += ["--trace-out", trace_out_for(args, workload)]
    # a fixed hash seed: set iteration order, and so the work done, is
    # the same in every worker
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout_s)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(
            f"worker for {workload} exited {done.returncode}:\n"
            + done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def trace_out_for(args, workload: str) -> str:
    """One span file per workload when several are traced."""
    path = Path(args.trace_out)
    if args.workload is None:
        path = path.with_name(f"{path.stem}-{workload}{path.suffix}")
    return str(path)


# -- reduction ----------------------------------------------------------------------------


def _quartiles(samples: list[float]) -> list[float] | None:
    if len(samples) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return [q1, q3]


def _metric(value: float, samples: list[float], unit: str,
            **extra) -> dict:
    return {"value": value, "unit": unit,
            "quartiles": _quartiles(samples), "samples": samples, **extra}


def aggregate(results: list[dict], units: dict) -> dict:
    """Reduce the untraced workers of one workload to its end-to-end
    metrics.

    The speed metric is the op count over the CPU seconds of the
    *fastest* timed iteration of any worker.  Interference on the shared
    sandbox only ever adds time, and it comes in spells longer than an
    iteration: run-to-run, the median moved by 17 % and the minimum by
    2 % (README, "Noise").  The median and quartiles are kept beside it.
    """
    first = results[0]
    cpu = [c for r in results for c in r["cpu_s"]]
    wall = [w for r in results for w in r["wall_s"]]
    n_ops = first["n_ops"]
    errors = [e for r in results for e in r["errors"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if any(r["sim_fingerprint"] != first["sim_fingerprint"]
           or r["n_ops"] != n_ops for r in results):
        failed += 1
        errors.append("worker processes disagree on the simulated "
                      "statistics of the same seed")
    setup = [r["setup_s"] for r in results]
    rss = [r["peak_rss_mb"] for r in results]
    fastest = [n_ops / min(r["cpu_s"]) for r in results]
    end_to_end = {
        # its samples, like those of the two metrics below, are one per
        # process: their spread is this run's own noise estimate
        "sim_ops_per_cpu_s": _metric(
            max(fastest), fastest, units["sim_ops_per_cpu_s"],
            iterations=len(cpu), median=n_ops / statistics.median(cpu),
            iteration_quartiles=_quartiles([n_ops / c for c in cpu]),
            cpu_median_s=statistics.median(cpu),
            wall_median_s=statistics.median(wall)),
        "setup_s": _metric(statistics.median(setup), setup,
                           units["setup_s"]),
        "peak_rss_mb": _metric(statistics.median(rss), rss,
                               units["peak_rss_mb"]),
        "sim_time_ms": _metric(first["sim_time_ms"],
                               [first["sim_time_ms"]],
                               units["sim_time_ms"]),
    }
    return {
        "end_to_end": end_to_end,
        "n_ops": n_ops,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": errors[:5],
        "sim_fingerprint": first["sim_fingerprint"],
        "wall_over_cpu": sum(wall) / sum(cpu),
        "setup_cpu_s": statistics.median(
            r["setup_cpu_s"] for r in results),
        "processes": len(results),
        "loadavg": [results[0]["loadavg"][0], results[-1]["loadavg"][1]],
        "python": first["python"],
        "numpy": first["numpy"],
    }


def reduce_traced(result: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"traced pass produced no {missing}")
    return {
        "per_layer": {
            name: {"value": result["metrics"][name], "unit": unit,
                   "noise": result["noise"].get(name)}
            for name, unit in units.items()
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
        "errors": result["errors"],
        "spans": result["spans"],
        "python": result["python"],
        "numpy": result["numpy"],
    }


# -- output ----------------------------------------------------------------------------------


def print_workload(name: str, entry: dict) -> None:
    print(f"== {name}: {entry['attempted']} iterations, "
          f"{entry['failed']} failed ==")
    for metric, m in entry.get("end_to_end", {}).items():
        line = f"  {metric:<34} {m['value']:>16.6g} {m['unit']}"
        if m["quartiles"]:
            line += ("   q1 {:.6g}  q3 {:.6g} of the processes"
                     .format(*m["quartiles"]))
        if "iterations" in m:
            line += ("\n      fastest of {} iterations; their median "
                     "{:.6g}, q1 {:.6g}, q3 {:.6g}; CPU median {:.4f} s, "
                     "wall median {:.4f} s".format(
                         m["iterations"], m["median"],
                         *m["iteration_quartiles"], m["cpu_median_s"],
                         m["wall_median_s"]))
        print(line)
    for metric, m in entry.get("per_layer", {}).items():
        line = f"  {metric:<40} {m['value']:>16.6g} {m['unit']}"
        if m["noise"]:
            line += f"   (spread of repeats {m['noise']:.1%})"
        print(line)
    print(f"  {'fail_ratio':<34} {entry['fail_ratio']:>16.6g} "
          f"failed/attempted")
    if "sim_fingerprint" in entry:
        print(f"  sim_fingerprint {entry['sim_fingerprint']}")
        print(f"  wall/CPU {entry['wall_over_cpu']:.3f}")
    for error in entry["errors"]:
        print(f"  FAILED: {error}")


def result_line(entries: dict, section: str) -> dict:
    """The last line of output.  With one workload, ``metrics`` maps
    metric name to value and unit; with several, workload name to that."""
    per_workload = {
        name: {metric: {"value": m["value"], "unit": m["unit"]}
               for metric, m in entry[section].items()}
        for name, entry in entries.items()
    }
    failed = sum(e["failed"] for e in entries.values())
    return {
        "correct": failed == 0,
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": failed,
        "metrics": (next(iter(per_workload.values()))
                    if len(entries) == 1 else per_workload),
    }


# -- the command ------------------------------------------------------------------------------


def build_parser(catalogue: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="host-performance benchmark of the PLATINUM simulator")
    parser.add_argument("--workload",
                        choices=[w["name"] for w in catalogue["workloads"]],
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1989,
                        help="the WorkloadSpec.seed of every generated "
                             "spec (default 1989)")
    parser.add_argument("--seconds", type=float,
                        default=float(catalogue["run_seconds"]),
                        help="timed seconds per workload, untraced pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced pass (per-layer metrics)")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the spans as Chrome trace JSON")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full result document")
    parser.add_argument("--quick", dest="size", action="store_const",
                        const="quick", default="full",
                        help="tiny specs (what perf/test_perf.py runs)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out documents and exit")
    for hidden in ("--worker", "--inject-failure"):
        parser.add_argument(hidden, action="store_true",
                            help=argparse.SUPPRESS)
    parser.add_argument("--started-at", type=float,
                        help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    catalogue = load_catalogue()
    args = build_parser(catalogue).parse_args(argv)
    if args.compare:
        from perf.compare import compare_files

        return compare_files(*args.compare, catalogue)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no simulator at {ROOT / 'src' / 'repro'}: "
              "the benchmark runs from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.worker:
        return worker_main(args)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in catalogue[section]}
    names = [args.workload] if args.workload else [
        w["name"] for w in catalogue["workloads"]]
    load_start = os.getloadavg()
    entries = {}
    for name in names:
        try:
            if args.trace:
                entry = reduce_traced(
                    spawn_worker(args, name, args.seconds), units)
            else:
                entry = aggregate(
                    [spawn_worker(args, name, args.seconds / PROCESSES,
                                  WORKLOAD_TIMEOUT_S / PROCESSES)
                     for _ in range(PROCESSES)], units)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perf/run.py: {exc}", file=sys.stderr)
            return 2
        entries[name] = entry
        print_workload(name, entry)
    doc = {
        "schema": SCHEMA,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "host": {
            "nproc": os.cpu_count(),
            "python": entries[names[0]]["python"],
            "numpy": entries[names[0]]["numpy"],
            "loadavg_start": list(load_start),
            "loadavg_end": list(os.getloadavg()),
        },
        "workloads": entries,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    line = result_line(entries, section)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
