#!/usr/bin/env python3
"""One benchmark command for the object-inlining reproduction.

    python3 perf/bench.py [--workload NAME] [--seed N] [--seconds S]
                          [--trace 0|1] [--trace-dir DIR]
                          [--scale full|smoke] [--out FILE]
    python3 perf/bench.py --record

Runs from the repository root against ``src/`` as checked out; there is
nothing to build.  Each workload runs in a fresh child process, which
sets up, measures one window of ``--seconds`` and checks every output.
Two more children only set up, and ``setup_s`` is the median of the
three.  With ``--trace 1`` the child measures an untraced window and
then a traced one, and reports the per-layer metrics instead.

Every metric is printed as ``workload metric value unit``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics).
``--out FILE`` appends the run to a results file for ``compare.py``.
``--record`` rewrites ``perf/expected/`` from the current program.
See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import batch
import corpus
import layers
import stats
import svcload

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
#: Scratch space of a run (daemon sockets, trace directories); removed
#: by the code that creates each entry.
RUN_DIR = ROOT / ".perf_run"
BATCH = ("fig17", "compile")
SERVICE = ("service-warm", "service-mixed")
WORKLOADS = BATCH + SERVICE
SETUP_REPEATS = 3
#: Wall-time budget of the whole command; children are stopped past it.
DEADLINE_S = 170.0


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units() -> dict[str, str]:
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ----------------------------------------------------------------------
# Child: one workload, in a fresh process.


def child_main(spec: dict) -> dict:
    name = spec["workload"]
    smoke = spec["scale"] == "smoke"
    if name in BATCH:
        workload = batch.make(name, spec["seed"], smoke)
        return _run_batch(workload, spec)
    workload = svcload.ServiceWorkload(name, spec["seed"], smoke)
    return _run_service(workload, spec)


def _setup_done(spec: dict) -> float:
    return time.monotonic() - spec["spawned_at"]


def _run_batch(workload, spec: dict) -> dict:
    setup_s = _setup_done(spec)
    if spec["setup_only"]:
        return {"setup_s": setup_s}
    untraced = workload.measure(spec["seconds"])
    e2e, extra = workload.results(untraced)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "setup_s": setup_s,
        "e2e": e2e,
        "extra": extra,
        "attempted": len(untraced.ops),
        "failed": sum(op.failed for op in untraced.ops),
    }
    if spec["trace"]:
        from repro.lang import tokenize
        from repro.obs import MemorySink, Tracer

        sink = MemorySink()
        with batch.FrameSampler() as sampler:
            traced = workload.measure(spec["seconds"], Tracer(sink), sink, sampler)
        tokens = sum(len(tokenize(source)) for source in workload.sources.values())
        result["per_layer"] = layers.batch(
            untraced, traced, batch.quality(untraced.facts()), tokens, sampler.shares()
        )
        result["attempted"] += len(traced.ops)
        result["failed"] += sum(op.failed for op in traced.ops)
        _keep_trace(spec, sink.events)
    return result


def _run_service(workload, spec: dict) -> dict:
    with svcload.Daemon(str(ROOT), str(RUN_DIR)) as daemon:
        bad_primes = workload.setup(daemon)
        setup_s = _setup_done(spec)
        if spec["setup_only"]:
            return {"setup_s": setup_s}
        load, delta = workload.run(daemon, spec["seconds"])
        bad_cold = workload.check_cold(load)
        peak_rss_mb = daemon.peak_rss_mb()
    e2e, extra = workload.results(load)
    e2e["peak_rss_mb"] = peak_rss_mb
    result = {
        "setup_s": setup_s,
        "e2e": e2e,
        "extra": extra,
        "attempted": len(load.samples) + len(workload.hot),
        "failed": load.failed + bad_primes + bad_cold,
    }
    if spec["trace"]:
        events, traced = _traced_service(workload, spec)
        result["per_layer"] = layers.service(
            extra, delta, e2e["throughput_ops_s"],
            len(traced.samples) / traced.seconds, events,
        )
        result["attempted"] += len(traced.samples)
        result["failed"] += traced.failed
        _keep_trace(spec, events)
    return result


def _traced_service(workload, spec: dict):
    """A traced window on a fresh daemon started with ``--trace-dir``;
    returns the client spans merged with the daemon's trace."""
    from repro.obs import MemorySink, Tracer, TraceShard, read_events

    RUN_DIR.mkdir(exist_ok=True)
    trace_root = Path(tempfile.mkdtemp(prefix="trace-", dir=RUN_DIR))
    try:
        daemon = svcload.Daemon(str(ROOT), str(RUN_DIR), os.path.relpath(trace_root, ROOT))
        with daemon:
            bad_primes = workload.setup(daemon)
            traced, _delta = workload.run(
                daemon, spec["seconds"], lambda: Tracer(MemorySink())
            )
        sink = MemorySink()
        merged = Tracer(sink)
        for tracer in traced.tracers:
            merged.merge(tracer)
        for path in sorted(trace_root.glob("run-*/service.jsonl")):
            with open(path, encoding="utf-8") as handle:
                merged.merge(TraceShard(events=read_events(handle)[0]))
        traced.failed += bad_primes
        return sink.events, traced
    finally:
        shutil.rmtree(trace_root, ignore_errors=True)


def _keep_trace(spec: dict, events: list[dict]) -> None:
    if not spec["trace_dir"]:
        return
    from repro.obs import JsonlSink

    os.makedirs(spec["trace_dir"], exist_ok=True)
    sink = JsonlSink(os.path.join(spec["trace_dir"], f"{spec['workload']}.jsonl"))
    try:
        for event in events:
            sink.emit(event)
    finally:
        sink.close()


# ----------------------------------------------------------------------
# Parent: spawn children, aggregate, print.


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child to completion and return its result.

    The child leads its own process group, so a child that overruns the
    deadline is stopped together with any daemon it started.
    """
    spec = {**spec, "spawned_at": time.monotonic()}
    proc = subprocess.Popen(
        [sys.executable, str(PERF / "bench.py"), "--child", json.dumps(spec)],
        cwd=ROOT, env=svcload.child_env(str(ROOT)), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        _stop_group(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{spec['workload']}: child exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _stop_group(proc: subprocess.Popen) -> None:
    """SIGTERM (the child then stops its daemon), then SIGKILL the group."""
    try:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait(30)
    except subprocess.TimeoutExpired:
        pass
    except ProcessLookupError:
        return
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_workload(name: str, args, deadline: float) -> dict:
    spec = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trace_dir": args.trace_dir and os.path.abspath(args.trace_dir),
        "scale": args.scale,
        "setup_only": False,
    }
    result = spawn(spec, deadline)
    if not args.trace:
        setups = [result["setup_s"]] + [
            spawn({**spec, "setup_only": True}, deadline)["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        result["setup_samples"] = setups
        result["e2e"]["setup_s"] = stats.median(setups)
    result["extra"]["failed_ratio"] = (result["failed"] / result["attempted"], "ratio")
    return result


def report(results: dict[str, dict], trace: bool) -> dict:
    """Print every metric line; return the final JSON object."""
    declared = units()
    key = "per_layer" if trace else "e2e"
    metrics = {}
    for name, result in results.items():
        reported = result[key]
        lines = [(m, v, declared[m]) for m, v in reported.items()]
        lines += [(m, v, unit) for m, (v, unit) in result["extra"].items()]
        for metric, value, unit in lines:
            print(f"{name} {metric} {value:.6g} {unit}")
        for metric, value in reported.items():
            label = metric if len(results) == 1 else f"{name}/{metric}"
            metrics[label] = {"value": value, "unit": declared[metric]}
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }


def check_metric_names(results: dict[str, dict], trace: bool) -> None:
    spec = benchmark_spec()
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, result in results.items():
        got = set(result["per_layer" if trace else "e2e"])
        if got != declared:
            raise RuntimeError(
                f"{name}: metrics {sorted(got ^ declared)} differ from BENCHMARK.json"
            )


def append_results(path: str, args, results: dict[str, dict]) -> None:
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    runs.append({
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "workloads": results,
    })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1)
        handle.write("\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", help="keep each workload's trace as DIR/<workload>.jsonl")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="append this run to a results file")
    parser.add_argument("--record", action="store_true",
                        help="rewrite perf/expected/ from the current program")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _exit_on_sigterm(*_args) -> None:
    raise SystemExit(143)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.path.insert(0, str(SRC))
    if args.child:
        print(json.dumps(child_main(json.loads(args.child))))
        return 0
    started = time.monotonic()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing from {SRC}", file=sys.stderr)
        return 2
    if args.record:
        batch.record()
        return 0
    drifted = corpus.check_frozen()
    if drifted:
        print(
            f"error: generated inputs differ from perf/expected/corpus.sha256: {drifted}",
            file=sys.stderr,
        )
        return 3
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = started + DEADLINE_S * len(names)
    results = {name: run_workload(name, args, deadline) for name in names}
    check_metric_names(results, bool(args.trace))
    summary = report(results, bool(args.trace))
    if args.out:
        append_results(args.out, args, results)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
