"""Command-line driver.

Usage::

    repro serve [--socket PATH] [--workers N] [--trace-dir DIR] | repro serve --stop
    repro loadgen [--requests N] [--concurrency N] [--op OP] [--json FILE]
    repro metrics [SOCKET] [--prom | --watch [--interval S]]
    repro run PROGRAM.icc [--inline | --manual | --noinline] [--trace FILE] [--locality]
    repro analyze PROGRAM.icc [--json] [--trace FILE]
    repro ir PROGRAM.icc [--optimized]
    repro codegen PROGRAM.icc [--optimized]
    repro bench [--figure {14,15,16,17,all} | --output FILE] [--jobs N] [--trace FILE] [--locality]
    repro perf record RESULTS REV [--note TEXT] [--history FILE]
    repro perf list | diff REV1 REV2 | trend METRIC [--history FILE]
    repro export chrome TRACE [TRACE2 ...] [-o FILE]
    repro export flame TRACE [TRACE2 ...] [-o FILE]
    repro trace FILE [FILE ...]
    repro heatmap TRACE [TRACE2]

Every compile command drives a :class:`repro.Session`, so a command that
needs several builds of one program (or analysis + optimization) pays
for parsing and analysis once.  A program that cannot be read, compiled
or run prints one ``error: FILE:LINE:COL: message`` line and exits 1.

``--trace FILE`` streams compiler/VM observability events (phase spans,
counters, the inlining decision trace) as JSONL to FILE; ``repro trace
FILE`` summarizes such a file into per-phase time and counter tables.
``--locality`` additionally attributes every simulated cache access to a
``(kind, class, field, alloc_site)`` label and an address bucket;
``repro heatmap TRACE`` renders the resulting address-space heatmap, and
``repro heatmap BEFORE AFTER`` diffs two traces to show which fields'
misses a layout change eliminated.  See docs/OBSERVABILITY.md for the
event schema.

``repro bench`` prints the paper's figures and writes no file unless
asked to.  Performance history: ``repro perf record RESULTS REV``
appends a ``perf/bench.py --out`` results file, summarized, to the
``PERF_HISTORY.jsonl`` ledger; ``repro perf list/diff/trend`` browse
it.  ``repro export chrome|flame`` converts a span trace for Perfetto
or speedscope/flamegraph.pl.

Compile service: ``repro serve`` runs the asyncio compile daemon on a
local socket (content-addressed artifact cache, process-pool workers,
per-request timeouts, graceful shutdown — see docs/SERVICE.md);
``repro loadgen`` replays the benchmark corpus against it at a chosen
concurrency and reports throughput + p50/p95/p99 latency (client-side
*and* daemon-histogram-derived, cross-checked to agree within one
bucket).  ``repro metrics`` scrapes a live daemon's metrics registry —
a human panel by default, Prometheus text exposition with ``--prom``,
or a refreshing TTY dashboard with ``--watch``.

(also runnable as ``python -m repro.cli ...``)
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import figures as bench_figures
from .bench.harness import run_all, run_performance_suite
from .codegen import generate
from .ir import format_program
from .lang import ReproError
from .obs import (
    NULL_TRACER,
    export_chrome_file,
    export_collapsed_file,
    locality_from_file,
    render_file,
    render_heatmap,
    render_locality_diff,
    render_summary,
    report_from_stats,
    summarize_files,
    tracer_to_file,
)
from .runtime import ReproRuntimeError
from .session import Session

#: Where ``repro perf`` keeps the ledger unless told otherwise.
DEFAULT_HISTORY_PATH = "PERF_HISTORY.jsonl"

#: What a bad program raises: a file that cannot be read, a front-end
#: error, or a VM error.  Each message already carries FILE:LINE:COL.
#: Internal compiler errors are not among them and keep their traceback.
PROGRAM_ERRORS = (OSError, ReproError, ReproRuntimeError)


def _program_command(command):
    """``command`` with a bad program reported as one ``error:`` line
    (exit 1) instead of a traceback."""

    def guarded(args: argparse.Namespace) -> int:
        try:
            return command(args)
        except PROGRAM_ERRORS as error:
            print(f"error: {error}", file=sys.stderr)
            return 1

    return guarded


def _make_tracer(args: argparse.Namespace):
    """The JSONL tracer for ``--trace FILE``, or the free no-op tracer."""
    if getattr(args, "trace", None):
        return tracer_to_file(args.trace)
    return NULL_TRACER


def _make_session(args: argparse.Namespace, tracer=NULL_TRACER) -> Session:
    with open(args.program, "r", encoding="utf-8") as handle:
        source = handle.read()
    return Session(source, path=args.program, tracer=tracer)


def _build_name(args: argparse.Namespace) -> str:
    if args.noinline:
        return "noinline"
    if args.manual:
        return "manual"
    if getattr(args, "no_escape", False):
        return "noescape"
    if args.inline:
        return "inline"
    return "plain"


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write observability events (spans, counters, decisions) as JSONL",
    )


def _add_build_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--inline", action="store_true", help="apply object inlining (Concert w/)"
    )
    group.add_argument(
        "--noinline",
        action="store_true",
        help="devirtualization only (Concert w/o inlining)",
    )
    group.add_argument(
        "--manual",
        action="store_true",
        help="inline only manually annotated locations (G++ proxy)",
    )
    group.add_argument(
        "--no-escape",
        action="store_true",
        help="object inlining with the escape-analysis stage disabled (ablation)",
    )


@_program_command
def cmd_run(args: argparse.Namespace) -> int:
    tracer = _make_tracer(args)
    try:
        session = _make_session(args, tracer)
        build = _build_name(args)
        if args.profile:
            from .runtime import profile_program

            report = profile_program(session.program_for(build))
            for line in report.result.output:
                print(line)
            print(report.render(), file=sys.stderr)
            return 0
        result = session.run(build, attribute_locality=args.locality)
        for line in result.output:
            print(line)
        if args.stats:
            for key, value in result.stats.summary().items():
                print(f"# {key} = {value}", file=sys.stderr)
        if args.locality:
            report = report_from_stats(result.stats.locality)
            print(render_heatmap(report), file=sys.stderr)
        return 0
    finally:
        tracer.close()


def _widening_rejections(report) -> list:
    """Candidates disqualified by contour widening (cap pressure)."""
    return [
        candidate
        for candidate in report.plan.candidates.values()
        if not candidate.accepted
        and candidate.reject_reason
        and "widened" in candidate.reject_reason
    ]


def _analysis_payload(args: argparse.Namespace, report) -> dict:
    """Machine-readable ``repro analyze --json`` output."""
    stats = report.clone_stats
    manager = report.analysis.manager
    return {
        "program": args.program,
        "analysis": {
            "method_contours": report.analysis.method_contour_count(),
            "object_contours": report.analysis.object_contour_count(),
            "contours_per_method": round(
                report.analysis.method_contours_per_method(), 4
            ),
            "widened_callables": len(manager.widened_callables),
            "widened_sites": len(manager.widened_sites),
        },
        "candidates": [
            candidate.decision_record()
            for candidate in report.plan.candidates.values()
        ],
        "widening_rejections": [
            candidate.describe() for candidate in _widening_rejections(report)
        ],
        "clones": {
            "method_partitions": stats.method_partitions,
            "function_partitions": stats.function_partitions,
            "class_variants": stats.class_variants,
            "view_classes": stats.view_classes,
            "installed_methods": stats.installed_methods,
        },
        "replan_rounds": report.replan_rounds,
        "nested_rounds": report.nested_rounds,
        "escape": _escape_payload(report),
    }


def _escape_payload(report) -> dict | None:
    """The escape stage's outcome for ``repro analyze --json``."""
    stats = report.escape_stats
    if stats is None:
        return None
    return {
        "sites": stats.sites,
        "scalar_replaced": stats.scalar_replaced,
        "stack_allocated": stats.stack_allocated,
        "exploded_inits": stats.exploded_inits,
        "rejected": dict(stats.rejected),
        "decisions": list(stats.decisions),
    }


@_program_command
def cmd_analyze(args: argparse.Namespace) -> int:
    tracer = _make_tracer(args)
    try:
        session = _make_session(args, tracer)
        report = session.optimize()
    finally:
        tracer.close()
    if args.json:
        print(json.dumps(_analysis_payload(args, report), indent=2))
        return 0
    manager = report.analysis.manager
    print(f"method contours: {report.analysis.method_contour_count()}")
    print(f"object contours: {report.analysis.object_contour_count()}")
    print(f"contours/method: {report.analysis.method_contours_per_method():.2f}")
    print(f"widened callables: {len(manager.widened_callables)}")
    print(f"widened sites: {len(manager.widened_sites)}")
    print("candidates:")
    for candidate in report.plan.candidates.values():
        if candidate.accepted:
            status = "ACCEPT"
        else:
            stage = candidate.reject_stage or "?"
            status = f"reject[{stage}]: {candidate.reject_reason}"
        print(f"  {candidate.describe():30s} {status}")
    for candidate in _widening_rejections(report):
        print(
            f"WARNING: contour widening disqualified {candidate.describe()} "
            f"({candidate.reject_reason}); consider raising the contour caps "
            "in AnalysisConfig",
            file=sys.stderr,
        )
    stats = report.clone_stats
    print(
        f"clones: {stats.method_partitions} method partitions, "
        f"{stats.class_variants} class variants, {stats.view_classes} view classes"
    )
    escape = report.escape_stats
    if escape is not None and escape.sites:
        print(
            f"escape: {escape.sites} sites, {escape.scalar_replaced} scalar-replaced, "
            f"{escape.stack_allocated} frame-allocated"
        )
        for decision in escape.decisions:
            if decision["accepted"]:
                status = f"ACCEPT ({decision['mode']})"
            else:
                status = f"reject[{decision['stage']}]: {decision['reason']}"
            print(f"  {decision['candidate']:30s} {status}")
    return 0


@_program_command
def cmd_ir(args: argparse.Namespace) -> int:
    session = _make_session(args)
    print(format_program(session.program_for(_build_name(args))))
    return 0


@_program_command
def cmd_codegen(args: argparse.Namespace) -> int:
    session = _make_session(args)
    result = generate(session.program_for(_build_name(args)))
    print(result.text)
    print(
        f"// {result.size_bytes} bytes, {result.reachable_callables} callables, "
        f"{result.reachable_classes} classes",
        file=sys.stderr,
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    tracer = _make_tracer(args)
    jobs = max(1, args.jobs)
    try:
        if args.output:
            from .bench.report import write_report

            path = write_report(args.output, tracer=tracer, jobs=jobs)
            print(f"wrote {path}")
            return 0
        wanted = args.figure
        if wanted != "17":
            runs = run_all(tracer=tracer, jobs=jobs, locality=args.locality)
            for number in ("14", "15", "16") if wanted == "all" else (wanted,):
                print(getattr(bench_figures, f"figure{number}")(runs).render())
                if wanted == "all":
                    print()
        if wanted in ("17", "all"):
            runs = run_performance_suite(tracer=tracer, jobs=jobs, locality=args.locality)
            print(bench_figures.figure17(runs).render())
        return 0
    finally:
        tracer.close()


def cmd_perf(args: argparse.Namespace) -> int:
    """The ``repro perf`` verb group: record / list / diff / trend."""
    from .obs import history

    if args.perf_command == "record":
        try:
            with open(args.results, encoding="utf-8") as handle:
                entry = history.entry_from_results(json.load(handle), args.rev, args.note)
        except (OSError, ValueError) as error:
            print(f"error: cannot record {args.results}: {error}", file=sys.stderr)
            return 2
        count = len(history.load_history(args.history))
        history.append_entry(args.history, entry)
        print(f"recorded ledger entry #{count} ({args.rev}) in {args.history}")
        return 0
    entries = history.load_history(args.history)
    if args.perf_command == "list":
        print(history.render_history_list(entries, limit=args.limit))
        return 0
    if args.perf_command == "diff":
        try:
            base = history.resolve_rev(entries, args.base)
            diff = history.resolve_rev(entries, args.diff)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(history.render_entry_diff(base, diff))
        return 0
    if args.perf_command == "trend":
        print(history.render_trend(entries, args.metric, last=args.last))
        return 0
    raise AssertionError(f"unknown perf command {args.perf_command!r}")


def cmd_export(args: argparse.Namespace) -> int:
    """Convert span JSONL trace(s) for Perfetto or speedscope.

    Multiple trace files merge into one export: spans carrying W3C-style
    hex ids in their meta (``trace_id``/``span_id``/``parent_span``) are
    stitched across files, so a client trace plus the daemon's
    ``service.jsonl`` renders each request as one connected tree.
    """
    files = list(args.file)
    shown = files[0] if len(files) == 1 else f"{files[0]} (+{len(files) - 1} more)"
    if args.export_format == "chrome":
        out = args.output or f"{files[0]}.chrome.json"
        exporter, what = export_chrome_file, "trace event(s)"
    else:
        out = args.output or f"{files[0]}.collapsed.txt"
        exporter, what = export_collapsed_file, "stack(s)"
    try:
        count = exporter(files if len(files) > 1 else files[0], out)
    except OSError as error:
        print(f"error: cannot export {shown}: {error}", file=sys.stderr)
        return 1
    print(f"wrote {count} {what} to {out}")
    if count == 0:
        print(
            f"note: no span events found in {shown} "
            "(was it recorded with --trace?)",
            file=sys.stderr,
        )
    return 0


def _parse_fault_plan(spec: str | None):
    """A :class:`FaultPlan` from ``error=0.1,hang=0.05,...`` (or None).

    Falls back to ``$REPRO_FAULT_PLAN`` (JSON) when no spec is given;
    returns ``None`` when neither names an active plan.
    """
    from .service import FaultPlan

    if spec is None:
        plan = FaultPlan.from_env()
        return plan if plan.active else None
    short = {
        "error": "error_rate",
        "hang": "hang_rate",
        "corrupt": "corrupt_rate",
        "crash": "crash_rate",
    }
    payload: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = short.get(key.strip(), key.strip())
        payload[key] = int(value) if key == "seed" else float(value)
    plan = FaultPlan.from_dict(payload)
    return plan if plan.active else None


def cmd_serve(args: argparse.Namespace) -> int:
    """Run (or stop) the compile-service daemon."""
    from .obs.metrics import digest
    from .service import ServiceClient, ServiceError, serve

    if args.stop:
        try:
            with ServiceClient(args.socket, timeout=args.request_timeout) as client:
                client.shutdown()
        except (ServiceError, OSError) as error:
            print(f"error: cannot stop daemon at {args.socket}: {error}", file=sys.stderr)
            return 1
        print(f"daemon at {args.socket} is draining")
        return 0
    print(
        f"repro service listening on {args.socket} "
        f"(workers={args.workers}, store={args.store_entries} entries, "
        f"timeout={args.request_timeout:g}s)",
        flush=True,
    )
    if args.trace_dir:
        print(f"tracing to a fresh run directory under {args.trace_dir}", flush=True)
    try:
        fault_plan = _parse_fault_plan(getattr(args, "fault_plan", None))
    except ValueError as error:
        print(f"error: bad fault plan: {error}", file=sys.stderr)
        return 2
    if fault_plan is not None:
        print(f"CHAOS MODE: injecting faults per {fault_plan.to_dict()}", flush=True)
    service = serve(
        args.socket,
        workers=args.workers,
        request_timeout=args.request_timeout,
        store_entries=args.store_entries,
        trace_dir=args.trace_dir,
        allow_test_ops=args.allow_test_ops,
        fault_plan=fault_plan,
        slo_p99=args.slo_p99,
        slo_error_rate=args.slo_error_rate,
    )
    final = digest(service.metrics.to_dict())
    print(
        f"daemon stopped after {final.requests:.0f} request(s); "
        f"store: {final.cache_hits:.0f} hits / {final.cache_misses:.0f} misses"
    )
    if service.run_dir:
        print(f"trace run directory: {service.run_dir}")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Replay the benchmark corpus against a live daemon."""
    from .service import ServiceThread, run_loadgen, write_report_json

    try:
        fault_plan = _parse_fault_plan(getattr(args, "fault_plan", None))
    except ValueError as error:
        print(f"error: bad fault plan: {error}", file=sys.stderr)
        return 2
    if fault_plan is not None and not args.self_host:
        print("error: --fault-plan requires --self-host", file=sys.stderr)
        return 2
    self_hosted = None
    socket_path = args.socket
    if args.self_host:
        import tempfile

        socket_path = f"{tempfile.mkdtemp(prefix='repro-loadgen-')}/service.sock"
        self_hosted = ServiceThread(
            socket_path,
            workers=args.workers,
            trace_dir=args.trace_dir,
            fault_plan=fault_plan,
        ).start()
    if fault_plan is not None:
        print(f"CHAOS MODE: {fault_plan.to_dict()}", flush=True)
    try:
        try:
            report = run_loadgen(
                socket_path,
                requests=args.requests,
                concurrency=args.concurrency,
                op=args.op,
                build=args.build,
                timeout=args.timeout,
                verify=args.verify,
            )
        except OSError as error:
            print(
                f"error: cannot reach daemon at {socket_path}: {error}\n"
                "(start one with `repro serve`, or pass --self-host)",
                file=sys.stderr,
            )
            return 1
    finally:
        if self_hosted is not None:
            self_hosted.stop()
    print(report.render())
    if args.json:
        print(f"wrote {write_report_json(args.json, report)}")
    # Under chaos, error replies are expected (that is the point); what
    # must never happen is a client-visible *incorrect* reply.
    if report.incorrect:
        if args.verify:
            _print_failure_digest(socket_path, report)
        return 1
    if fault_plan is None:
        if report.errors:
            return 1
        # The two latency measurement paths (client wall clock vs the
        # daemon's request histogram) must agree within one bucket; a
        # wider drift is a metrics bug, and under a clean run it fails
        # the loadgen just like an error reply would.
        if report.percentile_check is not None and not report.percentile_check["ok"]:
            print(
                "error: client and daemon latency percentiles disagree by more "
                "than one histogram bucket",
                file=sys.stderr,
            )
            return 1
    return 0


def _print_failure_digest(socket_path: str, report) -> int:
    """Chaos triage: the daemon's metrics digest, printed on verify failure.

    The digest tells the triager at a glance what the daemon thinks
    happened — injected fault counts by kind, error rate, cache hit rate
    — next to the loadgen's client-side view of the same run.
    """
    from .obs.metrics import render_digest

    snapshot = report.metrics_snapshot
    if not snapshot:
        try:
            from .service import ServiceClient

            with ServiceClient(socket_path) as client:
                snapshot = client.metrics()
        except (OSError, RuntimeError):
            snapshot = None
    if snapshot:
        print("-- daemon metrics digest at failure --", file=sys.stderr)
        print(render_digest(snapshot), file=sys.stderr)
    return 1


def cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape a live daemon's metrics registry.

    Three renderings of the same ``metrics``-op snapshot: the human
    digest panel (default), Prometheus text exposition (``--prom``, for
    scrapers and CI assertions), and a refreshing TTY dashboard
    (``--watch``, Ctrl-C to stop).
    """
    import time as _time

    from .obs.metrics import render_digest, render_prom
    from .service import ServiceClient, ServiceError

    def _scrape() -> dict | None:
        try:
            with ServiceClient(args.socket, timeout=args.timeout) as client:
                return client.metrics()
        except (ServiceError, OSError) as error:
            print(
                f"error: cannot scrape daemon at {args.socket}: {error}",
                file=sys.stderr,
            )
            return None

    if args.watch:
        try:
            while True:
                snapshot = _scrape()
                if snapshot is None:
                    return 1
                # Home + clear-to-end keeps the panel flicker-free.
                sys.stdout.write("\x1b[H\x1b[2J")
                print(f"repro metrics @ {args.socket}  (every {args.interval:g}s)")
                print()
                print(render_digest(snapshot))
                sys.stdout.flush()
                _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0
    snapshot = _scrape()
    if snapshot is None:
        return 1
    if args.prom:
        sys.stdout.write(render_prom(snapshot))
    else:
        print(render_digest(snapshot))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        summary = summarize_files(args.file)
    except OSError as error:
        print(f"error: cannot read trace: {error}", file=sys.stderr)
        return 1
    if not summary.phases and not summary.events and not summary.counters:
        name = args.file[0] if len(args.file) == 1 else f"{len(args.file)} files"
        print(
            f"no trace data in {name} (no span/counter/decision events; "
            "record with --trace FILE)"
        )
        return 0
    if len(args.file) == 1:
        print(render_file(args.file[0], top_counters=args.counters))
    else:
        # Several files (e.g. one per bench worker) render as one merged
        # summary; totals are additive across shards.
        print(render_summary(summary, top_counters=args.counters))
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    if len(args.file) > 2:
        print("heatmap takes one trace or a before/after pair", file=sys.stderr)
        return 2
    try:
        if len(args.file) == 1:
            print(render_heatmap(locality_from_file(args.file[0]), top=args.top))
            return 0
        before = locality_from_file(args.file[0])
        after = locality_from_file(args.file[1])
    except OSError as error:
        print(f"error: cannot read trace: {error}", file=sys.stderr)
        return 1
    print(
        render_locality_diff(
            before, after, top=args.top, names=(args.file[0], args.file[1])
        )
    )
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing: generated programs across the build matrix."""
    import json as json_module

    from .fuzz import run_fuzz

    client = None
    self_hosted = None
    if args.service:
        import tempfile

        from .service import ServiceClient, ServiceThread

        socket_path = f"{tempfile.mkdtemp(prefix='repro-fuzz-')}/service.sock"
        self_hosted = ServiceThread(socket_path, workers=args.workers).start()
        client = ServiceClient(socket_path, tenant="fuzz", connect_retries=5)
    try:
        report = run_fuzz(
            seeds=args.seeds,
            start_seed=args.start_seed,
            time_budget=args.time_budget,
            corpus_dir=args.corpus,
            max_steps=args.max_steps,
            client=client,
        )
    finally:
        if client is not None:
            client.close()
        if self_hosted is not None:
            self_hosted.stop()
    print(report.render())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json_module.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.report}")
    if report.archived:
        print(f"archived {report.archived} reproducer(s) under {args.corpus}")
    return 0 if report.ok else 1


def cmd_reduce(args: argparse.Namespace) -> int:
    """Shrink a divergence reproducer to a minimal program."""
    from .fuzz import check_program, count_nodes, reduce_source
    from .lang import parse_program

    try:
        with open(args.file, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as error:
        print(f"error: cannot read {args.file}: {error}", file=sys.stderr)
        return 1
    kind = args.kind
    if kind is None:
        result = check_program(source, seed=-1)
        if not result.divergences:
            print(
                f"error: {args.file} does not diverge (nothing to reduce); "
                "pass --kind to chase a specific divergence",
                file=sys.stderr,
            )
            return 1
        kind = result.divergences[0].kind
        print(f"chasing {result.divergences[0].triage_key}", flush=True)
    before = count_nodes(parse_program(source))
    try:
        reduced = reduce_source(source, kind, max_rounds=args.max_rounds)
    except ValueError as error:
        print(f"error: {args.file}: {error}", file=sys.stderr)
        return 1
    after = count_nodes(parse_program(reduced))
    print(f"reduced {before} -> {after} AST nodes", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(reduced)
        print(f"wrote {args.out}")
    else:
        print(reduced, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Object inlining for a uniform object model (PLDI 1997 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="compile (+optionally optimize) and run")
    run_parser.add_argument("program")
    _add_build_flags(run_parser)
    run_parser.add_argument("--stats", action="store_true", help="print VM statistics")
    run_parser.add_argument(
        "--profile", action="store_true",
        help="print a per-callable (self + inclusive) cycle profile",
    )
    run_parser.add_argument(
        "--locality", action="store_true",
        help="attribute cache misses to (class, field, alloc site) labels "
        "and print an address-space heatmap to stderr",
    )
    _add_trace_flag(run_parser)
    run_parser.set_defaults(func=cmd_run)

    analyze_parser = sub.add_parser("analyze", help="report analysis + inlining decisions")
    analyze_parser.add_argument("program")
    analyze_parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable analysis output (for tooling / CI diffing)",
    )
    _add_trace_flag(analyze_parser)
    analyze_parser.set_defaults(func=cmd_analyze)

    ir_parser = sub.add_parser("ir", help="dump the IR")
    ir_parser.add_argument("program")
    _add_build_flags(ir_parser)
    ir_parser.set_defaults(func=cmd_ir)

    cg_parser = sub.add_parser("codegen", help="emit C-like code")
    cg_parser.add_argument("program")
    _add_build_flags(cg_parser)
    cg_parser.set_defaults(func=cmd_codegen)

    bench_parser = sub.add_parser("bench", help="regenerate the paper's figures")
    bench_parser.add_argument(
        "--figure", choices=["14", "15", "16", "17", "all"], default="all"
    )
    bench_parser.add_argument(
        "--output", metavar="FILE", help="write the full markdown report to FILE"
    )
    bench_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan (benchmark, build) pairs over N worker processes "
        "(default 1 = serial; figures are identical either way)",
    )
    bench_parser.add_argument(
        "--locality", action="store_true",
        help="run benchmarks with cache-miss attribution; per-build "
        "locality rides along in the trace and the markdown report",
    )
    _add_trace_flag(bench_parser)
    bench_parser.set_defaults(func=cmd_bench)

    perf_parser = sub.add_parser(
        "perf", help="record, browse, and compare perf-history ledger entries"
    )
    perf_sub = perf_parser.add_subparsers(dest="perf_command", required=True)

    def _add_history_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--history", metavar="FILE", default=DEFAULT_HISTORY_PATH,
            help=f"perf-history ledger (default {DEFAULT_HISTORY_PATH})",
        )

    record_parser = perf_sub.add_parser(
        "record", help="append a perf/bench.py results file to the ledger"
    )
    record_parser.add_argument(
        "results", help="results file written by `perf/bench.py --out`"
    )
    record_parser.add_argument(
        "rev", help="the code that produced it: a commit, or <commit>-dirty"
    )
    record_parser.add_argument(
        "--note", metavar="TEXT", help="free-form note stored on the entry"
    )
    _add_history_flag(record_parser)
    record_parser.set_defaults(func=cmd_perf)

    list_parser = perf_sub.add_parser("list", help="list the ledger's entries")
    list_parser.add_argument("--limit", type=int, default=20, metavar="N")
    _add_history_flag(list_parser)
    list_parser.set_defaults(func=cmd_perf)

    diff_parser = perf_sub.add_parser(
        "diff", help="medians, changes and quartile spreads of two entries"
    )
    diff_parser.add_argument("base", help="ledger index (0, -1, ...) or revision prefix")
    diff_parser.add_argument("diff", help="ledger index (0, -1, ...) or revision prefix")
    _add_history_flag(diff_parser)
    diff_parser.set_defaults(func=cmd_perf)

    trend_parser = perf_sub.add_parser(
        "trend", help="ASCII sparkline of a metric across the ledger"
    )
    trend_parser.add_argument(
        "metric",
        help="an end-to-end metric (`throughput_ops_s`, `latency_p99_ms`, ...) "
        "or a per-layer one (`analysis.fixpoint_s`, ...)",
    )
    trend_parser.add_argument("--last", type=int, default=40, metavar="N",
                              help="plot the last N entries (default 40)")
    _add_history_flag(trend_parser)
    trend_parser.set_defaults(func=cmd_perf)

    serve_parser = sub.add_parser(
        "serve", help="run the compile-service daemon on a local socket"
    )
    from .service.daemon import (
        DEFAULT_REQUEST_TIMEOUT,
        DEFAULT_SLO_ERROR_RATE,
        DEFAULT_SLO_P99,
        DEFAULT_SOCKET_PATH,
    )

    serve_parser.add_argument(
        "--socket", metavar="PATH", default=DEFAULT_SOCKET_PATH,
        help=f"unix socket to listen on (default {DEFAULT_SOCKET_PATH})",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="compile worker processes (default 2)",
    )
    serve_parser.add_argument(
        "--request-timeout", type=float, default=DEFAULT_REQUEST_TIMEOUT, metavar="S",
        help=f"default per-request timeout in seconds (default {DEFAULT_REQUEST_TIMEOUT:g})",
    )
    serve_parser.add_argument(
        "--store-entries", type=int, default=256, metavar="N",
        help="artifact-store LRU bound (default 256 entries)",
    )
    serve_parser.add_argument(
        "--trace-dir", metavar="DIR",
        help="write JSONL service traces into a fresh run directory under DIR",
    )
    serve_parser.add_argument(
        "--stop", action="store_true",
        help="gracefully stop the daemon listening on --socket",
    )
    serve_parser.add_argument(
        "--allow-test-ops", action="store_true", help=argparse.SUPPRESS
    )
    serve_parser.add_argument(
        "--fault-plan", metavar="SPEC",
        help="chaos mode: inject worker faults, e.g. "
        "'error=0.05,hang=0.02,corrupt=0.02,crash=0.01' "
        "(default: $REPRO_FAULT_PLAN if set)",
    )
    serve_parser.add_argument(
        "--slo-p99", type=float, default=DEFAULT_SLO_P99, metavar="S",
        help=f"p99 latency target in seconds, exported as the "
        f"service_slo_p99_seconds gauge (default {DEFAULT_SLO_P99:g})",
    )
    serve_parser.add_argument(
        "--slo-error-rate", type=float, default=DEFAULT_SLO_ERROR_RATE, metavar="R",
        help=f"error-rate target in [0,1], exported as the "
        f"service_slo_error_rate gauge (default {DEFAULT_SLO_ERROR_RATE:g})",
    )
    serve_parser.set_defaults(func=cmd_serve)

    metrics_parser = sub.add_parser(
        "metrics",
        help="scrape a live daemon's metrics (digest, --prom, or --watch)",
    )
    metrics_parser.add_argument(
        "socket", nargs="?", default=DEFAULT_SOCKET_PATH, metavar="SOCKET",
        help=f"daemon socket (default {DEFAULT_SOCKET_PATH})",
    )
    metrics_parser.add_argument(
        "--prom", action="store_true",
        help="Prometheus text exposition instead of the human digest",
    )
    metrics_parser.add_argument(
        "--watch", action="store_true",
        help="refreshing TTY dashboard (Ctrl-C to stop)",
    )
    metrics_parser.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="refresh period for --watch (default 2s)",
    )
    metrics_parser.add_argument(
        "--timeout", type=float, default=10.0, metavar="S",
        help="scrape connection timeout (default 10s)",
    )
    metrics_parser.set_defaults(func=cmd_metrics)

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="replay the benchmark corpus against the daemon; report "
        "throughput and p50/p95/p99 latency",
    )
    loadgen_parser.add_argument(
        "--socket", metavar="PATH", default=DEFAULT_SOCKET_PATH,
        help=f"daemon socket (default {DEFAULT_SOCKET_PATH})",
    )
    loadgen_parser.add_argument(
        "--requests", type=int, default=500, metavar="N",
        help="total requests to send (default 500)",
    )
    loadgen_parser.add_argument(
        "--concurrency", type=int, default=8, metavar="N",
        help="client threads, one connection each (default 8)",
    )
    loadgen_parser.add_argument(
        "--op", choices=["compile", "analyze", "optimize", "run"],
        default="optimize", help="request op to replay (default optimize)",
    )
    loadgen_parser.add_argument(
        "--build",
        choices=["plain", "noinline", "inline", "noescape", "manual", "opt"],
        default="inline", help="build for --op run (default inline)",
    )
    loadgen_parser.add_argument(
        "--timeout", type=float, metavar="S",
        help="per-request timeout to ask the daemon for",
    )
    loadgen_parser.add_argument(
        "--self-host", action="store_true",
        help="spin up a private in-process daemon for this run "
        "(no `repro serve` needed)",
    )
    loadgen_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes for --self-host (default 2)",
    )
    loadgen_parser.add_argument(
        "--trace-dir", metavar="DIR", help="trace directory for --self-host"
    )
    loadgen_parser.add_argument(
        "--json", metavar="FILE", help="also write the full report as JSON"
    )
    loadgen_parser.add_argument(
        "--verify", action="store_true",
        help="check every OK reply against an in-process oracle; "
        "incorrect replies fail the run",
    )
    loadgen_parser.add_argument(
        "--fault-plan", metavar="SPEC",
        help="chaos mode for --self-host: inject worker faults, e.g. "
        "'error=0.05,crash=0.01' (combine with --verify)",
    )
    loadgen_parser.set_defaults(func=cmd_loadgen)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="differential fuzzing: run generated programs across every "
        "build config and flag divergences",
    )
    fuzz_parser.add_argument(
        "--seeds", type=int, default=100, metavar="N",
        help="number of generated programs (default 100)",
    )
    fuzz_parser.add_argument(
        "--start-seed", type=int, default=0, metavar="N",
        help="first seed (default 0)",
    )
    fuzz_parser.add_argument(
        "--time-budget", type=float, metavar="S",
        help="stop after S seconds even if seeds remain",
    )
    fuzz_parser.add_argument(
        "--corpus", metavar="DIR",
        help="archive offending programs (a few per triage bucket) under DIR",
    )
    fuzz_parser.add_argument(
        "--report", metavar="FILE", help="write the triage report as JSON"
    )
    fuzz_parser.add_argument(
        "--max-steps", type=int, default=2_000_000, metavar="N",
        help="VM step budget for the reference build (default 2000000)",
    )
    fuzz_parser.add_argument(
        "--service", action="store_true",
        help="also round-trip every program through a private daemon and "
        "compare its replies",
    )
    fuzz_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes for --service (default 2)",
    )
    fuzz_parser.set_defaults(func=cmd_fuzz)

    reduce_parser = sub.add_parser(
        "reduce", help="shrink a divergence reproducer to a minimal program"
    )
    reduce_parser.add_argument("file", help="mini-ICC++ source that diverges")
    reduce_parser.add_argument(
        "--kind", metavar="KIND",
        help="chase the first divergence of this kind, keeping its triage "
        "key (default: the first divergence)",
    )
    reduce_parser.add_argument(
        "--out", metavar="FILE", help="write the reduced program here"
    )
    reduce_parser.add_argument(
        "--max-rounds", type=int, default=40, metavar="N",
        help="greedy reduction passes (default 40)",
    )
    reduce_parser.set_defaults(func=cmd_reduce)

    export_parser = sub.add_parser(
        "export", help="convert a span trace for Perfetto or speedscope"
    )
    export_sub = export_parser.add_subparsers(dest="export_format", required=True)
    chrome_parser = export_sub.add_parser(
        "chrome",
        help="Chrome trace-event JSON (load in ui.perfetto.dev); one "
        "timeline lane per merged worker shard",
    )
    chrome_parser.add_argument(
        "file", nargs="+",
        help="span JSONL trace(s); several files (e.g. a client trace + "
        "the daemon's service.jsonl) merge and stitch into one timeline",
    )
    chrome_parser.add_argument(
        "-o", "--output", metavar="FILE",
        help="output path (default TRACE.chrome.json)",
    )
    chrome_parser.set_defaults(func=cmd_export)
    flame_parser = export_sub.add_parser(
        "flame",
        help="collapsed stacks with self-time weights (speedscope / flamegraph.pl)",
    )
    flame_parser.add_argument(
        "file", nargs="+",
        help="span JSONL trace(s); several files merge into one profile",
    )
    flame_parser.add_argument(
        "-o", "--output", metavar="FILE",
        help="output path (default TRACE.collapsed.txt)",
    )
    flame_parser.set_defaults(func=cmd_export)

    trace_parser = sub.add_parser("trace", help="summarize JSONL trace file(s)")
    trace_parser.add_argument(
        "file", nargs="+",
        help="trace file(s); several files render one merged summary",
    )
    trace_parser.add_argument(
        "--counters", type=int, default=20, metavar="N",
        help="show the top N counters (default 20)",
    )
    trace_parser.set_defaults(func=cmd_trace)

    heatmap_parser = sub.add_parser(
        "heatmap",
        help="render an address-space miss heatmap from a locality trace; "
        "two traces render a side-by-side locality diff",
    )
    heatmap_parser.add_argument(
        "file", nargs="+",
        help="one trace: heatmap + per-field miss table; "
        "two traces (before after): locality diff",
    )
    heatmap_parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="show the top N labels (default 20)",
    )
    heatmap_parser.set_defaults(func=cmd_heatmap)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
