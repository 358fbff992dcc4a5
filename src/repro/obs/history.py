"""The performance-history ledger: a record of benchmark results.

The ledger is not a benchmark.  ``perf/bench.py --out FILE`` measures,
``perf/compare.py`` judges two results files against the bounds in
``BENCHMARK.json``, and this module only records: ``repro perf record
RESULTS REV`` folds one results file into one ledger entry and appends
it to ``PERF_HISTORY.jsonl``, so the numbers a change is judged on stay
next to the revision that produced them.

A (version 2) entry holds:

- ``rev`` — the code that produced the file (a commit, or
  ``<commit>-dirty``), ``at`` (when it was recorded), ``host`` and an
  optional ``note``;
- ``runs`` — how many runs the file holds, their seeds, and the
  ``scale``, ``seconds`` and ``trace`` they share;
- ``workloads`` — per workload, the median and quartiles of every
  end-to-end metric (and, for traced runs, of every per-layer metric),
  the exact metrics per run, the runs' seeds, and the failed and
  attempted operation counts.

``repro perf list`` / ``diff A B`` / ``trend METRIC`` render the
ledger.  ``diff`` shows medians, changes and quartile spreads and flags
exact metrics that differ; it gives no verdict.

The ledger is plain JSONL: malformed lines and entries of other schema
versions are skipped on read.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import statistics
import sys
import time

#: Ledger schema version, bumped on incompatible changes.
LEDGER_VERSION = 2

#: Metrics of the generated code that must not move between runs of one
#: workload and seed (the same set ``perf/compare.py`` checks).
EXACT = ("norm_cycles_geomean", "code_bytes", "allocations")

#: Run settings every run of one results file must share.
SHARED = ("scale", "seconds", "trace")


# ----------------------------------------------------------------------
# Entries: construction and persistence.


def summarize(values: list[float]) -> dict:
    """Median and quartiles of ``values`` (``statistics.quantiles``,
    exclusive method, as ``perf/stats.py``); one value is its own
    quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _summaries(results: list[dict], key: str) -> dict:
    samples: dict[str, list[float]] = {}
    for result in results:
        for metric, value in result.get(key, {}).items():
            samples.setdefault(metric, []).append(value)
    return {metric: summarize(values) for metric, values in sorted(samples.items())}


def _workload(runs: list[dict], name: str) -> dict:
    mine = [run for run in runs if name in run["workloads"]]
    results = [run["workloads"][name] for run in mine]
    record = {
        "seeds": [run["seed"] for run in mine],
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "e2e": _summaries(results, "e2e"),
        "exact": {
            metric: [result["extra"][metric][0] for result in results]
            for metric in EXACT
            if all(metric in result["extra"] for result in results)
        },
    }
    if any("per_layer" in result for result in results):
        record["per_layer"] = _summaries(results, "per_layer")
    return record


def _host() -> dict:
    return {
        "hostname": socket.gethostname(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def entry_from_results(results: dict, rev: str, note: str | None = None) -> dict:
    """One ledger entry from a ``perf/bench.py --out`` results file.

    Raises ``ValueError`` for a file with no runs, or whose runs differ
    in ``scale``, ``seconds`` or ``trace``: their medians would mix
    incomparable measurements.
    """
    runs = results.get("runs") if isinstance(results, dict) else None
    if not runs:
        raise ValueError("the results file holds no runs")
    if not all(isinstance(run, dict) and isinstance(run.get("workloads"), dict) for run in runs):
        raise ValueError("not a perf/bench.py results file: a run has no workloads")
    settings = {}
    for name in SHARED:
        values = {run.get(name) for run in runs}
        if len(values) > 1:
            raise ValueError(
                f"the runs differ in {name} ({', '.join(sorted(map(repr, values)))}); "
                "record each setting from its own results file"
            )
        settings[name] = runs[0].get(name)
    names = sorted({name for run in runs for name in run["workloads"]})
    entry = {
        "v": LEDGER_VERSION,
        "at": time.time(),
        "rev": rev,
        "host": _host(),
        "runs": {"count": len(runs), "seeds": [run["seed"] for run in runs], **settings},
        "workloads": {name: _workload(runs, name) for name in names},
    }
    if note:
        entry["note"] = note
    return entry


def append_entry(path: str, entry: dict) -> str:
    """Append one entry to the ledger (creates the file if missing)."""
    line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return path


def load_history(path: str) -> list[dict]:
    """All well-formed version-2 entries, oldest first; a missing file
    reads empty."""
    if not os.path.exists(path):
        return []
    entries: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (
                isinstance(record, dict)
                and record.get("v") == LEDGER_VERSION
                and isinstance(record.get("workloads"), dict)
            ):
                entries.append(record)
    return entries


# ----------------------------------------------------------------------
# Ledger reports: list, diff, trend.

EMPTY = (
    "perf history is empty (record a `perf/bench.py --out` results file "
    "with `repro perf record RESULTS REV`)"
)


def _format_when(timestamp: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(timestamp))


def _settings(entry: dict) -> str:
    runs = entry["runs"]
    seeds = " ".join(str(seed) for seed in runs["seeds"])
    return (
        f"{runs['count']} run(s), seeds {seeds}, {runs['scale']}, "
        f"{runs['seconds']:g}s, trace {runs['trace']}"
    )


def _short(rev: str) -> str:
    """A revision cut to 12 characters, keeping a ``-dirty`` suffix."""
    commit, dirty, _ = rev.partition("-dirty")
    return commit[:12] + dirty


def render_history_list(entries: list[dict], limit: int = 20) -> str:
    """``repro perf list``: one row per recorded results file, newest last."""
    if not entries:
        return EMPTY
    lines = [f"{'#':>4s} {'recorded at':19s} {'rev':18s} settings; workloads"]
    start = max(0, len(entries) - limit)
    for index in range(start, len(entries)):
        entry = entries[index]
        note = f"  ({entry['note']})" if entry.get("note") else ""
        lines.append(
            f"{index:>4d} {_format_when(entry['at']):19s} {_short(entry['rev']):18s} "
            f"{_settings(entry)}; {' '.join(entry['workloads'])}{note}"
        )
    if start:
        lines.append(f"... ({start} older entr{'y' if start == 1 else 'ies'} not shown)")
    return "\n".join(lines)


def resolve_rev(entries: list[dict], token: str) -> dict:
    """An entry named by index (``0``, ``-1``) or revision prefix.

    A revision prefix resolves to the *latest* matching entry.
    """
    if not entries:
        raise ValueError("perf history is empty")
    try:
        index = int(token)
    except ValueError:
        matches = [e for e in entries if e["rev"].startswith(token)]
        if not matches:
            raise ValueError(
                f"no ledger entry with revision prefix {token!r} (see `repro perf list`)"
            ) from None
        return matches[-1]
    try:
        return entries[index]
    except IndexError:
        raise ValueError(f"ledger index {index} out of range ({len(entries)} entries)") from None


def _spread(summary: dict) -> float:
    """Quartile spread as a share of the median (``perf/stats.py``)."""
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def _exact_changes(name: str, base: dict, diff: dict) -> list[str]:
    """Exact metrics that differ between runs of one seed."""
    changes = []
    for metric in sorted(set(base["exact"]) & set(diff["exact"])):
        values: dict[int, set] = {}
        for workload in (base, diff):
            for seed, value in zip(workload["seeds"], workload["exact"][metric]):
                values.setdefault(seed, set()).add(value)
        changes += [
            f"  {name} {metric} seed {seed}: {' != '.join(f'{v:.6g}' for v in sorted(seen))}"
            for seed, seen in sorted(values.items())
            if len(seen) > 1
        ]
    return changes


def render_entry_diff(base: dict, diff: dict) -> str:
    """``repro perf diff``: two entries side by side, workload by workload.

    Per metric: both medians, the relative change and both quartile
    spreads.  Exact metrics that differ for one seed are flagged.  There
    is no verdict: ``perf/compare.py`` judges against the bounds.
    """
    lines = [
        f"perf diff: base {base['rev']} @ {_format_when(base['at'])} ({_settings(base)})",
        f"           diff {diff['rev']} @ {_format_when(diff['at'])} ({_settings(diff)})",
    ]
    if any(base["runs"][name] != diff["runs"][name] for name in SHARED):
        lines.append("note: the entries differ in scale, seconds or trace")
    lines += [
        "",
        f"{'workload':14s} {'metric':28s} {'base median':>12s} {'diff median':>12s} "
        f"{'change':>8s} {'base spread':>11s} {'diff spread':>11s}",
    ]
    exact: list[str] = []
    for name in sorted(set(base["workloads"]) | set(diff["workloads"])):
        if name not in base["workloads"] or name not in diff["workloads"]:
            missing = "base" if name not in base["workloads"] else "diff"
            lines.append(f"{name:14s} (missing from {missing} entry)")
            continue
        b_work, d_work = base["workloads"][name], diff["workloads"][name]
        for key in ("e2e", "per_layer"):
            b_metrics, d_metrics = b_work.get(key, {}), d_work.get(key, {})
            for metric in sorted(set(b_metrics) & set(d_metrics)):
                b, d = b_metrics[metric], d_metrics[metric]
                change = (d["median"] - b["median"]) / b["median"] if b["median"] else 0.0
                lines.append(
                    f"{name:14s} {metric:28s} {b['median']:12.5g} {d['median']:12.5g} "
                    f"{change:+8.2%} {_spread(b):11.2%} {_spread(d):11.2%}"
                )
        for label, work in (("base", b_work), ("diff", d_work)):
            if work["failed"]:
                lines.append(
                    f"{name:14s} {label}: {work['failed']} of {work['attempted']} "
                    "operations failed"
                )
        exact += _exact_changes(name, b_work, d_work)
    lines.append("")
    if exact:
        lines.append("exact metrics differ:")
        lines += exact
    else:
        lines.append("exact metrics: no difference for any seed")
    lines.append("(perf/compare.py judges a change against BENCHMARK.json's bounds)")
    return "\n".join(lines)


#: Eight shades, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    """Map a series onto ▁▂▃▄▅▆▇█ (empty string for no data)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high == low:
        return SPARK_CHARS[0] * len(values)
    span = high - low
    return "".join(
        SPARK_CHARS[int((value - low) / span * (len(SPARK_CHARS) - 1))] for value in values
    )


def metric_series(entries: list[dict], workload: str, metric: str) -> list[float]:
    """The median of ``metric`` (end-to-end or per-layer) for one
    workload over the ledger, oldest first; entries lacking it are
    skipped."""
    series: list[float] = []
    for entry in entries:
        data = entry["workloads"].get(workload, {})
        summary = data.get("e2e", {}).get(metric) or data.get("per_layer", {}).get(metric)
        if summary:
            series.append(summary["median"])
    return series


def render_trend(entries: list[dict], metric: str, last: int = 40) -> str:
    """``repro perf trend METRIC``: one sparkline per workload."""
    if not entries:
        return EMPTY
    entries = entries[-last:]
    lines = [
        f"trend of {metric} (median per entry, {len(entries)} "
        f"entr{'y' if len(entries) == 1 else 'ies'}):"
    ]
    workloads = sorted({name for entry in entries for name in entry["workloads"]})
    for workload in workloads:
        series = metric_series(entries, workload, metric)
        if series:
            lines.append(
                f"  {workload:14s} {sparkline(series):40s} latest {series[-1]:.5g} "
                f"(min {min(series):.5g}, max {max(series):.5g}, n={len(series)})"
            )
    if len(lines) == 1:
        lines.append(
            f"  no data for metric {metric!r} (try an end-to-end metric such as "
            "`throughput_ops_s` or `latency_p99_ms`, or a per-layer one)"
        )
    return "\n".join(lines)
