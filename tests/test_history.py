"""Perf-history ledger: recording ``perf/bench.py`` results files, the
ledger's persistence, its reports, and the CLI wiring.

The ledger records; it does not measure or judge.  ``repro perf record``
folds a results file into one entry of medians and quartiles, and
refuses a file whose runs cannot be summarized together.
"""

import copy
import json
import statistics

import pytest

from repro.cli import main
from repro.obs.history import (
    EMPTY,
    append_entry,
    entry_from_results,
    load_history,
    metric_series,
    render_entry_diff,
    render_history_list,
    render_trend,
    resolve_rev,
    sparkline,
    summarize,
)

#: One tiny benchmark that exercises every Figure-17 build quickly.
TINY = """
class P { var v; def init(v) { this.v = v; } }
class C { var inline f; def init(p) { this.f = p; } }
def main() { var c = new C(new P(5)); print(c.f.v); }
"""


def bench_run(seed, throughput, p99, code_bytes=4096, trace=0, **settings):
    """One run as ``perf/bench.py --out`` appends it (fig17 only)."""
    result = {
        "setup_s": 1.0,
        "setup_samples": [1.0, 1.2, 1.1],
        "e2e": {
            "setup_s": 1.1,
            "throughput_ops_s": throughput,
            "latency_p50_ms": 10.0,
            "latency_p99_ms": p99,
            "peak_rss_mb": 40.0,
        },
        "extra": {
            "pass_s": [1.5, "s"],
            "norm_cycles_geomean": [0.62, "ratio"],
            "code_bytes": [code_bytes, "bytes"],
            "allocations": [1200, "count"],
            "failed_ratio": [0.0, "ratio"],
        },
        "attempted": 40,
        "failed": 1,
    }
    if trace:
        result["per_layer"] = {"analysis.fixpoint_s": throughput / 100, "ir.instrs": 512}
    run = {"seed": seed, "seconds": 20, "trace": trace, "scale": "full"}
    run.update(settings)
    run["workloads"] = {"fig17": result}
    return run


def two_runs(**settings) -> dict:
    return {
        "runs": [
            bench_run(1, 10.0, 80.0, **settings),
            bench_run(2, 14.0, 95.0, **settings),
        ]
    }


def write_results(tmp_path, results, name="results.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(results))
    return str(path)


def entries(*revs) -> list[dict]:
    """One recorded entry per revision; throughput grows along the list."""
    recorded = []
    for index, rev in enumerate(revs):
        results = two_runs()
        for run in results["runs"]:
            run["workloads"]["fig17"]["e2e"]["throughput_ops_s"] += index
        recorded.append(entry_from_results(results, rev))
    return recorded


class TestRecord:
    def test_medians_and_quartiles_match_statistics(self):
        entry = entry_from_results(two_runs(), "abc123")
        summary = entry["workloads"]["fig17"]["e2e"]["throughput_ops_s"]
        q1, _, q3 = statistics.quantiles([10.0, 14.0], n=4)
        assert summary == {
            "median": statistics.median([10.0, 14.0]),
            "q1": q1,
            "q3": q3,
            "n": 2,
        }
        assert set(entry["workloads"]["fig17"]["e2e"]) == {
            "setup_s",
            "throughput_ops_s",
            "latency_p50_ms",
            "latency_p99_ms",
            "peak_rss_mb",
        }

    def test_single_run_is_its_own_quartiles(self):
        assert summarize([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}

    def test_exact_metrics_counts_and_settings_are_kept(self):
        results = two_runs()
        results["runs"][1]["workloads"]["fig17"]["extra"]["code_bytes"][0] = 4100
        entry = entry_from_results(results, "abc123-dirty", note="two runs")
        fig17 = entry["workloads"]["fig17"]
        assert fig17["exact"] == {
            "norm_cycles_geomean": [0.62, 0.62],
            "code_bytes": [4096, 4100],
            "allocations": [1200, 1200],
        }
        assert fig17["seeds"] == [1, 2]
        assert (fig17["attempted"], fig17["failed"]) == (80, 2)
        assert "per_layer" not in fig17
        assert entry["runs"] == {
            "count": 2,
            "seeds": [1, 2],
            "scale": "full",
            "seconds": 20,
            "trace": 0,
        }
        assert entry["rev"] == "abc123-dirty" and entry["note"] == "two runs"
        assert entry["v"] == 2 and entry["host"]["hostname"]

    def test_traced_runs_summarize_per_layer_metrics(self):
        entry = entry_from_results(two_runs(trace=1), "abc123")
        per_layer = entry["workloads"]["fig17"]["per_layer"]
        assert per_layer["analysis.fixpoint_s"]["median"] == pytest.approx(0.12)
        assert per_layer["ir.instrs"]["median"] == 512

    @pytest.mark.parametrize(
        "setting, value", [("scale", "smoke"), ("seconds", 1), ("trace", 1)]
    )
    def test_mixed_settings_are_refused(self, tmp_path, capsys, setting, value):
        results = two_runs()
        results["runs"][1][setting] = value
        with pytest.raises(ValueError, match=setting):
            entry_from_results(results, "abc123")
        history = tmp_path / "hist.jsonl"
        history.write_text("untouched\n")
        argv = ["perf", "record", write_results(tmp_path, results), "abc123"]
        assert main(argv + ["--history", str(history)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert history.read_text() == "untouched\n"

    @pytest.mark.parametrize("results", [{"runs": []}, {}, []])
    def test_no_runs_are_refused(self, tmp_path, capsys, results):
        history = tmp_path / "hist.jsonl"
        argv = ["perf", "record", write_results(tmp_path, results), "abc123"]
        assert main(argv + ["--history", str(history)]) == 2
        assert "no runs" in capsys.readouterr().err
        assert not history.exists()

    def test_missing_results_file_is_refused(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        argv = ["perf", "record", str(tmp_path / "absent.json"), "abc123"]
        assert main(argv + ["--history", str(history)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not history.exists()


class TestLedgerEntries:
    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        entry = entry_from_results(two_runs(), "abc123")
        append_entry(path, entry)
        append_entry(path, entry)
        loaded = load_history(path)
        assert loaded == [entry, entry]

    def test_load_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        good = json.dumps(entry_from_results(two_runs(), "abc123"))
        path.write_text(f"not json\n{good}\n[1,2]\n\n")
        assert len(load_history(str(path))) == 1

    def test_load_skips_version_1_entries(self, tmp_path):
        path = tmp_path / "h.jsonl"
        old = {"v": 1, "at": 0.0, "config_key": "0123", "benchmarks": {}}
        good = entry_from_results(two_runs(), "abc123")
        path.write_text(f"{json.dumps(old)}\n{json.dumps(good)}\n")
        assert load_history(str(path)) == [good]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "absent.jsonl")) == []


class TestLedgerReports:
    def test_list_renders_rows(self):
        recorded = entries("rev0cafe", "0123456789abcdef0123456789abcdef01234567-dirty")
        recorded[1]["note"] = "second"
        text = render_history_list(recorded)
        assert "rev0cafe" in text and "0123456789ab-dirty" in text
        assert "2 run(s), seeds 1 2, full, 20s, trace 0" in text
        assert "fig17" in text and "(second)" in text

    def test_list_empty_message(self):
        assert render_history_list([]) == EMPTY

    def test_resolve_rev_by_index_and_prefix(self):
        recorded = entries("rev0cafe", "rev1cafe", "rev2cafe")
        assert resolve_rev(recorded, "0") is recorded[0]
        assert resolve_rev(recorded, "-1") is recorded[-1]
        assert resolve_rev(recorded, "rev1") is recorded[1]
        with pytest.raises(ValueError):
            resolve_rev(recorded, "nosuchrev")
        with pytest.raises(ValueError):
            resolve_rev(recorded, "99")
        with pytest.raises(ValueError):
            resolve_rev([], "0")

    def test_resolve_rev_prefix_picks_latest(self):
        recorded = entries("rev0cafe", "rev1cafe", "rev0cafe-dirty")
        assert resolve_rev(recorded, "rev0") is recorded[2]

    def test_diff_reports_medians_spreads_and_exact_changes(self):
        base, diff = entries("base", "diff")
        text = render_entry_diff(base, diff)
        # throughput: medians 12 -> 13, quartiles 9..15 -> 10..16.
        row = next(line for line in text.splitlines() if "throughput_ops_s" in line)
        assert row.split() == [
            "fig17", "throughput_ops_s", "12", "13", "+8.33%", "50.00%", "46.15%"
        ]
        assert "exact metrics: no difference for any seed" in text
        assert "perf/compare.py" in text
        assert "REGRESSED" not in text and "improved" not in text
        assert "1 of 40" not in text and "2 of 80 operations failed" in text

        diff["workloads"]["fig17"]["exact"]["code_bytes"] = [4096, 5000]
        text = render_entry_diff(base, diff)
        assert "exact metrics differ:" in text
        assert "fig17 code_bytes seed 2: 4096 != 5000" in text

    def test_diff_notes_different_settings(self):
        base = entries("base")[0]
        smoke = entry_from_results(two_runs(scale="smoke"), "smoke")
        assert "differ in scale, seconds or trace" in render_entry_diff(base, smoke)

    def test_diff_handles_missing_pairs(self):
        base = entries("base")[0]
        other = copy.deepcopy(base)
        other["workloads"]["compile"] = other["workloads"].pop("fig17")
        text = render_entry_diff(base, other)
        assert "missing from diff" in text and "missing from base" in text

    def test_sparkline_spans_shades(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0]) == "▁▁"

    def test_metric_series_and_trend(self):
        recorded = entries("a", "b", "c")
        assert metric_series(recorded, "fig17", "throughput_ops_s") == [12.0, 13.0, 14.0]
        assert metric_series(recorded, "fig17", "latency_p99_ms") == [87.5] * 3
        text = render_trend(recorded, "throughput_ops_s")
        assert "fig17" in text and "▁" in text and "█" in text
        assert "latest 14" in text

    def test_trend_reads_per_layer_metrics(self):
        traced = entry_from_results(two_runs(trace=1), "traced")
        assert metric_series([traced], "fig17", "ir.instrs") == [512]

    def test_trend_unknown_metric_mentions_options(self):
        text = render_trend(entries("a"), "bogus")
        assert "no data" in text and "throughput_ops_s" in text

    def test_trend_empty_history(self):
        assert render_trend([], "throughput_ops_s") == EMPTY


class TestBenchCLI:
    @pytest.fixture(autouse=True)
    def _tiny_suite(self, monkeypatch):
        """Point the CLI's performance suite at the tiny benchmark."""
        monkeypatch.setattr("repro.bench.harness.PERFORMANCE_PROGRAMS", {"tiny": TINY})

    def test_bench_figure17_writes_no_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--figure", "17"]) == 0
        out = capsys.readouterr().out
        assert "Figure 17" in out and "tiny" in out
        assert list(tmp_path.iterdir()) == []

    def test_perf_record_and_reports(self, tmp_path, capsys):
        history = str(tmp_path / "hist.jsonl")
        results = write_results(tmp_path, two_runs())
        for rev in ("aaaa111", "bbbb222-dirty"):
            argv = ["perf", "record", results, rev, "--note", "test"]
            assert main(argv + ["--history", history]) == 0
        assert "recorded ledger entry #1 (bbbb222-dirty)" in capsys.readouterr().out
        assert [e["rev"] for e in load_history(history)] == ["aaaa111", "bbbb222-dirty"]
        assert main(["perf", "list", "--history", history]) == 0
        out = capsys.readouterr().out
        assert "recorded at" in out and "bbbb222-dirty" in out
        assert main(["perf", "diff", "aaaa", "bbbb", "--history", history]) == 0
        out = capsys.readouterr().out
        assert "perf diff" in out and "latency_p99_ms" in out
        assert main(["perf", "trend", "throughput_ops_s", "--history", history]) == 0
        assert "fig17" in capsys.readouterr().out

    def test_perf_diff_bad_rev_fails_cleanly(self, tmp_path, capsys):
        history = str(tmp_path / "hist.jsonl")
        assert main(["perf", "diff", "0", "1", "--history", history]) == 2
        assert "empty" in capsys.readouterr().err
        append_entry(history, entries("aaaa111")[0])
        assert main(["perf", "diff", "0", "cccc", "--history", history]) == 2
        assert "no ledger entry with revision prefix 'cccc'" in capsys.readouterr().err

    def test_perf_list_empty_ledger(self, tmp_path, capsys):
        history = str(tmp_path / "hist.jsonl")
        assert main(["perf", "list", "--history", history]) == 0
        assert capsys.readouterr().out.strip() == EMPTY
