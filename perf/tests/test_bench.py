"""Tests of the benchmark itself: ``python -m pytest perf/tests``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
sys.path[:0] = [str(PERF), str(ROOT / "src")]

import corpus  # noqa: E402
import layers  # noqa: E402
import svcload  # noqa: E402
from stats import geomean, median, percentile, quartile_spread  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec[kind]}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "bench.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50
    assert percentile([3, 1, 2], 50) == 2
    assert percentile(list(range(1, 101)), 99) == 99
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartile_spread_and_means():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    # statistics.quantiles (exclusive): q1 2.75, median 5.5, q3 8.25.
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert quartile_spread([4.0, 4.0, 4.0]) == 0.0
    assert median([5, 1, 3]) == 3
    assert geomean([1, 4, 16]) == pytest.approx(4.0)


def test_corpora_are_a_function_of_the_seed():
    assert corpus.corpora(7) == corpus.corpora(7)
    one, two = corpus.corpora(7), corpus.corpora(8)
    for name in ("compile", "service-hot", "service-cold"):
        assert one[name] != two[name]
    assert one["fig17"] == two["fig17"]
    assert len(set(one["compile"])) == len(one["compile"]) == corpus.COMPILE_PROGRAMS + 1
    assert not set(one["service-cold"]) & set(one["service-hot"])


def test_seed_zero_corpora_match_the_frozen_hashes():
    assert corpus.check_frozen() == []


def test_code_and_benchmark_json_declare_the_same_per_layer_metrics():
    assert set(layers.PER_LAYER) == declared("per_layer")
    assert len(layers.PER_LAYER) == len(set(layers.PER_LAYER))


@pytest.fixture(scope="module")
def smoke_runs():
    """An untraced and a traced smoke run of all four workloads."""
    runs = {}
    for trace in ("0", "1"):
        started = time.monotonic()
        result = bench("--scale", "smoke", "--seconds", "1", "--trace", trace)
        runs[trace] = (result, time.monotonic() - started)
    return runs


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_reports_every_declared_metric(smoke_runs, trace, kind):
    result, elapsed = smoke_runs[trace]
    assert result.returncode == 0, result.stderr
    assert elapsed < 90
    lines = result.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] > 0
    printed: dict[str, set[str]] = {}
    for line in lines[:-1]:
        workload, metric, value, unit = line.split()
        assert NAME.fullmatch(metric), metric
        float(value)
        printed.setdefault(workload, set()).add(metric)
    assert set(printed) == {"fig17", "compile", "service-warm", "service-mixed"}
    names = declared(kind)
    for workload, metrics in printed.items():
        assert names <= metrics, names - metrics
        reported = {k.split("/", 1)[1] for k in summary["metrics"] if k.startswith(f"{workload}/")}
        assert reported == names
        assert "failed_ratio" in metrics


def test_traced_smoke_run_attributes_time_to_layers(smoke_runs):
    result, _elapsed = smoke_runs["1"]
    metrics = {k: v["value"] for k, v in json.loads(result.stdout.splitlines()[-1])["metrics"].items()}
    assert metrics["fig17/runtime.run_s"] > 0
    assert metrics["compile/inlining.unspanned_s"] > 0
    assert metrics["service-warm/service.dispatches"] == 0
    assert metrics["service-mixed/service.dispatches"] > 0
    for workload in ("fig17", "compile", "service-warm", "service-mixed"):
        shares = sum(metrics[f"{workload}/share.{layer}"] for layer in layers.LAYERS)
        assert shares == pytest.approx(1.0, abs=0.02)


def test_bench_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    result = bench("--workload", "fig17", "--seconds", "1", cwd=tmp_path)
    assert result.returncode != 0
    assert result.stdout.strip() == ""


def test_a_raising_run_still_stops_the_daemon(tmp_path):
    run_dir = tmp_path / "run"
    with pytest.raises(RuntimeError, match="boom"):
        with svcload.Daemon(str(ROOT), str(run_dir)) as daemon:
            from repro.service import ServiceClient

            with ServiceClient(daemon.socket) as client:
                client.optimize(corpus.generated("test", 0, 1)[0])  # starts a worker
            pids = [daemon.proc.pid] + svcload.descendants(daemon.proc.pid)
            assert len(pids) >= 2
            raise RuntimeError("boom")
    assert not any(svcload.alive(pid) for pid in pids)
    assert list(run_dir.iterdir()) == []
