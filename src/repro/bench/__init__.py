"""The paper's benchmark suite and the Figure 14-17 regeneration harness."""

from .figures import FigureData, all_figures, field_counts, figure14, figure15, figure16, figure17
from .harness import (
    BENCHMARKS,
    BUILDS,
    BenchmarkRun,
    BuildResult,
    PERFORMANCE_PROGRAMS,
    run_all,
    run_benchmark,
    run_named,
    run_performance_suite,
)
from .metadata import BenchmarkInfo, FieldCounts
from .report import generate_report, write_report

__all__ = [
    "all_figures",
    "BenchmarkInfo",
    "BenchmarkRun",
    "BENCHMARKS",
    "BuildResult",
    "BUILDS",
    "field_counts",
    "FieldCounts",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "FigureData",
    "PERFORMANCE_PROGRAMS",
    "run_all",
    "run_benchmark",
    "run_named",
    "run_performance_suite",
    "generate_report",
    "write_report",
]
