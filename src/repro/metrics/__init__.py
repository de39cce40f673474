"""Result containers and figure-style reporting."""

from .report import (
    Report,
    bar_chart,
    breakdown_table,
    comparison_table,
    latency_table,
    performance_bars,
    performance_table,
    reliability_table,
    render_table,
)
from .results import BenchmarkResult, CaseResult
from .sampling import BusyTracker, QuantileEstimator, TimeWeighted
from ..obs.export import (benchmark_result_rows, benchmark_result_to_csv,
                          rows_to_csv)

__all__ = [
    "BenchmarkResult",
    "CaseResult",
    "Report",
    "BusyTracker",
    "QuantileEstimator",
    "benchmark_result_rows",
    "benchmark_result_to_csv",
    "rows_to_csv",
    "TimeWeighted",
    "bar_chart",
    "breakdown_table",
    "comparison_table",
    "latency_table",
    "performance_bars",
    "performance_table",
    "reliability_table",
    "render_table",
]
