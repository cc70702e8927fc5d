"""Result containers and plain-text table rendering used by the benchmark harness."""

from repro.metrics.tables import Table, format_bound, format_ratio, format_seconds_cell
from repro.metrics.records import ExperimentRecord

__all__ = [
    "Table",
    "format_bound",
    "format_ratio",
    "format_seconds_cell",
    "ExperimentRecord",
]
