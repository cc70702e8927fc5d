"""Tests for the table rendering and result-record helpers."""

import json

import pytest

from repro.compressors import CompressionStats
from repro.metrics import (
    ExperimentRecord,
    Table,
    format_bound,
    format_ratio,
    format_seconds_cell,
)


class TestTable:
    def test_render_contains_all_cells(self):
        table = Table("Demo", ["model", "ratio"])
        table.add_row("alexnet", "12.61x")
        table.add_row("resnet50", "7.02x")
        text = table.render()
        assert "Demo" in text
        assert "alexnet" in text and "12.61x" in text
        assert "resnet50" in text

    def test_columns_aligned(self):
        table = Table("T", ["a", "b"])
        table.add_row("short", "x")
        table.add_row("a-much-longer-cell", "y")
        lines = table.render().splitlines()
        # the two data rows must have 'x'/'y' in the same column
        assert lines[-2].index("x") == lines[-1].index("y")

    def test_wrong_cell_count_raises(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_print_does_not_crash(self, capsys):
        table = Table("T", ["a"])
        table.add_row(1)
        table.print()
        assert "T" in capsys.readouterr().out


class TestFormatting:
    def test_format_bound(self):
        assert format_bound(1e-2) == "1e-02"
        assert format_bound(1e-4) == "1e-04"

    def test_format_ratio(self):
        assert format_ratio(12.614) == "12.61x"

    def test_format_seconds_cell(self):
        assert format_seconds_cell(5e-5).endswith("us")
        assert format_seconds_cell(0.004).endswith("ms")
        assert format_seconds_cell(3.5).endswith("s")


class TestRecords:
    def test_experiment_record_json(self):
        record = ExperimentRecord("table1", "EBLC comparison")
        record.add(model="alexnet", compressor="sz2", ratio=11.2)
        payload = json.loads(record.to_json())
        assert payload["experiment"] == "table1"
        assert payload["rows"][0]["model"] == "alexnet"

    def test_experiment_record_serializes_dataclasses(self):
        record = ExperimentRecord("table1", "demo")
        record.add(stats=CompressionStats(4000, 2000, 0.1, 0.1, 1e-4))
        payload = json.loads(record.to_json())
        assert payload["rows"][0]["stats"] == {
            "original_bytes": 4000, "compressed_bytes": 2000,
            "compress_seconds": 0.1, "decompress_seconds": 0.1,
            "max_abs_error": 1e-4}
