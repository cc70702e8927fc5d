"""Tests for the formatting helpers and RNG construction."""

import numpy as np
import pytest

from repro.utils.rng import make_rng
from repro.utils.timer import format_bytes, format_seconds


class TestFormatting:
    @pytest.mark.parametrize("value,expected_unit", [
        (100, "B"), (2048, "KB"), (5 * 1024**2, "MB"), (3 * 1024**3, "GB"),
    ])
    def test_format_bytes_units(self, value, expected_unit):
        assert expected_unit in format_bytes(value)

    @pytest.mark.parametrize("value,expected_unit", [
        (5e-5, "us"), (0.02, "ms"), (3.0, "s"), (300.0, "min"),
    ])
    def test_format_seconds_units(self, value, expected_unit):
        out = format_seconds(value)
        assert out.endswith(expected_unit)


class TestRng:
    def test_make_rng_deterministic(self):
        a = make_rng(5).standard_normal(10)
        b = make_rng(5).standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen
