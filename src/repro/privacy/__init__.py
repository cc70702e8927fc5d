"""Compression-error analysis and the differential-privacy connection (Section VII-D)."""

from repro.privacy.dp import epsilon_for_laplace_noise, laplace_mechanism_scale
from repro.privacy.error_analysis import (
    ErrorDistributionFit,
    analyze_error_distribution,
    compression_errors,
)

__all__ = [
    "compression_errors",
    "analyze_error_distribution",
    "ErrorDistributionFit",
    "laplace_mechanism_scale",
    "epsilon_for_laplace_noise",
]
