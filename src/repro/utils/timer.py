"""Human-readable formatting of byte counts and durations."""

from __future__ import annotations

__all__ = ["format_bytes", "format_seconds"]


def format_bytes(num_bytes: float) -> str:
    """Render a byte count as a short human-readable string (e.g. ``'1.5 MB'``)."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            return f"{value:.2f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.2f} TB"


def format_seconds(seconds: float) -> str:
    """Render a duration with a unit that keeps 2-4 significant digits."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    return f"{seconds / 60.0:.2f} min"
