"""Network transfer model and the compression-benefit criterion (Eqn. 1).

The paper's decision rule: compression pays off when
``t_C + t_D + S'/B_N < S/B_N`` — the time to compress, decompress, and ship the
smaller payload must beat shipping the original.  :func:`crossover_bandwidth`
solves the equality for ``B_N``, reproducing Figure 8's ~500 Mbps crossover.

:class:`DeviceProfile` translates compression timings measured on the host CPU
into the edge-device (Raspberry Pi 5 class) timings Table I reports, and
:class:`NetworkModel` turns payload sizes into transfer times for the simulated
bandwidths of Figures 7-9 (optionally sleeping, mirroring the paper's
MPI-delay-injection methodology).

For multi-client rounds, :func:`make_client_networks` builds a heterogeneous
fleet of links (distinct bandwidth/latency per client) and
:func:`round_communication_time` combines the per-client transfer durations
into a round total under either uplink discipline: ``"serial"`` (clients share
the uplink one after another — the sum) or ``"parallel"`` (independent links,
the round waits for the slowest client — the max).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

__all__ = [
    "communication_time",
    "compression_is_worthwhile",
    "crossover_bandwidth",
    "end_to_end_seconds",
    "round_communication_time",
    "make_client_networks",
    "NetworkModel",
    "DeviceProfile",
]

#: Valid uplink disciplines for :func:`round_communication_time`.
UPLINK_MODES = ("serial", "parallel")


def communication_time(size_bytes: float, bandwidth_mbps: float, latency_s: float = 0.0) -> float:
    """Seconds to transfer ``size_bytes`` over a link of ``bandwidth_mbps`` (megabits/s)."""
    if bandwidth_mbps <= 0:
        raise ValueError("bandwidth must be positive")
    if size_bytes < 0:
        raise ValueError("size must be non-negative")
    return latency_s + (size_bytes * 8.0) / (bandwidth_mbps * 1e6)


def end_to_end_seconds(compress_s: float, decompress_s: float, payload_bytes: float,
                       bandwidth_mbps: float, latency_s: float = 0.0) -> float:
    """Left-hand side of Eqn. (1): ``t_C + t_D + S'/B_N`` for one payload.

    The quantity both Problems 1 and 2 minimize; the profiled plan policy
    evaluates it per candidate and per link.  Shipping uncompressed is the
    special case ``compress_s = decompress_s = 0`` with the original size.
    """
    return compress_s + decompress_s + communication_time(payload_bytes, bandwidth_mbps,
                                                          latency_s)


def compression_is_worthwhile(compress_s: float, decompress_s: float, original_bytes: float,
                              compressed_bytes: float, bandwidth_mbps: float,
                              latency_s: float = 0.0) -> bool:
    """Evaluate Eqn. (1): does compressing reduce the end-to-end transfer time?"""
    with_compression = end_to_end_seconds(compress_s, decompress_s, compressed_bytes,
                                          bandwidth_mbps, latency_s)
    without_compression = communication_time(original_bytes, bandwidth_mbps, latency_s)
    return with_compression < without_compression


def crossover_bandwidth(compress_s: float, decompress_s: float, original_bytes: float,
                        compressed_bytes: float) -> float:
    """Bandwidth (Mbps) at which compression stops being worthwhile.

    Below the returned bandwidth compression wins; above it the fixed
    compression cost dominates (Figure 8).  Returns ``inf`` when compression
    costs no time (always worthwhile) and ``0.0`` when it saves no bytes
    (never worthwhile).
    """
    saved_bytes = original_bytes - compressed_bytes
    overhead = compress_s + decompress_s
    # the no-savings check must come first: with zero overhead AND zero
    # savings, compression never helps at any bandwidth, so the crossover is
    # 0.0, not inf (inf would claim "always worthwhile" for a useless codec)
    if saved_bytes <= 0:
        return 0.0
    if overhead <= 0:
        return float("inf")
    return (saved_bytes * 8.0) / (overhead * 1e6)


def round_communication_time(durations: Iterable[float], uplink: str = "serial") -> float:
    """Combine per-client transfer durations into one round communication time.

    ``"serial"`` models clients taking turns on a shared uplink (the original
    simulator semantics): the total is the sum.  ``"parallel"`` models each
    client uploading simultaneously over its own link, so the round finishes
    when the slowest client does: the total is the max.
    """
    if uplink not in UPLINK_MODES:
        raise ValueError(f"uplink must be one of {UPLINK_MODES}, got {uplink!r}")
    durations = [float(d) for d in durations]
    if not durations:
        return 0.0
    return sum(durations) if uplink == "serial" else max(durations)


def make_client_networks(n_clients: int, base: "NetworkModel | None" = None,
                         bandwidth_spread: float = 1.0, latency_spread_s: float = 0.0,
                         seed: int | None = 0) -> "list[NetworkModel]":
    """Build a heterogeneous per-client fleet of :class:`NetworkModel` links.

    Each client's bandwidth is drawn log-uniformly from
    ``[base / bandwidth_spread, base * bandwidth_spread]`` and its latency
    uniformly from ``[base_latency, base_latency + latency_spread_s]``, so a
    spread of 1.0 and zero latency spread reproduce ``n_clients`` identical
    copies of ``base``.  The draw is seeded and therefore reproducible.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if bandwidth_spread < 1.0:
        raise ValueError("bandwidth_spread must be >= 1.0")
    if latency_spread_s < 0.0:
        raise ValueError("latency_spread_s must be non-negative")
    base = base or NetworkModel()
    rng = np.random.default_rng(seed)
    networks: list[NetworkModel] = []
    for _ in range(n_clients):
        bandwidth = base.bandwidth_mbps
        if bandwidth_spread > 1.0:
            bandwidth *= float(bandwidth_spread ** rng.uniform(-1.0, 1.0))
        latency = base.latency_s
        if latency_spread_s > 0.0:
            latency += float(rng.uniform(0.0, latency_spread_s))
        networks.append(replace(base, bandwidth_mbps=bandwidth, latency_s=latency))
    return networks


@dataclass(frozen=True)
class DeviceProfile:
    """Scales host-measured compute times to a target edge device.

    ``compute_factor`` is the ratio (target device time) / (host time); the
    default of 3.0 approximates a Raspberry Pi 5 relative to a workstation-class
    x86 core for NumPy-heavy workloads.  Used when reporting Table I-style edge
    timings from host measurements (the substitution is recorded in DESIGN.md).
    """

    name: str = "raspberry-pi-5"
    compute_factor: float = 3.0

    def scale(self, host_seconds: float) -> float:
        """Translate a host-measured duration to the profiled device."""
        return host_seconds * self.compute_factor


@dataclass
class NetworkModel:
    """A point-to-point link with fixed bandwidth and latency.

    ``simulate_delay=True`` reproduces the paper's methodology of injecting
    real sleeps proportional to the payload size into the communication path;
    with the default ``False`` the transfer time is returned analytically,
    which keeps the benchmark suite fast while producing identical numbers.
    """

    bandwidth_mbps: float = 10.0
    latency_s: float = 0.0
    simulate_delay: bool = False

    def transfer_time(self, size_bytes: float) -> float:
        """Seconds needed to move ``size_bytes`` across the link."""
        return communication_time(size_bytes, self.bandwidth_mbps, self.latency_s)

    def transfer(self, size_bytes: float) -> float:
        """Model one transfer; sleeps for the transfer time when simulating."""
        duration = self.transfer_time(size_bytes)
        if self.simulate_delay:
            time.sleep(duration)
        return duration
