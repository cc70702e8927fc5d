"""Update codecs: how a client ``state_dict`` becomes bytes on the wire.

FedSZ is a "last step" in the communication pipeline (Section III-C of the
paper): any serialization scheme can sit behind the same interface.  Two
codecs are provided — :class:`RawUpdateCodec` (the uncompressed baseline, a
plain packed-array serialization standing in for pickled tensors) and
:class:`FedSZUpdateCodec` (the paper's contribution).
"""

from __future__ import annotations

import abc
from collections import OrderedDict

import numpy as np

from repro.core.config import FedSZConfig
from repro.core.network import NetworkModel
from repro.core.pipeline import FedSZCompressor, FedSZReport
from repro.core.plan import CompressionPolicy
from repro.utils.serialization import pack_arrays, unpack_arrays

__all__ = ["UpdateCodec", "RawUpdateCodec", "FedSZUpdateCodec"]


class UpdateCodec(abc.ABC):
    """Serialize/deserialize a model state dict for transmission."""

    name: str = "base"

    @abc.abstractmethod
    def encode(self, state: dict[str, np.ndarray]) -> bytes:
        """Turn a state dict into wire bytes."""

    @abc.abstractmethod
    def decode(self, payload: bytes) -> "OrderedDict[str, np.ndarray]":
        """Recover a state dict from wire bytes."""

    def encode_with_report(self, state: dict[str, np.ndarray]) \
            -> tuple[bytes, "FedSZReport | None"]:
        """Encode plus per-call compression statistics (``None`` when the
        codec collects none).  Safe to call from concurrent round workers —
        codecs that compress override this to return a fresh report instead of
        mutating shared state."""
        return self.encode(state), None

    def for_network(self, network: NetworkModel) -> "UpdateCodec":
        """Resolve this codec against one client's link.

        Bandwidth-aware codecs (FedSZ under the ``profiled`` plan policy)
        return a per-link variant so a heterogeneous fleet compresses each
        update for *its own* uplink; everything else returns ``self``
        unchanged.  The round engine calls this once per client.
        """
        return self

    @property
    def profiler(self) -> "object | None":
        """The :class:`~repro.core.profiling.CodecProfiler` behind this codec's
        plan policy, or ``None`` when plans are not profiler-driven.  The
        coordinator reads its cache counters into each ``RoundRecord``."""
        return None


class RawUpdateCodec(UpdateCodec):
    """Uncompressed baseline: packed float32 tensors, no reduction."""

    name = "uncompressed"

    def encode(self, state: dict[str, np.ndarray]) -> bytes:
        return pack_arrays(dict(state))

    def decode(self, payload: bytes) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict(unpack_arrays(payload))


class FedSZUpdateCodec(UpdateCodec):
    """FedSZ compression of client updates (the paper's scheme).

    ``policy`` (an instance or registry name) overrides the plan policy the
    config names — the hook :meth:`for_network` uses to hand each client of a
    heterogeneous fleet a per-link variant of a bandwidth-aware policy.
    """

    name = "fedsz"

    def __init__(self, config: FedSZConfig | None = None,
                 policy: "CompressionPolicy | str | None" = None) -> None:
        self.config = config or FedSZConfig()
        self.compressor = FedSZCompressor(self.config, policy=policy)

    def for_network(self, network: NetworkModel) -> "FedSZUpdateCodec":
        """A codec whose plan policy is resolved against ``network``.

        Returns ``self`` when the policy is link-agnostic (every policy except
        ``profiled``); otherwise a new codec sharing this one's config and the
        policy's profiler cache, so each distinct update is profiled once and
        re-planned per link.
        """
        resolved = self.compressor.policy.for_network(network)
        if resolved is self.compressor.policy:
            return self
        return FedSZUpdateCodec(self.config, policy=resolved)

    def encode(self, state: dict[str, np.ndarray]) -> bytes:
        return self.compressor.compress_state_dict(state)

    def decode(self, payload: bytes, reference: "dict[str, np.ndarray] | None" = None
               ) -> "OrderedDict[str, np.ndarray]":
        """Decode one update; ``reference`` is the state it was encoded
        against, if any (see :meth:`encode_with_report`)."""
        return self.compressor.decompress_state_dict(payload, reference)

    def encode_with_report(self, state: dict[str, np.ndarray],
                           reference: "dict[str, np.ndarray] | None" = None) \
            -> tuple[bytes, FedSZReport]:
        """Encode one update and return its per-call :class:`FedSZReport`.

        ``reference`` is a state the receiver holds too; SZ2 tensors may be
        coded against it, and the payload then decodes only with it.
        """
        return self.compressor.compress_with_report(state, reference)

    @property
    def profiler(self) -> "object | None":
        """The plan policy's shared :class:`CodecProfiler`, if it has one."""
        return getattr(self.compressor.policy, "profiler", None)

    @property
    def last_report(self) -> FedSZReport | None:
        """Compression statistics of the most recent :meth:`encode` call.

        Single-slot convenience: after a parallel round it holds one arbitrary
        client; prefer :meth:`encode_with_report` (or the round record's
        ``client_reports``) for accurate per-client statistics.
        """
        return self.compressor.last_report
