"""Configuration of the FedSZ pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compressors.base import ErrorBoundMode
from repro.utils.parallel import get_backend

__all__ = ["FedSZConfig"]


@dataclass
class FedSZConfig:
    """User-facing knobs of the FedSZ compression scheme.

    Parameters mirror Algorithm 1 and Section V of the paper:

    * ``lossy_compressor`` — registry name of the EBLC applied to large weight
      tensors (``"sz2"`` is the paper's recommendation),
    * ``error_bound`` / ``error_mode`` — the per-element bound; the paper's
      recommended operating point is a relative bound of ``1e-2``,
    * ``lossless_codec`` — codec for metadata and non-weight tensors
      (``"blosclz"`` is the paper's recommendation),
    * ``threshold`` — minimum element count for a ``weight`` tensor to be
      lossy-compressed (Algorithm 1's ``threshold`` argument); smaller tensors
      are cheaper to ship losslessly than to compress,
    * ``lossy_name_tokens`` — substrings of the state-dict key that mark a
      tensor as a candidate for lossy compression (Algorithm 1 checks for
      ``"weight"``),
    * ``entropy_chunk`` / ``entropy_workers`` — chunking and decode
      concurrency of the SZ2/SZ3 Huffman entropy stage: ``entropy_chunk``
      caps the symbols per independently-decodable chunk, ``entropy_workers=1``
      decodes in-thread as one vectorized band, larger values split the
      chunks into bands on the execution backend (bit-identical output),
    * ``policy`` / ``policy_options`` — registry name and constructor kwargs
      of the plan policy (:mod:`repro.core.plan`) that assigns each lossy
      tensor its codec/bound/options; ``"uniform"`` reproduces the historic
      one-codec-one-bound behaviour, ``"size-adaptive"`` shrinks bounds on
      small tensors, ``"mixed-codec"`` routes small tensors to a fast codec,
    * ``pipeline_workers`` — per-tensor compress/decompress concurrency of the
      state-dict pipeline: ``1`` is the strictly sequential reference path,
      larger values fan tensors out over the execution backend (bit-identical
      bitstreams at any worker count).  On the GIL-bound ``thread`` backend
      the effective count is clamped to the host's cores — tensor compression
      is pure CPU work, so extra threads are strict oversubscription,
    * ``backend`` — the :mod:`repro.utils.parallel` execution backend both
      fan-out stages (per-tensor pipeline, Huffman entropy decode) run on:
      ``"serial"`` (sequential reference), ``"thread"`` (the historic
      default), or ``"process"`` (GIL-free, for many-core servers decoding
      large client fleets).  Bitstreams are bit-identical across backends.
    """

    lossy_compressor: str = "sz2"
    error_bound: float = 1e-2
    error_mode: ErrorBoundMode = ErrorBoundMode.REL
    lossless_codec: str = "blosclz"
    threshold: int = 1024
    lossy_name_tokens: tuple[str, ...] = ("weight",)
    entropy_chunk: int = 65536
    entropy_workers: int = 1
    policy: str = "uniform"
    pipeline_workers: int = 1
    backend: str = "thread"
    lossy_options: dict = field(default_factory=dict)
    lossless_options: dict = field(default_factory=dict)
    policy_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.error_bound <= 0:
            raise ValueError("error_bound must be positive")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.entropy_chunk < 1:
            raise ValueError("entropy_chunk must be >= 1")
        if self.entropy_workers < 1:
            raise ValueError("entropy_workers must be >= 1")
        if self.pipeline_workers < 1:
            raise ValueError("pipeline_workers must be >= 1")
        get_backend(self.backend)  # unknown names raise ValueError here
        if isinstance(self.error_mode, str):
            self.error_mode = ErrorBoundMode(self.error_mode)

    def replace(self, **changes: object) -> "FedSZConfig":
        """Return a copy of the config with ``changes`` applied."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)
