"""Configuration of the FedSZ pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compressors.base import ErrorBoundMode

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
    * ``policy`` / ``policy_options`` — registry name and constructor kwargs
      of the plan policy (:mod:`repro.core.plan`) that assigns each lossy
      tensor its codec and bound: ``"uniform"`` is Algorithm 1's one codec
      and one bound, ``"profiled"`` measures the candidates per link
      (Problems 1 and 2, Section IV),
    * ``pipeline_workers`` — per-tensor compress/decompress concurrency of the
      state-dict pipeline (and of the ``profiled`` policy's candidate grid):
      ``1`` is the strictly sequential reference path on the calling thread,
      larger values fan tensors out over the :mod:`repro.utils.parallel`
      thread pool (bit-identical bitstreams at any worker count).  The
      effective count is clamped to the host's cores — tensor compression
      is pure CPU work, so extra threads are strict oversubscription.
    """

    lossy_compressor: str = "sz2"
    error_bound: float = 1e-2
    error_mode: ErrorBoundMode = ErrorBoundMode.REL
    lossless_codec: str = "blosclz"
    threshold: int = 1024
    lossy_name_tokens: tuple[str, ...] = ("weight",)
    policy: str = "uniform"
    pipeline_workers: int = 1
    policy_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.error_bound <= 0:
            raise ValueError("error_bound must be positive")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.pipeline_workers < 1:
            raise ValueError("pipeline_workers must be >= 1")
        if isinstance(self.error_mode, str):
            self.error_mode = ErrorBoundMode(self.error_mode)

    def replace(self, **changes: object) -> "FedSZConfig":
        """Return a copy of the config with ``changes`` applied."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)
