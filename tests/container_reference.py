"""Decode a lossy payload the way a shipped update is decoded.

:func:`container_decoder` wraps one codec payload as the lossy tensor of a
FedSZ container built with the default configuration, so the payload goes
through the container's reader, its codec-tag and plan checks and a decoder
configured by the container (not by the test), and any ``ValueError`` the
codec raises must reach the caller with the codec's message.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.compressors import LossyCompressor
from repro.core.config import FedSZConfig
from repro.core.pipeline import FedSZCompressor
from repro.utils.serialization import pack_bytes_dict, unpack_bytes_dict

_NAME = "w.weight"


def container_decoder(codec: str, payload: bytes,
                      reference: "np.ndarray | None" = None) -> Callable[[], np.ndarray]:
    """A call that decodes ``payload`` (a ``codec`` payload whose header is
    intact) as the one lossy tensor of a FedSZ container, against
    ``reference`` when one is given.

    The container is built up front, so a traced call measures the decode
    alone.  A container keeps empty tensors in its lossless partition, so
    the payload must declare at least one element.
    """
    dtype, shape, *_ = LossyCompressor._parse_container_header(payload)
    fedsz = FedSZCompressor(FedSZConfig(lossy_compressor=codec, threshold=0))
    entries = unpack_bytes_dict(fedsz.compress_state_dict({_NAME: np.ones(shape, dtype)}))
    tagged = entries[f"lossy::{_NAME}"]
    entries[f"lossy::{_NAME}"] = tagged[:1 + tagged[0]] + payload
    container = pack_bytes_dict(entries)
    state = None if reference is None else {_NAME: reference}
    return lambda: fedsz.decompress_state_dict(container, state)[_NAME]
