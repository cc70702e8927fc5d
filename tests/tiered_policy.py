"""A test-local plan policy whose plans mix codecs in one stream.

``profiled`` plans mix codecs too, but which codec each tensor gets depends
on measured profiles and the link.  Container tests need to name the codec
of every tensor up front, so this policy sends tensors below ``cutoff``
elements to ``small_codec`` (at ``small_bound``, default the config's bound)
and every other tensor to the config's codec and bound.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.core import CompressionPlan, CompressionPolicy, TensorPlan


class TieredPolicy(CompressionPolicy):
    name = "tiered-test"

    def __init__(self, small_codec: str = "szx", cutoff: int = 1 << 16,
                 small_bound: "float | None" = None) -> None:
        self.small_codec = small_codec
        self.cutoff = cutoff
        self.small_bound = small_bound

    def build_plan(self, tensors, config) -> CompressionPlan:
        entries = OrderedDict()
        for name, array in tensors.items():
            if np.asarray(array).size < self.cutoff:
                codec = self.small_codec
                bound = self.small_bound or config.error_bound
            else:
                codec, bound = config.lossy_compressor, config.error_bound
            entries[name] = TensorPlan(name, codec, bound, config.error_mode)
        return CompressionPlan(entries)
