"""FedSZ core: the paper's primary contribution.

The core package implements Algorithm 1 and Figure 1 of the paper:

1. :mod:`repro.core.partition` — split a model ``state_dict`` into the large
   weight tensors (lossy-compressible) and the remaining metadata
   (lossless-only),
2. :mod:`repro.core.plan` — per-tensor compression plans and the two plan
   policies that decide each lossy tensor's codec and bound: ``uniform``
   (Algorithm 1) and ``profiled`` (Problems 1 and 2),
3. :mod:`repro.core.pipeline` — the plan-driven FedSZ pipeline producing a
   single self-describing (version-7) bitstream per client update,
4. :mod:`repro.core.network` — the bandwidth/benefit model of Eqn. (1),
5. :mod:`repro.core.profiling` — the measured-candidate profiling subsystem
   (sampled roundtrips, cached :class:`TensorProfile`\\ s, Pareto frontier)
   behind the ``profiled`` plan policy,
6. :mod:`repro.core.selection` — the compressor- and error-bound-selection
   optimizers of Problems (2) and (3), now thin wrappers over the profiler.
"""

from repro.core.config import FedSZConfig
from repro.core.plan import (
    PLAN_PROVENANCE_KEY,
    CompressionPlan,
    CompressionPolicy,
    TensorPlan,
    UniformPolicy,
    available_policies,
    get_policy,
)
from repro.core.network import (
    DeviceProfile,
    NetworkModel,
    communication_time,
    compression_is_worthwhile,
    crossover_bandwidth,
    end_to_end_seconds,
    make_client_networks,
    round_communication_time,
)
from repro.core.profiling import (
    AnalyticCostModel,
    CandidateMeasurement,
    CodecProfiler,
    CostModel,
    ProfiledPolicy,
    TensorProfile,
)
from repro.core.partition import (
    PartitionedState,
    lossy_fraction,
    partition_state_dict,
)
from repro.core.pipeline import FedSZCompressor, FedSZReport
from repro.core.selection import (
    CandidateEvaluation,
    select_compressor,
    select_error_bound,
)

__all__ = [
    "FedSZConfig",
    "FedSZCompressor",
    "FedSZReport",
    "TensorPlan",
    "CompressionPlan",
    "CompressionPolicy",
    "UniformPolicy",
    "available_policies",
    "get_policy",
    "PartitionedState",
    "partition_state_dict",
    "lossy_fraction",
    "NetworkModel",
    "DeviceProfile",
    "communication_time",
    "compression_is_worthwhile",
    "crossover_bandwidth",
    "end_to_end_seconds",
    "make_client_networks",
    "round_communication_time",
    "PLAN_PROVENANCE_KEY",
    "AnalyticCostModel",
    "CandidateMeasurement",
    "CodecProfiler",
    "CostModel",
    "ProfiledPolicy",
    "TensorProfile",
    "CandidateEvaluation",
    "select_compressor",
    "select_error_bound",
]
