"""Deciding whether (and how) to compress on a bandwidth-constrained edge device.

The paper's motivating scenario is an edge client (autonomous vehicle,
Raspberry-Pi-class gateway) that must upload a model update over a slow,
variable wide-area link.  This example walks through the decision procedure the
paper formalizes, then drives it end to end on a simulated heterogeneous fleet:

1. profile the candidate error-bounded compressors on the actual update
   (Problem 1, Eqn. 2),
2. evaluate Eqn. (1) over a range of bandwidths to find where compression stops
   paying off (Figure 8's crossover),
3. print a recommendation per bandwidth,
4. run one federated round over an 8-client fleet whose uplinks span two
   orders of magnitude, with the ``profiled`` plan policy resolving each
   client's per-tensor plan against *its own* link — the slow clients ship
   aggressively-compressed updates while the fast ones fall back to the
   lossless ``verbatim`` tier, all in the same round.

Run with::

    python examples/edge_bandwidth_planning.py [--model resnet50]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import (
    DeviceProfile,
    FedSZConfig,
    NetworkModel,
    communication_time,
    compression_is_worthwhile,
    crossover_bandwidth,
    make_client_networks,
    select_compressor,
)
from repro.core.plan import PLAN_PROVENANCE_KEY
from repro.data import make_dataset, train_test_split
from repro.fl import FederatedSimulation, FedSZUpdateCodec
from repro.nn import build_model
from repro.utils.timer import format_bytes, format_seconds

BANDWIDTHS = (1, 10, 50, 100, 500, 1000, 10_000)
FLEET_SIZE = 8


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="resnet50", help="model whose update is being shipped")
    parser.add_argument("--bound", type=float, default=1e-2, help="relative error bound")
    parser.add_argument("--base-bandwidth", type=float, default=50.0,
                        help="median fleet uplink in Mbps")
    parser.add_argument("--bandwidth-spread", type=float, default=30.0,
                        help="fleet heterogeneity: uplinks span "
                             "[base/spread, base*spread]")
    return parser.parse_args()


def fleet_round(args: argparse.Namespace) -> None:
    """One federated round with per-link profiled plans on an 8-client fleet."""
    dataset = make_dataset("cifar10", n_samples=480, image_size=16, seed=7)
    train, test = train_test_split(dataset, test_fraction=0.25, seed=3)

    def factory():
        return build_model("simplecnn", num_classes=10, in_channels=3,
                           image_size=16, seed=0)

    networks = make_client_networks(FLEET_SIZE,
                                    base=NetworkModel(bandwidth_mbps=args.base_bandwidth),
                                    bandwidth_spread=args.bandwidth_spread, seed=11)
    config = FedSZConfig(error_bound=args.bound, policy="profiled",
                         policy_options={"bandwidth_mbps": args.base_bandwidth,
                                         "max_bound": args.bound})
    sim = FederatedSimulation(factory, train, test, n_clients=FLEET_SIZE,
                              codec=FedSZUpdateCodec(config), networks=networks,
                              lr=0.15, seed=5)
    record = sim.run_round(0)

    print(f"  {'client':>6}  {'uplink':>12}  {'plan (codec mix)':<24}  "
          f"{'ratio':>7}  {'modeled':>9}  {'raw':>9}")
    for cid in record.participants:
        report = record.client_reports[cid]
        plan = report.plan
        counts: dict[str, int] = {}
        modeled = raw = 0.0
        for entry in plan:
            counts[entry.codec] = counts.get(entry.codec, 0) + 1
            provenance = entry.options[PLAN_PROVENANCE_KEY]
            modeled += provenance["modeled_seconds"]
            raw += provenance["uncompressed_seconds"]
        mix = " + ".join(f"{n}x{codec}" for codec, n in sorted(counts.items()))
        print(f"  {cid:>6}  {networks[cid].bandwidth_mbps:>8.1f} Mbps  {mix:<24}  "
              f"{report.ratio:>6.2f}x  {format_seconds(modeled):>9}  "
              f"{format_seconds(raw):>9}")
    distinct = {tuple((e.codec, e.error_bound)
                      for e in record.client_reports[cid].plan)
                for cid in record.participants}
    print(f"  -> {len(distinct)} distinct plans across {len(record.participants)} "
          f"clients; round accuracy {record.accuracy:.2%}, "
          f"{format_bytes(record.transmitted_bytes)} uploaded "
          f"({record.compression_ratio:.2f}x vs raw)")


def main() -> None:
    args = parse_args()
    model = build_model(args.model, num_classes=10, in_channels=3, image_size=32)
    state = model.state_dict()
    weights = np.concatenate([v.ravel() for k, v in state.items()
                              if "weight" in k and v.size > 1024])
    pi5 = DeviceProfile()

    print(f"update: {args.model}, {format_bytes(weights.nbytes)} of lossy-compressible weights\n")

    print("step 1 - profile the candidate compressors (Problem 1):")
    best, grid = select_compressor(weights, candidates=("sz2", "sz3", "szx", "zfp"),
                                   error_bounds=(args.bound,), bandwidth_mbps=10.0,
                                   device=pi5)
    for entry in grid:
        print(f"  {entry.compressor:4s}  ratio {entry.ratio:6.2f}x  "
              f"compress {format_seconds(entry.compress_seconds)}  "
              f"decompress {format_seconds(entry.decompress_seconds)}  "
              f"feasible={entry.feasible}")
    print(f"  -> selected: {best.compressor} (ratio {best.ratio:.2f}x; timings "
          f"already {pi5.name}-scaled)\n")

    compressed_bytes = weights.nbytes / best.ratio
    overhead = best.compress_seconds + best.decompress_seconds
    crossover = crossover_bandwidth(overhead, 0.0, weights.nbytes, compressed_bytes)
    print(f"step 2 - Eqn. (1) crossover with Pi-5-scaled overhead: {crossover:,.0f} Mbps\n")

    print("step 3 - recommendation per uplink bandwidth:")
    for bandwidth in BANDWIDTHS:
        plain = communication_time(weights.nbytes, bandwidth)
        with_fedsz = overhead + communication_time(compressed_bytes, bandwidth)
        decision = "compress with FedSZ" if compression_is_worthwhile(
            overhead, 0.0, weights.nbytes, compressed_bytes, bandwidth) else "send uncompressed"
        print(f"  {bandwidth:>6,} Mbps: raw {format_seconds(plain):>9}  "
              f"FedSZ {format_seconds(with_fedsz):>9}  ->  {decision}")

    print(f"\nstep 4 - one round over a heterogeneous {FLEET_SIZE}-client fleet "
          f"(profiled policy, per-link plans):")
    fleet_round(args)


if __name__ == "__main__":
    main()
