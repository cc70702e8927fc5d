"""Command-line interface for the FedSZ reproduction.

Three subcommands cover the library's main workflows::

    python -m repro compress --model alexnet --bound 1e-2
        Compress one model update with FedSZ and print ratio / runtime / error.

    python -m repro simulate --model simplecnn --rounds 5 --bound 1e-2
        Run a small FedAvg simulation with and without FedSZ and print the
        per-round accuracy and upload volume.

    python -m repro select --model resnet50 --bandwidth 10
        Profile the candidate EBLCs on the model's weights (Problem 1) and
        print the recommended compressor plus the Eqn.-1 crossover bandwidth.

Every command prints plain text to stdout and returns a process exit code of 0
on success, so the CLI is scriptable from shell pipelines.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core import (
    FedSZCompressor,
    FedSZConfig,
    NetworkModel,
    crossover_bandwidth,
    make_client_networks,
    select_compressor,
)
from repro.data import make_dataset, train_test_split
from repro.fl import FederatedSimulation, FedSZUpdateCodec, RawUpdateCodec
from repro.nn import available_models, build_model, count_parameters
from repro.utils.parallel import POOL
from repro.utils.timer import format_bytes, format_seconds

__all__ = ["main", "build_parser"]


def _participation_value(text: str) -> "float | int":
    """Parse ``--participation``: ``(0, 1]`` floats are fractions, ints > 1 counts."""
    try:
        if text.strip().lstrip("+").isdigit():
            count = int(text)
            if count > 1:
                return count
            value = float(count)
        else:
            value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a fraction in (0, 1] or a client count, got {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"participation fraction must be in (0, 1], got {text!r}")
    return value


def _add_plan_arguments(parser: argparse.ArgumentParser) -> None:
    """Knobs of the plan-driven per-tensor compression pipeline."""
    parser.add_argument("--policy", default=FedSZConfig.policy,
                        help="plan policy assigning each lossy tensor its codec and "
                             "bound: uniform (Algorithm 1: one codec, one bound) "
                             "or profiled (measures the candidate grid and picks "
                             "the Eqn.-1 optimum for the --bandwidth link)")
    parser.add_argument("--pipeline-workers", type=int, default=FedSZConfig.pipeline_workers,
                        help="per-tensor compress/decompress threads (1 = the "
                             "sequential reference on the calling thread; "
                             "bitstreams are bit-identical at any count)")


def _fedsz_config(args: argparse.Namespace, **extra) -> FedSZConfig:
    """Build the FedSZConfig shared by the compress/simulate commands.

    Raises ValueError with a readable message for unknown codec or policy
    names and out-of-range knobs; the command wrappers turn that into a
    one-line CLI error.
    """
    policy_options = {}
    if args.policy == "profiled":
        # profile against the link the command models; the analytic cost model
        # keeps CLI runs reproducible on any host
        policy_options = {"bandwidth_mbps": args.bandwidth, "max_bound": args.bound}
    return FedSZConfig(error_bound=args.bound,
                       policy=args.policy, pipeline_workers=args.pipeline_workers,
                       policy_options=policy_options, **extra)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    compress = sub.add_parser("compress", help="compress one model update with FedSZ")
    compress.add_argument("--model", default="alexnet", choices=available_models())
    compress.add_argument("--bound", type=float, default=1e-2, help="relative error bound")
    compress.add_argument("--compressor", default="sz2",
                          help="lossy EBLC for large weight tensors (sz2, sz3, szx, zfp)")
    compress.add_argument("--lossless", default="blosclz", help="lossless codec for metadata")
    compress.add_argument("--bandwidth", type=float, default=10.0,
                          help="uplink Mbps the profiled policy plans against")
    _add_plan_arguments(compress)

    simulate = sub.add_parser("simulate", help="run a small FedAvg simulation")
    simulate.add_argument("--model", default="simplecnn", choices=available_models())
    simulate.add_argument("--dataset", default="cifar10", choices=("cifar10", "fmnist", "caltech101"))
    simulate.add_argument("--rounds", type=int, default=5)
    simulate.add_argument("--clients", type=int, default=4)
    simulate.add_argument("--samples", type=int, default=480)
    simulate.add_argument("--image-size", type=int, default=16)
    simulate.add_argument("--bound", type=float, default=1e-2)
    simulate.add_argument("--bandwidth", type=float, default=10.0, help="uplink Mbps")
    simulate.add_argument("--bandwidth-spread", type=float, default=1.0,
                          help="heterogeneous fleet: per-client bandwidths drawn "
                               "log-uniformly from [bandwidth/spread, "
                               "bandwidth*spread] (1.0 = identical links); with "
                               "--policy profiled every client plans for its own "
                               "link")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--workers", type=int, default=1,
                          help="threads for per-client train/encode/decode (1 = "
                               "the sequential reference on the calling thread; "
                               "round results are identical at any count)")
    simulate.add_argument("--participation", type=_participation_value, default=1.0,
                          help="clients sampled per round: fraction in (0, 1] or integer count")
    simulate.add_argument("--straggler", type=float, default=0.0,
                          help="per-round probability that a client straggles (4x slowdown)")
    simulate.add_argument("--dropout", type=float, default=0.0,
                          help="per-round probability that a sampled client drops out")
    simulate.add_argument("--journal-dir", default=None,
                          help="make rounds durable: journal every round to this "
                               "directory (per-codec subdirectories) so an "
                               "interrupted run can be resumed with --resume")
    simulate.add_argument("--resume", action="store_true",
                          help="resume an interrupted run from --journal-dir "
                               "instead of starting fresh")
    simulate.add_argument("--delta", action="store_true",
                          help="ship error-feedback residuals against the "
                               "broadcast state (v5 delta frames) on the "
                               "fedsz half of the comparison: clients with a "
                               "warm reference send state - reference instead "
                               "of the full state, degrading to full-state "
                               "frames after any gap")
    _add_plan_arguments(simulate)

    select = sub.add_parser("select", help="profile EBLC candidates on a model's weights")
    select.add_argument("--model", default="resnet50", choices=available_models())
    select.add_argument("--bandwidth", type=float, default=10.0, help="uplink Mbps")
    select.add_argument("--bounds", type=float, nargs="+", default=[1e-2, 1e-3])
    return parser


# ---------------------------------------------------------------------------
def _cmd_compress(args: argparse.Namespace) -> int:
    model = build_model(args.model, num_classes=10, in_channels=3, image_size=32)
    state = model.state_dict()
    try:
        # unknown codec/policy names surface as ValueError when the registries
        # resolve them; keep construction inside the guard for a one-line error
        config = _fedsz_config(args, lossy_compressor=args.compressor,
                               lossless_codec=args.lossless)
        fedsz = FedSZCompressor(config)
    except ValueError as exc:
        print(f"repro compress: error: {exc}", file=sys.stderr)
        return 2
    # one long-lived pool serves the whole roundtrip (pipeline fan-out,
    # profiler grid) instead of one pool per stage
    with POOL.persistent(config.pipeline_workers):
        payload, report = fedsz.compress_with_report(state)
        restored, decode_report = fedsz.decompress_with_report(payload)

    worst = max((float(np.max(np.abs(restored[k].astype(np.float64) - v.astype(np.float64))))
                 for k, v in state.items() if v.size), default=0.0)
    plan = fedsz.last_plan
    codecs = ", ".join(plan.codecs) if plan is not None and len(plan) else args.compressor
    print(f"model:            {args.model} ({count_parameters(model):,} parameters)")
    print(f"original update:  {format_bytes(report.original_bytes)}")
    print(f"FedSZ bitstream:  {format_bytes(len(payload))}  (ratio {report.ratio:.2f}x)")
    print(f"compress time:    {format_seconds(report.compress_seconds)}")
    print(f"decompress time:  {format_seconds(decode_report.decompress_seconds)}")
    print(f"plan:             {args.policy} policy, codecs: {codecs}")
    profiler = getattr(fedsz.policy, "profiler", None)
    if profiler is not None:
        info = profiler.cache_info()
        print(f"profile cache:    {info['hits']} hits / {info['misses']} misses")
    print(f"max abs error:    {worst:.3e}  (bound {args.bound:g} relative)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    dataset = make_dataset(args.dataset, n_samples=args.samples, image_size=args.image_size,
                           seed=args.seed)
    train, test = train_test_split(dataset, test_fraction=0.25, seed=args.seed + 1)
    in_channels = 1 if args.dataset == "fmnist" else 3
    num_classes = 101 if args.dataset == "caltech101" else 10

    def factory():
        return build_model(args.model, num_classes=num_classes, in_channels=in_channels,
                           image_size=args.image_size, seed=0)

    network = NetworkModel(bandwidth_mbps=args.bandwidth)
    try:
        # codec construction resolves the policy and codec registries, so an
        # unknown name fails here with a one-line error instead of a traceback;
        # a heterogeneous fleet draws seeded per-client links around --bandwidth
        codecs = {"uncompressed": RawUpdateCodec(),
                  "fedsz": FedSZUpdateCodec(_fedsz_config(args))}
        networks = make_client_networks(args.clients, base=network,
                                        bandwidth_spread=args.bandwidth_spread,
                                        seed=args.seed) \
            if args.bandwidth_spread != 1.0 else None
    except ValueError as exc:
        print(f"repro simulate: error: {exc}", file=sys.stderr)
        return 2
    if args.resume and args.journal_dir is None:
        print("repro simulate: error: --resume requires --journal-dir", file=sys.stderr)
        return 2
    results = {}
    last_sims = {}
    for label, codec in codecs.items():
        # the command runs one simulation per codec, so each gets its own
        # journal subdirectory — both halves resume independently
        journal_dir = str(Path(args.journal_dir) / label) \
            if args.journal_dir is not None else None
        try:
            sim = FederatedSimulation(factory, train, test, n_clients=args.clients, codec=codec,
                                      network=network, networks=networks, lr=0.15,
                                      seed=args.seed + 2,
                                      max_workers=args.workers, participation=args.participation,
                                      dropout_prob=args.dropout, straggler_prob=args.straggler,
                                      journal_dir=journal_dir, resume=args.resume,
                                      delta=args.delta and label == "fedsz")
        except ValueError as exc:
            # round-engine ranges that need cross-flag context (--participation
            # count vs --clients, --workers >= 1, probability ranges) plus
            # journal mismatches (wrong codec/seed/fleet for --resume)
            print(f"repro simulate: error: {exc}", file=sys.stderr)
            return 2
        results[label] = sim.run(args.rounds)
        last_sims[label] = sim
        accs = "  ".join(f"{a:.2%}" for a in results[label].accuracies)
        print(f"{label:>13}: {accs}")

    final_reports = results["fedsz"].rounds[-1].client_reports \
        if results["fedsz"].rounds else {}
    final_plans = {cid: report.plan for cid, report in final_reports.items()
                   if report.plan is not None}
    if final_plans and args.bandwidth_spread != 1.0:
        print("\nper-client plans (final round):")
        fedsz_sim = last_sims["fedsz"]
        for cid in sorted(final_plans):
            plan = final_plans[cid]
            link = fedsz_sim.client_networks[cid]
            print(f"  client {cid}: {link.bandwidth_mbps:8.1f} Mbps -> "
                  f"codecs {', '.join(plan.codecs)}")
    profiler = last_sims["fedsz"].codec.profiler
    if profiler is not None:
        info = profiler.cache_info()
        print(f"profile cache:  {info['hits']} hits / {info['misses']} misses")

    raw, fedsz = results["uncompressed"], results["fedsz"]
    print(f"\nfinal accuracy: uncompressed {raw.final_accuracy:.2%} vs fedsz {fedsz.final_accuracy:.2%}")
    print(f"upload volume:  {format_bytes(raw.total_transmitted_bytes)} vs "
          f"{format_bytes(fedsz.total_transmitted_bytes)} "
          f"({raw.total_transmitted_bytes / max(fedsz.total_transmitted_bytes, 1):.2f}x reduction)")
    print(f"comm time @{args.bandwidth:g} Mbps: {format_seconds(raw.total_communication_seconds)} vs "
          f"{format_seconds(fedsz.total_communication_seconds)}")
    if args.delta:
        rounds = fedsz.rounds
        shipped = sum(len(r.delta_clients) for r in rounds)
        degrades = sum(len(r.delta_degrades) for r in rounds)
        per_round = " ".join(str(len(r.delta_clients)) for r in rounds)
        print(f"delta shipping: {shipped} residual ships / {degrades} "
              f"full-state degrades (per round: {per_round})")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    model = build_model(args.model, num_classes=10, in_channels=3, image_size=32)
    state = model.state_dict()
    weights = np.concatenate([v.ravel() for k, v in state.items()
                              if "weight" in k and v.size > 1024])
    best, grid = select_compressor(weights, error_bounds=args.bounds,
                                   bandwidth_mbps=args.bandwidth)
    print(f"{'compressor':>10}  {'bound':>7}  {'ratio':>7}  {'compress':>10}  {'decompress':>10}  feasible")
    for entry in grid:
        print(f"{entry.compressor:>10}  {entry.error_bound:>7.0e}  {entry.ratio:>6.2f}x  "
              f"{format_seconds(entry.compress_seconds):>10}  "
              f"{format_seconds(entry.decompress_seconds):>10}  {entry.feasible}")
    ratio = best.ratio
    crossover = crossover_bandwidth(best.compress_seconds, best.decompress_seconds,
                                    weights.nbytes, weights.nbytes / ratio)
    print(f"\nrecommended: {best.compressor} at bound {best.error_bound:g} "
          f"(ratio {ratio:.2f}x); compression pays off below ~{crossover:,.0f} Mbps")
    return 0


_COMMANDS = {"compress": _cmd_compress, "simulate": _cmd_simulate, "select": _cmd_select}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
