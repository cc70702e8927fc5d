"""The FedSZ benchmark workloads.

Each workload builds its inputs from the seed alone, runs closed-loop units
of work (a codec pass, or a federated run of a fixed number of rounds) and
checks every output.  ``README.md`` beside this file says why each workload
exists and which layers it stresses.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import FedSZConfig, NetworkModel
from repro.core.network import make_client_networks
from repro.core.pipeline import FedSZCompressor
from repro.data import make_dataset, train_test_split
from repro.fl import FederatedSimulation, FedSZUpdateCodec
from repro.nn import build_model
from repro.utils.parallel import get_backend

_now = time.perf_counter

#: relative error bound of every workload (the paper's operating point)
ERROR_BOUND = 1e-2
#: the round workload's fixed problem instance: one synthetic CIFAR-like
#: sample pool and one initial global model.  A seeded model init swings
#: accuracy after a few rounds by +-20% and would hide any codec effect
DATA_SEED = 47
INIT_SEED = 0
#: the round workload's fixed federation (client shards, batch order)
FEDERATION_SEED = 11


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def state_nbytes(state: dict) -> int:
    return sum(int(np.asarray(v).nbytes) for v in state.values())


def trained_like_state(model_name: str, seed: int, **model_kwargs) -> dict[str, np.ndarray]:
    """A state dict of ``model_name`` with trained-looking statistics.

    Freshly initialised weights are uniform; trained ones concentrate around
    zero with heavy tails.  A multiplicative shaping reproduces that, and the
    biases and BatchNorm statistics get plausible non-zero values so the
    lossless partition carries real float data too.
    """
    model = build_model(model_name, num_classes=10, in_channels=3, image_size=32,
                        seed=seed, **model_kwargs)
    rng = np.random.default_rng(seed + 17)
    state = model.state_dict()
    for key, value in state.items():
        if "weight" in key and value.size > 1024:
            state[key] = (value * np.abs(rng.standard_normal(value.shape)) ** 1.5
                          ).astype(np.float32)
        elif "running_mean" in key:
            state[key] = rng.normal(0.0, 0.3, value.shape).astype(np.float32)
        elif "running_var" in key:
            state[key] = np.abs(rng.normal(1.0, 0.4, value.shape)).astype(np.float32)
        elif "num_batches_tracked" in key:
            state[key] = np.full(value.shape, 100.0, dtype=np.float32)
        elif "bias" in key:
            state[key] = rng.normal(0.0, 0.02, value.shape).astype(np.float32)
    return state


class Workload:
    """One workload: ``setup`` once per repeat, then ``step`` until time is up.

    ``units`` collects ``(start, end, traced, warm)`` for every timed unit of
    work (a codec pass or a federated round); the runner derives ``round_s``
    and the per-layer numbers from it.
    """

    name = ""
    setup_repeats = 3

    def __init__(self, seed: int, scratch: Path, tracer=None) -> None:
        self.seed = seed
        self.scratch = scratch
        self.tracer = tracer
        self.units: list[tuple[float, float, bool, bool]] = []
        self.info: dict[str, object] = {}
        #: the timing samples each median metric is taken over
        self.samples: dict[str, list[float]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def step(self) -> tuple[int, int]:
        """Run one closed-loop unit; returns ``(attempted, failed)``."""
        raise NotImplementedError

    def finish(self) -> dict[str, float]:
        """End-to-end metrics other than ``setup_s`` and memory."""
        raise NotImplementedError

    def _traced(self, index: int) -> bool:
        # alternate traced and untraced units so the traced run also
        # measures its own overhead
        return self.tracer is not None and index % 2 == 1


def slice_state(state: dict, count: int) -> list[dict]:
    """Cut ``state`` into ``count`` consecutive slices of about equal bytes."""
    target = state_nbytes(state) / count
    slices, current, size = [], {}, 0
    for name, value in state.items():
        current[name] = value
        size += value.nbytes
        if size >= target * (len(slices) + 1) and len(slices) < count - 1:
            slices.append(current)
            current = {}
    slices.append(current)
    return [piece for piece in slices if piece]


class CodecResNet50(Workload):
    """Compress then decompress a paper-scale ResNet-50 state dict.

    The state ships as :data:`SLICES` consecutive slices of ~12 MB, each its
    own FedSZ bitstream, so a pass yields one timing per slice: the median
    slice rate shrugs off the bursts of host contention that move a whole
    ~14 s pass by +-20%.
    """

    name = "codec-resnet50"
    SLICES = 8

    def setup(self) -> None:
        self.state = trained_like_state("resnet50", self.seed, width=64,
                                        blocks_per_stage=(3, 4, 6, 3))
        self.slices = slice_state(self.state, self.SLICES)
        self.config = FedSZConfig()
        self.compressor = FedSZCompressor(self.config)
        self.nbytes = state_nbytes(self.state)
        # Algorithm 1's partition, computed independently of the program
        self.lossy = {name for name, value in self.state.items()
                      if "weight" in name and value.dtype.kind == "f"
                      and value.size >= self.config.threshold}
        self.bounds = {name: ERROR_BOUND * float(np.ptp(self.state[name]))
                       for name in self.lossy}
        self.digests = None
        self.encode_rates: list[float] = []
        self.decode_rates: list[float] = []
        self.ratio = 0.0
        self.worst = 0.0
        self.inside = self.checked = 0

    def step(self) -> tuple[int, int]:
        traced = self._traced(len(self.units))
        if traced:
            self.tracer.install()
        payloads, recon = [], {}
        try:
            begin = _now()
            for piece in self.slices:
                t0 = _now()
                payload = self.compressor.compress_state_dict(piece)
                t1 = _now()
                recon.update(self.compressor.decompress_state_dict(payload))
                t2 = _now()
                payloads.append(payload)
                nbytes = state_nbytes(piece) / 1e6
                self.encode_rates.append(nbytes / (t1 - t0))
                self.decode_rates.append(nbytes / (t2 - t1))
            end = _now()
        finally:
            if traced:
                self.tracer.uninstall()
        self.units.append((begin, end, traced, True))
        self.ratio = self.nbytes / sum(len(p) for p in payloads)
        try:
            self._check(payloads, recon)
        except CheckFailed as exc:
            print(f"check failed: {exc}")
            return 1, 1
        return 1, 0

    def _check(self, payloads: list[bytes], recon: dict) -> None:
        digests = [hashlib.blake2b(p, digest_size=16).hexdigest() for p in payloads]
        if self.digests is None:
            self.digests = digests
        _check(digests == self.digests, "recompressing the same state changed the bytes")
        _check(set(recon) == set(self.state), "tensor names did not round-trip")
        for name, original in self.state.items():
            got = np.asarray(recon[name])
            _check(got.shape == original.shape and got.dtype == original.dtype,
                   f"{name}: shape/dtype {got.shape}/{got.dtype} != "
                   f"{original.shape}/{original.dtype}")
            if name in self.lossy:
                errors = np.abs(got.astype(np.float64) - original.astype(np.float64))
                err = float(np.max(errors))
                # one float32 rounding of the reconstruction rides on the bound
                slack = float(np.finfo(np.float32).eps) * float(np.max(np.abs(original)))
                bound = self.bounds[name]
                self.worst = max(self.worst, err / bound if bound else 0.0)
                self.inside += int(np.count_nonzero(errors <= bound + slack))
                self.checked += errors.size
                _check(err <= bound + slack, f"{name}: error {err:.3e} > bound {bound:.3e}")
            else:
                _check(np.array_equal(got, original), f"{name}: lossless tensor changed")

    def finish(self) -> dict[str, float]:
        compress = statistics.median(self.encode_rates)
        decompress = statistics.median(self.decode_rates)
        self.info.update(worst_error_over_bound=round(self.worst, 6),
                         pass_s=[round(end - begin, 3) for begin, end, _, _ in self.units])
        self.samples = {"compress_MBps": self.encode_rates,
                        "decompress_MBps": self.decode_rates}
        return {
            "compress_MBps": compress,
            "decompress_MBps": decompress,
            "compression_ratio": self.ratio,
            # nothing is trained here: the quality figure is the share of
            # lossy elements inside the bound, which is 1.0 exactly when the
            # bound check passes
            "final_accuracy": self.inside / self.checked,
            # one whole-state pass at the median slice rates
            "round_s": self.nbytes / 1e6 * (1 / compress + 1 / decompress),
        }


class RoundAlexNetDelta(Workload):
    """4-client delta-shipping FedAvg on alexnet, journaled, over ~10 Mbps links.

    One ``step`` is one federated run of :attr:`rounds` rounds.  The problem
    instance is fixed (data, initial model, federation); the seed draws each
    client's link bandwidth, log-uniform within :attr:`bandwidth_spread` of
    :attr:`bandwidth_mbps`.  AlexNet's accuracy after a few rounds swings by
    +-20% with the federation draw, so with the federation fixed the bytes,
    ratio and accuracy repeat on every seed.
    """

    name = "round-alexnet-delta"
    setup_repeats = 11
    model = "alexnet"
    n_clients = 4
    n_train = 160
    n_test = 100
    rounds = 4
    lr = 0.01
    bandwidth_mbps = 10.0
    bandwidth_spread = 1.1

    def _new_simulation(self) -> None:
        """Build the next federated run (with a fresh journal directory)."""
        def factory():
            return build_model(self.model, num_classes=10, in_channels=3,
                               image_size=32, seed=INIT_SEED)

        if getattr(self, "journal_dir", None) is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)
        self.journal_dir = tempfile.mkdtemp(prefix="journal-", dir=self.scratch)
        # threshold 128: every conv/linear weight goes lossy, biases stay exact
        config = FedSZConfig(error_bound=ERROR_BOUND, threshold=128)
        self.sim = FederatedSimulation(
            factory, self.train, self.test, n_clients=self.n_clients,
            codec=FedSZUpdateCodec(config),
            networks=make_client_networks(
                self.n_clients, NetworkModel(bandwidth_mbps=self.bandwidth_mbps,
                                             simulate_delay=True),
                bandwidth_spread=self.bandwidth_spread, seed=self.seed),
            batch_size=32, lr=self.lr, seed=FEDERATION_SEED,
            max_workers=os.cpu_count() or 1, uplink="parallel",
            backend="thread", delta=True, journal_dir=self.journal_dir)

    def setup(self) -> None:
        data = make_dataset("cifar10", n_samples=self.n_train + self.n_test,
                            image_size=32, seed=DATA_SEED)
        self.train, self.test = train_test_split(
            data, test_fraction=self.n_test / (self.n_train + self.n_test),
            seed=DATA_SEED + 1)
        self._new_simulation()
        self.first = None
        self.runs = 0
        self.spinups = 0
        self.journal_bytes = 0
        self.delta_ships = 0
        self.encode_rates: list[float] = []
        self.decode_rates: list[float] = []

    def _observe(self, sim: FederatedSimulation) -> None:
        """Time each round and check what the server aggregated in it.

        Instance attributes shadow ``Coordinator.run_round`` and the
        ``FedAvgServer`` aggregation methods, so ``Coordinator.run`` (and its
        persistent worker pool) drives the rounds unchanged.  The class
        attribute is looked up on every call, so a traced round still reaches
        the span shim.
        """
        run_round = sim.coordinator.run_round
        server = sim.server
        tracer = self.tracer
        aggregated: list[tuple] = []

        def aggregate(states, weights=None, allow_empty=False):
            new_state = type(server).aggregate(server, states, weights, allow_empty)
            aggregated.append((list(states), list(weights or ())))
            return new_state

        def apply_aggregate(new_state):
            # aggregate-on-arrival folds the states as they land, so only the
            # round record can say who was folded in
            aggregated.append(None)
            return type(server).apply_aggregate(server, new_state)

        def timed(round_index: int):
            traced = self._traced(round_index)
            if traced:
                tracer.round = round_index
                tracer.install()
            try:
                start = _now()
                record = run_round(round_index)
                end = _now()
            finally:
                if traced:
                    tracer.uninstall()
            self.units.append((start, end, traced, round_index > 0))
            try:
                _check(len(aggregated) == 1, f"{len(aggregated)} aggregations")
                if aggregated[0] is None:
                    _check(sorted(record.participants) == list(range(self.n_clients)),
                           f"aggregated {record.participants}")
                else:
                    self._check_aggregate(*aggregated[0], server.global_state())
            except CheckFailed as exc:
                self.round_failures.append(f"round {round_index}: {exc}")
            aggregated.clear()
            return record

        server.aggregate = aggregate
        server.apply_aggregate = apply_aggregate
        sim.coordinator.run_round = timed

    def _check_aggregate(self, states: list, weights: list, state: dict) -> None:
        """The new global state is the sample-weighted mean of every client's."""
        _check(len(states) == self.n_clients,
               f"{len(states)} of {self.n_clients} clients aggregated")
        _check(sum(weights) == len(self.train),
               f"aggregation weights sum to {sum(weights)}, not {len(self.train)}")
        total = float(sum(weights))
        for name, got in state.items():
            if got.dtype.kind != "f":
                continue
            want = sum(w * s[name].astype(np.float64) for s, w in zip(states, weights)) / total
            tol = 1e-5 * max(1.0, float(np.max(np.abs(want))))
            _check(float(np.max(np.abs(got - want))) <= tol,
                   f"{name} is not the weighted mean of the client states")

    def step(self) -> tuple[int, int]:
        sim = self.sim
        self.round_failures: list[str] = []
        self._observe(sim)
        backend = get_backend("thread")
        spinups = backend.pool_spinups
        result = sim.run(self.rounds)
        self.spinups += backend.pool_spinups - spinups
        self.runs += 1
        for failure in self.round_failures:
            print(f"check failed: {failure}")
        failed = len(self.round_failures)
        for record in result.rounds:
            self.delta_ships += len(record.delta_clients)
            if record.round_index > 0:
                # the program's own per-ship codec timings of the warm rounds,
                # where every ship encodes a delta residual
                raw = record.uncompressed_bytes / 1e6
                ships = len(record.client_losses)
                self.encode_rates.append(raw / (record.mean_encode_seconds * ships))
                self.decode_rates.append(raw / (record.mean_decode_seconds * ships))
        try:
            self._check_run(sim, result)
        except CheckFailed as exc:
            print(f"check failed: {exc}")
            failed += 1
        self.journal_bytes += sum(p.stat().st_size for p
                                  in Path(self.journal_dir).rglob("*") if p.is_file())
        attempted = len(result.rounds)
        # free this run before the next one is built, so peak_rss_MB does
        # not depend on how many runs fit in --seconds
        del sim, result
        self.sim = None
        gc.collect()
        self._new_simulation()
        return attempted, min(failed, attempted)

    def _check_run(self, sim: FederatedSimulation, result) -> None:
        outcome = (sum(r.uncompressed_bytes for r in result.rounds)
                   / sum(r.transmitted_bytes for r in result.rounds),
                   result.final_accuracy,
                   [r.transmitted_bytes for r in result.rounds])
        if self.first is None:
            self.first = outcome
        _check(len(result.rounds) == self.rounds,
               f"{len(result.rounds)} rounds ran, {self.rounds} asked")
        state = sim.server.global_state()
        _check(all(np.all(np.isfinite(v)) for v in state.values()
                   if np.asarray(v).dtype.kind == "f"),
               "final global state is not finite")
        _check(0.0 <= outcome[1] <= 1.0, f"accuracy {outcome[1]} out of range")
        _check(outcome == self.first,
               f"a rerun of the same seed differs: {outcome[:2]} vs {self.first[:2]}")

    def finish(self) -> dict[str, float]:
        rounds = max(1, self.runs * self.rounds)
        self.info.update(runs=self.runs, pool_spinups_per_run=self.spinups / max(1, self.runs),
                         delta_ships_per_round=self.delta_ships / rounds)
        self.layer_counts = {"parallel.pool_spinups": self.spinups / max(1, self.runs),
                             "journal.bytes": self.journal_bytes / rounds}
        self.samples = {"compress_MBps": self.encode_rates,
                        "decompress_MBps": self.decode_rates}
        return {
            "compress_MBps": statistics.median(self.encode_rates),
            "decompress_MBps": statistics.median(self.decode_rates),
            "compression_ratio": self.first[0],
            "final_accuracy": self.first[1],
        }


WORKLOADS = {w.name: w for w in (CodecResNet50, RoundAlexNetDelta)}
