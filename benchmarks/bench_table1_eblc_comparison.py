"""Table I: EBLC comparison across models for CIFAR-10.

For every (model, compressor, relative error bound) cell the benchmark measures
runtime, throughput, and compression ratio of compressing the model's
lossy-compressible weights, plus the Top-1 inference accuracy of the model
after its weights are replaced by the decompressed ones.  Each model is first
trained briefly on a synthetic CIFAR-10 split so the accuracy column is
meaningfully above chance; the full FL convergence comparison is Figure 4's
benchmark.

A cell's runtime is the median of :data:`TIMED_CALLS` compress calls made
after the round trip that produced its reconstruction, so the runtime column
(and the "SZx is fastest" check on it) does not hang on one call that the
scheduler delayed.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from bench_utils import PAPER_MODELS, is_quick, save_results
from repro.compressors import roundtrip
from repro.compressors.registry import get_lossy
from repro.core import DeviceProfile
from repro.data import make_dataset, train_test_split
from repro.metrics import ExperimentRecord, Table, format_bound
from repro.nn import CrossEntropyLoss, SGD, build_model
from repro.nn.module import Module

ERROR_BOUNDS = (1e-2, 1e-3, 1e-4)
COMPRESSORS = ("sz2", "sz3", "szx", "zfp")
PI5 = DeviceProfile()
TIMED_CALLS = 5


def _median_compress_seconds(compressor, data: np.ndarray) -> float:
    times = []
    for _ in range(TIMED_CALLS):
        start = time.perf_counter()
        compressor.compress(data)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _accuracy(model: Module, images: np.ndarray, labels: np.ndarray) -> float:
    model.eval()
    return float((model(images).argmax(axis=1) == labels).mean())


def _train_briefly(model: Module, images: np.ndarray, labels: np.ndarray,
                   epochs: int, lr: float = 0.05, batch_size: int = 32) -> None:
    loss_fn = CrossEntropyLoss()
    optimizer = SGD(model.parameters(), lr=lr, momentum=0.9)
    model.train(True)
    for _ in range(epochs):
        for start in range(0, len(labels), batch_size):
            xb = images[start:start + batch_size]
            yb = labels[start:start + batch_size]
            loss_fn(model(xb), yb)
            model.zero_grad()
            model.backward(loss_fn.backward())
            optimizer.step()


def _split_weight_keys(state: dict[str, np.ndarray]) -> list[str]:
    return [k for k, v in state.items() if "weight" in k and v.size > 1024]


def bench_table1_eblc_comparison(benchmark):
    image_size = 16 if is_quick() else 32
    dataset = make_dataset("cifar10", n_samples=480 if is_quick() else 4096,
                           image_size=image_size, seed=11)
    train, test = train_test_split(dataset, test_fraction=0.3, seed=12)
    epochs = 6 if is_quick() else 10

    def run():
        rows = []
        for model_name in PAPER_MODELS:
            model = build_model(model_name, num_classes=10, in_channels=3,
                                image_size=image_size, seed=0)
            _train_briefly(model, train.images, train.labels, epochs=epochs)
            baseline_acc = _accuracy(model, test.images, test.labels)

            state = model.state_dict()
            weight_keys = _split_weight_keys(state)
            weights = np.concatenate([state[k].ravel() for k in weight_keys])

            eval_model = build_model(model_name, num_classes=10, in_channels=3,
                                     image_size=image_size, seed=1)
            for comp_name in COMPRESSORS:
                for bound in ERROR_BOUNDS:
                    compressor = get_lossy(comp_name, error_bound=bound)
                    recon, stats = roundtrip(compressor, weights)
                    stats = dataclasses.replace(stats, compress_seconds=_median_compress_seconds(
                        compressor, weights))

                    perturbed = {k: v.copy() for k, v in state.items()}
                    cursor = 0
                    for key in weight_keys:
                        size = state[key].size
                        perturbed[key] = recon[cursor:cursor + size].reshape(
                            state[key].shape).astype(np.float32)
                        cursor += size
                    eval_model.load_state_dict(perturbed)
                    acc = _accuracy(eval_model, test.images, test.labels)
                    rows.append({
                        "model": model_name,
                        "compressor": comp_name,
                        "bound": bound,
                        "runtime_s": stats.compress_seconds,
                        "runtime_pi5_s": PI5.scale(stats.compress_seconds),
                        "throughput_mbps": stats.compress_throughput_mbps,
                        "ratio": stats.ratio,
                        "baseline_accuracy": baseline_acc,
                        "accuracy": acc,
                    })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = Table("Table I - EBLC comparison across models (CIFAR-10)",
                  ["model", "compressor", "REL bound", "runtime", "runtime (Pi-5 est.)",
                   "throughput MB/s", "ratio", "top-1 acc", "baseline acc"])
    record = ExperimentRecord("table1", "EBLC comparison: runtime, throughput, ratio, accuracy")
    for row in rows:
        table.add_row(row["model"], row["compressor"], format_bound(row["bound"]),
                      f"{row['runtime_s']*1e3:.1f}ms", f"{row['runtime_pi5_s']*1e3:.1f}ms",
                      f"{row['throughput_mbps']:.1f}", f"{row['ratio']:.2f}x",
                      f"{row['accuracy']:.2%}", f"{row['baseline_accuracy']:.2%}")
        record.add(**row)
    record.add(cpu_count=os.cpu_count())
    save_results("table1_eblc_comparison", table, record)

    # Paper's qualitative Table I findings.
    def mean_ratio(comp):
        return np.mean([r["ratio"] for r in rows if r["compressor"] == comp and r["bound"] == 1e-2])

    assert mean_ratio("sz2") > mean_ratio("zfp"), "SZ2 should out-compress ZFP on weights"
    ratios = {(r["model"], r["compressor"], r["bound"]): r["ratio"] for r in rows}
    for model_name in PAPER_MODELS:
        for bound in ERROR_BOUNDS:
            assert ratios[model_name, "sz2", bound] >= ratios[model_name, "sz3", bound], \
                f"SZ2 should out-compress SZ3 on {model_name} at {bound:g}"
    sz2_rt = np.mean([r["runtime_s"] for r in rows if r["compressor"] == "sz2"])
    szx_rt = np.mean([r["runtime_s"] for r in rows if r["compressor"] == "szx"])
    assert szx_rt < sz2_rt, "SZx should be the fastest compressor"
    # accuracy at 1e-2 with SZ2 stays close to the uncompressed baseline
    for row in rows:
        if row["compressor"] == "sz2" and row["bound"] == 1e-2:
            assert abs(row["accuracy"] - row["baseline_accuracy"]) < 0.10
