"""Shared workloads, scaling knobs, and result persistence for the benchmarks.

Every benchmark regenerates one of the paper's tables or figures as plain text
(and a JSON record) under ``benchmarks/results/``.  Two scales are supported
via the ``REPRO_BENCH_SCALE`` environment variable:

* ``quick`` (default) — reduced grids and small synthetic datasets so the whole
  suite finishes in a few minutes on a laptop CPU,
* ``full`` — the complete grids the paper reports (hours of CPU time).

The *shape* of every result (who wins, by roughly what factor, where crossovers
fall) is the reproducible quantity at either scale.  ``bench_timing.py`` runs
its paper-scale wall-clock checks only at ``full``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.data import make_dataset, train_test_split
from repro.metrics import ExperimentRecord, Table
from repro.nn import build_model

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Paper models and datasets in the order the tables list them.
PAPER_MODELS = ("alexnet", "mobilenetv2", "resnet50")
PAPER_DATASETS = ("cifar10", "caltech101", "fmnist")


def current_scale() -> str:
    """Current benchmark scale (``quick`` or ``full``)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    return scale if scale in ("quick", "full") else "quick"


def is_quick() -> bool:
    """True when running the reduced quick-scale grids."""
    return current_scale() == "quick"


def fl_settings() -> dict:
    """Federated-run sizes for the current scale."""
    if is_quick():
        return {
            "n_samples": 480,
            "image_size": 16,
            "n_clients": 4,
            "rounds": 6,
            "batch_size": 32,
            "lr": 0.15,
            "model": "simplecnn",
        }
    return {
        "n_samples": 4096,
        "image_size": 32,
        "n_clients": 4,
        "rounds": 10,
        "batch_size": 32,
        "lr": 0.05,
        "model": "alexnet",
    }


def dataset_channels(dataset: str) -> int:
    """Input channels of the named dataset."""
    return 1 if dataset == "fmnist" else 3


def build_paper_model(name: str, dataset: str = "cifar10", image_size: int = 32, seed: int = 0,
                      **model_kwargs: object):
    """Instantiate one of the paper's models for the named dataset's input shape.

    ``model_kwargs`` are forwarded to the architecture (e.g. ``width`` /
    ``blocks_per_stage`` to rebuild a network at the paper's full size rather
    than this repo's CPU-scaled default).
    """
    num_classes = 101 if dataset == "caltech101" else 10
    return build_model(name, num_classes=num_classes, in_channels=dataset_channels(dataset),
                       image_size=image_size, seed=seed, **model_kwargs)


def trained_like_state(name: str, dataset: str = "cifar10", seed: int = 0,
                       **model_kwargs: object) -> dict[str, np.ndarray]:
    """A model state dict with trained-looking statistics.

    Freshly initialized weights are uniform (He init); trained networks
    concentrate around zero with heavy tails, which is what makes them
    compressible in the paper.  A light multiplicative shaping reproduces that
    without running a long training job.  Biases and BatchNorm running
    statistics are filled with plausible non-zero values so the lossless
    (metadata) partition carries realistic float data as well.
    """
    model = build_paper_model(name, dataset, seed=seed, **model_kwargs)
    rng = np.random.default_rng(seed + 17)
    state = model.state_dict()
    for key, value in state.items():
        if "weight" in key and value.size > 1024:
            shaped = value * np.abs(rng.standard_normal(value.shape)) ** 1.5
            state[key] = shaped.astype(np.float32)
        elif "running_mean" in key:
            state[key] = rng.normal(0.0, 0.3, value.shape).astype(np.float32)
        elif "running_var" in key:
            state[key] = np.abs(rng.normal(1.0, 0.4, value.shape)).astype(np.float32)
        elif "num_batches_tracked" in key:
            state[key] = np.full(value.shape, 100.0, dtype=np.float32)
        elif "bias" in key:
            state[key] = rng.normal(0.0, 0.02, value.shape).astype(np.float32)
    return state


def quick_fl_data(dataset: str = "cifar10", seed: int = 1):
    """Small train/test split for FL benches at the current scale."""
    cfg = fl_settings()
    ds = make_dataset(dataset, n_samples=cfg["n_samples"], image_size=cfg["image_size"], seed=seed)
    return train_test_split(ds, test_fraction=0.25, seed=seed + 1)


def save_results(name: str, table: Table | list[Table], record: ExperimentRecord | None = None) -> None:
    """Write the rendered table(s) and the JSON record under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    tables = table if isinstance(table, list) else [table]
    text = "\n\n".join(t.render() for t in tables) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    if record is not None:
        (RESULTS_DIR / f"{name}.json").write_text(record.to_json() + "\n")
    print()
    print(text)
