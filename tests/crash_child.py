"""Child process of the kill-and-resume test: run journaled until it dies.

``python tests/crash_child.py <case> <workers> <journal_dir>`` runs the
case's simulation on ``workers`` threads (1 or 2), journaled into
``journal_dir``.  With
``REPRO_JOURNAL_CRASH_AFTER`` set, the journal hard-exits the process (code
42) mid-round; exit 0 means the hook never fired.  The test builds the
uninterrupted reference and the resumed run from the same
:func:`simulation`.  Both cases train a narrow ``alexnet``: its two dropout
layers, whose masks a resumed run must reproduce, at a fraction of the
full model's training time.  On 2 workers the child dies with pool threads
in flight; on one worker it dies mid-loop on its only thread.
"""

from __future__ import annotations

import sys

from repro.core import FedSZConfig, NetworkModel
from repro.data import make_dataset, train_test_split
from repro.fl import FederatedSimulation, FedSZUpdateCodec, RawUpdateCodec
from repro.nn import build_model

#: case -> (journal event after which the child dies, rounds run).  Events
#: 1-2 are the run header and round 0's start, so both crashes land among
#: round 0's client ships: 3 of 4 delta ships (and their sidecars) are
#: journaled, and 5 of 8 raw ships.
CASES = {"delta-fedsz": (5, 3), "raw-8-clients": (7, 2)}


def _alexnet():
    return build_model("alexnet", num_classes=10, in_channels=3, image_size=16, seed=0,
                       width=8, hidden=64)


def simulation(case: str, workers: int, **kwargs) -> FederatedSimulation:
    """The case's seeded run on ``workers`` threads; ``kwargs`` add journaling."""
    if case == "delta-fedsz":
        data = make_dataset("cifar10", n_samples=240, image_size=16, seed=47)
        train, test = train_test_split(data, test_fraction=0.2, seed=3)
        codec = FedSZUpdateCodec(FedSZConfig(error_bound=1e-2, threshold=128))
        return FederatedSimulation(_alexnet, train, test, n_clients=4, codec=codec,
                                   batch_size=32, lr=0.1, seed=11, uplink="parallel",
                                   max_workers=workers, delta=True, **kwargs)
    data = make_dataset("cifar10", n_samples=480, image_size=16, seed=47)
    train, test = train_test_split(data, test_fraction=0.25, seed=48)
    return FederatedSimulation(_alexnet, train, test, n_clients=8,
                               codec=RawUpdateCodec(),
                               network=NetworkModel(bandwidth_mbps=2.0),
                               batch_size=32, lr=0.15, seed=13, uplink="parallel",
                               max_workers=workers, **kwargs)


if __name__ == "__main__":
    case, workers, journal_dir = sys.argv[1:]
    simulation(case, int(workers), journal_dir=journal_dir).run(CASES[case][1])
