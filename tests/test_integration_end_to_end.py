"""End-to-end integration tests crossing multiple subsystems."""

from repro.core import FedSZConfig, NetworkModel
from repro.core.selection import select_error_bound
from repro.data import make_dataset, train_test_split
from repro.fl import FederatedSimulation, FedSZUpdateCodec, RawUpdateCodec
from repro.nn import build_model


def _factory(image_size=16, num_classes=10):
    return build_model("simplecnn", num_classes=num_classes, in_channels=3,
                       image_size=image_size, seed=0)


class TestFederatedWithExtensions:
    def test_problem2_bound_selection_on_real_runs(self):
        # a miniature version of the paper's operating-point selection: run the
        # simulation at several bounds and let select_error_bound pick one that
        # keeps accuracy while minimizing bytes
        dataset = make_dataset("cifar10", n_samples=200, image_size=16, seed=9)
        train, test = train_test_split(dataset, test_fraction=0.25, seed=9)
        cache = {}

        def run_at(bound: float):
            if bound not in cache:
                codec = FedSZUpdateCodec(FedSZConfig(error_bound=bound))
                result = FederatedSimulation(_factory, train, test, n_clients=2, codec=codec,
                                             lr=0.15, seed=3).run(2)
                cache[bound] = result
            return cache[bound]

        bounds = (1e-3, 1e-2, 5e-1)
        chosen = select_error_bound(lambda b: run_at(b).final_accuracy,
                                    lambda b: run_at(b).total_transmitted_bytes,
                                    error_bounds=bounds, tolerance=0.1)
        assert chosen in bounds
        assert chosen != 5e-1 or run_at(5e-1).final_accuracy >= run_at(1e-2).final_accuracy - 0.1

    def test_network_delay_injection_matches_model(self, tiny_split):
        # with simulate_delay the round really sleeps for the modeled time,
        # mirroring the paper's MPI sleep-injection methodology
        train, test = tiny_split
        network = NetworkModel(bandwidth_mbps=2000.0, simulate_delay=True)
        sim = FederatedSimulation(_factory, train, test, n_clients=2, codec=RawUpdateCodec(),
                                  network=network, lr=0.1, seed=4)
        import time
        start = time.perf_counter()
        record = sim.run_round(0)
        elapsed = time.perf_counter() - start
        assert elapsed >= record.communication_seconds * 0.9

    def test_full_pipeline_cross_model_cross_dataset(self):
        # FedSZ round trip for every paper model on every dataset input shape
        from repro.core import FedSZCompressor
        for dataset, channels, classes in (("cifar10", 3, 10), ("fmnist", 1, 10),
                                           ("caltech101", 3, 101)):
            for model_name in ("alexnet", "mobilenetv2", "resnet50"):
                model = build_model(model_name, num_classes=classes, in_channels=channels,
                                    image_size=16, seed=0)
                fedsz = FedSZCompressor(FedSZConfig(error_bound=1e-2))
                recon, report = fedsz.roundtrip(model.state_dict())
                assert report.ratio > 1.5, (dataset, model_name)
                model.load_state_dict(recon)
