"""Tests for the concurrent round engine: parallelism, sampling, dropout,
stragglers, heterogeneous links, and the determinism guarantees that let the
parallel path stand in for the sequential reference."""

import numpy as np
import pytest

from repro.core import NetworkModel, make_client_networks, round_communication_time
from repro.core.config import FedSZConfig
from repro.fl import (
    FederatedSimulation,
    FedSZUpdateCodec,
    RawUpdateCodec,
    fedavg_aggregate,
    map_parallel,
    train_clients_parallel,
)
from repro.fl.coordinator import deterministic_fields
from repro.utils.parallel import resolve_worker_count
from repro.nn import build_model


def _factory():
    return build_model("simplecnn", num_classes=10, in_channels=3, image_size=16, seed=0)


def _make_sim(tiny_split, **kwargs):
    train, test = tiny_split
    kwargs.setdefault("codec", RawUpdateCodec())
    kwargs.setdefault("lr", 0.1)
    kwargs.setdefault("seed", 5)
    return FederatedSimulation(_factory, train, test, **kwargs)


class CountingCodec(RawUpdateCodec):
    """Raw codec that counts encode/decode invocations."""

    def __init__(self):
        self.encodes = 0
        self.decodes = 0

    def encode(self, state):
        self.encodes += 1
        return super().encode(state)

    def decode(self, payload):
        self.decodes += 1
        return super().decode(payload)


class TestDeterminism:
    def test_parallel_workers_match_sequential_bit_for_bit(self, tiny_split):
        """Satellite requirement: max_workers=1 vs 4 — identical accuracies
        and byte counts for a fixed seed."""
        sequential = _make_sim(tiny_split, n_clients=4, max_workers=1).run(3)
        parallel = _make_sim(tiny_split, n_clients=4, max_workers=4).run(3)
        assert parallel.accuracies == sequential.accuracies
        for seq_round, par_round in zip(sequential.rounds, parallel.rounds):
            assert par_round.transmitted_bytes == seq_round.transmitted_bytes
            assert par_round.uncompressed_bytes == seq_round.uncompressed_bytes
            assert par_round.communication_seconds == seq_round.communication_seconds
            assert par_round.client_losses == seq_round.client_losses
            assert par_round.participants == seq_round.participants

    def test_parallel_workers_match_with_fedsz_codec(self, tiny_split):
        codec = FedSZUpdateCodec(FedSZConfig(error_bound=1e-2))
        sequential = _make_sim(tiny_split, n_clients=3, max_workers=1, codec=codec).run(2)
        codec2 = FedSZUpdateCodec(FedSZConfig(error_bound=1e-2))
        parallel = _make_sim(tiny_split, n_clients=3, max_workers=3, codec=codec2).run(2)
        assert parallel.accuracies == sequential.accuracies
        assert [r.transmitted_bytes for r in parallel.rounds] == \
            [r.transmitted_bytes for r in sequential.rounds]

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_straggler_rounds_bit_identical_on_every_pool(self, tiny_split, workers):
        # every recorded quantity and the global model are a function of the
        # seed, never of the worker count that ran the ships
        def run(**extra):
            codec = FedSZUpdateCodec(FedSZConfig())
            sim = _make_sim(tiny_split, n_clients=3, codec=codec, seed=17,
                            network=NetworkModel(bandwidth_mbps=5.0),
                            batch_size=32, straggler_prob=0.3, **extra)
            return sim.run(2), sim.server.global_state()

        reference, ref_state = run()
        assert any(record.straggler_clients for record in reference.rounds)
        got, got_state = run(max_workers=workers)
        assert deterministic_fields(got) == deterministic_fields(reference)
        for key in ref_state:
            np.testing.assert_array_equal(got_state[key], ref_state[key])

    def test_scenario_draw_is_seeded_and_worker_independent(self, tiny_split):
        kwargs = dict(n_clients=4, participation=0.5, dropout_prob=0.3, straggler_prob=0.4)
        first = _make_sim(tiny_split, max_workers=1, **kwargs)
        second = _make_sim(tiny_split, max_workers=4, **kwargs)
        for i in range(6):
            assert first.scheduler.plan_round(i) == second.scheduler.plan_round(i)

    def test_different_seeds_draw_different_scenarios(self, tiny_split):
        a = _make_sim(tiny_split, n_clients=6, participation=0.5, seed=1)
        b = _make_sim(tiny_split, n_clients=6, participation=0.5, seed=2)
        plans_a = [a.scheduler.plan_round(i).participants for i in range(8)]
        plans_b = [b.scheduler.plan_round(i).participants for i in range(8)]
        assert plans_a != plans_b


class TestClientSampling:
    def test_fraction_participation(self, tiny_split):
        sim = _make_sim(tiny_split, n_clients=4, participation=0.5)
        record = sim.run_round(0)
        assert len(record.participants) == 2
        assert len(record.client_losses) == 2
        assert all(0 <= i < 4 for i in record.participants)

    def test_count_participation(self, tiny_split):
        sim = _make_sim(tiny_split, n_clients=4, participation=3)
        record = sim.run_round(0)
        assert len(record.participants) == 3

    def test_count_of_one_samples_a_single_client(self, tiny_split):
        # int 1 is a count, not the 1.0 full-participation fraction
        sim = _make_sim(tiny_split, n_clients=4, participation=1)
        plans = [sim.scheduler.plan_round(i).participants for i in range(6)]
        assert all(len(p) == 1 for p in plans)
        assert len({p[0] for p in plans}) > 1  # rotates across the fleet

    def test_codec_runs_only_for_sampled_clients(self, tiny_split):
        codec = CountingCodec()
        sim = _make_sim(tiny_split, n_clients=4, participation=0.5, codec=codec)
        sim.run(2)
        assert codec.encodes == 4  # 2 clients x 2 rounds
        assert codec.decodes == 4

    def test_full_participation_keeps_all_clients(self, tiny_split):
        sim = _make_sim(tiny_split, n_clients=3)
        record = sim.run_round(0)
        assert record.participants == [0, 1, 2]
        assert record.dropped_clients == [] and record.straggler_clients == []


class TestDropoutAndStragglers:
    def test_full_dropout_round_keeps_global_model(self, tiny_split):
        sim = _make_sim(tiny_split, n_clients=2, dropout_prob=1.0)
        before = {k: v.copy() for k, v in sim.server.global_state().items()}
        record = sim.run_round(0)
        assert record.participants == []
        assert sorted(record.dropped_clients) == [0, 1]
        assert record.transmitted_bytes == 0
        assert record.communication_seconds == 0.0
        after = sim.server.global_state()
        for key in before:
            np.testing.assert_array_equal(after[key], before[key])

    def test_dropped_clients_contribute_no_bytes(self, tiny_split):
        full = _make_sim(tiny_split, n_clients=4).run_round(0)
        dropped = _make_sim(tiny_split, n_clients=4, dropout_prob=0.5).run_round(0)
        assert 0 < len(dropped.participants) < 4
        per_client = full.transmitted_bytes // 4
        assert dropped.transmitted_bytes == per_client * len(dropped.participants)

    def test_stragglers_inflate_communication_time(self, tiny_split):
        baseline = _make_sim(tiny_split, n_clients=2).run_round(0)
        slowed = _make_sim(tiny_split, n_clients=2, straggler_prob=1.0,
                           straggler_slowdown=5.0).run_round(0)
        assert slowed.straggler_clients == [0, 1]
        assert slowed.communication_seconds == pytest.approx(5.0 * baseline.communication_seconds)
        assert slowed.accuracy == baseline.accuracy  # numerics untouched


class TestHeterogeneousNetworks:
    def test_serial_uplink_sums_parallel_takes_max(self, tiny_split):
        networks = [NetworkModel(bandwidth_mbps=10.0), NetworkModel(bandwidth_mbps=100.0)]
        serial = _make_sim(tiny_split, n_clients=2, networks=networks, uplink="serial").run_round(0)
        parallel = _make_sim(tiny_split, n_clients=2, networks=networks,
                             uplink="parallel").run_round(0)
        per_client = serial.transmitted_bytes // 2
        expected = [net.transfer_time(per_client) for net in networks]
        assert serial.communication_seconds == pytest.approx(sum(expected))
        assert parallel.communication_seconds == pytest.approx(max(expected))

    def test_round_communication_time_helper(self):
        assert round_communication_time([1.0, 2.0, 3.0], "serial") == 6.0
        assert round_communication_time([1.0, 2.0, 3.0], "parallel") == 3.0
        assert round_communication_time([], "parallel") == 0.0
        with pytest.raises(ValueError, match="uplink"):
            round_communication_time([1.0], "duplex")

    def test_make_client_networks_spread_and_seeding(self):
        base = NetworkModel(bandwidth_mbps=100.0, latency_s=0.01)
        fleet = make_client_networks(8, base, bandwidth_spread=4.0,
                                     latency_spread_s=0.05, seed=3)
        assert len(fleet) == 8
        bandwidths = [n.bandwidth_mbps for n in fleet]
        assert all(25.0 <= b <= 400.0 for b in bandwidths)
        assert len(set(bandwidths)) > 1
        assert all(0.01 <= n.latency_s <= 0.06 for n in fleet)
        again = make_client_networks(8, base, bandwidth_spread=4.0,
                                     latency_spread_s=0.05, seed=3)
        assert bandwidths == [n.bandwidth_mbps for n in again]

    def test_unit_spread_clones_base(self):
        base = NetworkModel(bandwidth_mbps=42.0, latency_s=0.5)
        fleet = make_client_networks(3, base)
        assert all(n.bandwidth_mbps == 42.0 and n.latency_s == 0.5 for n in fleet)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"participation": 0.0},
        {"participation": 1.5},
        {"participation": 0},
        {"participation": 9},
        {"dropout_prob": -0.1},
        {"straggler_prob": 1.5},
        {"straggler_slowdown": 0.5},
        {"uplink": "duplex"},
        {"max_workers": 0},
        {"networks": [NetworkModel()]},
    ])
    def test_bad_engine_parameters_rejected(self, tiny_split, kwargs):
        with pytest.raises(ValueError):
            _make_sim(tiny_split, n_clients=4, **kwargs)


class TestParallelHelpers:
    def test_resolve_worker_count(self):
        assert resolve_worker_count(1, 10) == 1
        assert resolve_worker_count(8, 3) == 3
        assert resolve_worker_count(None, 2) == 2
        assert resolve_worker_count(4, 0) == 1
        with pytest.raises(ValueError):
            resolve_worker_count(0, 4)

    def test_map_parallel_matches_sequential(self):
        items = list(range(23))
        assert map_parallel(lambda x: x * x, items, max_workers=4) == [x * x for x in items]

    def test_map_parallel_propagates_exceptions(self):
        def boom(x):
            raise RuntimeError("client failed")
        with pytest.raises(RuntimeError, match="client failed"):
            map_parallel(boom, [1, 2, 3], max_workers=2)

    def test_train_clients_parallel_matches_sequential(self, tiny_split):
        seq = _make_sim(tiny_split, n_clients=3)
        par = _make_sim(tiny_split, n_clients=3)
        state = seq.server.global_state()
        seq_updates = train_clients_parallel(seq.clients, state, max_workers=1)
        par_updates = train_clients_parallel(par.clients, state, max_workers=3)
        for a, b in zip(seq_updates, par_updates):
            assert a.client_id == b.client_id
            assert a.train_loss == b.train_loss
            for key in a.state:
                np.testing.assert_array_equal(a.state[key], b.state[key])


class TestServerPartialAggregation:
    def test_empty_aggregate_with_allow_empty_keeps_global_state(self, tiny_split):
        sim = _make_sim(tiny_split, n_clients=2)
        before = {k: v.copy() for k, v in sim.server.global_state().items()}
        out = sim.server.aggregate([], allow_empty=True)
        for key in before:
            np.testing.assert_array_equal(out[key], before[key])
            np.testing.assert_array_equal(sim.server.global_state()[key], before[key])

    def test_empty_aggregate_without_allow_empty_raises(self, tiny_split):
        sim = _make_sim(tiny_split, n_clients=2)
        with pytest.raises(ValueError, match="at least one"):
            sim.server.aggregate([])

    def test_empty_fedavg_aggregate_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            fedavg_aggregate([])
