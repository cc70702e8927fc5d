"""Streaming wire path: packet schedules, transport overlap, and the round
engine with ``streaming=True``.

The determinism contract under test: switching the transport to the streaming
path (any backend) changes *when* encode and decode work happens, never *what*
is encoded or decoded or any analytically recorded quantity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FedSZConfig
from repro.core.network import NetworkModel
from repro.data.datasets import make_dataset
from repro.fl.codec import FedSZUpdateCodec, RawUpdateCodec
from repro.fl.coordinator.records import deterministic_fields
from repro.fl.coordinator.transport import (DEFAULT_PACKET_BYTES, ShipTask,
                                            SimulatedTransport,
                                            ship_update_task)
from repro.fl.simulation import FederatedSimulation
from repro.nn import build_model


def _state(seed: int = 12) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {"w": rng.normal(0, 1, (32, 64)).astype(np.float32),
            "b": rng.normal(0, 1, 32).astype(np.float32)}


def _task(codec, network, **kwargs) -> ShipTask:
    return ShipTask(client_id=0, state=_state(), codec=codec, network=network,
                    **kwargs)


class TestPacketArrivals:
    def test_last_arrival_equals_transfer_time(self):
        net = NetworkModel(bandwidth_mbps=7.0, latency_s=0.02)
        for size, packet, slowdown in [(1, 64, 1.0), (64, 64, 1.0),
                                       (65, 64, 2.5), (1 << 20, 4096, 1.0)]:
            schedule = net.packet_arrivals(size, packet, slowdown)
            assert schedule[-1][0] == size
            assert schedule[-1][1] == net.transfer_time(size) * slowdown

    def test_monotone_prefixes_and_arrivals(self):
        net = NetworkModel(bandwidth_mbps=3.0, latency_s=0.001)
        schedule = net.packet_arrivals(10_000, 999)
        ends = [end for end, _ in schedule]
        times = [at for _, at in schedule]
        assert ends == sorted(set(ends)) and times == sorted(times)
        assert all(0 < b - a <= 999 for a, b in zip([0] + ends[:-1], ends))

    def test_empty_payload_still_arrives(self):
        net = NetworkModel(bandwidth_mbps=5.0, latency_s=0.5)
        assert net.packet_arrivals(0, 1024) == [(0, 0.5)]

    def test_packet_bytes_validated(self):
        with pytest.raises(ValueError, match="packet_bytes"):
            NetworkModel().packet_arrivals(100, 0)


class TestStreamingShip:
    @pytest.mark.parametrize("codec_factory", [RawUpdateCodec,
                                               lambda: FedSZUpdateCodec(FedSZConfig())])
    def test_streaming_matches_batch(self, codec_factory):
        codec = codec_factory()
        net = NetworkModel(bandwidth_mbps=4.0, latency_s=0.01)
        batch = ship_update_task(_task(codec, net))
        stream = ship_update_task(_task(codec, net, streaming=True,
                                        packet_bytes=2048))
        assert list(stream.state) == list(batch.state)
        for key in batch.state:
            np.testing.assert_array_equal(stream.state[key], batch.state[key])
            assert stream.state[key].dtype == batch.state[key].dtype
        # analytically recorded quantities are scheduling-independent
        assert stream.transfer_seconds == batch.transfer_seconds
        assert stream.payload_bytes == batch.payload_bytes
        assert stream.raw_bytes == batch.raw_bytes

    def test_overlap_reported_only_when_streaming(self):
        codec = FedSZUpdateCodec(FedSZConfig())
        net = NetworkModel(bandwidth_mbps=4.0)
        batch = ship_update_task(_task(codec, net))
        stream = ship_update_task(_task(codec, net, streaming=True,
                                        packet_bytes=1024))
        assert batch.decode_overlap_seconds is None
        assert stream.decode_overlap_seconds is not None
        assert 0.0 <= stream.decode_overlap_seconds <= stream.decode_seconds + 1e-9

    def test_straggler_slowdown_scales_schedule_and_transfer(self):
        codec = RawUpdateCodec()
        net = NetworkModel(bandwidth_mbps=4.0, latency_s=0.02)
        plain = ship_update_task(_task(codec, net, streaming=True))
        slowed = ship_update_task(_task(codec, net, streaming=True,
                                        straggler_slowdown=3.0))
        assert slowed.transfer_seconds == pytest.approx(3.0 * plain.transfer_seconds)

    def test_pooled_streaming_matches_single_ships(self):
        # concurrent stream coders on a thread pool, sharing the fleet's one
        # codec as the round engine does, ship exactly what one ship at a
        # time ships
        codec = FedSZUpdateCodec(FedSZConfig())
        net = NetworkModel(bandwidth_mbps=4.0)
        tasks = [ShipTask(client_id=i, state=_state(seed=i), codec=codec,
                          network=net) for i in range(4)]
        pooled = SimulatedTransport(backend="thread", max_workers=4,
                                    streaming=True,
                                    packet_bytes=4096).ship_batch(tasks)
        single = SimulatedTransport(backend="serial", streaming=True,
                                    packet_bytes=4096)
        for task, got in zip(tasks, pooled):
            want = single.ship(task)
            assert got.client_id == want.client_id
            assert list(got.state) == list(want.state)
            for key in want.state:
                np.testing.assert_array_equal(got.state[key], want.state[key])
            assert got.payload_bytes == want.payload_bytes
            assert got.transfer_seconds == want.transfer_seconds
            assert got.decode_overlap_seconds is not None
            assert got.encode_overlap_seconds is not None

    def test_simulated_delay_streams_in_real_time(self):
        # a real-sleep link must still produce identical bytes when streamed
        codec = RawUpdateCodec()
        net = NetworkModel(bandwidth_mbps=2000.0, latency_s=0.001,
                           simulate_delay=True)
        batch = ship_update_task(_task(codec, net))
        stream = ship_update_task(_task(codec, net, streaming=True,
                                        packet_bytes=8192))
        for key in batch.state:
            np.testing.assert_array_equal(stream.state[key], batch.state[key])
        assert stream.transfer_seconds == batch.transfer_seconds


class TestTransportKnobs:
    def test_transport_stamps_streaming_onto_tasks(self):
        transport = SimulatedTransport(backend="serial", streaming=True,
                                       packet_bytes=1234)
        stamped = transport._configure(_task(RawUpdateCodec(), NetworkModel()))
        assert stamped.streaming and stamped.packet_bytes == 1234
        off = SimulatedTransport(backend="serial")
        plain = off._configure(_task(RawUpdateCodec(), NetworkModel()))
        assert not plain.streaming and plain.packet_bytes == DEFAULT_PACKET_BYTES

    def test_task_level_setting_wins_over_transport(self):
        transport = SimulatedTransport(backend="serial", streaming=True,
                                       packet_bytes=1234)
        task = _task(RawUpdateCodec(), NetworkModel(), streaming=True,
                     packet_bytes=555)
        assert transport._configure(task).packet_bytes == 555

    def test_invalid_packet_bytes_rejected(self):
        with pytest.raises(ValueError, match="packet_bytes"):
            SimulatedTransport(packet_bytes=0)


class TestArenaShipBatch:
    """ship_batch on a pickling backend moves tensors through shared memory;
    results must match the in-process reference exactly."""

    @pytest.mark.parametrize("streaming", [False, True])
    def test_process_backend_matches_serial(self, streaming):
        codec = FedSZUpdateCodec(FedSZConfig())
        net = NetworkModel(bandwidth_mbps=4.0)
        tasks = [ShipTask(client_id=i, state=_state(seed=i), codec=codec,
                          network=net) for i in range(3)]
        serial = SimulatedTransport(backend="serial",
                                    streaming=streaming).ship_batch(tasks)
        pooled = SimulatedTransport(backend="process", max_workers=2,
                                    streaming=streaming).ship_batch(tasks)
        assert [r.client_id for r in pooled] == [r.client_id for r in serial]
        for a, b in zip(serial, pooled):
            assert list(a.state) == list(b.state)
            for key in a.state:
                np.testing.assert_array_equal(a.state[key], b.state[key])
            assert a.payload_bytes == b.payload_bytes
            assert a.transfer_seconds == b.transfer_seconds


class TestSimulationStreaming:
    @pytest.fixture(scope="class")
    def fl_data(self):
        train = make_dataset("cifar10", n_samples=192, seed=21)
        test = make_dataset("cifar10", n_samples=48, seed=22)
        return train, test

    def _run(self, fl_data, **kwargs):
        train, test = fl_data

        def factory():
            return build_model("mlp", num_classes=10, in_channels=3,
                               image_size=32, seed=0)

        codec = FedSZUpdateCodec(FedSZConfig())
        sim = FederatedSimulation(factory, train, test, n_clients=3,
                                  codec=codec,
                                  network=NetworkModel(bandwidth_mbps=5.0),
                                  seed=17, batch_size=32,
                                  straggler_prob=0.3, **kwargs)
        result = sim.run(2)
        return result, sim.server.global_state()

    @pytest.mark.parametrize("kwargs", [
        {"streaming": True},
        {"streaming": True, "max_workers": 3},
        {"streaming": True, "backend": "process", "max_workers": 2},
    ], ids=["pool", "thread-3", "process-arena"])
    def test_streaming_rounds_bit_identical(self, fl_data, kwargs):
        reference, ref_state = self._run(fl_data)
        got, got_state = self._run(fl_data, **kwargs)
        assert deterministic_fields(got) == deterministic_fields(reference)
        for key in ref_state:
            np.testing.assert_array_equal(got_state[key], ref_state[key])
