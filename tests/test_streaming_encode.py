"""Streaming encode path: bit-identity with the batch encoders.

The producer-side mirror of ``test_streaming_decode.py`` — covers every layer
of the incremental encode pipeline (the ``ChunkBandProducer`` over HUF4
streams, the lossless ``compressor()`` API, the SZ2/SZ3 ``SZStreamEncoder``,
the FedSZ container ``StreamingStateEncoder``, and the transport's
producer-gated wire model) under one invariant: the concatenation of a
producer's pieces is byte-identical to the batch encoder's output, for every
input split and on every backend at every worker count.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.huffman import HuffmanCoder
from repro.compressors.lossless import available_lossless, get_lossless
from repro.compressors.quantizer import LinearQuantizer
from repro.compressors.sz2 import SZ2Compressor
from repro.compressors.sz3 import SZ3Compressor
from repro.core import NetworkModel
from repro.core.config import FedSZConfig
from repro.core.pipeline import FedSZCompressor
from repro.data import make_dataset, train_test_split
from repro.fl import FederatedSimulation, FedSZUpdateCodec, RawUpdateCodec
from repro.fl.coordinator.transport import ShipTask, ship_update_task

BACKENDS = ("serial", "thread", "process")


def _model_state(seed: int = 5) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "conv.weight": rng.normal(0, 1, (64, 3, 3, 3)).astype(np.float32),
        "conv.bias": rng.normal(0, 1, 64).astype(np.float32),
        "fc.weight": rng.normal(0, 0.3, (100, 256)).astype(np.float32),
        "head.weight": rng.normal(0, 0.1, (50, 800)).astype(np.float64),
        "empty": np.zeros(0, dtype=np.float32),
    }


@pytest.fixture(scope="module")
def fl_split():
    ds = make_dataset("cifar10", n_samples=240, image_size=16, seed=7)
    return train_test_split(ds, test_fraction=0.25, seed=3)


def _factory():
    from repro.nn import build_model
    return build_model("simplecnn", num_classes=10, in_channels=3,
                       image_size=16, seed=0)


class TestChunkBandProducer:
    def test_chunks_concatenate_to_batch_encoding(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 80, size=1500).astype(np.int64)
        coder = HuffmanCoder(chunk_size=128)
        producer = coder.stream_producer(codes)
        assert b"".join(producer.chunks()) == coder.encode(codes)

    def test_header_and_length_pinned_before_any_band(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 40, size=2048).astype(np.int64)
        coder = HuffmanCoder(chunk_size=256)
        producer = coder.stream_producer(codes)
        # available before bands() has run at all
        assert producer.pinned_header
        assert producer.stream_length == len(coder.encode(codes))
        assert producer.peak_scratch_bytes > 0

    def test_crc_gated_on_band_completion(self):
        codes = np.arange(300, dtype=np.int64)
        producer = HuffmanCoder(chunk_size=64).stream_producer(codes)
        with pytest.raises(ValueError):
            producer.magic_and_crc()
        for _ in producer.bands():
            pass
        assert len(producer.magic_and_crc()) == 8

    def test_empty_stream(self):
        coder = HuffmanCoder()
        producer = coder.stream_producer(np.zeros(0, dtype=np.int64))
        assert b"".join(producer.chunks()) == coder.encode(np.zeros(0, dtype=np.int64))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000), chunk=st.integers(1, 512))
    def test_property_any_chunk_size_matches_batch(self, seed, chunk):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 50, size=700).astype(np.int64)
        coder = HuffmanCoder(chunk_size=chunk)
        assert b"".join(coder.stream_producer(codes).chunks()) == coder.encode(codes)


class TestLosslessStreamCompressors:
    @pytest.mark.parametrize("name", available_lossless())
    @pytest.mark.parametrize("piece", [1, 7, 1024, 1 << 20])
    def test_piecewise_equivalence(self, name, piece):
        codec = get_lossless(name)
        rng = np.random.default_rng(3)
        blob = rng.integers(0, 40, size=20_000).astype(np.uint8).tobytes()
        comp = codec.compressor()
        out = [comp.feed(blob[i:i + piece]) for i in range(0, len(blob), piece)]
        out.append(comp.finish())
        assert b"".join(out) == codec.compress(blob)

    @pytest.mark.parametrize("name", available_lossless())
    def test_empty_input(self, name):
        codec = get_lossless(name)
        comp = codec.compressor()
        assert comp.feed(b"") + comp.finish() == codec.compress(b"")

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000), piece=st.integers(1, 997))
    def test_property_zlib_split_invariance(self, seed, piece):
        codec = get_lossless("zlib")
        blob = np.random.default_rng(seed).integers(
            0, 255, size=5000).astype(np.uint8).tobytes()
        comp = codec.compressor()
        out = [comp.feed(blob[i:i + piece]) for i in range(0, len(blob), piece)]
        out.append(comp.finish())
        assert b"".join(out) == codec.compress(blob)


class TestSZStreamEncoders:
    @pytest.mark.parametrize("cls", [SZ2Compressor, SZ3Compressor])
    def test_chunks_concatenate_to_batch_payload(self, cls):
        rng = np.random.default_rng(7)
        data = np.cumsum(rng.normal(0, 0.01, 6000)).astype(np.float32)
        compressor = cls(error_bound=1e-2, entropy_chunk=256)
        encoder = compressor.stream_encoder()
        pieces = list(encoder.chunks(data))
        assert len(pieces) > 2  # header + body pieces, not one blob
        assert b"".join(pieces) == compressor.compress(data)
        assert encoder.scratch_bytes > 0

    @pytest.mark.parametrize("cls", [SZ2Compressor, SZ3Compressor])
    def test_empty_array(self, cls):
        compressor = cls(error_bound=1e-2)
        data = np.zeros(0, dtype=np.float32)
        assert b"".join(compressor.stream_encoder().chunks(data)) \
            == compressor.compress(data)

    @pytest.mark.parametrize("cls", [SZ2Compressor, SZ3Compressor])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_streamed_equals_batch(self, cls, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 0.1, 600).astype(np.float32)
        compressor = cls(error_bound=1e-2, entropy_chunk=64)
        assert b"".join(compressor.stream_encoder().chunks(data)) \
            == compressor.compress(data)


class TestQuantizerScratchRewrite:
    """The out=/where= rewrite of LinearQuantizer.quantize is bit-identical
    to the naive expression-per-temporary reference, including on the
    overflow/NaN/inf escape paths."""

    @staticmethod
    def _reference(data, predictions, abs_bound, radius):
        data = np.asarray(data, dtype=np.float64)
        predictions = np.asarray(predictions, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            residual = data - predictions
            q_float = np.rint(residual / (2.0 * abs_bound))
            predictable = np.isfinite(q_float) & (np.abs(q_float) <= radius)
            q = np.where(predictable, q_float, 0.0).astype(np.int64)
            candidate = predictions + 2.0 * abs_bound * q
            predictable &= np.isfinite(candidate)
            q = np.where(predictable, q, 0)
            reconstructed = np.where(predictable, candidate, data)
        codes = np.where(predictable, q + radius + 1, 0)
        outliers = data[~predictable].astype(np.float64)
        return codes, outliers, reconstructed

    @pytest.mark.parametrize("case", [
        "normal", "huge_ratio", "nonfinite", "reconstruction_overflow",
        "tiny_bound",
    ])
    def test_bit_identical_to_reference(self, case):
        rng = np.random.default_rng(17)
        data = rng.normal(0, 1, 4096)
        predictions = data + rng.normal(0, 0.01, 4096)
        bound = 1e-3
        if case == "huge_ratio":
            data[::7] = 1e300
            bound = 1e-12
        elif case == "nonfinite":
            data[::5] = np.nan
            data[1::5] = np.inf
            predictions[2::5] = -np.inf
        elif case == "reconstruction_overflow":
            data[::3] = 1.75e308
            predictions[::3] = 1.6e308
            bound = 1e307
        elif case == "tiny_bound":
            bound = 5e-324
        quantizer = LinearQuantizer(radius=255)
        result = quantizer.quantize(data, predictions, bound)
        codes, outliers, recon = self._reference(data, predictions, bound, 255)
        assert np.array_equal(result.codes, codes)
        assert np.array_equal(result.outliers, outliers, equal_nan=True)
        assert np.array_equal(result.reconstructed, recon, equal_nan=True)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000),
           exponent=st.integers(-10, -1))
    def test_property_bit_identical(self, seed, exponent):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 1, 500)
        predictions = data + rng.normal(0, 10.0 ** exponent, 500)
        quantizer = LinearQuantizer(radius=32768)
        result = quantizer.quantize(data, predictions, 1e-2)
        codes, outliers, recon = self._reference(data, predictions, 1e-2, 32768)
        assert np.array_equal(result.codes, codes)
        assert np.array_equal(result.outliers, outliers)
        assert np.array_equal(result.reconstructed, recon)


class TestStreamingStateEncoder:
    def _configs(self):
        return [
            FedSZConfig(),
            FedSZConfig(lossy_compressor="sz3", lossless_codec="zstd"),
            FedSZConfig(error_bound=1e-4, lossless_codec="bzip2"),
        ]

    def test_streamed_container_matches_batch(self):
        state = _model_state()
        for config in self._configs():
            compressor = FedSZCompressor(config)
            reference = FedSZCompressor(config)
            pieces = list(compressor.compress_stream(state))
            assert b"".join(pieces) == reference.compress_state_dict(state)

    def test_manifest_is_the_first_piece(self):
        compressor = FedSZCompressor(FedSZConfig())
        pieces = list(compressor.compress_stream(_model_state()))
        # preamble piece: magic, entry count, and the complete manifest entry
        assert pieces[0].startswith(b"FSZB")
        assert b"__manifest__" in pieces[0]
        # one piece per entry beyond it: lossless, then one per lossy tensor
        assert len(pieces) >= 3

    def test_streamed_bytes_decode_and_report_populates(self):
        compressor = FedSZCompressor(FedSZConfig())
        encoder = compressor.stream_encoder()
        state = _model_state()
        payload = b"".join(encoder.chunks(state))
        assert encoder.report is not None
        assert encoder.report.compressed_bytes == len(payload)
        assert encoder.peak_scratch_bytes > 0
        back = FedSZCompressor(FedSZConfig()).decompress_state_dict(payload)
        assert set(back) == set(state)
        for key in state:
            assert back[key].shape == state[key].shape

    def test_empty_state(self):
        compressor = FedSZCompressor(FedSZConfig())
        assert b"".join(compressor.compress_stream({})) \
            == FedSZCompressor(FedSZConfig()).compress_state_dict({})

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_backend_worker_matrix(self, backend, workers):
        config = FedSZConfig(backend=backend, pipeline_workers=workers)
        state = _model_state()
        assert b"".join(FedSZCompressor(config).compress_stream(state)) \
            == FedSZCompressor(FedSZConfig()).compress_state_dict(state)


class TestTransportStreamingEncode:
    def _task(self, codec, **kwargs):
        return ShipTask(client_id=0, state=_model_state(), codec=codec,
                        network=NetworkModel(bandwidth_mbps=10.0), **kwargs)

    def test_streaming_encode_matches_batch_result(self):
        codec = FedSZUpdateCodec(FedSZConfig())
        batch = ship_update_task(self._task(codec, keep_payload=True))
        streamed = ship_update_task(self._task(codec, keep_payload=True,
                                               streaming=True))
        assert streamed.payload == batch.payload
        assert streamed.payload_bytes == batch.payload_bytes
        assert streamed.transfer_seconds == batch.transfer_seconds
        for key in batch.state:
            assert np.array_equal(streamed.state[key], batch.state[key])

    def test_overlap_fields_reported(self):
        codec = FedSZUpdateCodec(FedSZConfig())
        result = ship_update_task(self._task(codec, streaming=True))
        # the first payload piece leaves before encode completes — that gap
        # is the analytic guarantee the wire model is gated on
        assert result.first_byte_seconds is not None
        assert result.first_byte_seconds < result.encode_seconds
        assert result.encode_overlap_seconds is not None
        assert result.encode_overlap_seconds >= 0.0
        assert result.encode_scratch_bytes > 0
        assert result.decode_overlap_seconds is not None

    def test_batch_path_leaves_fields_unset(self):
        codec = FedSZUpdateCodec(FedSZConfig())
        result = ship_update_task(self._task(codec))
        assert result.first_byte_seconds is None
        assert result.encode_overlap_seconds is None
        assert result.encode_scratch_bytes == 0

    def test_raw_codec_single_piece_has_no_overlap_window(self):
        result = ship_update_task(self._task(RawUpdateCodec(),
                                             streaming=True))
        # one piece: the wire gates on the whole payload, so the hidden
        # encode time can only be generator-teardown noise
        assert result.encode_overlap_seconds <= \
            result.encode_seconds - result.first_byte_seconds + 1e-12


class TestStreamingRounds:
    def test_round_record_surfaces_encode_measurements(self, fl_split):
        train, test = fl_split
        codec = FedSZUpdateCodec(FedSZConfig(error_bound=1e-2))
        sim = FederatedSimulation(_factory, train, test, n_clients=2,
                                  codec=codec, seed=5, lr=0.15, batch_size=16,
                                  streaming=True)
        record = sim.run_round(0)
        assert record.peak_encode_scratch_bytes > 0
        assert record.mean_first_byte_seconds is not None
        assert record.mean_first_byte_seconds < record.mean_encode_seconds
        assert record.mean_encode_overlap_seconds is not None


class TestJournalResumeThroughStreamingEncode:
    def test_crash_mid_round_resumes_bit_identically(self, fl_split,
                                                     tmp_path, monkeypatch):
        train, test = fl_split
        kwargs = dict(n_clients=3, seed=5, lr=0.15, local_epochs=1,
                      batch_size=16, streaming=True)
        ref = FederatedSimulation(_factory, train, test,
                                  codec=RawUpdateCodec(), **kwargs).run(2)

        recorded = {}

        def fake_exit(code):
            recorded["code"] = code
            raise SystemExit(code)

        monkeypatch.setattr(os, "_exit", fake_exit)
        # die after the 4th journal event: round 0 complete, round 1 has
        # shipped at least one streamed-encode payload but not finished
        monkeypatch.setenv("REPRO_JOURNAL_CRASH_AFTER", "4")
        with pytest.raises(SystemExit):
            FederatedSimulation(_factory, train, test, codec=RawUpdateCodec(),
                                journal_dir=tmp_path / "j", **kwargs).run(2)
        assert recorded["code"] == 42
        monkeypatch.delenv("REPRO_JOURNAL_CRASH_AFTER")
        resumed = FederatedSimulation(_factory, train, test,
                                      codec=RawUpdateCodec(),
                                      journal_dir=tmp_path / "j", resume=True,
                                      **kwargs).run(2)
        assert resumed.accuracies == ref.accuracies
        assert [r.transmitted_bytes for r in resumed.rounds] == \
            [r.transmitted_bytes for r in ref.rounds]
        assert [r.client_losses for r in resumed.rounds] == \
            [r.client_losses for r in ref.rounds]
