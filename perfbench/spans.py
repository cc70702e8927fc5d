"""Span tracing of the FedSZ layers, applied from outside the program.

The tracer wraps public functions and methods of the ``repro`` package with
timing shims, records one span per call, and removes every shim again on
:meth:`Tracer.uninstall`.  Nothing in ``src/`` is edited: the shims replace
module and class attributes at run time, so an untraced unit of work runs
exactly the code a user runs.

A span is ``(name, start, end, parent, thread, round, client, tensor)``;
``parent`` is the index of the enclosing span on the same thread (``-1`` at a
thread's root).  Spans stay in memory and are written once, as Chrome
trace-event JSON, by :meth:`Tracer.write`.

Functions that a module imported by name (SZ2's predictors, the serializers,
``partition_state_dict``...) are patched in every loaded ``repro`` module that
holds a reference to them, so the shim sees the call whichever module makes
it.  Targets that no longer exist are skipped and listed in
:attr:`Tracer.missing`, so a refactor of the program degrades the traced run
to "layer absent" instead of breaking it.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

_now = time.perf_counter


class Tracer:
    """Install span shims on the FedSZ layers and collect their spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.round = -1
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._submit_at = 0.0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # span bookkeeping
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.client = -1
            self._local.tensor = -1
        return stack

    def count(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(value)

    def _open(self) -> tuple[int, int]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:  # reserve the slot so children can point at it
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        return index, parent

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = _now()
        self._stack().pop()
        local = self._local
        self.spans[index] = (name, start, end, parent, threading.get_ident(),
                             self.round, local.client, local.tensor)

    def span(self, name: str, func, on_call=None, on_result=None):
        """``func`` wrapped so each call records a span called ``name``."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            index, parent = self._open()
            start = _now()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(name, index, parent, start)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def span_generator(self, name: str, func):
        """A generator function wrapped so each resumption records a span."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            gen = func(*args, **kwargs)
            while True:
                index, parent = self._open()
                start = _now()
                try:
                    item = next(gen)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._close(name, index, parent, start)
                yield item

        return traced

    # ------------------------------------------------------------------
    # patching
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        """Wrap ``cls.attr`` and every subclass override of it."""
        found = False
        for klass in [cls, *_subclasses(cls)]:
            if attr in klass.__dict__:
                self._set(klass, attr, self.span(name, klass.__dict__[attr], **hooks))
                found = True
        if not found:
            self.missing.append(f"{cls.__qualname__}.{attr}")

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap ``module.attr`` in every loaded ``repro`` module that holds it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapped = self.span(name, original, **hooks)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") \
                    and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced layer (see the table in ``perfbench/README.md``)."""
        from repro.compressors import huffman, lossless, predictors, quantizer
        from repro.compressors.base import LossyCompressor
        from repro.core import partition, pipeline, plan
        from repro.fl import client, codec, delta, server
        from repro.fl.coordinator import journal, transport
        from repro.utils import serialization

        if self._patches:
            return
        # compressor layers
        self.patch_method(huffman.ChunkBandProducer, "__init__", "huffman.build",
                          on_call=_count_symbols, on_result=_count_stream_bytes)
        if "bands" in huffman.ChunkBandProducer.__dict__:
            self._set(huffman.ChunkBandProducer, "bands", self.span_generator(
                "huffman.pack", huffman.ChunkBandProducer.__dict__["bands"]))
        else:
            self.missing.append("ChunkBandProducer.bands")
        self.patch_method(huffman.HuffmanCoder, "decode", "huffman.decode")
        for fn in ("block_pad", "block_mean_predictor", "block_regression_predictor",
                   "predictions_from_regression"):
            self.patch_function(predictors, fn, "predictors.predict")
        self.patch_method(quantizer.LinearQuantizer, "quantize", "quantizer.quantize",
                          on_result=_count_outliers)
        self.patch_method(quantizer.LinearQuantizer, "dequantize", "quantizer.dequantize")
        self.patch_method(lossless.LosslessCodec, "compress", "lossless.compress",
                          on_call=_count_arg_bytes("lossless.bytes_in"),
                          on_result=_count_result_bytes("lossless.bytes_out"))
        self.patch_method(lossless.LosslessCodec, "decompress", "lossless.decompress")
        self.patch_method(LossyCompressor, "compress", "lossy.compress",
                          on_call=_next_tensor)
        self.patch_method(LossyCompressor, "decompress", "lossy.decompress",
                          on_call=_next_tensor)
        # container layers
        self.patch_function(partition, "partition_state_dict", "partition")
        self.patch_method(plan.CompressionPolicy, "build_plan", "plan.build")
        for fn in ("pack_arrays", "pack_bytes_dict"):
            self.patch_function(serialization, fn, "serialization.pack")
        for fn in ("unpack_arrays", "unpack_bytes_dict"):
            self.patch_function(serialization, fn, "serialization.unpack")
        self.patch_method(pipeline.FedSZCompressor, "compress_with_report",
                          "pipeline.compress", on_call=_reset_tensor)
        self.patch_method(pipeline.FedSZCompressor, "decompress_with_report",
                          "pipeline.decompress", on_call=_reset_tensor)
        # federated layers
        self.patch_method(client.FLClient, "train_local", "client.train",
                          on_call=_set_client_from_self)
        for attr in ("encode", "encode_with_report"):
            self.patch_method(codec.UpdateCodec, attr, "codec.encode")
        self.patch_method(codec.UpdateCodec, "decode", "codec.decode")
        self.patch_function(delta, "ef_residual", "delta.residual")
        self.patch_function(delta, "advance_accumulator", "delta.accumulate")
        self.patch_function(transport, "ship_update_task", "transport.ship",
                            on_call=_ship_started)
        for attr in ("ship_batch", "ship_iter"):
            method = transport.SimulatedTransport.__dict__.get(attr)
            if method is not None:
                self._set(transport.SimulatedTransport, attr,
                          _mark_submit(self, method))
        self._set(time, "sleep", self.span("network.transfer", time.sleep))
        self.patch_method(server.FedAvgServer, "aggregate", "server.aggregate")
        self.patch_method(server.FedAvgServer, "apply_aggregate", "server.aggregate")
        self.patch_method(server.FedAvgServer, "evaluate", "server.evaluate")
        for attr in ("begin_run", "begin_round", "record_shipped", "complete_round"):
            self.patch_method(journal.RoundJournal, attr, "journal.write")

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write the recorded spans as Chrome trace-event JSON."""
        events = []
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, thread, rnd, client_id, tensor = span
            events.append({"name": name, "ph": "X", "ts": start * 1e6,
                           "dur": (end - start) * 1e6, "pid": 0, "tid": thread,
                           "args": {"id": index, "parent": parent, "round": rnd,
                                    "client": client_id, "tensor": tensor}})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "missing": self.missing}))


# ----------------------------------------------------------------------
# analysis
def self_times(spans: list, lo: float, hi: float) -> dict[str, float]:
    """Per-layer self time of the spans that start inside ``[lo, hi)``.

    A span's self time is its duration minus the time its direct children
    cover; children never outlive their parent, so the sum over one thread's
    tree equals that thread's traced wall time.
    """
    child_time = [0.0] * len(spans)
    selected = []
    for index, span in enumerate(spans):
        if span is None or not lo <= span[1] < hi:
            continue
        selected.append(index)
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    totals: dict[str, float] = {}
    for index in selected:
        name, start, end = spans[index][:3]
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
    return totals


def covered_time(spans: list, lo: float, hi: float) -> float:
    """Wall time in ``[lo, hi)`` during which any span was open on any thread."""
    intervals = sorted((max(s[1], lo), min(s[2], hi)) for s in spans
                       if s is not None and s[2] > lo and s[1] < hi)
    covered, cursor = 0.0, lo
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


# ----------------------------------------------------------------------
# hooks
def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _count_symbols(tracer: Tracer, args, kwargs) -> None:
    symbols = args[1] if len(args) > 1 else kwargs.get("symbols")
    tracer.count("huffman.symbols", np.asarray(symbols).size)


def _count_stream_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("huffman.bytes", args[0].stream_length)


def _count_outliers(tracer: Tracer, args, result) -> None:
    tracer.count("quantizer.outliers", np.asarray(result.outliers).size)


def _count_arg_bytes(name: str):
    def hook(tracer: Tracer, args, kwargs) -> None:
        tracer.count(name, len(args[1]))
    return hook


def _count_result_bytes(name: str):
    def hook(tracer: Tracer, args, result) -> None:
        tracer.count(name, len(result))
    return hook


def _reset_tensor(tracer: Tracer, args, kwargs) -> None:
    tracer._stack()
    tracer._local.tensor = -1


def _next_tensor(tracer: Tracer, args, kwargs) -> None:
    tracer._stack()
    tracer._local.tensor += 1


def _set_client_from_self(tracer: Tracer, args, kwargs) -> None:
    tracer._stack()
    tracer._local.client = int(getattr(args[0], "client_id", -1))


def _ship_started(tracer: Tracer, args, kwargs) -> None:
    stack = tracer._stack()
    task = args[0] if args else kwargs.get("task")
    tracer._local.client = int(getattr(task, "client_id", -1))
    if not stack:  # the outermost ship of this task, not a re-entry
        tracer.count("transport.queue_wait_us",
                     round((_now() - tracer._submit_at) * 1e6))


def _mark_submit(tracer: Tracer, method):
    """Stamp the batch submit time that ``transport.queue_wait`` is measured from."""
    import inspect

    if inspect.isgeneratorfunction(method):
        @functools.wraps(method)
        def marked_gen(*args, **kwargs):
            tracer._submit_at = _now()
            return (yield from method(*args, **kwargs))
        return marked_gen

    @functools.wraps(method)
    def marked(*args, **kwargs):
        tracer._submit_at = _now()
        return method(*args, **kwargs)
    return marked
