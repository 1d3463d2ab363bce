"""Which public functions the traced run wraps, and the per-layer metrics.

Every span name starts with its layer (the ``repro`` package the function
lives in), so the metric names in ``BENCHMARK.json`` read straight off the
table in ``README.md``.  Per-layer times are seconds per timed unit (one FL
round, or one codec roundtrip); only spans that descend from a timed unit
count, so set-up and warm-up work is excluded.
"""

from __future__ import annotations

import numpy as np

from spans import Span, WrapSpec, covered_seconds, self_times
from stats import percentile, tail_percentile

#: the span the benchmark opens around each unit of work: one FL round, or one
#: compress + decompress of the codec workload's state dict
UNIT_SPAN = "bench.round"
#: span-name prefixes counted as codec work when measuring transport idle time
_CODEC_PREFIXES = ("core.", "compressors.", "fl.delta.")


def _unit_of_metric(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s_" in name:
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith(("_bytes", "bytes_written")):
        return "bytes"
    return "count"


#: every per-layer metric and its unit, in print order
PER_LAYER = {name: _unit_of_metric(name) for name in (
    "nn.train_s", "nn.train_samples_per_s", "nn.eval_s",
    "compressors.predict_s", "compressors.quantize_s",
    "compressors.dequantize_s", "compressors.huffman_encode_s",
    "compressors.huffman_decode_s", "compressors.huffman_symbols",
    "compressors.lossless_compress_s", "compressors.lossless_decompress_s",
    "compressors.outlier_frac", "compressors.codec_self_s",
    "core.pipeline.compress_s", "core.pipeline.decompress_s",
    "core.pipeline.self_s", "core.partition_s", "core.plan_s",
    "fl.delta.residual_s", "fl.delta.reconstruct_s", "fl.delta.accumulate_s",
    "fl.delta.warm_frac", "fl.delta.codebook_reuse_frac",
    "transport.ship_s_p50", "transport.ship_s_tail", "transport.transfer_s",
    "transport.encode_overlap_s", "transport.first_byte_s",
    "transport.payload_bytes", "transport.idle_frac",
    "aggregator.fold_s", "aggregator.peak_residency",
    "journal.write_s", "journal.bytes_written",
    "parallel.pool_spinups", "coordinator.unattributed_frac",
    "trace.overhead_s")}


def _subclasses(cls: type) -> "list[type]":
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _own_methods(root: type, attrs: "tuple[str, ...]", name: str,
                 extract=None) -> "list[WrapSpec]":
    """A spec for every class under ``root`` that defines one of ``attrs``."""
    return [WrapSpec(cls, attr, name, extract)
            for cls in _subclasses(root) for attr in attrs
            if attr in cls.__dict__]


def _train_extract(args, kwargs, result):
    epochs = kwargs.get("epochs", args[1] if len(args) > 1 else 1)
    return {"samples": int(result.num_samples) * int(epochs)}


def _quantize_extract(args, kwargs, result):
    return {"symbols": int(result.codes.size),
            "outliers": int(result.outliers.size)}


def _producer_extract(args, kwargs, result):
    symbols = args[1] if len(args) > 1 else kwargs["symbols"]
    return {"symbols": int(np.size(symbols))}


def _ship_extract(args, kwargs, result):
    first_byte = result.first_byte_seconds
    return {"transfer": float(result.transfer_seconds),
            "payload": int(result.payload_bytes),
            "encode_overlap": float(result.encode_overlap_seconds or 0.0),
            # a batch encode releases its first byte only when it is done
            "first_byte": float(first_byte if first_byte is not None
                                else result.encode_seconds)}


def wrap_specs() -> "list[WrapSpec]":
    """The public functions the traced run wraps, grouped by layer."""
    from repro.compressors import predictors
    from repro.compressors.huffman import (ChunkBandConsumer,
                                           ChunkBandProducer, HuffmanCoder)
    from repro.compressors.lossless import (LosslessCodec, StreamCompressor,
                                            StreamDecompressor)
    from repro.compressors.base import LossyCompressor
    from repro.compressors.quantizer import LinearQuantizer
    from repro.compressors.streaming import SZStreamDecoder, SZStreamEncoder
    from repro.core import partition
    from repro.core.pipeline import (FedSZCompressor, StreamingStateDecoder,
                                     StreamingStateEncoder)
    from repro.core.plan import CompressionPolicy
    from repro.fl import delta
    from repro.fl.client import FLClient
    from repro.fl.coordinator import transport
    from repro.fl.coordinator.aggregator import ArrivalAggregator
    from repro.fl.coordinator.journal import RoundJournal
    from repro.fl.server import FedAvgServer

    specs = [
        WrapSpec(FLClient, "train_local", "nn.train", _train_extract),
        WrapSpec(FedAvgServer, "evaluate", "nn.eval"),
        WrapSpec(predictors, "block_mean_predictor", "compressors.predict"),
        WrapSpec(predictors, "block_regression_predictor", "compressors.predict"),
        WrapSpec(predictors, "predictions_from_regression", "compressors.predict"),
        WrapSpec(LinearQuantizer, "quantize", "compressors.quantize",
                 _quantize_extract),
        WrapSpec(LinearQuantizer, "dequantize", "compressors.dequantize"),
        WrapSpec(ChunkBandProducer, "__init__", "compressors.huffman_encode",
                 _producer_extract),
        WrapSpec(ChunkBandProducer, "bands", "compressors.huffman_encode"),
        WrapSpec(SZStreamEncoder, "chunks", "compressors.codec"),
        WrapSpec(SZStreamDecoder, "feed", "compressors.codec"),
        WrapSpec(SZStreamDecoder, "finish", "compressors.codec"),
        WrapSpec(HuffmanCoder, "decode", "compressors.huffman_decode"),
        WrapSpec(ChunkBandConsumer, "feed", "compressors.huffman_decode"),
        WrapSpec(ChunkBandConsumer, "finish", "compressors.huffman_decode"),
        WrapSpec(FedSZCompressor, "compress_with_report", "core.pipeline.compress"),
        WrapSpec(FedSZCompressor, "decompress_with_report",
                 "core.pipeline.decompress"),
        WrapSpec(StreamingStateEncoder, "chunks", "core.pipeline.compress"),
        WrapSpec(StreamingStateDecoder, "feed", "core.pipeline.decompress"),
        WrapSpec(StreamingStateDecoder, "finish", "core.pipeline.decompress"),
        WrapSpec(partition, "partition_state_dict", "core.partition"),
        WrapSpec(delta, "ef_residual", "fl.delta.residual"),
        WrapSpec(delta, "reconstruct", "fl.delta.reconstruct"),
        WrapSpec(delta, "advance_accumulator", "fl.delta.accumulate"),
        WrapSpec(transport, "ship_update_task", "transport.ship", _ship_extract),
        WrapSpec(transport.SimulatedTransport, "ship_async", "transport.ship",
                 _ship_extract),
        WrapSpec(FedAvgServer, "aggregate", "aggregator.fold"),
        WrapSpec(FedAvgServer, "apply_aggregate", "aggregator.fold"),
        WrapSpec(ArrivalAggregator, "add", "aggregator.fold"),
        WrapSpec(ArrivalAggregator, "finalize", "aggregator.fold"),
    ]
    specs += [WrapSpec(RoundJournal, attr, "journal.write")
              for attr in ("begin_run", "begin_round", "record_shipped",
                           "complete_round")]
    specs += _own_methods(LossyCompressor, ("compress", "decompress"),
                          "compressors.codec")
    specs += _own_methods(CompressionPolicy, ("build_plan",), "core.plan")
    specs += _own_methods(LosslessCodec, ("compress",),
                          "compressors.lossless_compress")
    specs += _own_methods(LosslessCodec, ("decompress",),
                          "compressors.lossless_decompress")
    specs += _own_methods(StreamCompressor, ("feed", "finish"),
                          "compressors.lossless_compress")
    specs += _own_methods(StreamDecompressor, ("feed", "finish"),
                          "compressors.lossless_decompress")
    return specs


def pool_spinups() -> int:
    """Executor pools built so far, summed over every registered backend."""
    from repro.utils.parallel import available_backends, get_backend
    return sum(get_backend(name).pool_spinups for name in available_backends())


def _unit_of(spans: "list[Span]") -> "dict[int, int]":
    """Map each span descending from a timed unit to that unit's id."""
    by_id = {span.id: span for span in spans}
    unit: "dict[int, int | None]" = {}
    for span in spans:
        chain, current = [], span
        while current is not None and current.id not in unit:
            if current.name == UNIT_SPAN:
                unit[current.id] = current.id
                break
            chain.append(current.id)
            current = by_id.get(current.parent)
        found = unit.get(current.id) if current is not None else None
        for sid in chain:
            unit[sid] = found
    return {sid: uid for sid, uid in unit.items() if uid is not None}


def per_layer_metrics(spans: "list[Span]", records: list,
                      extra: dict) -> "dict[str, float]":
    """Derive every per-layer metric from one traced run.

    ``spans`` is the whole trace; the timed units are the ``UNIT_SPAN``
    spans carrying ``attrs["timed"]``.  ``records`` are the timed rounds'
    :class:`~repro.fl.coordinator.records.RoundRecord` (empty on the codec
    workload).  ``extra`` supplies what spans cannot see: ``pool_spinups``,
    ``journal_bytes``, ``overhead_s`` and ``codebook_counters``.
    """
    units = [s for s in spans if s.name == UNIT_SPAN and s.attrs.get("timed")]
    timed_ids = {s.id for s in units}
    unit_of = _unit_of(spans)
    by_id = {span.id: span for span in spans}
    inside = [s for s in spans if unit_of.get(s.id) in timed_ids
              and s.id not in timed_ids]
    n_units = max(len(units), 1)

    def outermost(name: str) -> "list[Span]":
        # a span nested directly in one of its own name (a wrapped method
        # calling another wrapped method of the same layer) is counted once
        return [s for s in inside if s.name == name
                and (s.parent not in by_id or by_id[s.parent].name != name)]

    def per_unit(name: str) -> float:
        return sum(s.duration for s in outermost(name)) / n_units

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in inside if s.name == name))

    selfs = self_times(spans)
    train = outermost("nn.train")
    train_s = sum(s.duration for s in train)
    quant_symbols = attr_sum("compressors.quantize", "symbols")
    ships = outermost("transport.ship")
    ship_times = [s.duration for s in ships]
    metrics = {
        "nn.train_s": train_s / n_units,
        "nn.train_samples_per_s": attr_sum("nn.train", "samples") / train_s
        if train_s else 0.0,
        "nn.eval_s": per_unit("nn.eval"),
    }
    for short in ("predict", "quantize", "dequantize", "huffman_encode",
                  "huffman_decode", "lossless_compress", "lossless_decompress"):
        metrics[f"compressors.{short}_s"] = per_unit(f"compressors.{short}")
    metrics["compressors.huffman_symbols"] = \
        attr_sum("compressors.huffman_encode", "symbols") / n_units
    metrics["compressors.outlier_frac"] = \
        attr_sum("compressors.quantize", "outliers") / quant_symbols \
        if quant_symbols else 0.0
    # codec work outside the wrapped stages: block padding, predictor
    # selection, coefficient packing, container headers
    metrics["compressors.codec_self_s"] = sum(
        selfs[s.id] for s in inside if s.name == "compressors.codec") / n_units
    metrics["core.pipeline.compress_s"] = per_unit("core.pipeline.compress")
    metrics["core.pipeline.decompress_s"] = per_unit("core.pipeline.decompress")
    metrics["core.pipeline.self_s"] = sum(
        selfs[s.id] for s in inside
        if s.name.startswith("core.pipeline.")) / n_units
    metrics["core.partition_s"] = per_unit("core.partition")
    metrics["core.plan_s"] = per_unit("core.plan")
    for short in ("residual", "reconstruct", "accumulate"):
        metrics[f"fl.delta.{short}_s"] = per_unit(f"fl.delta.{short}")
    shipped = sum(len(r.participants) for r in records)
    metrics["fl.delta.warm_frac"] = \
        sum(len(r.delta_clients) for r in records) / shipped if shipped else 0.0
    reuse = extra.get("codebook_counters") or {}
    attempts = sum(reuse.values())
    metrics["fl.delta.codebook_reuse_frac"] = \
        reuse.get("reuses", 0) / attempts if attempts else 0.0

    metrics["transport.ship_s_p50"] = \
        percentile(ship_times, 50.0)[0] if ship_times else 0.0
    metrics["transport.ship_s_tail"] = \
        tail_percentile(ship_times)[1] if ship_times else 0.0
    n_ships = max(len(ships), 1)
    for key, attr in (("transport.transfer_s", "transfer"),
                      ("transport.encode_overlap_s", "encode_overlap"),
                      ("transport.first_byte_s", "first_byte"),
                      ("transport.payload_bytes", "payload")):
        metrics[key] = sum(s.attrs.get(attr, 0) for s in ships) / n_ships
    metrics["transport.idle_frac"] = _idle_fraction(inside, ships, by_id)

    metrics["aggregator.fold_s"] = per_unit("aggregator.fold")
    metrics["aggregator.peak_residency"] = float(max(
        (r.peak_update_residency or 0 for r in records), default=0))
    metrics["journal.write_s"] = per_unit("journal.write")
    metrics["journal.bytes_written"] = extra.get("journal_bytes", 0) / n_units
    metrics["parallel.pool_spinups"] = float(extra.get("pool_spinups", 0))
    unit_time = sum(s.duration for s in units)
    metrics["coordinator.unattributed_frac"] = \
        sum(selfs[s.id] for s in units) / unit_time if unit_time else 0.0
    metrics["trace.overhead_s"] = float(extra.get("overhead_s", 0.0))
    return metrics


def _idle_fraction(inside: "list[Span]", ships: "list[Span]",
                   by_id: "dict[int, Span]") -> float:
    """Share of the ship window in which no codec work ran.

    The window is the union of all ship spans; busy time is the union of the
    codec spans that descend from a ship.  On a slow link the gap is time
    spent waiting for the wire.
    """
    if not ships:
        return 0.0
    ship_ids = {s.id for s in ships}

    def under_ship(span: Span) -> bool:
        current = by_id.get(span.parent)
        while current is not None:
            if current.id in ship_ids:
                return True
            current = by_id.get(current.parent)
        return False

    lo = min(s.start for s in ships)
    hi = max(s.end for s in ships)
    window = covered_seconds(lo, hi, [(s.start, s.end) for s in ships])
    busy = covered_seconds(lo, hi, [(s.start, s.end) for s in inside
                                    if s.name.startswith(_CODEC_PREFIXES)
                                    and under_ship(s)])
    return max(0.0, 1.0 - busy / window) if window else 0.0
