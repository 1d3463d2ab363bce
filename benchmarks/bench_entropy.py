"""Chunked Huffman entropy stage: vectorized decode vs the scalar reference.

The SZ2/SZ3 entropy stage dominates the paper's Table I timings, and on the
server side one process decodes million-parameter updates from many clients
per round.  This benchmark reproduces that workload on real model tensors: a
trained-looking state dict is quantized exactly as SZ2 would (linear
quantization of the residual against a mean predictor), each weight tensor's
quantization codes are Huffman-encoded into the chunked version-3 bitstream,
and the decode side is timed three ways —

* reference: :meth:`HuffmanCoder._decode_scalar`, the per-symbol scalar loop,
  over the whole stream,
* ``max_workers=1``: the stream as one in-process band (the vectorized row
  walk once it has :data:`_MIN_VECTOR_CHUNKS` chunks, else the scalar loop),
* ``max_workers=N``: the stream cut into bands on the thread pool.

All three must return bit-identical symbol arrays; the ``N``-worker fast
path must be at least ``--min-speedup`` (default 3x) faster than the
reference in aggregate.  ``--smoke`` runs a small model without the timing
assertion so CI can exercise the banded decode path on every Python version.
The full run also times the two kernels on single bands of 1 to 32 chunks
(the crossover that sets :data:`_MIN_VECTOR_CHUNKS`).

The repo's CPU-scaled ``resnet50`` has only ~224K parameters; Table I profiles
the 25.6M-parameter original, so by default the full benchmark rebuilds the
architecture at the paper's size (``width=64``, blocks ``(3, 4, 6, 3)`` —
~23.5M parameters).  ``--repro-scale`` keeps the repo's small variant instead.

Run with ``PYTHONPATH=src python benchmarks/bench_entropy.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_utils import save_results, trained_like_state
from repro.compressors.huffman import (_MIN_VECTOR_CHUNKS, DEFAULT_CHUNK_SYMBOLS,
                                      HuffmanCoder, _WindowTables)
from repro.compressors.quantizer import LinearQuantizer
from repro.metrics import ExperimentRecord, Table

#: Architecture overrides that restore a model to the size the paper profiles.
PAPER_SCALE = {"resnet50": {"width": 64, "blocks_per_stage": (3, 4, 6, 3)}}


def tensor_symbol_streams(state: dict[str, np.ndarray], rel_bound: float,
                          threshold: int = 1024) -> "list[tuple[str, np.ndarray]]":
    """SZ2-style quantization codes for every lossy-partition weight tensor."""
    quantizer = LinearQuantizer()
    streams = []
    for name, array in state.items():
        if "weight" not in name or array.size <= threshold:
            continue
        data = array.astype(np.float64).ravel()
        value_range = float(data.max() - data.min())
        abs_bound = max(rel_bound * value_range, 1e-12)
        predictions = np.full_like(data, float(data.mean()))
        streams.append((name, quantizer.quantize(data, predictions, abs_bound).codes))
    return streams


def decode_reference(coder: HuffmanCoder, payload: bytes) -> np.ndarray:
    """Decode ``payload`` with the scalar reference loop alone."""
    lengths, index, count, total_bits, bits_at = coder._parse_header(payload)
    bit_offsets, sym_counts = index[:, 0], index[:, 1]
    tables = _WindowTables(lengths.astype(np.uint8).tobytes())
    out = np.empty(count, dtype=np.int64)
    coder._decode_scalar(np.frombuffer(payload, dtype=np.uint8, offset=bits_at),
                         bit_offsets, sym_counts,
                         np.concatenate([[0], np.cumsum(sym_counts)[:-1]]),
                         np.concatenate([bit_offsets[1:], [total_bits]]),
                         *tables.scalar(), out)
    return out


def kernel_crossover(symbols: np.ndarray, repeats: int) -> Table:
    """Median time of the scalar loop vs the row walk on one band of ``n``
    1024-symbol chunks (the last one short), for ``n`` from 1 to 32.

    Both kernels read the same shared tables (the scalar loop through
    memoryviews), as every decode does."""
    table = Table("Kernel crossover - one band of 1024-symbol chunks, "
                  "scalar loop vs vectorized row walk",
                  ["chunks", "scalar (ms)", "row walk (ms)", "walk speedup"])
    coder = HuffmanCoder(chunk_size=1024)
    for n_chunks in (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32):
        band = symbols[:n_chunks * 1024 - 341]
        payload = coder.encode(band)
        lengths, index, _, total_bits, bits_at = coder._parse_header(payload)
        bit_bytes = np.frombuffer(payload, dtype=np.uint8, offset=bits_at)
        offsets, counts = index[:, 0], index[:, 1]
        ends = np.concatenate([offsets[1:], [total_bits]])
        tables = _WindowTables(lengths.astype(np.uint8).tobytes())
        out = np.empty(band.size, dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        scalar, walk = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            coder._decode_scalar(bit_bytes, offsets, counts, starts, ends,
                                 *tables.scalar(), out)
            scalar.append(time.perf_counter() - start)
            start = time.perf_counter()
            walked = coder._decode_band_vectorized(bit_bytes, offsets, counts, ends,
                                                   tables.sym, tables.length)
            walk.append(time.perf_counter() - start)
        np.testing.assert_array_equal(out, band)
        np.testing.assert_array_equal(walked, band)
        t_scalar, t_walk = float(np.median(scalar)), float(np.median(walk))
        table.add_row(n_chunks, f"{t_scalar * 1e3:.2f}", f"{t_walk * 1e3:.2f}",
                      f"{t_scalar / t_walk:.2f}x")
    return table


def bench_entropy(model: str, workers: int, chunk: int, rel_bound: float,
                  repeats: int, min_speedup: float | None,
                  model_kwargs: dict | None = None, crossover: bool = False) -> int:
    state = trained_like_state(model, **(model_kwargs or {}))
    streams = tensor_symbol_streams(state, rel_bound)
    coder = HuffmanCoder(chunk_size=chunk)

    table = Table(f"Chunked Huffman decode - {model}, {workers} workers, "
                  f"chunk cap {chunk}, row walk from {_MIN_VECTOR_CHUNKS} chunks",
                  ["tensor", "symbols", "chunks", "reference (ms)", "1 worker (ms)",
                   f"{workers} workers (ms)", "speedup 1w", f"speedup {workers}w"])
    record = ExperimentRecord("entropy",
                              "chunked Huffman decode: one-band and banded "
                              "thread-pool paths vs the scalar reference loop")

    totals = {"reference": 0.0, "single": 0.0, "parallel": 0.0}
    total_syms = 0
    for name, symbols in streams:
        payload = coder.encode(symbols)

        def best_of(decode) -> float:
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                decoded = decode()
                best = min(best, time.perf_counter() - start)
            np.testing.assert_array_equal(decoded, symbols)
            return best

        times = {"reference": best_of(lambda: decode_reference(coder, payload)),
                 "single": best_of(lambda: coder.decode(payload, max_workers=1)),
                 "parallel": best_of(lambda: coder.decode(payload, max_workers=workers))}
        for key, seconds in times.items():
            totals[key] += seconds
        total_syms += symbols.size
        n_chunks = -(-symbols.size // coder._effective_chunk(symbols.size))
        table.add_row(name, symbols.size, n_chunks,
                      *(f"{times[k] * 1e3:.1f}" for k in ("reference", "single", "parallel")),
                      f"{times['reference'] / times['single']:.2f}x",
                      f"{times['reference'] / times['parallel']:.2f}x")
        record.add(tensor=name, symbols=int(symbols.size), chunks=n_chunks,
                   payload_bytes=len(payload), reference_seconds=times["reference"],
                   single_seconds=times["single"], parallel_seconds=times["parallel"])

    speedup_single = totals["reference"] / totals["single"]
    speedup = totals["reference"] / totals["parallel"]
    table.add_row("TOTAL", total_syms, "",
                  *(f"{totals[k] * 1e3:.1f}" for k in ("reference", "single", "parallel")),
                  f"{speedup_single:.2f}x", f"{speedup:.2f}x")
    record.add(model=model, workers=workers, chunk=chunk, total_symbols=total_syms,
               min_vector_chunks=_MIN_VECTOR_CHUNKS,
               total_reference_seconds=totals["reference"],
               total_single_seconds=totals["single"],
               total_parallel_seconds=totals["parallel"],
               speedup_single=speedup_single, speedup=speedup)
    tables = [table]
    if crossover:
        tables.append(kernel_crossover(max((s for _, s in streams), key=len),
                                       max(repeats, 7)))
    save_results("entropy", tables, record)
    rate = {k: total_syms / v / 1e6 for k, v in totals.items()}
    print(f"decode throughput: {rate['reference']:.1f} Msym/s reference, "
          f"{rate['single']:.1f} Msym/s at 1 worker ({speedup_single:.2f}x), "
          f"{rate['parallel']:.1f} Msym/s at {workers} workers ({speedup:.2f}x)")

    if min_speedup is not None and speedup < min_speedup:
        print(f"FAIL: {workers}-worker decode speedup {speedup:.2f}x over the "
              f"reference is below the {min_speedup:.1f}x target", file=sys.stderr)
        return 1
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--model", default="resnet50",
                        help="model whose state dict supplies the tensors")
    parser.add_argument("--workers", type=int, default=4,
                        help="thread-pool size for the banded decode path")
    parser.add_argument("--chunk", type=int, default=DEFAULT_CHUNK_SYMBOLS,
                        help="max symbols per Huffman chunk")
    parser.add_argument("--bound", type=float, default=1e-2,
                        help="relative error bound used for quantization")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repetitions per tensor (best-of)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="fail unless the banded path is this much faster "
                             "than the scalar reference")
    parser.add_argument("--repro-scale", action="store_true",
                        help="use the repo's CPU-scaled architecture instead of "
                             "the paper-size rebuild")
    parser.add_argument("--smoke", action="store_true",
                        help="small model, single repetition, no timing assertion "
                             "(correctness-only CI mode)")
    args = parser.parse_args(argv)

    if args.smoke:
        return bench_entropy("simplecnn", args.workers, args.chunk, args.bound,
                             repeats=1, min_speedup=None)
    model_kwargs = None if args.repro_scale else PAPER_SCALE.get(args.model)
    return bench_entropy(args.model, args.workers, args.chunk, args.bound,
                         repeats=args.repeats, min_speedup=args.min_speedup,
                         model_kwargs=model_kwargs, crossover=True)


if __name__ == "__main__":
    sys.exit(main())
