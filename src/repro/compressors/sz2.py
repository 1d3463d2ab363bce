"""SZ2-style error-bounded lossy compressor.

The real SZ2 (Liang et al., 2018) processes data in small blocks, predicts each
value with either a Lorenzo predictor or a per-block linear regression, chooses
the better predictor per block, quantizes the prediction error against the
error bound, Huffman-encodes the quantization codes, and finishes with a
lossless pass (Zstd).

This reproduction keeps the same pipeline with one documented substitution: the
sequential Lorenzo predictor (which consumes previously *decompressed*
neighbours) is replaced by a per-block constant (mean) predictor so the whole
compressor is a handful of vectorized NumPy passes.  The hybrid
mean-vs-regression selection, the per-element error-bound guarantee, the
Huffman stage, and the final lossless stage are all faithful to SZ2's design.

Payload body layout (after the :class:`~repro.compressors.base.LossyCompressor`
header)::

    u32   block size
    u64   number of blocks
    u32   quantizer radius
    bytes selector bitmap (1 bit per block: 0 = mean predictor, 1 = regression)
    f32[] predictor coefficients (1 per mean block, 2 per regression block)
    u64   Huffman stream length, Huffman-coded quantization codes
    u64   outlier count, f64[] verbatim outliers

The entire body is then passed through the configured lossless backend.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import ErrorBound, ErrorBoundMode, LossyCompressor
from repro.compressors.codebook import entropy_encode
from repro.compressors.huffman import DEFAULT_CHUNK_SYMBOLS, HuffmanCoder
from repro.compressors.lossless import LosslessCodec, get_lossless
from repro.compressors.predictors import (
    block_mean_predictor,
    block_pad,
    block_regression_predictor,
    predictions_from_regression,
)
from repro.compressors.quantizer import LinearQuantizer
from repro.compressors.streaming import SZStreamDecoder, SZStreamEncoder
from repro.utils.bitstream import StreamBuffer

__all__ = ["SZ2Compressor"]


class SZ2Compressor(LossyCompressor):
    """Blockwise hybrid-prediction error-bounded compressor (SZ2 style)."""

    name = "sz2"

    def __init__(self, error_bound: ErrorBound | float = 1e-2,
                 mode: ErrorBoundMode | str = ErrorBoundMode.REL,
                 block_size: int = 128, quantizer_radius: int = 32768,
                 lossless_backend: str | LosslessCodec = "zlib",
                 entropy_chunk: int = DEFAULT_CHUNK_SYMBOLS,
                 entropy_workers: int | None = 1,
                 entropy_backend: str = "thread") -> None:
        super().__init__(error_bound, mode)
        if block_size < 2:
            raise ValueError("block_size must be >= 2")
        self.block_size = int(block_size)
        self.quantizer = LinearQuantizer(quantizer_radius)
        # entropy_chunk caps the symbols per Huffman chunk; entropy_workers
        # sets how many bands the decode is cut into (1 = one in-process band)
        # on the named execution backend (serial / thread / process), and each
        # band's width picks its kernel (vectorized row walk or scalar loop).
        self.huffman = HuffmanCoder(chunk_size=entropy_chunk, max_workers=entropy_workers,
                                    backend=entropy_backend)
        if isinstance(lossless_backend, LosslessCodec):
            self.lossless = lossless_backend
        else:
            self.lossless = get_lossless(lossless_backend, level=1) if lossless_backend == "zlib" \
                else get_lossless(lossless_backend)

    # ------------------------------------------------------------------
    def _compress_float1d(self, data: np.ndarray, abs_bound: float) -> bytes:
        prefix, codes, suffix = self._body_parts(data, abs_bound)
        if codes is None:
            return self.lossless.compress(b"".join(prefix + suffix))
        huff = entropy_encode(self.huffman, codes, self._codebook)
        body = b"".join(prefix) + struct.pack("<Q", len(huff)) + huff + b"".join(suffix)
        return self.lossless.compress(body)

    def _body_parts(self, data: np.ndarray, abs_bound: float
                    ) -> "tuple[list[bytes], np.ndarray | None, list[bytes]]":
        """Split the plaintext body into (pre-Huffman pieces, quantization
        codes, post-Huffman pieces).

        Shared by the batch :meth:`_compress_float1d` and the streaming
        :class:`~repro.compressors.streaming.SZStreamEncoder`, which entropy-
        codes the returned symbols through a
        :class:`~repro.compressors.huffman.ChunkBandProducer` so both paths
        produce byte-identical bodies.  ``codes is None`` marks the
        empty-array escape (no embedded Huffman stream).
        """
        if data.size == 0:
            return [struct.pack("<IQI", self.block_size, 0, self.quantizer.radius)], None, []

        blocks, original_len = block_pad(data, self.block_size)
        n_blocks = blocks.shape[0]

        # Values near the float64 extremes overflow the float32 coefficient
        # cast and the SSE accumulation to inf; that only deselects the
        # affected predictor (and the quantizer's outlier escape covers the
        # residuals), so the overflow is expected rather than a fault.
        with np.errstate(over="ignore", invalid="ignore"):
            mean_pred, mean_coef = block_mean_predictor(blocks)
            reg_pred, reg_coef = block_regression_predictor(blocks)

            # Cast coefficients to float32 *before* forming predictions so the
            # decoder (which only sees float32 coefficients) reproduces the
            # exact same predictions and the error bound survives
            # serialization.
            mean_coef32 = mean_coef.astype(np.float32)
            reg_coef32 = reg_coef.astype(np.float32)
            mean_pred = np.broadcast_to(mean_coef32.astype(np.float64), blocks.shape)
            reg_pred = predictions_from_regression(reg_coef32.astype(np.float64), self.block_size)

            mean_sse = ((blocks - mean_pred) ** 2).sum(axis=1)
            reg_sse = ((blocks - reg_pred) ** 2).sum(axis=1)
            use_regression = reg_sse < mean_sse

        predictions = np.where(use_regression[:, None], reg_pred, mean_pred)
        quant = self.quantizer.quantize(blocks.ravel(), predictions.ravel(), abs_bound)

        # Coefficients are stored in block order: one float for mean blocks,
        # two floats for regression blocks.
        coef_chunks: list[np.ndarray] = []
        for i in range(n_blocks):
            if use_regression[i]:
                coef_chunks.append(reg_coef32[i])
            else:
                coef_chunks.append(mean_coef32[i])
        coefficients = np.concatenate(coef_chunks).astype(np.float32) if coef_chunks else np.zeros(0, np.float32)

        selector_bits = np.packbits(use_regression.astype(np.uint8))

        prefix = [struct.pack("<IQI", self.block_size, n_blocks, self.quantizer.radius),
                  struct.pack("<Q", original_len),
                  struct.pack("<Q", selector_bits.size) + selector_bits.tobytes(),
                  struct.pack("<Q", coefficients.size) + coefficients.tobytes()]
        suffix = [LinearQuantizer.pack_outliers(quant.outliers)]
        return prefix, quant.codes, suffix

    # ------------------------------------------------------------------
    def _decompress_float1d(self, body: bytes, count: int, abs_bound: float,
                            dtype: np.dtype) -> np.ndarray:
        return self._decode_plain_body(self.lossless.decompress(body), count,
                                       abs_bound, dtype)

    def stream_decoder(self) -> SZStreamDecoder:
        """Incremental decoder that overlaps the Huffman stage with arrival."""
        return SZStreamDecoder(self)

    def stream_encoder(self) -> SZStreamEncoder:
        """Incremental encoder that emits the body as the Huffman stage codes."""
        return SZStreamEncoder(self)

    def _huffman_span(self, plain: "StreamBuffer") -> "tuple[int, int] | None":
        """Locate the embedded Huffman stream in a plaintext body prefix.

        Returns ``(start, length)`` once the pre-Huffman fields have arrived,
        ``None`` while more bytes are needed.  Length 0 means the body has no
        Huffman stream (the empty-array escape).  Field *validation* is not
        duplicated here — a nonsensical length simply keeps the span
        unresolved and the batch parser raises the canonical error at finish.
        """
        if not plain.has(16):
            return None
        _, n_blocks, _ = struct.unpack("<IQI", plain.view(0, 16))
        if n_blocks == 0:
            return 16, 0
        offset = 24  # past <IQI> and original_len
        if not plain.has(8, offset):
            return None
        (sel_len,) = struct.unpack("<Q", plain.view(offset, offset + 8))
        offset += 8 + sel_len
        if not plain.has(8, offset):
            return None
        (coef_count,) = struct.unpack("<Q", plain.view(offset, offset + 8))
        offset += 8 + 4 * coef_count
        if not plain.has(8, offset):
            return None
        (huff_len,) = struct.unpack("<Q", plain.view(offset, offset + 8))
        return offset + 8, huff_len

    def _decode_plain_body(self, body: bytes, count: int, abs_bound: float,
                           dtype: np.dtype,
                           codes: "np.ndarray | None" = None) -> np.ndarray:
        """Reconstruct from the decompressed body.

        ``codes`` carries pre-decoded Huffman symbols from the streaming
        consumer; ``None`` (the batch path) decodes them here.  Both sources
        run the same kernels, so the output is bit-identical either way.
        """
        block_size, n_blocks, radius = struct.unpack_from("<IQI", body, 0)
        offset = 16
        if n_blocks == 0:
            return np.zeros(count, dtype=np.float64)
        (original_len,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        (sel_len,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        selector_bits = np.frombuffer(body, dtype=np.uint8, count=sel_len, offset=offset)
        offset += sel_len
        use_regression = np.unpackbits(selector_bits)[:n_blocks].astype(bool)
        (coef_count,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        coefficients = np.frombuffer(body, dtype=np.float32, count=coef_count, offset=offset)
        offset += 4 * coef_count
        (huff_len,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        if codes is None:
            codes = self.huffman.decode(body[offset : offset + huff_len])
        offset += huff_len
        outliers, offset = LinearQuantizer.unpack_outliers(body, offset)

        # Rebuild per-block predictions from the stored coefficients.
        predictions = np.empty((n_blocks, block_size), dtype=np.float64)
        coef_offsets = np.zeros(n_blocks, dtype=np.int64)
        sizes = np.where(use_regression, 2, 1)
        coef_offsets[1:] = np.cumsum(sizes)[:-1]

        mean_blocks = np.flatnonzero(~use_regression)
        if mean_blocks.size:
            means = coefficients[coef_offsets[mean_blocks]].astype(np.float64)
            predictions[mean_blocks] = means[:, None]
        reg_blocks = np.flatnonzero(use_regression)
        if reg_blocks.size:
            intercepts = coefficients[coef_offsets[reg_blocks]].astype(np.float64)
            slopes = coefficients[coef_offsets[reg_blocks] + 1].astype(np.float64)
            idx = np.arange(block_size, dtype=np.float64)
            predictions[reg_blocks] = intercepts[:, None] + slopes[:, None] * idx[None, :]

        quantizer = LinearQuantizer(radius)
        values = quantizer.dequantize(codes, outliers, predictions.ravel(), abs_bound)
        return values[:original_len]
