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

The block stage runs over tiles of :data:`_TILE_VALUES` values (512 blocks at
the default block size), reusing two float64 scratch buffers, so no stage
streams a whole-tensor temporary through memory.  Per tile the encoder
computes the block means once (:func:`block_mean_predictor`), fits the
regression from them (:func:`block_regression_predictor`, whose float32
coefficients build the predictions into scratch), computes both SSEs in
place, patches the mean-selected rows of the prediction buffer, and quantizes
into the stream's code array (:meth:`LinearQuantizer.quantize`).  After the
last tile one cumulative sum over the per-block coefficient counts places
every coefficient.  The decoder rebuilds each tile's predictions into scratch
(:func:`predictions_from_regression`) and dequantizes straight into the
output.  Every element sees the same float64 arithmetic as a whole-tensor
pass, so the bitstream does not depend on the tile size.

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

#: Values per tile of the block stage (512 blocks at the default block size of
#: 128).  The predictors, the selection and the quantizer run one tile at a
#: time over reused scratch, so their float64 temporaries stay in cache
#: instead of streaming whole-tensor arrays through memory.  A sweep over the
#: ResNet-50 tensors (2-core Xeon, 2 MiB L2 per core) put 512 blocks ahead of
#: 384, 768, 256 and 64; see CHANGES.md.
_TILE_VALUES = 1 << 16


def _tile_blocks(block_size: int) -> int:
    """Blocks per tile for ``block_size``: at least one."""
    return max(1, _TILE_VALUES // block_size)


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

        data = np.asarray(data, dtype=np.float64).ravel()
        block_size = self.block_size
        n_blocks = -(-data.size // block_size)
        whole = data[:data.size - data.size % block_size].reshape(-1, block_size)
        rows = min(_tile_blocks(block_size), n_blocks)
        codes = np.empty(n_blocks * block_size, dtype=np.int64)
        use_regression = np.empty(n_blocks, dtype=bool)
        means32 = np.empty(n_blocks, dtype=np.float32)
        reg_coef = np.empty((n_blocks, 2), dtype=np.float32)
        predictions = np.empty((rows, block_size), dtype=np.float64)
        squares = np.empty((rows, block_size), dtype=np.float64)
        outliers: list[np.ndarray] = []

        # Values near the float64 extremes overflow the float32 coefficient
        # cast and the SSE accumulation to inf; that only deselects the
        # affected predictor (and the quantizer's outlier escape covers the
        # residuals), so the overflow is expected rather than a fault.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n_blocks, rows):
                hi = min(lo + rows, n_blocks)
                # the last tile may hold the ragged block, padded on its own
                tile = whole[lo:hi] if hi <= whole.shape[0] \
                    else block_pad(data[lo * block_size:], block_size)[0]
                pred, sq = predictions[:hi - lo], squares[:hi - lo]
                _, means = block_mean_predictor(tile)
                _, reg_coef[lo:hi] = block_regression_predictor(tile, means[:, 0], out=pred)
                # The stored coefficients are float32, so both predictors
                # predict from the rounded values the decoder will see and the
                # error bound survives serialization.
                means32[lo:hi] = means[:, 0]
                mean_pred = means32[lo:hi, None].astype(np.float64)
                np.subtract(tile, mean_pred, out=sq)
                np.square(sq, out=sq)
                mean_sse = sq.sum(axis=1)
                np.subtract(tile, pred, out=sq)
                np.square(sq, out=sq)
                use = np.less(sq.sum(axis=1), mean_sse, out=use_regression[lo:hi])
                if not use.all():
                    mean_rows = ~use
                    pred[mean_rows] = mean_pred[mean_rows]
                quant = self.quantizer.quantize(
                    tile.ravel(), pred.ravel(), abs_bound,
                    out=codes[lo * block_size:hi * block_size], work=sq.ravel())
                if quant.outliers.size:
                    outliers.append(quant.outliers)

        # Coefficients are stored in block order: one float for mean blocks,
        # two floats for regression blocks.
        sizes = use_regression + 1
        starts = np.cumsum(sizes) - sizes
        coefficients = np.empty(int(starts[-1] + sizes[-1]), dtype=np.float32)
        coefficients[starts] = np.where(use_regression, reg_coef[:, 0], means32)
        coefficients[starts[use_regression] + 1] = reg_coef[use_regression, 1]

        selector_bits = np.packbits(use_regression)

        prefix = [struct.pack("<IQI", block_size, n_blocks, self.quantizer.radius),
                  struct.pack("<Q", data.size),
                  struct.pack("<Q", selector_bits.size) + selector_bits.tobytes(),
                  struct.pack("<Q", coefficients.size) + coefficients.tobytes()]
        suffix = [LinearQuantizer.pack_outliers(
            np.concatenate(outliers) if outliers else np.zeros(0))]
        return prefix, codes, suffix

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
        use_regression = np.unpackbits(selector_bits)[:n_blocks].view(bool)
        if block_size == 0 or use_regression.size != n_blocks:
            raise ValueError(f"corrupt SZ2 body: {sel_len} selector bytes and block "
                             f"size {block_size} for {n_blocks} blocks")
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
        sizes = use_regression + 1
        starts = np.cumsum(sizes) - sizes
        if codes.size != n_blocks * block_size or starts[-1] + sizes[-1] > coef_count:
            raise ValueError(f"corrupt SZ2 body: {codes.size} codes and {coef_count} "
                             f"coefficients for {n_blocks} blocks of {block_size}")

        # Every block as an (intercept, slope) pair: a mean block is
        # (mean, 0), and mean + 0 * i is the mean itself.  (A -0.0 mean
        # predicts +0.0 instead, which no reconstruction can tell apart: the
        # scaled quotient added to it is never -0.0.)
        pairs = np.zeros((n_blocks, 2), dtype=np.float32)
        pairs[:, 0] = coefficients[starts]
        pairs[use_regression, 1] = coefficients[starts[use_regression] + 1]

        quantizer = LinearQuantizer(radius)
        rows = min(_tile_blocks(block_size), n_blocks)
        predictions = np.empty((rows, block_size), dtype=np.float64)
        values = np.empty(n_blocks * block_size, dtype=np.float64)
        used = 0
        # inf coefficients (an encoder-side float32 overflow) predict inf or
        # NaN; those positions were outliers, restored by dequantize
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n_blocks, rows):
                hi = min(lo + rows, n_blocks)
                span = slice(lo * block_size, hi * block_size)
                pred = predictions_from_regression(pairs[lo:hi], block_size,
                                                   out=predictions[:hi - lo])
                tile_codes = codes[span]
                quantizer.dequantize(tile_codes, outliers[used:], pred.ravel(),
                                     abs_bound, out=values[span])
                used += int(np.count_nonzero(tile_codes == 0))
        return values[:original_len]
