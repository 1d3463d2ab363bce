"""Error-bounded linear quantization of prediction residuals.

The prediction-based compressors (SZ2, SZ3) turn each residual
``r = x - prediction`` into an integer code ``q = round(r / (2 * eps))`` so
that the reconstruction ``prediction + 2 * eps * q`` differs from ``x`` by at
most ``eps``.  Values whose code would fall outside the configured quantization
radius are flagged *unpredictable* and stored verbatim (lossless), exactly like
SZ's outlier handling.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = ["LinearQuantizer", "QuantizationResult"]


@dataclass
class QuantizationResult:
    """Output of :meth:`LinearQuantizer.quantize`.

    ``codes`` holds shifted non-negative symbols (ready for Huffman): code 0 is
    reserved for unpredictable values, predictable values map to
    ``q + radius + 1``.  ``outliers`` stores the verbatim float values for the
    positions where ``codes == 0``, in order of appearance.
    """

    codes: np.ndarray
    outliers: np.ndarray
    reconstructed: np.ndarray


class LinearQuantizer:
    """Uniform quantizer with a symmetric integer radius and outlier escape.

    Both directions take caller buffers — :meth:`quantize` an ``out`` for the
    codes and a ``work`` scratch that ends as the reconstruction,
    :meth:`dequantize` an ``out`` for the reconstruction — so SZ2's block
    stage, which calls them once per tile of blocks, allocates nothing per
    tile and writes straight into its whole-tensor arrays.
    A call whose every position is predictable — the common case — skips the
    outlier masks entirely; results are identical either way.
    """

    def __init__(self, radius: int = 32768) -> None:
        if radius < 1:
            raise ValueError("radius must be >= 1")
        self.radius = int(radius)

    def quantize(self, data: np.ndarray, predictions: np.ndarray, abs_bound: float,
                 out: "np.ndarray | None" = None,
                 work: "np.ndarray | None" = None) -> QuantizationResult:
        """Quantize ``data - predictions`` under the absolute bound.

        ``out`` is an optional int64 buffer of ``data``'s shape that receives
        the codes (``result.codes`` is then ``out``), so a caller working tile
        by tile, like SZ2, writes straight into its stream's code array.
        ``work`` is an optional float64 scratch buffer of ``data``'s shape,
        overlapping neither input, that ends up holding the reconstruction
        (``result.reconstructed`` is then ``work``).
        """
        data = np.asarray(data, dtype=np.float64)
        predictions = np.asarray(predictions, dtype=np.float64)
        if data.shape != predictions.shape:
            raise ValueError("data and predictions must have the same shape")
        if abs_bound <= 0:
            raise ValueError("abs_bound must be positive")
        q = np.empty(data.shape, dtype=np.int64) if out is None else out
        if work is None:
            work = np.empty(data.shape, dtype=np.float64)
        step, radius = 2.0 * abs_bound, float(self.radius)
        # One float64 scratch buffer (`work`) serves as the residual, the
        # rounded quotient, the reconstruction candidate and finally the
        # reconstruction itself; every operation is the same float64
        # arithmetic as the naive expression-per-temporary form.  The common
        # case — every quotient within the radius and every candidate finite,
        # as min/max confirm (they propagate NaN, which fails both tests) —
        # needs no masks at all; anything else takes the outlier escape.
        with np.errstate(over="ignore", invalid="ignore"):
            self._quotient(data, predictions, step, work)
            if work.size and -radius <= work.min() and work.max() <= radius:
                np.copyto(q, work, casting="unsafe")
                np.multiply(work, step, out=work)
                np.add(work, predictions, out=work)       # the candidate
                if np.isfinite(work.min()) and np.isfinite(work.max()):
                    np.add(q, self.radius + 1, out=q)
                    return QuantizationResult(codes=q, outliers=np.zeros(0),
                                              reconstructed=work)
                self._quotient(data, predictions, step, work)
            return self._quantize_with_outliers(data, predictions, work, step, q)

    @staticmethod
    def _quotient(data: np.ndarray, predictions: np.ndarray, step: float,
                  work: np.ndarray) -> None:
        """The rounded quotient ``rint((data - predictions) / step)`` into ``work``."""
        np.subtract(data, predictions, out=work)          # residual
        np.divide(work, step, out=work)
        np.rint(work, out=work)

    def _quantize_with_outliers(self, data: np.ndarray, predictions: np.ndarray,
                                work: np.ndarray, step: float,
                                q: np.ndarray) -> QuantizationResult:
        """:meth:`quantize` from the rounded quotient in ``work`` when some
        positions take the outlier escape.

        The quotient is screened in float64 *before* the int64 cast: a huge
        residual-to-bound ratio (or a non-finite prediction) would otherwise
        overflow the cast into arbitrary negative codes.
        """
        predictable = np.isfinite(work)
        # |q| <= radius without materializing a full-size |q| buffer
        predictable &= work <= float(self.radius)
        predictable &= work >= -float(self.radius)
        npred = np.logical_not(predictable)
        np.copyto(work, 0.0, where=npred)
        np.copyto(q, work, casting="unsafe")
        # the reconstruction itself must be screened too: with a huge bound,
        # `2 * abs_bound * q` can round past the float64 maximum even when the
        # quotient is small (e.g. data 1.75e308 predicted at 1.6e308 with
        # bound 1e307), so such positions take the outlier escape instead of
        # reconstructing as inf
        np.multiply(work, step, out=work)
        np.add(work, predictions, out=work)               # the candidate
        np.isfinite(work, out=npred)
        predictable &= npred
        np.logical_not(predictable, out=npred)
        np.copyto(q, 0, where=npred)
        np.copyto(work, data, where=npred)                # the reconstruction
        np.add(q, self.radius + 1, out=q, where=predictable)
        outliers = data[npred].astype(np.float64)
        return QuantizationResult(codes=q, outliers=outliers, reconstructed=work)

    def dequantize(self, codes: np.ndarray, outliers: np.ndarray, predictions: np.ndarray,
                   abs_bound: float, out: "np.ndarray | None" = None) -> np.ndarray:
        """Invert :meth:`quantize` given the same predictions.

        Mirrors the scratch discipline of :meth:`quantize`: one float64
        buffer (`work`, which is ``out`` when given) serves as the shifted
        quotient, the scaled residual, and finally the reconstruction, with
        every operation the same float64 arithmetic as the naive
        expression-per-temporary form — bit-identical results, no full-size
        temporary beyond the output.  The leading ``count(codes == 0)``
        outliers fill the unpredictable positions; any surplus is ignored.
        """
        codes = np.asarray(codes, dtype=np.int64)
        predictions = np.asarray(predictions, dtype=np.float64)
        work = np.empty(codes.shape, dtype=np.float64) if out is None else out
        # the shift runs in int64 and only its result is cast to float64
        np.subtract(codes, self.radius + 1, out=work)
        with np.errstate(over="ignore", invalid="ignore"):
            # unpredictable positions (code 0 → q = -radius-1) may overflow
            # here; they are overwritten from the outlier list just below
            np.multiply(work, 2.0 * abs_bound, out=work)
            np.add(predictions, work, out=work)
        unpred = codes == 0
        n_unpred = int(np.count_nonzero(unpred))
        if n_unpred:
            if outliers.size < n_unpred:
                raise ValueError("not enough outlier values to dequantize")
            work[unpred] = outliers[:n_unpred]
        return work

    # -- payload helpers -----------------------------------------------------
    @staticmethod
    def pack_outliers(outliers: np.ndarray) -> bytes:
        """Serialize verbatim outlier values (float64, length prefixed)."""
        outliers = np.asarray(outliers, dtype=np.float64)
        return struct.pack("<Q", outliers.size) + outliers.tobytes()

    @staticmethod
    def unpack_outliers(payload: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
        """Inverse of :func:`pack_outliers`; returns the array and next offset."""
        (count,) = struct.unpack_from("<Q", payload, offset)
        offset += 8
        values = np.frombuffer(payload, dtype=np.float64, count=count, offset=offset).copy()
        return values, offset + 8 * count
