"""Prediction stages used by the SZ2- and SZ3-style compressors.

All predictors operate on 1-D arrays because FedSZ flattens every model tensor
before compression (Algorithm 1 of the paper).  Three predictor families are
provided:

* :func:`block_mean_predictor` — the blockwise constant predictor used as this
  reproduction's vectorizable stand-in for SZ2's Lorenzo path (the true Lorenzo
  predictor consumes previously *decompressed* neighbours and is inherently
  sequential; a per-block constant predictor preserves the locality idea while
  remaining a single NumPy pass).
* :func:`block_regression_predictor` — SZ2's per-block linear regression on the
  element index, with float32 coefficients (the stored precision) and
  predictions rebuilt from them by :func:`predictions_from_regression`.
* :class:`InterpolationPredictor` — SZ3's level-by-level linear/cubic
  interpolation predictor on a dyadic grid; each level predicts the midpoints
  of the previous (already reconstructed) level, so the whole pass is
  vectorized per level while still predicting from reconstructed values.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "block_mean_predictor",
    "block_regression_predictor",
    "block_pad",
    "predictions_from_regression",
    "InterpolationPredictor",
]


def block_pad(data: np.ndarray, block_size: int) -> tuple[np.ndarray, int]:
    """Pad ``data`` with edge values to a multiple of ``block_size``.

    Returns the padded 2-D view of shape ``(n_blocks, block_size)`` and the
    original length so callers can trim after reconstruction.
    """
    data = np.asarray(data, dtype=np.float64).ravel()
    n = data.size
    n_blocks = (n + block_size - 1) // block_size if n else 0
    padded_len = n_blocks * block_size
    if padded_len != n:
        pad_value = data[-1] if n else 0.0
        data = np.concatenate([data, np.full(padded_len - n, pad_value)])
    return data.reshape(n_blocks, block_size), n


def block_mean_predictor(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predict every element of a block by the block mean.

    Returns ``(predictions, coefficients)`` where coefficients has shape
    ``(n_blocks, 1)`` holding the float64 means and predictions is a read-only
    broadcast view of them (no copy).  SZ2 hands the means on to
    :func:`block_regression_predictor` so the block mean is computed once.
    """
    means = blocks.mean(axis=1, keepdims=True)
    predictions = np.broadcast_to(means, blocks.shape)
    return predictions, means


def block_regression_predictor(blocks: np.ndarray, means: "np.ndarray | None" = None,
                               out: "np.ndarray | None" = None
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Fit ``y = a + b * i`` per block (least squares on the element index).

    ``means`` are the per-block float64 means (``block_mean_predictor``'s
    coefficients, flattened); ``None`` computes them here.  The coefficients
    are rounded to float32, the precision a payload stores, and the
    predictions are rebuilt from the rounded values by
    :func:`predictions_from_regression`, so an encoder and a decoder that sees
    only the stored coefficients predict identically.  ``out`` is an optional
    float64 buffer of ``blocks``' shape: it holds the fit's scratch, then the
    predictions.

    Returns ``(predictions, coefficients)`` with float32 coefficients of shape
    ``(n_blocks, 2)`` storing ``(a, b)`` per block.
    """
    n_blocks, block_size = blocks.shape
    if means is None:
        means = blocks.mean(axis=1)
    if out is None:
        out = np.empty(blocks.shape, dtype=np.float64)
    idx = np.arange(block_size, dtype=np.float64)
    idx_mean = idx.mean()
    centred = idx - idx_mean
    idx_var = float((centred ** 2).sum())
    if idx_var == 0.0:
        slope = np.zeros(n_blocks)
    else:
        np.subtract(blocks, means[:, None], out=out)
        np.multiply(out, centred, out=out)
        slope = out.sum(axis=1)
        slope /= idx_var
    coefficients = np.empty((n_blocks, 2), dtype=np.float32)
    coefficients[:, 0] = means - slope * idx_mean
    coefficients[:, 1] = slope
    return predictions_from_regression(coefficients, block_size, out=out), coefficients


def predictions_from_regression(coefficients: np.ndarray, block_size: int,
                                out: "np.ndarray | None" = None) -> np.ndarray:
    """Rebuild regression predictions from stored ``(a, b)`` coefficients.

    The arithmetic is float64 whatever the coefficients' dtype; ``out`` is an
    optional float64 buffer of shape ``(n_blocks, block_size)`` to write into.
    """
    coef = coefficients.astype(np.float64, copy=False)
    if out is None:
        out = np.empty((coef.shape[0], block_size), dtype=np.float64)
    np.multiply(coef[:, 1:2], np.arange(block_size, dtype=np.float64), out=out)
    np.add(out, coef[:, 0:1], out=out)
    return out


class InterpolationPredictor:
    """SZ3-style dyadic interpolation predictor for 1-D data.

    The data is viewed as a dyadic hierarchy: level 0 holds anchor points with
    stride ``2**n_levels``; each finer level predicts the new midpoints by
    linear interpolation of the two enclosing points of the coarser
    (reconstructed) level.  :meth:`levels` yields, per level, the indices of
    the points introduced at that level and the indices of their left/right
    parents, which both the compressor and decompressor iterate in the same
    order.
    """

    def __init__(self, n: int, max_levels: int = 16) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.n = int(n)
        levels = 0
        while (1 << (levels + 1)) < max(self.n, 1) and levels < max_levels:
            levels += 1
        self.n_levels = levels
        self.anchor_stride = 1 << levels

    def anchor_indices(self) -> np.ndarray:
        """Indices stored verbatim (the coarsest grid, always includes 0)."""
        if self.n == 0:
            return np.zeros(0, dtype=np.int64)
        return np.arange(0, self.n, self.anchor_stride, dtype=np.int64)

    def levels(self):
        """Yield ``(new_idx, left_idx, right_idx)`` per refinement level.

        When the right parent would fall past the end of the array it does not
        exist on the coarser grid, so the left parent is reused (constant
        prediction at the boundary).
        """
        if self.n == 0:
            return
        stride = self.anchor_stride
        while stride > 1:
            half = stride // 2
            new_idx = np.arange(half, self.n, stride, dtype=np.int64)
            if new_idx.size:
                left_idx = new_idx - half
                right_candidate = new_idx + half
                right_idx = np.where(right_candidate < self.n, right_candidate, left_idx)
                yield new_idx, left_idx, right_idx
            stride = half

    @staticmethod
    def predict(values: np.ndarray, new_idx: np.ndarray, left_idx: np.ndarray,
                right_idx: np.ndarray) -> np.ndarray:
        """Linear interpolation of the midpoints from reconstructed parents."""
        left = values[left_idx]
        right = values[right_idx]
        same = right_idx == left_idx
        # halve-then-add: `0.5 * (left + right)` overflows to inf when both
        # parents sit near the float64 maximum; this form stays finite for
        # every finite input pair
        pred = 0.5 * left + 0.5 * right
        if np.any(same):
            pred = np.where(same, left, pred)
        return pred
