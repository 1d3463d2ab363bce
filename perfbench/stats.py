"""The benchmark's own arithmetic: medians, tail percentiles, Eqn. 1, PSNR, WMW.

Everything here is a pure function of its arguments so the unit tests in
``test_perfbench.py`` can check it against hand-computed values.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np

#: percentiles tried, highest first, when choosing a timing's reported tail
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> "tuple[float, int]":
    """The ``q``-th percentile (linear interpolation) and the sample count."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)), len(values)


def tail_percentile(values: Sequence[float]) -> "tuple[float, float, int]":
    """``(q, value, n)`` for the highest percentile with >= 10 samples beyond it.

    Falls back to the median when the sample is too small for any tail.
    """
    n = len(values)
    for q in TAIL_CANDIDATES:
        if n * (100.0 - q) >= MIN_BEYOND * 100.0:
            value, _ = percentile(values, q)
            return q, value, n
    value, _ = percentile(values, 50.0)
    return 50.0, value, n


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    data = [float(v) for v in values]
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def eqn1_seconds(compress_s: float, decompress_s: float, payload_bytes: float,
                 bandwidth_mbps: float) -> float:
    """Eqn. 1's left side: ``t_C + t_D + S'/B`` with ``B`` in megabits/s."""
    if bandwidth_mbps <= 0:
        raise ValueError("bandwidth must be positive")
    return compress_s + decompress_s + payload_bytes * 8.0 / (bandwidth_mbps * 1e6)


def psnr_db(original: Sequence[np.ndarray], decoded: Sequence[np.ndarray]) -> float:
    """Value-range PSNR over a set of tensors taken together.

    ``20 log10(max - min) - 10 log10(MSE)``, with range and MSE over every
    element of every tensor.  An exact reconstruction returns ``inf``.
    """
    lo, hi, sq, count = math.inf, -math.inf, 0.0, 0
    for ref, out in zip(original, decoded, strict=True):
        ref64 = np.asarray(ref, dtype=np.float64)
        if ref64.size == 0:
            continue
        diff = ref64 - np.asarray(out, dtype=np.float64)
        lo, hi = min(lo, float(ref64.min())), max(hi, float(ref64.max()))
        sq += float(np.dot(diff.ravel(), diff.ravel()))
        count += ref64.size
    if count == 0:
        raise ValueError("PSNR of an empty tensor set")
    mse = sq / count
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(hi - lo) - 10.0 * math.log10(mse)


def wmw_effect(a: Sequence[float], b: Sequence[float]) -> float:
    """Wilcoxon-Mann-Whitney effect ``P(B < A) + P(B = A) / 2``.

    Computed over all pairs of per-run values; 0.5 means no shift.
    """
    a = np.asarray(a, dtype=np.float64)[:, None]
    b = np.asarray(b, dtype=np.float64)[None, :]
    if a.size == 0 or b.size == 0:
        raise ValueError("WMW effect needs two non-empty samples")
    return float(((b < a).sum() + 0.5 * (b == a).sum()) / (a.size * b.size))
