"""SZ2's tiled block stage: pinned streams, and an untiled reference.

:meth:`SZ2Compressor._body_parts` runs the predictors, the selection and the
quantizer one tile of blocks at a time, and :meth:`_decode_plain_body`
rebuilds predictions and dequantizes the same way.  Tiling must not change a
byte.  The digests below were recorded from the untiled implementation; the
inputs cross tile edges, mix mean- and regression-selected blocks within a
tile and carry outliers near the float64 maximum.  The lossless stage is an
identity codec so the digests do not depend on the zlib build.
"""

import hashlib
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compressors import sz2
from repro.compressors.lossless import LosslessCodec
from repro.compressors.predictors import (
    block_mean_predictor,
    block_pad,
    block_regression_predictor,
    predictions_from_regression,
)
from repro.compressors.quantizer import LinearQuantizer
from repro.compressors.sz2 import SZ2Compressor


class _Identity(LosslessCodec):
    name = "identity"

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, payload: bytes) -> bytes:
        return bytes(payload)


def _noise(n: int, salt: int) -> np.ndarray:
    """Uniform values in [-0.5, 0.5) from integer hashing alone, so the
    inputs are the same on every platform and NumPy version."""
    i = np.arange(n, dtype=np.uint64)
    h = (i + np.uint64(salt)) * np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(29)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    return (h >> np.uint64(40)).astype(np.float64) / 2.0 ** 24 - 0.5


#: blocks per tile and the block size when the digests were recorded
_T, _B = 512, 128


def _cases() -> "dict[str, tuple[np.ndarray, float, str]]":
    cases = {}
    sizes = {"one-block": _B, "tile-minus-1": (_T - 1) * _B, "tile": _T * _B,
             "tile-plus-1": (_T + 1) * _B, "3-tiles-plus-5": (3 * _T + 5) * _B,
             "ragged": (_T + 1) * _B - 37, "empty": 0}
    for name, n in sizes.items():
        for dtype in ("float32", "float64"):
            cases[f"{name}-{dtype}"] = ((0.05 * _noise(n, 7)).astype(dtype), 1e-2, "rel")
    # every tile interleaves constant blocks (mean-selected) with steps,
    # noisy trends and clean trends (regression-selected), and near-constant
    # blocks, where the float32 rounding of the coefficients decides
    i = np.arange(300 * _B, dtype=np.float64)
    kind = (i // _B).astype(np.int64) % 5
    mixed = np.where(kind == 0, 0.25, 0.0)
    mixed = np.where(kind == 1, np.where(i % _B < _B // 2, -1.0, 2.0), mixed)
    mixed = np.where(kind == 2, 1e-3 * i + 0.01 * _noise(i.size, 3), mixed)
    mixed = np.where(kind == 3, 3.0 - 0.02 * (i % _B), mixed)
    mixed = np.where(kind == 4, 1.0 + 1e-6 * _noise(i.size, 5), mixed)
    for dtype in ("float32", "float64"):
        cases[f"mixed-{dtype}"] = (mixed.astype(dtype), 1e-3, "rel")
    # ~40% of these blocks select the mean although their regression
    # predicts differently, by many quantization steps at this bound
    for dtype in ("float32", "float64"):
        near = 1.0 + 1e-6 * _noise((2 * _T + 3) * _B, 17)
        cases[f"near-constant-{dtype}"] = (near.astype(dtype), 1e-4, "rel")
    # spikes overflow the block means' float32 cast and the SSEs to inf, and
    # their blocks take the outlier escape
    spikes = _noise(5 * _B + 17, 11)
    spikes[[40, 300]] = 1.797e308
    spikes[[41, 520]] = -1.7e308
    cases["spikes-abs-float64"] = (spikes, 1e-2, "abs")
    huge = _noise(5 * _B + 17, 13)
    huge[2 * _B:3 * _B] = 1.7e308
    cases["spikes-rel-float64"] = (huge, 1e-4, "rel")
    return cases


#: sha256 prefixes of (compressed stream, decoded array bytes) per case
_DIGESTS = {
    "one-block-float32": ("ecd5e23a6adf07e0e8b723929105b2d2",
                          "46a925b65187a588ed369671f5664a75"),
    "one-block-float64": ("39fba8e059f2eee68a5047044e56f0f2",
                          "cff1db35424d57a92aee47e82e59de52"),
    "tile-minus-1-float32": ("2162fc5f4e51759984ec47f4652ea271",
                             "ea731b41aba4ed1ff6aa721a77ad7886"),
    "tile-minus-1-float64": ("6b95c0d0f03c845948cbf8c1300ceb1b",
                             "dede21dc5f0a35ac1aa3e324d653452b"),
    "tile-float32": ("ddbf4741132cb4534822ae78929bca22",
                     "2f7b3ebce8714d1d8c84da0430bba145"),
    "tile-float64": ("375ce64473baf8fc1474a1b8aa2408da",
                     "9ef1d1b474bc0b173c9107e8df8ff4a0"),
    "tile-plus-1-float32": ("080fdb3d781631f0adb84725cb0aaec7",
                            "21d0bb51f44cdb5fa1acd5447a24c22c"),
    "tile-plus-1-float64": ("bc351b927d7ef720b57393ca40b143fc",
                            "9d3c96a378868f3299772d40f902ba74"),
    "3-tiles-plus-5-float32": ("d2d9278e0b90d34732e1f841212b3225",
                               "2206f7f23023f5f0021e4bde8649d1c8"),
    "3-tiles-plus-5-float64": ("0d1d401af21beb4213cc66b1d6b34eca",
                               "6e296ab33dd4ca1433e6abec07e730b6"),
    "ragged-float32": ("20cf2b178c9cb0b877314e34ddc1f24f",
                       "583f456d9323b932de83658382911618"),
    "ragged-float64": ("f9a76d18032ef58af021d3fed952f246",
                       "fb3224b705879caaee109b114c717e5e"),
    "empty-float32": ("c39f884870ec7034f1abc71ffbb80169",
                      "e3b0c44298fc1c149afbf4c8996fb924"),
    "empty-float64": ("5261ff6c45e9c13cf6b0d331d9f2d1af",
                      "e3b0c44298fc1c149afbf4c8996fb924"),
    "mixed-float32": ("f5f1976d24b8beffc2bf0640f1d375f1",
                      "fe49880685db05ddeb2ad92b79f77419"),
    "mixed-float64": ("35deaac023023c8cc9c2f803e57e332f",
                      "9c67c14f2c439547518a3f91b1aabb12"),
    "near-constant-float32": ("23a80e9d16e2f23d27b5705f37e83915",
                              "65077273548787f00972d7507030d8ee"),
    "near-constant-float64": ("32de17e81a1918351c9e3cdcd677fbb4",
                              "08a448eeb36b4993c1b44a4d867292fe"),
    "spikes-abs-float64": ("f7d8350bacbcd6961fb579e897c39f15",
                           "103ffcf100f202069b057aabb4d70663"),
    "spikes-rel-float64": ("e8033a251a35fa9240acbcddd59954b4",
                           "caba11246127b39379eaaeba64386a6b"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


@pytest.mark.parametrize("name", sorted(_DIGESTS))
def test_stream_and_decode_match_pinned_digests(name):
    data, bound, mode = _cases()[name]
    comp = SZ2Compressor(bound, mode, lossless_backend=_Identity())
    payload = comp.compress(data)
    decoded = comp.decompress(payload)
    assert decoded.dtype == data.dtype
    assert (_digest(payload), _digest(decoded.tobytes())) == _DIGESTS[name]


def test_cases_cross_the_tile_edges_they_name():
    # the sizes above straddle tiles only at the recorded tile size
    assert sz2._tile_blocks(_B) == _T


# ---------------------------------------------------------------------------
# untiled reference, composed from the public predictor and quantizer
def _untiled_body_parts(comp: SZ2Compressor, data: np.ndarray, abs_bound: float):
    blocks, n = block_pad(data, comp.block_size)
    with np.errstate(over="ignore", invalid="ignore"):
        _, means = block_mean_predictor(blocks)
        reg_pred, reg_coef = block_regression_predictor(blocks, means[:, 0])
        mean_coef = means.astype(np.float32)
        mean_pred = np.broadcast_to(mean_coef.astype(np.float64), blocks.shape)
        mean_sse = ((blocks - mean_pred) ** 2).sum(axis=1)
        reg_sse = ((blocks - reg_pred) ** 2).sum(axis=1)
        use_regression = reg_sse < mean_sse
    predictions = np.where(use_regression[:, None], reg_pred, mean_pred)
    quant = LinearQuantizer(comp.quantizer.radius).quantize(
        blocks.ravel(), predictions.ravel(), abs_bound)
    coefficients = np.concatenate(
        [reg_coef[i] if use_regression[i] else mean_coef[i]
         for i in range(blocks.shape[0])]).astype(np.float32)
    selector = np.packbits(use_regression.astype(np.uint8))
    prefix = [struct.pack("<IQI", comp.block_size, blocks.shape[0], comp.quantizer.radius),
              struct.pack("<Q", n),
              struct.pack("<Q", selector.size) + selector.tobytes(),
              struct.pack("<Q", coefficients.size) + coefficients.tobytes()]
    suffix = [LinearQuantizer.pack_outliers(quant.outliers)]
    return prefix, quant.codes, suffix, (use_regression, mean_coef, reg_coef, quant.outliers)


def _untiled_decode(comp, n, abs_bound, codes, use_regression, mean_coef, reg_coef,
                    outliers):
    bs = comp.block_size
    with np.errstate(over="ignore", invalid="ignore"):
        reg_pred = predictions_from_regression(reg_coef, bs)
    predictions = np.where(use_regression[:, None], reg_pred,
                           np.broadcast_to(mean_coef.astype(np.float64),
                                           (use_regression.size, bs)))
    return LinearQuantizer(comp.quantizer.radius).dequantize(
        codes, outliers, predictions.ravel(), abs_bound)[:n]


_values = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 2.5, -1.7e308, 1.7e308, 3e38, 1e-300]),
)


@settings(max_examples=60, deadline=None)
@given(data=hnp.arrays(np.float64, st.integers(0, 200), elements=_values),
       block_size=st.integers(2, 9), tile_values=st.integers(1, 40),
       abs_bound=st.sampled_from([1e-6, 1e-2, 10.0, 1e305]))
def test_tiled_body_parts_match_untiled_reference(data, block_size, tile_values,
                                                  abs_bound):
    comp = SZ2Compressor(block_size=block_size)
    with mock.patch.object(sz2, "_TILE_VALUES", tile_values):
        prefix, codes, suffix = comp._body_parts(data, abs_bound)
        if data.size == 0:
            assert codes is None
            return
        want_prefix, want_codes, want_suffix, parts = _untiled_body_parts(comp, data, abs_bound)
        assert prefix == want_prefix
        np.testing.assert_array_equal(codes, want_codes)
        assert suffix == want_suffix
        body = b"".join(prefix) + struct.pack("<Q", 0) + b"".join(suffix)
        decoded = comp._decode_plain_body(body, data.size, abs_bound, np.float64,
                                          codes=codes)
    want = _untiled_decode(comp, data.size, abs_bound, want_codes, *parts)
    assert decoded.tobytes() == want.tobytes()
