"""Tests for the error-bounded linear quantizer."""

import numpy as np
import pytest

from repro.compressors.quantizer import LinearQuantizer


class TestQuantize:
    def test_error_bound_respected(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, 5000)
        predictions = data + rng.normal(0, 0.1, 5000)
        bound = 0.01
        q = LinearQuantizer().quantize(data, predictions, bound)
        assert np.max(np.abs(q.reconstructed - data)) <= bound + 1e-12

    def test_perfect_prediction_gives_central_code(self):
        data = np.ones(10)
        quantizer = LinearQuantizer(radius=4)
        q = quantizer.quantize(data, data.copy(), 0.1)
        np.testing.assert_array_equal(q.codes, np.full(10, 5))  # radius + 1
        assert q.outliers.size == 0

    def test_outliers_flagged_and_exact(self):
        quantizer = LinearQuantizer(radius=2)
        data = np.array([0.0, 100.0, 0.0])
        predictions = np.zeros(3)
        q = quantizer.quantize(data, predictions, 0.01)
        assert q.codes[1] == 0
        assert q.outliers.size == 1
        np.testing.assert_allclose(q.reconstructed, data)

    def test_dequantize_matches_reconstruction(self):
        rng = np.random.default_rng(1)
        data = rng.normal(0, 0.05, 1000)
        predictions = np.zeros(1000)
        quantizer = LinearQuantizer(radius=64)
        q = quantizer.quantize(data, predictions, 1e-3)
        recon = quantizer.dequantize(q.codes, q.outliers, predictions, 1e-3)
        np.testing.assert_allclose(recon, q.reconstructed)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LinearQuantizer().quantize(np.zeros(3), np.zeros(4), 0.1)

    def test_nonpositive_bound_raises(self):
        with pytest.raises(ValueError):
            LinearQuantizer().quantize(np.zeros(3), np.zeros(3), 0.0)

    def test_invalid_radius_raises(self):
        with pytest.raises(ValueError):
            LinearQuantizer(radius=0)

    @pytest.mark.parametrize("outlier", [False, True])
    def test_out_buffers_match_fresh_arrays(self, outlier):
        # SZ2 quantizes and dequantizes tile by tile into its full arrays
        rng = np.random.default_rng(2)
        data = rng.normal(0, 1, 3000)
        predictions = data + rng.normal(0, 0.01, 3000)
        if outlier:
            data[17] = 1e9
        quantizer = LinearQuantizer(radius=255)
        fresh = quantizer.quantize(data, predictions, 1e-3)
        codes = np.full(3000, -7, dtype=np.int64)
        work = np.full(3000, np.nan)
        into = quantizer.quantize(data, predictions, 1e-3, out=codes, work=work)
        assert into.codes is codes and into.reconstructed is work
        np.testing.assert_array_equal(codes, fresh.codes)
        assert work.tobytes() == fresh.reconstructed.tobytes()
        np.testing.assert_array_equal(into.outliers, fresh.outliers)
        assert into.outliers.size == int(outlier)
        values = np.empty(3000)
        got = quantizer.dequantize(codes, fresh.outliers, predictions, 1e-3, out=values)
        assert got is values
        assert values.tobytes() == fresh.reconstructed.tobytes()

    def test_empty_input(self):
        q = LinearQuantizer().quantize(np.zeros(0), np.zeros(0), 0.1)
        assert q.codes.size == 0 and q.outliers.size == 0

    def test_dequantize_missing_outliers_raises(self):
        quantizer = LinearQuantizer(radius=1)
        codes = np.array([0, 0])
        with pytest.raises(ValueError):
            quantizer.dequantize(codes, np.array([1.0]), np.zeros(2), 0.1)


class TestOutlierPacking:
    def test_pack_unpack_roundtrip(self):
        values = np.array([1.5, -2.25, 1e-30])
        payload = LinearQuantizer.pack_outliers(values)
        out, offset = LinearQuantizer.unpack_outliers(payload)
        np.testing.assert_array_equal(out, values)
        assert offset == len(payload)

    def test_pack_empty(self):
        payload = LinearQuantizer.pack_outliers(np.array([]))
        out, offset = LinearQuantizer.unpack_outliers(payload)
        assert out.size == 0
        assert offset == 8

    def test_unpack_with_offset(self):
        values = np.array([3.0, 4.0])
        payload = b"PREFIX" + LinearQuantizer.pack_outliers(values)
        out, _ = LinearQuantizer.unpack_outliers(payload, offset=6)
        np.testing.assert_array_equal(out, values)
