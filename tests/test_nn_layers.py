"""Gradient and behaviour tests for the neural-network layers.

Analytic backward passes are verified against central-difference numerical
gradients on tiny tensors.
"""

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
)
from repro.nn.module import Sequential


def numerical_grad_input(layer, x, grad_out, eps=1e-4):
    """Central-difference dL/dx where L = sum(forward(x) * grad_out)."""
    x = x.astype(np.float64)
    num = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = float((layer.forward(x) * grad_out).sum())
        x[idx] = orig - eps
        minus = float((layer.forward(x) * grad_out).sum())
        x[idx] = orig
        num[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return num


def numerical_grad_param(layer, param, x, grad_out, eps=1e-4):
    """Central-difference dL/dparam for the same scalar loss."""
    num = np.zeros_like(param.data, dtype=np.float64)
    it = np.nditer(param.data, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = float(param.data[idx])
        param.data[idx] = orig + eps
        plus = float((layer.forward(x) * grad_out).sum())
        param.data[idx] = orig - eps
        minus = float((layer.forward(x) * grad_out).sum())
        param.data[idx] = orig
        num[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return num


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(6, 4, rng=rng)
        out = layer(rng.standard_normal((5, 6)))
        assert out.shape == (5, 4)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))
        grad_out = rng.standard_normal((2, 3))
        layer.forward(x)
        analytic = layer.backward(grad_out)
        numeric = numerical_grad_input(layer, x.copy(), grad_out)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-5)

    def test_weight_gradient_matches_numerical(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))
        grad_out = rng.standard_normal((2, 3))
        layer.forward(x)
        layer.zero_grad()
        layer.backward(grad_out)
        numeric = numerical_grad_param(layer, layer.weight, x, grad_out)
        np.testing.assert_allclose(layer.weight.grad, numeric, rtol=1e-3, atol=1e-4)

    def test_bias_gradient(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        grad_out = rng.standard_normal((5, 3))
        layer.forward(x)
        layer.zero_grad()
        layer.backward(grad_out)
        np.testing.assert_allclose(layer.bias.grad, grad_out.sum(axis=0), rtol=1e-5)

    def test_no_bias_option(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(list(layer.named_parameters())) == 1


class TestConv2d:
    def test_forward_shape_padding_stride(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = layer(rng.standard_normal((2, 3, 8, 8)))
        assert out.shape == (2, 8, 4, 4)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, rng=rng)
        x = rng.standard_normal((1, 2, 5, 5))
        grad_out = rng.standard_normal((1, 3, 5, 5))
        layer.forward(x)
        analytic = layer.backward(grad_out)
        numeric = numerical_grad_input(layer, x.copy(), grad_out)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-4)

    def test_weight_gradient_matches_numerical(self, rng):
        layer = Conv2d(2, 2, 3, padding=1, rng=rng)
        x = rng.standard_normal((1, 2, 4, 4))
        grad_out = rng.standard_normal((1, 2, 4, 4))
        layer.forward(x)
        layer.zero_grad()
        layer.backward(grad_out)
        numeric = numerical_grad_param(layer, layer.weight, x, grad_out)
        np.testing.assert_allclose(layer.weight.grad, numeric, rtol=1e-3, atol=1e-4)

    def test_depthwise_forward_shape(self, rng):
        layer = Conv2d(4, 4, 3, padding=1, groups=4, rng=rng)
        out = layer(rng.standard_normal((2, 4, 6, 6)))
        assert out.shape == (2, 4, 6, 6)

    def test_depthwise_input_gradient(self, rng):
        layer = Conv2d(2, 2, 3, padding=1, groups=2, rng=rng)
        x = rng.standard_normal((1, 2, 4, 4))
        grad_out = rng.standard_normal((1, 2, 4, 4))
        layer.forward(x)
        analytic = layer.backward(grad_out)
        numeric = numerical_grad_input(layer, x.copy(), grad_out)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-4)

    def test_depthwise_matches_dense_when_single_channel(self, rng):
        dense = Conv2d(1, 1, 3, padding=1, rng=np.random.default_rng(0))
        depth = Conv2d(1, 1, 3, padding=1, groups=1, rng=np.random.default_rng(0))
        depth.weight.data = dense.weight.data.copy()
        depth.bias.data = dense.bias.data.copy()
        x = rng.standard_normal((2, 1, 5, 5))
        np.testing.assert_allclose(dense(x), depth(x), rtol=1e-5)

    def test_invalid_groups_raises(self):
        with pytest.raises(ValueError):
            Conv2d(4, 8, 3, groups=2)

    def test_stride_without_padding(self, rng):
        layer = Conv2d(1, 2, 3, stride=2, padding=0, rng=rng)
        out = layer(rng.standard_normal((1, 1, 7, 7)))
        assert out.shape == (1, 2, 3, 3)


class TestBatchNorm2d:
    def test_training_normalizes_batch(self, rng):
        layer = BatchNorm2d(3)
        x = rng.standard_normal((8, 3, 4, 4)) * 5 + 2
        out = layer(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_updated(self, rng):
        layer = BatchNorm2d(2, momentum=0.5)
        x = rng.standard_normal((16, 2, 3, 3)) + 4.0
        layer(x)
        assert np.all(layer._buffers["running_mean"] > 1.0)
        assert layer._buffers["num_batches_tracked"][0] == 1

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm2d(2)
        x = rng.standard_normal((8, 2, 4, 4))
        layer(x)
        layer.train(False)
        y1 = layer(x[:2])
        y2 = layer(x[:2])
        np.testing.assert_allclose(y1, y2)

    def test_input_gradient_matches_numerical(self, rng):
        layer = BatchNorm2d(2)
        x = rng.standard_normal((3, 2, 2, 2))
        grad_out = rng.standard_normal((3, 2, 2, 2))
        layer.forward(x)
        analytic = layer.backward(grad_out)
        numeric = numerical_grad_input(layer, x.copy(), grad_out, eps=1e-5)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-4)

    def test_state_dict_contains_buffers(self):
        layer = BatchNorm2d(4)
        state = layer.state_dict()
        assert {"weight", "bias", "running_mean", "running_var", "num_batches_tracked"} <= set(state)


class TestActivationsAndPooling:
    def test_relu_forward_backward(self, rng):
        layer = ReLU()
        x = np.array([[-1.0, 2.0, 0.0]])
        out = layer(x)
        np.testing.assert_array_equal(out, [[0.0, 2.0, 0.0]])
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, [[0.0, 1.0, 0.0]])

    def test_relu6_clips(self):
        layer = ReLU6()
        x = np.array([[-1.0, 3.0, 10.0]])
        np.testing.assert_array_equal(layer(x), [[0.0, 3.0, 6.0]])
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, [[0.0, 1.0, 0.0]])

    def test_maxpool_forward(self):
        layer = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        layer = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer(x)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == 4
        assert grad[0, 0, 1, 1] == 1 and grad[0, 0, 0, 0] == 0

    def test_maxpool_ragged_input(self, rng):
        layer = MaxPool2d(2)
        x = rng.standard_normal((1, 1, 5, 5))
        out = layer(x)
        assert out.shape == (1, 1, 2, 2)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape

    @staticmethod
    def _maxpool_reference(x, k, grad):
        """Reshape-and-argmax pooling: forward output and input gradient."""
        n, c, h, w = x.shape
        h, w = (h // k) * k, (w // k) * k
        blocks = x[:, :, :h, :w].reshape(n, c, h // k, k, w // k, k)
        blocks = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // k, w // k, k * k)
        idx = blocks.argmax(axis=-1)
        dblocks = np.zeros(blocks.shape, dtype=grad.dtype)
        np.put_along_axis(dblocks, idx[..., None], grad[..., None], axis=-1)
        dx = np.zeros(x.shape, dtype=grad.dtype)
        dx[:, :, :h, :w] = dblocks.reshape(n, c, h // k, w // k, k, k).transpose(
            0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        return blocks.max(axis=-1), dx

    @pytest.mark.parametrize("k, shape", [
        (2, (2, 3, 8, 8)),
        (2, (2, 3, 7, 9)),     # ragged, non-square
        (3, (1, 2, 9, 12)),
        (3, (2, 2, 11, 7)),    # ragged, non-square
        (2, (1, 1, 2, 10)),
    ])
    @pytest.mark.parametrize("ties", [False, True])
    def test_maxpool_matches_reshape_argmax_reference(self, rng, k, shape, ties):
        if ties:
            # a handful of levels: most windows hold several equal maxima,
            # which must resolve to the first one, as argmax does
            x = rng.integers(0, 3, size=shape).astype(np.float32)
        else:
            x = rng.standard_normal(shape).astype(np.float32)
        layer = MaxPool2d(k)
        out = layer(x)
        grad = rng.standard_normal(out.shape)
        ref_out, ref_dx = self._maxpool_reference(x, k, grad)
        assert out.dtype == ref_out.dtype
        np.testing.assert_array_equal(out, ref_out)
        dx = layer.backward(grad)
        assert dx.shape == x.shape and dx.dtype == ref_dx.dtype
        np.testing.assert_array_equal(dx, ref_dx)

    def test_avgpool_matches_mean(self, rng):
        layer = AvgPool2d(2)
        x = rng.standard_normal((2, 3, 4, 4))
        out = layer(x)
        np.testing.assert_allclose(out[0, 0, 0, 0], x[0, 0, :2, :2].mean())

    def test_avgpool_gradient_numerical(self, rng):
        layer = AvgPool2d(2)
        x = rng.standard_normal((1, 1, 4, 4))
        grad_out = rng.standard_normal((1, 1, 2, 2))
        layer.forward(x)
        analytic = layer.backward(grad_out)
        numeric = numerical_grad_input(layer, x.copy(), grad_out)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_global_avgpool(self, rng):
        layer = GlobalAvgPool2d()
        x = rng.standard_normal((2, 3, 5, 5))
        out = layer(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)))
        grad = layer.backward(np.ones((2, 3)))
        assert grad.shape == x.shape
        np.testing.assert_allclose(grad, 1.0 / 25)

    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.standard_normal((4, 2, 3, 3))
        out = layer(x)
        assert out.shape == (4, 18)
        assert layer.backward(out).shape == x.shape


class TestDropout:
    def test_eval_mode_identity(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.train(False)
        x = rng.standard_normal((10, 10))
        np.testing.assert_array_equal(layer(x), x)

    def test_train_mode_zeroes_and_scales(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((1000,))
        out = layer(x)
        zero_fraction = float((out == 0).mean())
        assert 0.4 < zero_fraction < 0.6
        assert np.isclose(out[out != 0][0], 2.0)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=np.random.default_rng(1))
        x = np.ones((100,))
        out = layer(x)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestSequentialChaining:
    def test_forward_backward_shapes(self, rng):
        net = Sequential(Conv2d(1, 2, 3, padding=1, rng=rng), ReLU(), MaxPool2d(2),
                         Flatten(), Linear(2 * 2 * 2, 3, rng=rng))
        x = rng.standard_normal((4, 1, 4, 4))
        out = net(x)
        assert out.shape == (4, 3)
        grad = net.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_sequential_gradient_numerical(self, rng):
        net = Sequential(Linear(3, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        x = rng.standard_normal((2, 3))
        grad_out = rng.standard_normal((2, 2))
        net.forward(x)
        analytic = net.backward(grad_out)
        numeric = numerical_grad_input(net, x.copy(), grad_out)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-4)
