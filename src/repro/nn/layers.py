"""Layer implementations with explicit forward/backward passes.

Each layer caches whatever the backward pass needs during ``forward`` and
accumulates parameter gradients in ``backward``, returning the gradient with
respect to its input.  This mirrors PyTorch behaviour closely enough for the
FL experiments while staying dependency-free.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = [
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
]


def _kaiming_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-uniform initialization used for conv and linear weights."""
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming_uniform((out_features, in_features), in_features, rng))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        self._last_output_shape = out.shape
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.weight.add_grad(grad.T @ self._x)
        if self.bias is not None:
            self.bias.add_grad(grad.sum(axis=0))
        return grad @ self.weight.data


class Conv2d(Module):
    """2-D convolution supporting standard and depthwise (groups=in_channels) modes."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, groups: int = 1, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if groups not in (1, in_channels):
            raise ValueError("Conv2d supports groups=1 or depthwise groups=in_channels")
        if groups == in_channels and out_channels % in_channels != 0:
            raise ValueError("depthwise conv requires out_channels to be a multiple of in_channels")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.weight = Parameter(_kaiming_uniform(
            (out_channels, in_channels // groups, kernel_size, kernel_size), fan_in, rng))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._windows: np.ndarray | None = None

    # -- standard convolution (groups == 1) -----------------------------------
    def _forward_dense(self, x: np.ndarray) -> np.ndarray:
        n, _, h, w = x.shape
        k = self.kernel_size
        h_out = conv_output_size(h, k, self.stride, self.padding)
        w_out = conv_output_size(w, k, self.stride, self.padding)
        cols = im2col(x, (k, k), self.stride, self.padding)
        self._cols = cols
        w2d = self.weight.data.reshape(self.out_channels, -1)
        out = np.matmul(w2d, cols)
        if self.bias is not None:
            out = out + self.bias.data[None, :, None]
        out = out.reshape(n, self.out_channels, h_out, w_out)
        self._last_output_shape = out.shape
        return out

    def _backward_dense(self, grad: np.ndarray) -> np.ndarray:
        n = grad.shape[0]
        grad2d = grad.reshape(n, self.out_channels, -1)
        w2d = self.weight.data.reshape(self.out_channels, -1)
        # one GEMM over all N*L positions (a batched matmul plus a sum over N
        # would add the per-sample products in a different order)
        dw = np.einsum("nfl,nkl->fk", grad2d, self._cols, optimize=True)
        self.weight.add_grad(dw.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.add_grad(grad2d.sum(axis=(0, 2)))
        dcols = np.matmul(w2d.T, grad2d)
        return col2im(dcols, self._x_shape, (self.kernel_size, self.kernel_size),
                      self.stride, self.padding)

    # -- depthwise convolution (groups == in_channels) --------------------------
    def _forward_depthwise(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        h_out = conv_output_size(h, k, self.stride, self.padding)
        w_out = conv_output_size(w, k, self.stride, self.padding)
        x_pad = np.pad(x, ((0, 0), (0, 0), (self.padding,) * 2, (self.padding,) * 2)) if self.padding else x
        windows = np.lib.stride_tricks.sliding_window_view(x_pad, (k, k), axis=(2, 3))
        windows = windows[:, :, ::self.stride, ::self.stride]  # (N, C, H_out, W_out, k, k)
        self._windows = windows
        mult = self.out_channels // self.in_channels
        kernels = self.weight.data.reshape(c, mult, k, k)
        out = np.einsum("nchwij,cmij->ncmhw", windows, kernels, optimize=True)
        out = out.reshape(n, self.out_channels, h_out, w_out)
        if self.bias is not None:
            out = out + self.bias.data[None, :, None, None]
        self._last_output_shape = out.shape
        return out

    def _backward_depthwise(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        k = self.kernel_size
        mult = self.out_channels // self.in_channels
        grad5 = grad.reshape(n, c, mult, grad.shape[2], grad.shape[3])
        dw = np.einsum("nchwij,ncmhw->cmij", self._windows, grad5, optimize=True)
        self.weight.add_grad(dw.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.add_grad(grad.sum(axis=(0, 2, 3)))
        kernels = self.weight.data.reshape(c, mult, k, k)
        # dL/d window = grad * kernel, then scatter-add windows back to the image
        dwin = np.einsum("ncmhw,cmij->nchwij", grad5, kernels, optimize=True)
        h_out, w_out = grad.shape[2], grad.shape[3]
        dcols = dwin.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, h_out * w_out)
        return col2im(dcols, self._x_shape, (k, k), self.stride, self.padding)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        if self.groups == 1:
            return self._forward_dense(x)
        return self._forward_depthwise(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        if self.groups == 1:
            return self._backward_dense(grad)
        return self._backward_depthwise(grad)


class BatchNorm2d(Module):
    """Batch normalization over the channel axis of (N, C, H, W) tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
        self.register_buffer("num_batches_tracked", np.zeros(1, dtype=np.float32))
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self._buffers["running_mean"] = ((1 - self.momentum) * self._buffers["running_mean"]
                                             + self.momentum * mean).astype(np.float32)
            self._buffers["running_var"] = ((1 - self.momentum) * self._buffers["running_var"]
                                            + self.momentum * var).astype(np.float32)
            self._buffers["num_batches_tracked"] += 1
        else:
            mean = self._buffers["running_mean"]
            var = self._buffers["running_var"]
        std = np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) / std[None, :, None, None]
        self._cache = (x_hat, std, x)
        return self.weight.data[None, :, None, None] * x_hat + self.bias.data[None, :, None, None]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, std, _ = self._cache
        self.weight.add_grad((grad * x_hat).sum(axis=(0, 2, 3)))
        self.bias.add_grad(grad.sum(axis=(0, 2, 3)))
        gamma = self.weight.data[None, :, None, None]
        dx_hat = grad * gamma
        if not self.training:
            return dx_hat / std[None, :, None, None]
        n = grad.shape[0] * grad.shape[2] * grad.shape[3]
        sum_dxhat = dx_hat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dx_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (dx_hat - sum_dxhat / n - x_hat * sum_dxhat_xhat / n) / std[None, :, None, None]
        return dx


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad, 0.0)


class ReLU6(Module):
    """ReLU clipped at 6 (MobileNetV2's activation)."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = (x > 0) & (x < 6.0)
        return np.clip(x, 0.0, 6.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad, 0.0)


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride).

    Both passes walk the k*k strided views ``x[:, :, i::k, j::k]``, one per
    window position, elementwise: the forward keeps a running max and the
    flat index ``i*k + j`` of the first position that reached it (a later
    position must be strictly greater, so ties resolve as in ``argmax``);
    the backward writes each position's gradients through the same views.
    For NaN-free inputs both passes equal a reshape-and-``argmax`` pooling
    bit for bit.
    """

    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self._argmax: np.ndarray | None = None
        self._orig_shape: tuple[int, ...] | None = None

    def _views(self, x: np.ndarray) -> "list[np.ndarray]":
        """The k*k window-position views, a ragged border trimmed (floor mode)."""
        k = self.kernel_size
        h, w = (x.shape[2] // k) * k, (x.shape[3] // k) * k
        return [x[:, :, i:h:k, j:w:k] for i in range(k) for j in range(k)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._orig_shape = x.shape
        views = self._views(x)
        out = views[0].copy()
        argmax = np.zeros(out.shape, dtype=np.intp)
        for t, view in enumerate(views[1:], start=1):
            better = view > out
            np.copyto(out, view, where=better)
            np.copyto(argmax, t, where=better)
        self._argmax = argmax
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        full = np.empty(self._orig_shape, dtype=grad.dtype)
        k = self.kernel_size
        h, w = (full.shape[2] // k) * k, (full.shape[3] // k) * k
        full[:, :, h:] = 0.0  # the trimmed border gets no gradient
        full[:, :, :h, w:] = 0.0
        # the views tile the rest, so each is written whole
        for t, view in enumerate(self._views(full)):
            view[...] = np.where(self._argmax == t, grad, 0.0)
        return full


class AvgPool2d(Module):
    """Non-overlapping average pooling (kernel == stride)."""

    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self._x_shape: tuple[int, ...] | None = None
        self._orig_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        self._orig_shape = x.shape
        n, c, h, w = x.shape
        if h % k or w % k:
            x = x[:, :, : (h // k) * k, : (w // k) * k]
            n, c, h, w = x.shape
        self._x_shape = (n, c, h, w)
        return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        n, c, h, w = self._x_shape
        expanded = np.repeat(np.repeat(grad, k, axis=2), k, axis=3) / (k * k)
        if self._orig_shape != self._x_shape:
            full = np.zeros(self._orig_shape, dtype=grad.dtype)
            full[:, :, :h, :w] = expanded
            return full
        return expanded


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent, producing (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        return np.broadcast_to(grad[:, :, None, None], (n, c, h, w)) / (h * w)


class Flatten(Module):
    """Flatten (N, ...) to (N, features)."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._x_shape)


class Dropout(Module):
    """Inverted dropout (identity in eval mode)."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng or np.random.default_rng()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        self._mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask
