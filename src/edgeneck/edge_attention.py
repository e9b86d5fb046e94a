"""Edge-guided attention: fixed Sobel edge extraction plus a channel gate.

The block sharpens the two finest backbone features.  Each feature is
averaged over its channels by a 1x1 convolution and cross-correlated
with the constant 3x3 Sobel pair, giving one horizontal and one
vertical derivative map (by linearity, the mean of the per-channel
Sobel responses), and the Euclidean magnitude of the pair multiplies
the feature, channel-broadcast.  The second (stride-8) feature
additionally passes through a channel-wise attention gate driven by
globally pooled descriptors through a shared two-layer bottleneck.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, ContractError, DomainError
from .tensor import (
    Tensor, add, conv2d, edge_magnitude, global_avg_pool, global_max_pool,
    mul, relu, replicate_pad, sigmoid,
)

# Horizontal-derivative kernel; the vertical one is its transpose.
SOBEL_X = ((1.0, 0.0, -1.0),
           (2.0, 0.0, -2.0),
           (1.0, 0.0, -1.0))
SOBEL_Y = tuple(zip(*SOBEL_X))


@functools.cache
def _kernels(c, dtype):
    """The 1/C mean kernel and the Sobel pair: one shared set per channel count and dtype."""
    return (Tensor(np.full((1, c, 1, 1), 1.0 / c, dtype)),
            Tensor(np.asarray(SOBEL_X, dtype).reshape(1, 1, 3, 3)),
            Tensor(np.asarray(SOBEL_Y, dtype).reshape(1, 1, 3, 3)))


def deep_sobel(x):
    """Sobel pair on the channel mean: one derivative map per direction.

    Returns ``(grad_x, grad_y)``, each ``N x 1 x H x W``.  The channel
    mean is a bias-free 1x1 convolution with every weight ``1/C``.  Sobel
    is linear, so this equals the mean of the per-channel Sobel
    responses.  All kernels are constants; gradient flows only to ``x``.
    The one-pixel pad replicates border values rather than inserting
    zeros: flat regions then produce zero response everywhere, including
    at the image border, and adding a constant offset to the input leaves
    the output unchanged.
    """
    c = x.dims[1]
    if c < 1:
        raise DomainError("deep_sobel over zero channels")
    # real constants also under a gradient check's complex probe: the dtype the block runs in
    mean, kx, ky = _kernels(c, x.data.real.dtype)
    padded = replicate_pad(conv2d(x, mean))
    return conv2d(padded, kx), conv2d(padded, ky)


def edge_map(x):
    """Single-channel edge magnitude of a feature tensor."""
    gx, gy = deep_sobel(x)
    return edge_magnitude(gx, gy)


def edge_guide(f, fe):
    """Multiply a feature by its single-channel edge map, broadcast over C."""
    if fe.dims[1] != 1:
        raise ContractError(f"edge map must have one channel, got {fe.dims}")
    if (f.dims[0], f.dims[2], f.dims[3]) != (fe.dims[0], fe.dims[2], fe.dims[3]):
        raise ContractError(f"edge map dims {fe.dims} do not match feature dims {f.dims}")
    return mul(f, fe)


class ChannelAttention:
    """Per-channel multiplicative gate in (0, 1) from pooled descriptors.

    scale = sigmoid(w1 relu(w0 avgpool(x)) + w1 relu(w0 maxpool(x))),
    with one shared, bias-free (w0, w1) pair of 1x1 convolutions applied
    to both N x C x 1 x 1 descriptors, so a zero input yields a 0.5 gate
    exactly.
    """

    def __init__(self, name, params, channels, reduction=16):
        if reduction < 1:
            raise ConfigError(f"reduction_ratio must be >= 1, got {reduction}")
        if channels % reduction != 0:
            raise ConfigError(
                f"channels {channels} not divisible by reduction_ratio {reduction}"
            )
        hidden = channels // reduction
        self.name = name
        self.channels = channels
        self.w0 = params.kaiming(name + ".w0", (hidden, channels, 1, 1))
        self.w1 = params.kaiming(name + ".w1", (channels, hidden, 1, 1))

    def _squeeze(self, pooled):
        return conv2d(relu(conv2d(pooled, self.w0.value)), self.w1.value)

    def scale(self, x):
        """The N x C x 1 x 1 gate alone, before multiplying the input."""
        if x.dims[1] != self.channels:
            raise ContractError(
                f"{self.name}: input has {x.dims[1]} channels, gate built for {self.channels}"
            )
        a = self._squeeze(global_avg_pool(x))
        m = self._squeeze(global_max_pool(x))
        return sigmoid(add(a, m))

    def __call__(self, x):
        return mul(x, self.scale(x))


class EdgeGuidedAttention:
    """Edge-sharpen the two finest features; channel-gate the second.

    The first feature is only edge-guided; the second is edge-guided and
    then passed through the channel gate, which is built for its channel
    count.  Each feature uses an edge map computed from itself.
    """

    def __init__(self, name, params, channels2, reduction=16):
        self.gate = ChannelAttention(name + ".gate", params, channels2, reduction)

    def __call__(self, f1, f2):
        f1_guided = edge_guide(f1, edge_map(f1))
        f2_guided = edge_guide(f2, edge_map(f2))
        return f1_guided, self.gate(f2_guided)
