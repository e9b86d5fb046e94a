"""A small seeded convolutional backbone with the 5-level stride contract.

Stage 1 stacks two stride-2 3x3 convolutions (stride 4 total); stages
2..5 each halve the resolution once more, giving features at strides
(4, 8, 16, 32, 64).  Every convolution is followed by a ReLU.  This is a
deliberately tiny stand-in: downstream blocks only need the stride and
channel interface, not pretrained semantics.
"""

from __future__ import annotations

from .errors import ContractError, ShapeError
from .layers import Conv2d
from .levels import PyramidLevel, PyramidSet
from .tensor import ConvSpec, relu

STRIDES = (4, 8, 16, 32, 64)
IN_CHANNELS = 3  # the image: RGB, or a grey image replicated three times


class Backbone:
    def __init__(self, name, params, channels=(16, 32, 64, 128, 256)):
        if len(channels) != 5:
            raise ContractError(f"channel plan needs 5 entries, got {channels}")
        if min(channels) < 1:
            raise ContractError(f"channel counts must be >= 1, got {channels}")
        c1, c2, c3, c4, c5 = channels
        half = ConvSpec(stride=(2, 2), padding=(1, 1))
        self.convs = [
            Conv2d(name + ".stem1", params, IN_CHANNELS, c1, (3, 3), half),
            Conv2d(name + ".stem2", params, c1, c1, (3, 3), half),
            Conv2d(name + ".stage2", params, c1, c2, (3, 3), half),
            Conv2d(name + ".stage3", params, c2, c3, (3, 3), half),
            Conv2d(name + ".stage4", params, c3, c4, (3, 3), half),
            Conv2d(name + ".stage5", params, c4, c5, (3, 3), half),
        ]

    def __call__(self, image):
        n, c, h, w = image.dims
        if c != IN_CHANNELS:
            raise ContractError(f"backbone expects {IN_CHANNELS} input channels, got {c}")
        if h % STRIDES[-1] or w % STRIDES[-1]:
            raise ShapeError(
                f"input spatial dims must be divisible by {STRIDES[-1]}, got {h}x{w}"
            )
        x = image
        features = []
        for i, conv in enumerate(self.convs):
            x = relu(conv(x))
            if i >= 1:  # stem1+stem2 jointly produce the stride-4 level
                features.append(PyramidLevel(STRIDES[i - 1], x))
        return PyramidSet(features)
