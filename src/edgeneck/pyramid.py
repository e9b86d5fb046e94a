"""Top-down pyramid fusion onto a uniform channel width.

Starting from the coarsest level, each finer level combines a 1x1
lateral projection of its own feature with the x2-upsampled output of
the level above, then smooths the sum with a 3x3 convolution:

    out(coarsest) = smooth(lateral(coarsest))
    out(i)        = smooth(lateral(i) + up2(out(i+1)))

Every output shares the pyramid width and keeps its input's spatial
dims, so a detection head can consume the set uniformly.
"""

from __future__ import annotations

from .layers import Conv2d
from .levels import check_levels
from .tensor import ConvSpec, add, up2_nearest


class TopDownPyramid:
    """Lateral + upsample + add + smooth fusion over ``{stride: tensor}`` levels.

    ``level_channels`` maps stride -> input channel count, ordered fine
    to coarse; all outputs have ``width`` channels.
    """

    def __init__(self, name, params, level_channels, width):
        self.laterals = {}
        self.smooths = {}
        smooth_spec = ConvSpec(padding=(1, 1))
        for stride, c_in in level_channels:
            self.laterals[stride] = Conv2d(
                f"{name}.s{stride}.lateral", params, c_in, width, (1, 1))
            self.smooths[stride] = Conv2d(
                f"{name}.s{stride}.smooth", params, width, width, (3, 3), smooth_spec)

    def __call__(self, levels):
        check_levels(levels)
        coarser = None
        fused = {}
        for stride, t in reversed(levels.items()):
            top = self.laterals[stride](t)
            if coarser is not None:
                top = add(top, up2_nearest(coarser))
            coarser = fused[stride] = self.smooths[stride](top)
        return dict(reversed(fused.items()))
