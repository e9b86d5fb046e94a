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

import numpy as np

from .layers import Conv2d
from .levels import PyramidLevel, PyramidSet
from .tensor import ConvSpec, add, up2_nearest


class TopDownPyramid:
    """Lateral + upsample + add + smooth fusion over an ordered level set.

    ``level_channels`` maps stride -> input channel count, ordered fine
    to coarse; all outputs have ``width`` channels.
    """

    def __init__(self, name, rng, level_channels, width, dtype=np.float32):
        self.laterals = {}
        self.smooths = {}
        smooth_spec = ConvSpec(padding=(1, 1))
        for stride, c_in in level_channels:
            self.laterals[stride] = Conv2d(
                f"{name}.s{stride}.lateral", rng, c_in, width, (1, 1), dtype=dtype)
            self.smooths[stride] = Conv2d(
                f"{name}.s{stride}.smooth", rng, width, width, (3, 3), smooth_spec, dtype=dtype)

    def parameters(self):
        params = []
        for stride in self.laterals:
            params.extend(self.laterals[stride].parameters())
            params.extend(self.smooths[stride].parameters())
        return params

    def __call__(self, levels):
        coarser = None
        fused = []
        for lv in reversed(list(levels)):
            top = self.laterals[lv.stride](lv.tensor)
            if coarser is not None:
                top = add(top, up2_nearest(coarser))
            out = self.smooths[lv.stride](top)
            coarser = out
            fused.append(PyramidLevel(lv.stride, out))
        return PyramidSet(list(reversed(fused)))
