"""End-to-end wiring of backbone, edge attention, aggregation, wide-field
blocks and the top-down pyramid.

Construction is fully deterministic: every block creates its parameters
in one ``Params`` store on one seeded stream, so the same seed always
yields the same model, and creation order is the order of the draws, of
``parameters()`` and of a weights dump.  The forward pass returns every
intermediate under a stable name (``feat.s4`` .. ``out.s64``) for
reports, dumps and tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .aggregation import aggregate, aggregation_plan, plan_channels
from .backbone import IN_CHANNELS, Backbone
from .edge_attention import EdgeGuidedAttention
from .errors import ContractError, DomainError
from .layers import Params
from .levels import PyramidLevel, PyramidSet
from .pyramid import TopDownPyramid
from .receptive_field import WideFieldBlock
from .tensor import Tensor


def params_rng(seed):
    """The parameter-init stream; kept separate from the input stream."""
    return np.random.default_rng([int(seed), 0])


def input_rng(seed):
    return np.random.default_rng([int(seed), 1])


def noise_image(seed, height=256, width=256, dtype=np.float32):
    """Seeded standard-normal image batch, the default synthetic input."""
    data = input_rng(seed).standard_normal((1, IN_CHANNELS, height, width))
    return Tensor(data.astype(dtype))


@dataclass
class ForwardResult:
    aggregated: PyramidSet
    refined: PyramidSet
    outputs: PyramidSet
    named: dict


class Network:
    """The full feature pipeline from image to detection features."""

    def __init__(self, seed=0, channels=(16, 32, 64, 128, 256), pyramid_width=256,
                 fa_mode="full", reduction=16, dtype=np.float32):
        self.params = Params(params_rng(seed), dtype)
        self.fa_mode = fa_mode
        self.dtype = self.params.dtype
        self.backbone = Backbone("backbone", self.params, channels)
        self.edge = EdgeGuidedAttention("edge", self.params, channels[1], reduction)

        plan = aggregation_plan(fa_mode)
        fused_channels = plan_channels(plan, channels)
        self.wide = {}
        level_channels = []
        for (stride, _), c_fused in zip(plan, fused_channels):
            if stride == plan[-1][0]:  # the coarsest level bypasses the wide-field block
                level_channels.append((stride, c_fused))
            else:
                self.wide[stride] = WideFieldBlock(
                    f"wide.s{stride}", self.params, c_fused, pyramid_width)
                level_channels.append((stride, pyramid_width))
        self.pyramid = TopDownPyramid("pyramid", self.params, level_channels, pyramid_width)

    def parameters(self):
        return list(self.params.values())

    def parameter_map(self):
        return dict(self.params)

    def zero_grads(self):
        for p in self.params.values():
            p.zero_grad()

    def forward(self, image, timings=None):
        if image.dtype != self.dtype:
            raise ContractError(
                f"network built for {np.dtype(self.dtype).name}, got {image.dtype.name} input"
            )
        finite = np.isfinite(image.data)
        if not finite.all():
            index = tuple(int(i) for i in np.argwhere(~finite)[0])
            raise DomainError(
                f"input pixel (n, c, y, x) = {index} is {image.data[index]}; pixels must be finite"
            )
        stopwatch = _Stopwatch(timings)
        named = {}
        feats = self.backbone(image)
        stopwatch.lap("backbone")
        for lv in feats:
            named[f"feat.s{lv.stride}"] = lv.tensor

        f1t, f2t = self.edge(feats.by_stride(4).tensor, feats.by_stride(8).tensor)
        stopwatch.lap("edge")
        named["edged.s4"] = f1t
        named["edged.s8"] = f2t

        sources = PyramidSet([PyramidLevel(4, f1t), PyramidLevel(8, f2t)] + feats.levels[2:])
        agg = aggregate(sources, self.fa_mode)
        stopwatch.lap("aggregate")
        for lv in agg:
            named[f"agg.s{lv.stride}"] = lv.tensor

        refined_levels = []
        for lv in agg:
            if lv.stride in self.wide:  # not the coarsest level, which passes through
                lv = PyramidLevel(lv.stride, self.wide[lv.stride](lv.tensor))
                named[f"wide.s{lv.stride}"] = lv.tensor
            refined_levels.append(lv)
        refined = PyramidSet(refined_levels)
        stopwatch.lap("wide")

        outs = self.pyramid(refined)
        stopwatch.lap("pyramid")
        for lv in outs:
            named[f"out.s{lv.stride}"] = lv.tensor
        return ForwardResult(agg, refined, outs, named)


class _Stopwatch:
    """Fills a stage -> seconds dict when given one; no-op otherwise."""

    def __init__(self, sink):
        self.sink = sink
        self.last = time.perf_counter() if sink is not None else 0.0

    def lap(self, label):
        if self.sink is None:
            return
        now = time.perf_counter()
        self.sink[label] = now - self.last
        self.last = now
