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
from typing import NamedTuple

import numpy as np

from .aggregation import aggregate, aggregation_plan, plan_channels
from .backbone import IN_CHANNELS, Backbone
from .edge_attention import EdgeGuidedAttention
from .errors import ContractError, DomainError
from .layers import Params
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


class _Output(NamedTuple):
    stride: int
    tensor: Tensor


class _Outputs(tuple):
    """The pyramid outputs as ``(stride, tensor)`` pairs, fine to coarse.

    A read-only view kept for ``perfbench/``; library code reads the
    ``out.s*`` entries of ``ForwardResult.named``.
    """

    def tensors(self):
        return [lv.tensor for lv in self]


@dataclass
class ForwardResult:
    outputs: _Outputs
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
        feats = self.backbone(image)
        stopwatch.lap("backbone")
        named = {f"feat.s{stride}": t for stride, t in feats.items()}

        f1t, f2t = self.edge(feats[4], feats[8])
        stopwatch.lap("edge")
        named["edged.s4"] = f1t
        named["edged.s8"] = f2t

        agg = aggregate({**feats, 4: f1t, 8: f2t}, self.fa_mode)
        stopwatch.lap("aggregate")
        named.update((f"agg.s{stride}", t) for stride, t in agg.items())

        refined = dict(agg)  # the coarsest level passes through
        for stride, block in self.wide.items():
            refined[stride] = named[f"wide.s{stride}"] = block(agg[stride])
        stopwatch.lap("wide")

        outs = self.pyramid(refined)
        stopwatch.lap("pyramid")
        named.update((f"out.s{stride}", t) for stride, t in outs.items())
        return ForwardResult(_Outputs(map(_Output._make, outs.items())), named)


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
