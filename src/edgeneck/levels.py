"""Ordered multi-level feature collections with stride metadata."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, ShapeError
from .tensor import Tensor


@dataclass
class PyramidLevel:
    """One feature level: its stride vs the input image, and its tensor."""

    stride: int
    tensor: Tensor

    @property
    def channels(self):
        return self.tensor.dims[1]


class PyramidSet:
    """Levels ordered fine to coarse, stride doubling level to level.

    The construction enforces the resolution contract: strides strictly
    double and every tensor's spatial dims are consistent with one common
    source resolution (H * stride identical across levels).
    """

    def __init__(self, levels):
        levels = list(levels)
        if not levels:
            raise ContractError("a pyramid needs at least one level")
        for a, b in zip(levels, levels[1:]):
            if b.stride != 2 * a.stride:
                raise ContractError(
                    f"strides must double per level, got {a.stride} then {b.stride}"
                )
        base = levels[0]
        base_h = base.tensor.dims[2] * base.stride
        base_w = base.tensor.dims[3] * base.stride
        for lv in levels:
            n, c, h, w = lv.tensor.dims
            if (h * lv.stride, w * lv.stride) != (base_h, base_w):
                raise ShapeError(
                    f"level at stride {lv.stride} has spatial {h}x{w}, "
                    f"inconsistent with source resolution {base_h}x{base_w}"
                )
            if n != base.tensor.dims[0]:
                raise ContractError("levels must share one batch size")
        self.levels = levels

    def __iter__(self):
        return iter(self.levels)

    def __len__(self):
        return len(self.levels)

    def __getitem__(self, i):
        return self.levels[i]

    @property
    def strides(self):
        return tuple(lv.stride for lv in self.levels)

    @property
    def channels(self):
        return tuple(lv.channels for lv in self.levels)

    def by_stride(self, stride):
        for lv in self.levels:
            if lv.stride == stride:
                return lv
        raise ContractError(f"no level with stride {stride}; have {self.strides}")

    def tensors(self):
        return [lv.tensor for lv in self.levels]

    def __repr__(self):
        parts = ", ".join(
            f"s{lv.stride}:{'x'.join(map(str, lv.tensor.dims))}" for lv in self.levels
        )
        return f"PyramidSet({parts})"
