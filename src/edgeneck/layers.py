"""The parameter store and the convolution layer shared by every block.

Blocks create their parameters in one :class:`Params` store, whose
creation order is both the seeded draw order and the weights-dump order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .tensor import ConvSpec, Parameter, conv2d


class Params(dict):
    """Name -> :class:`Parameter`, in creation order, drawing from one seeded stream."""

    def __init__(self, rng, dtype):
        super().__init__()
        self.rng = rng
        self.dtype = np.dtype(dtype)

    def new(self, name, data):
        if name in self:
            raise ContractError(f"duplicate parameter name {name}")
        self[name] = p = Parameter(name, data.astype(self.dtype))
        return p

    def kaiming(self, name, dims):
        """Seeded uniform init in ±sqrt(6/fan_in); fan_in = dims[1]*dims[2]*dims[3]."""
        fan_in = dims[1] * dims[2] * dims[3]
        if fan_in <= 0:
            raise ContractError(f"fan_in must be positive for init, got dims {dims}")
        bound = math.sqrt(6.0 / fan_in)
        return self.new(name, self.rng.uniform(-bound, bound, dims))


class Conv2d:
    """A convolution with owned weight and bias parameters.

    Weights are seeded Kaiming-uniform, biases start at zero.  Parameter
    names are ``<name>.w`` and ``<name>.b``; ``kernel`` is ``(kH, kW)``.
    """

    def __init__(self, name, params, c_in, c_out, kernel, spec=ConvSpec()):
        self.spec = spec
        self.name = name
        self.weight = params.kaiming(name + ".w", (c_out, c_in, *kernel))
        self.bias = params.new(name + ".b", np.zeros((1, c_out, 1, 1)))

    def __call__(self, x):
        return conv2d(x, self.weight.value, self.bias.value, self.spec)
