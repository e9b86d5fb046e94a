"""Parameter-owning convolution layer shared by every block."""

from __future__ import annotations

import numpy as np

from .tensor import ConvSpec, Parameter, conv2d, kaiming_uniform


class Conv2d:
    """A convolution with owned weight and bias parameters.

    Weights are seeded Kaiming-uniform, biases start at zero.  Parameter
    names are ``<name>.w`` and ``<name>.b``; ``kernel`` is ``(kH, kW)``.
    """

    def __init__(self, name, rng, c_in, c_out, kernel, spec=ConvSpec(), dtype=np.float32):
        self.spec = spec
        self.name = name
        self.weight = Parameter(name + ".w", kaiming_uniform(rng, (c_out, c_in, *kernel), dtype))
        self.bias = Parameter(name + ".b", np.zeros((1, c_out, 1, 1), dtype))

    def __call__(self, x):
        return conv2d(x, self.weight.value, self.bias.value, self.spec)

    def parameters(self):
        return [self.weight, self.bias]
