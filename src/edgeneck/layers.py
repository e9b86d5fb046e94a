"""Parameter-owning convolution layer shared by every block."""

from __future__ import annotations

import numpy as np

from .tensor import ConvSpec, Parameter, conv2d, kaiming_uniform


class Conv2d:
    """A convolution with owned weight and (optionally) bias parameters.

    Weights are seeded Kaiming-uniform, biases start at zero.  Parameter
    names are ``<name>.w`` and ``<name>.b``.
    """

    def __init__(self, name, rng, c_in, c_out, kernel=(3, 3), spec=None,
                 bias=True, dtype=np.float32):
        if isinstance(kernel, int):
            kernel = (kernel, kernel)
        kh, kw = kernel
        self.spec = spec or ConvSpec()
        self.name = name
        self.c_in = c_in
        self.c_out = c_out
        wdims = (c_out, c_in, kh, kw)
        self.weight = Parameter(name + ".w", kaiming_uniform(rng, wdims, dtype))
        self.bias = Parameter(name + ".b", np.zeros((1, c_out, 1, 1), dtype)) if bias else None

    def __call__(self, x):
        b = self.bias.value if self.bias is not None else None
        return conv2d(x, self.weight.value, b, self.spec)

    def parameters(self):
        return [self.weight] if self.bias is None else [self.weight, self.bias]
