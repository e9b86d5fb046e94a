"""Wide-field block: five branches of asymmetric dilated convolutions.

Branch 1 is a plain 1x1 bottleneck.  Branches 2..4 bottleneck to a fixed
internal width and then apply a 1 x (2k-1) and a (2k-1) x 1 convolution,
both dilated by (2k-1), widening the receptive field along each axis in
turn while keeping the parameter count linear in the kernel length.
Branch 5 is a 1x1 projection of the input that multiplicatively gates a
1x1 channel adjustment of the concatenated branches; a final ReLU caps
the block:

    out = relu(branch5(x) * adjust(concat(branch1..4(x))))

All convolutions pad to preserve H x W, so the block is shape-preserving
for any spatial extent.  On a map narrower than a branch's reach
(2k-1)(k-1) the outer taps of its long kernels read only that padding
(4 of branch 4's 7 on a 9x9 map, all but the centre on 2x2), and the
convolution skips them.
"""

from __future__ import annotations

from .errors import UsageError
from .layers import Conv2d
from .tensor import ConvSpec, concat_channels, mul, relu

BRANCH_WIDTH = 32


def receptive_extent(k):
    """Half-extent (ey, ex) of branch k's composed kernels.

    The 1x1 branches reach nothing beyond the centre.  For branch k in
    {2,3,4} each asymmetric kernel spans dilation*(length-1) with length
    = dilation = 2k-1, so each axis gains (2k-1)(2k-2)/2 half-extent from
    its one long kernel.
    """
    if k not in (1, 2, 3, 4, 5):
        raise UsageError(f"branch index must be 1..5, got {k}")
    if k in (1, 5):
        return (0, 0)
    d = 2 * k - 1
    e = d * (d - 1) // 2
    return (e, e)


class WideFieldBlock:
    """Five-branch wide/asymmetric receptive field module."""

    def __init__(self, name, params, c_in, c_out):
        self.branches = {1: [Conv2d(name + ".br1.point", params, c_in, BRANCH_WIDTH, (1, 1))]}
        for k in (2, 3, 4):
            d = 2 * k - 1
            pad = d * (d - 1) // 2
            row_spec = ConvSpec(padding=(0, pad), dilation=(d, d))
            col_spec = ConvSpec(padding=(pad, 0), dilation=(d, d))
            prefix = f"{name}.br{k}"
            self.branches[k] = [
                Conv2d(prefix + ".point", params, c_in, BRANCH_WIDTH, (1, 1)),
                Conv2d(prefix + ".row", params, BRANCH_WIDTH, BRANCH_WIDTH, (1, d), row_spec),
                Conv2d(prefix + ".col", params, BRANCH_WIDTH, BRANCH_WIDTH, (d, 1), col_spec),
            ]
        self.branches[5] = [Conv2d(name + ".br5.point", params, c_in, c_out, (1, 1))]
        self.adjust = Conv2d(name + ".adjust", params, 4 * BRANCH_WIDTH, c_out, (1, 1))

    def branch_response(self, x, k):
        """Run branch k alone (used by the receptive-extent probes)."""
        if k not in self.branches:
            raise UsageError(f"branch index must be 1..5, got {k}")
        out = x
        for conv in self.branches[k]:
            out = conv(out)
        return out

    def gate(self, x):
        """The channel-adjusted concatenation that branch 5 multiplies."""
        cat = concat_channels([self.branch_response(x, k) for k in (1, 2, 3, 4)])
        return self.adjust(cat)

    def __call__(self, x):
        return relu(mul(self.branch_response(x, 5), self.gate(x)))
