"""Wide-field block: branch reach, gating structure, shape preservation."""

import numpy as np
import pytest

import edgeneck as en
from edgeneck.errors import UsageError


def make_block(c_in=2, c_out=3, seed=0, params=None):
    if params is None:
        params = en.Params(np.random.default_rng(seed), np.float64)
    return en.WideFieldBlock("t.wide", params, c_in, c_out)


def impulse(c=2, hw=47, dtype=np.float64):
    data = np.zeros((1, c, hw, hw), dtype)
    data[0, :, hw // 2, hw // 2] = 1.0
    return en.Tensor(data), hw // 2


def support_box(arr):
    """(ymin, ymax, xmin, xmax) of nonzero entries, over batch and channels."""
    ys, xs = np.nonzero(np.abs(arr).sum(axis=(0, 1)))
    return ys.min(), ys.max(), xs.min(), xs.max()


class TestReceptiveExtent:
    def test_values(self):
        assert en.receptive_extent(1) == (0, 0)
        assert en.receptive_extent(2) == (3, 3)
        assert en.receptive_extent(3) == (10, 10)
        assert en.receptive_extent(4) == (21, 21)
        assert en.receptive_extent(5) == (0, 0)

    def test_out_of_range(self):
        for k in (0, 6, -1):
            with pytest.raises(UsageError):
                en.receptive_extent(k)


class TestBranchReach:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_dilated_branch_support_extent(self, k):
        block = make_block(seed=k)
        x, c = impulse()
        ey, ex = en.receptive_extent(k)
        out = block.branch_response(x, k).data
        assert support_box(out) == (c - ey, c + ey, c - ex, c + ex)

    @pytest.mark.parametrize("k", [1, 5])
    def test_pointwise_branch_is_center_only(self, k):
        block = make_block(seed=k)
        x, c = impulse()
        out = block.branch_response(x, k).data
        assert support_box(out) == (c, c, c, c)

    def test_gate_reach_is_branch4(self):
        block = make_block(seed=9)
        x, c = impulse()
        assert support_box(block.gate(x).data) == (c - 21, c + 21, c - 21, c + 21)

    def test_module_impulse_confined(self):
        block = make_block(seed=10)
        x, c = impulse(hw=89)
        out = block(x).data
        assert out[:, :, :c - 43, :].sum() == 0 and out[:, :, c + 44:, :].sum() == 0
        assert out[:, :, :, :c - 43].sum() == 0 and out[:, :, :, c + 44:].sum() == 0


class TestBlockBehavior:
    def test_shape_preserved(self):
        block = make_block(c_in=3, c_out=4)
        for dims in [(1, 3, 1, 1), (1, 3, 5, 7), (2, 3, 16, 16), (1, 3, 45, 44)]:
            x = en.Tensor(np.random.default_rng(1).standard_normal(dims))
            assert block(x).dims == (dims[0], 4, dims[2], dims[3])

    def test_zero_input_zero_output(self):
        block = make_block()
        out = block(en.Tensor(np.zeros((1, 2, 6, 6), np.float64)))
        assert not out.data.any()

    def test_output_non_negative(self):
        block = make_block(seed=11)
        x = en.Tensor(np.random.default_rng(12).standard_normal((1, 2, 9, 9)))
        assert np.all(block(x).data >= 0)

    def test_constant_branch5_reduces_to_gate(self):
        block = make_block(c_in=2, c_out=3, seed=13)
        br5 = block.branches[5][0]
        br5.weight.value.data[...] = 0.0
        br5.bias.value.data[...] = 1.0
        x = en.Tensor(np.random.default_rng(14).standard_normal((1, 2, 7, 7)))
        got = block(x).data
        want = en.relu(block.gate(x)).data
        assert np.array_equal(got, want)

    def test_parameter_shapes(self):
        params = en.Params(np.random.default_rng(0), np.float64)
        make_block(c_in=6, c_out=5, params=params)
        dims = {name: p.dims for name, p in params.items()}
        assert dims["t.wide.br1.point.w"] == (32, 6, 1, 1)
        assert dims["t.wide.br2.row.w"] == (32, 32, 1, 3)
        assert dims["t.wide.br2.col.w"] == (32, 32, 3, 1)
        assert dims["t.wide.br3.row.w"] == (32, 32, 1, 5)
        assert dims["t.wide.br4.row.w"] == (32, 32, 1, 7)
        assert dims["t.wide.br4.col.w"] == (32, 32, 7, 1)
        assert dims["t.wide.br5.point.w"] == (5, 6, 1, 1)
        assert dims["t.wide.adjust.w"] == (5, 4 * en.BRANCH_WIDTH, 1, 1)
        assert en.BRANCH_WIDTH == 32
