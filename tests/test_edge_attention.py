"""Sobel extraction, edge guiding, and the channel gate."""

import numpy as np
import pytest

import edgeneck as en
from edgeneck.edge_attention import ChannelAttention, edge_map
from edgeneck.errors import ConfigError, ContractError, DomainError

from reference import channel_attention_reference, deep_sobel_reference


def rng(seed=0):
    return np.random.default_rng(seed)


def store(seed, dtype=np.float64):
    return en.Params(rng(seed), dtype)


class TestSobelKernels:
    def test_literal_values(self):
        assert np.array_equal(en.SOBEL_X, [[1, 0, -1], [2, 0, -2], [1, 0, -1]])

    def test_zero_sum_and_transpose(self):
        gx = np.asarray(en.SOBEL_X)
        gy = np.asarray(en.SOBEL_Y)
        assert gx.sum() == 0 and gy.sum() == 0
        assert np.array_equal(gy, gx.T)


class TestDeepSobel:
    def test_constant_input_gives_zero(self):
        x = en.Tensor(np.full((1, 3, 5, 5), 4.25, np.float64))
        gx, gy = en.deep_sobel(x)
        assert not gx.data.any() and not gy.data.any()

    def test_row_gradient_center(self):
        x = en.Tensor(np.asarray([[[[0, 1, 2]] * 3]], np.float64))
        gx, gy = en.deep_sobel(x)
        assert gx.data[0, 0, 1, 1] == -8.0
        assert gy.data[0, 0, 1, 1] == 0.0

    def test_duplicate_channel_equals_single(self):
        base = rng(1).standard_normal((1, 1, 6, 7))
        dup = np.concatenate([base, base], axis=1)
        gx1, gy1 = en.deep_sobel(en.Tensor(base))
        gx2, gy2 = en.deep_sobel(en.Tensor(dup))
        assert np.allclose(gx1.data, gx2.data, atol=1e-12)
        assert np.allclose(gy1.data, gy2.data, atol=1e-12)

    def test_matches_loop_oracle(self):
        for seed, dims in [(0, (1, 1, 5, 5)), (1, (1, 3, 6, 4)), (2, (2, 4, 7, 9))]:
            x = rng(seed).standard_normal(dims)
            gx, gy = en.deep_sobel(en.Tensor(x))
            rx, ry = deep_sobel_reference(x)
            assert np.max(np.abs(gx.data - rx)) < 1e-12
            assert np.max(np.abs(gy.data - ry)) < 1e-12

    def test_dc_invariance_f32(self):
        x = rng(3).standard_normal((1, 4, 8, 8)).astype(np.float32)
        offsets = rng(4).uniform(-2, 2, (1, 4, 1, 1)).astype(np.float32)
        gx1, gy1 = en.deep_sobel(en.Tensor(x))
        gx2, gy2 = en.deep_sobel(en.Tensor(x + offsets))
        assert np.max(np.abs(gx1.data - gx2.data)) < 1e-5
        assert np.max(np.abs(gy1.data - gy2.data)) < 1e-5

    def test_transpose_symmetry(self):
        x = rng(5).standard_normal((1, 2, 6, 9))
        gx, gy = en.deep_sobel(en.Tensor(x))
        gxt, gyt = en.deep_sobel(en.Tensor(x.transpose(0, 1, 3, 2).copy()))
        assert np.allclose(gxt.data, gy.data.transpose(0, 1, 3, 2), atol=1e-12)
        assert np.allclose(gyt.data, gx.data.transpose(0, 1, 3, 2), atol=1e-12)

    def test_empty_spatial_rejected(self):
        with pytest.raises(DomainError):
            en.deep_sobel(en.Tensor(np.zeros((1, 2, 0, 4), np.float32)))


class TestEdgeMagnitude:
    def test_three_four_five(self):
        m = en.edge_magnitude(en.Tensor(np.full((1, 1, 2, 2), 3.0, np.float32)),
                              en.Tensor(np.full((1, 1, 2, 2), 4.0, np.float32)))
        assert np.all(m.data == 5.0)

    def test_zero_has_zero_gradient(self):
        gx = en.Tensor(np.zeros((1, 1, 2, 2), np.float64), requires_grad=True)
        gy = en.Tensor(np.zeros((1, 1, 2, 2), np.float64), requires_grad=True)
        with en.Tape() as tape:
            loss = en.sum_all(en.edge_magnitude(gx, gy))
        en.backward(tape, loss)
        assert not gx.grad.any() and not gy.grad.any()

    def test_dominates_both_components(self):
        r = rng(6)
        gx, gy = r.standard_normal((1, 1, 5, 5)), r.standard_normal((1, 1, 5, 5))
        m = en.edge_magnitude(en.Tensor(gx), en.Tensor(gy)).data
        assert np.all(m >= np.maximum(np.abs(gx), np.abs(gy)) - 1e-15)

    def test_dims_must_match(self):
        with pytest.raises(ContractError):
            en.edge_magnitude(en.Tensor(np.zeros((1, 1, 2, 2), np.float32)),
                              en.Tensor(np.zeros((1, 1, 2, 3), np.float32)))

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ContractError):
            en.edge_magnitude(en.Tensor(np.zeros((1, 1, 2, 2), np.float32)),
                              en.Tensor(np.zeros((1, 1, 2, 2), np.float64)))


class TestEdgeGuide:
    def test_ones_is_identity(self):
        f = en.Tensor(rng(7).standard_normal((1, 3, 4, 4)))
        ones = en.Tensor(np.ones((1, 1, 4, 4), np.float64))
        assert np.array_equal(en.edge_guide(f, ones).data, f.data)

    def test_zeros_zeroes(self):
        f = en.Tensor(rng(8).standard_normal((1, 3, 4, 4)))
        assert not en.edge_guide(f, en.Tensor(np.zeros((1, 1, 4, 4), np.float64))).data.any()

    def test_constant_feature_guides_to_zero(self):
        f = en.Tensor(np.full((1, 3, 6, 6), 2.0, np.float32))
        assert not en.edge_guide(f, edge_map(f)).data.any()

    def test_spatial_mismatch(self):
        with pytest.raises(ContractError):
            en.edge_guide(en.Tensor(np.zeros((1, 3, 4, 4), np.float32)),
                          en.Tensor(np.zeros((1, 1, 2, 2), np.float32)))
        with pytest.raises(ContractError):
            en.edge_guide(en.Tensor(np.zeros((1, 3, 4, 4), np.float32)),
                          en.Tensor(np.zeros((1, 3, 4, 4), np.float32)))


class TestChannelAttention:
    def make(self, channels=8, reduction=4, seed=10):
        return ChannelAttention("t.gate", store(seed), channels, reduction)

    def test_zero_input_zero_output_exact(self):
        gate = self.make()
        x = en.Tensor(np.zeros((2, 8, 4, 4), np.float64))
        assert np.all(gate.scale(x).data == 0.5)
        assert not gate(x).data.any()

    def test_never_amplifies_and_keeps_sign(self):
        gate = self.make()
        for seed in range(8):
            x = en.Tensor(rng(seed).standard_normal((1, 8, 4, 4)))
            out = gate(x).data
            assert np.all(np.abs(out) <= np.abs(x.data))
            assert np.all((out == 0) | (np.sign(out) == np.sign(x.data)))

    def test_scale_is_spatially_uniform(self):
        gate = self.make()
        x = en.Tensor(rng(11).standard_normal((1, 8, 5, 5)))
        out = gate(x).data
        ratio = out / x.data
        assert np.allclose(ratio, ratio[:, :, :1, :1], atol=1e-12)

    def test_matches_dense_oracle(self):
        gate = self.make()
        x = rng(12).standard_normal((1, 8, 4, 4))
        got = gate(en.Tensor(x)).data
        want, scales = channel_attention_reference(x, gate.w0.value.data, gate.w1.value.data)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.all((scales > 0) & (scales < 1))

    def test_channel_mismatch(self):
        with pytest.raises(ContractError):
            self.make()(en.Tensor(np.zeros((1, 4, 4, 4), np.float64)))

    def test_reduction_must_divide(self):
        with pytest.raises(ConfigError):
            ChannelAttention("t.gate", store(0, np.float32), 8, 3)


class TestEdgeGuidedAttention:
    def test_shapes_and_zero(self):
        block = en.EdgeGuidedAttention("t.edge", store(13, np.float32), channels2=32, reduction=16)
        f1 = en.Tensor(np.zeros((1, 16, 64, 64), np.float32))
        f2 = en.Tensor(np.zeros((1, 32, 32, 32), np.float32))
        f1t, f2t = block(f1, f2)
        assert f1t.dims == (1, 16, 64, 64)
        assert f2t.dims == (1, 32, 32, 32)
        assert not f1t.data.any() and not f2t.data.any()

    def test_constant_first_feature_guides_to_zero(self):
        block = en.EdgeGuidedAttention("t.edge", store(14), channels2=4, reduction=2)
        f1 = en.Tensor(np.full((1, 2, 8, 8), 3.0, np.float64))
        f2 = en.Tensor(rng(15).standard_normal((1, 4, 4, 4)))
        f1t, _ = block(f1, f2)
        assert not f1t.data.any()
