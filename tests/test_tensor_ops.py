"""Forward contracts of the tensor core: shapes, values, errors."""

import numpy as np
import pytest

import edgeneck as en
import edgeneck.tensor as tensor_core
from edgeneck.errors import ContractError, DomainError, ShapeError
from edgeneck.gradcheck import grad_check

from reference import conv2d_reference, linear_reference


def rng(seed=0):
    return np.random.default_rng(seed)


def gamma(n, u=2.0 ** -53):
    """Higham's gamma_n = n*u / (1 - n*u), the relative error bound of an n-term sum."""
    return n * u / (1 - n * u)


def assert_within_rounding_bound(got, x, w, b, spec):
    """|got - want| <= 2*gamma(K+1) * (sum|x||w| + |b|) elementwise, in float64.

    ``want`` is the loop oracle; each side is within gamma(K+1) of the
    exact sum (Higham 2002, 3.1), hence the factor 2.  Any wrong tap,
    stride, dilation or padding is an O(1) error.
    """
    args = (spec.stride, spec.padding, spec.dilation)
    want = conv2d_reference(x, w, b, *args)
    magnitude = conv2d_reference(np.abs(x), np.abs(w), np.abs(b), *args)
    k = w.shape[1] * w.shape[2] * w.shape[3]
    assert np.all(np.abs(got - want) <= 2 * gamma(k + 1) * magnitude)


class TestTensorType:
    def test_rejects_non_4d(self):
        with pytest.raises(ContractError):
            en.Tensor(np.zeros((3, 3)))

    def test_rejects_integer_buffers(self):
        with pytest.raises(ContractError):
            en.Tensor(np.zeros((1, 1, 2, 2), np.int32))

    def test_rejects_non_native_byte_order(self):
        # a byte-swapped float32 buffer used to build, then break dtype_name and repr
        with pytest.raises(ContractError):
            en.Tensor(np.zeros((1, 1, 2, 2), np.dtype(np.float32).newbyteorder()))

    def test_zero_dim_is_valid_and_empty(self):
        t = en.zeros((1, 0, 4, 4))
        assert t.dims == (1, 0, 4, 4)
        assert t.data.size == 0

    def test_grad_buffer_allocated_by_backward(self):
        t = en.zeros((2, 3, 4, 5), requires_grad=True)
        assert t.grad is None
        with en.Tape() as tape:
            loss = en.sum_all(t)
        en.backward(tape, loss)
        assert t.grad.shape == t.dims

    def test_item_requires_single_element(self):
        assert en.full((1, 1, 1, 1), 2.5).item() == 2.5
        with pytest.raises(ContractError):
            en.ones((1, 2, 1, 1)).item()


class TestConvSpec:
    def test_validation(self):
        with pytest.raises(ContractError):
            en.ConvSpec(stride=(0, 1))
        with pytest.raises(ContractError):
            en.ConvSpec(padding=(-1, 0))
        with pytest.raises(ContractError):
            en.ConvSpec(dilation=(1, 0))

    def test_out_hw_formula(self):
        spec = en.ConvSpec(stride=(2, 1), padding=(2, 1), dilation=(1, 2))
        assert spec.out_hw(7, 6, 3, 3) == (5, 4)

    def test_negative_output_is_shape_error(self):
        with pytest.raises(ShapeError):
            en.ConvSpec().out_hw(2, 2, 5, 5)

    def test_zero_output_is_valid(self):
        assert en.ConvSpec().out_hw(3, 4, 4, 4) == (0, 1)


class TestConv2d:
    def test_zero_sum_kernel_on_constant_field(self):
        x = en.ones((1, 1, 3, 3), np.float64)
        w = en.Tensor(np.asarray(en.SOBEL_X, np.float64).reshape(1, 1, 3, 3))
        y = en.conv2d(x, w, spec=en.ConvSpec(padding=(1, 1)))
        assert y.data[0, 0, 1, 1] == 0.0

    def test_row_gradient_single_value(self):
        x = en.Tensor(np.asarray([[[[0, 1, 2]] * 3]], np.float64))
        w = en.Tensor(np.asarray(en.SOBEL_X, np.float64).reshape(1, 1, 3, 3))
        y = en.conv2d(x, w)
        assert y.dims == (1, 1, 1, 1)
        assert y.item() == -8.0

    @pytest.mark.parametrize("case", [
        dict(x=(1, 2, 5, 5), w=(3, 2, 3, 3), spec=en.ConvSpec(padding=(1, 1))),
        dict(x=(2, 3, 7, 6), w=(4, 3, 3, 2),
             spec=en.ConvSpec(stride=(2, 1), padding=(2, 1), dilation=(1, 2))),
        dict(x=(2, 6, 1, 1), w=(4, 6, 1, 1), spec=en.ConvSpec()),  # the channel gate's 1x1
        dict(x=(2, 1, 7, 8), w=(1, 1, 3, 3), spec=en.ConvSpec()),  # Sobel on a channel mean
        dict(x=(1, 64, 12, 12), w=(8, 64, 3, 3), spec=en.ConvSpec(padding=(1, 1))),  # K = 577
    ])
    def test_matches_reference_within_rounding_bound(self, case):
        r = rng(42)
        x = r.standard_normal(case["x"])
        w = r.standard_normal(case["w"])
        b = r.standard_normal((1, case["w"][0], 1, 1))
        got = en.conv2d(en.Tensor(x), en.Tensor(w), en.Tensor(b), case["spec"]).data
        assert_within_rounding_bound(got, x, w, b, case["spec"])

    def test_tile_seams(self, monkeypatch):
        # one output row per im2col tile and one input channel per grad_w chunk
        monkeypatch.setattr(tensor_core, "_TILE_BYTES", 1)
        r = rng(43)
        x = r.standard_normal((2, 3, 7, 6))
        w = r.standard_normal((4, 3, 3, 2))
        b = r.standard_normal((1, 4, 1, 1))
        spec = en.ConvSpec(stride=(2, 1), padding=(2, 1), dilation=(1, 2))
        got = en.conv2d(en.Tensor(x), en.Tensor(w), en.Tensor(b), spec).data
        assert_within_rounding_bound(got, x, w, b, spec)
        report = grad_check(lambda x, w, b: en.sum_all(en.conv2d(x, w, b, spec)),
                            {"x": x, "w": w, "b": b})
        assert report.ok, report.format()

    def test_zero_output_dim_yields_empty(self):
        y = en.conv2d(en.ones((1, 1, 3, 4)), en.ones((2, 1, 4, 4)))
        assert y.dims == (1, 2, 0, 1)

    def test_channel_group_mismatches(self):
        x = en.zeros((1, 3, 4, 4))
        with pytest.raises(ContractError):
            en.conv2d(x, en.zeros((2, 2, 3, 3)))
        with pytest.raises(ContractError):
            en.conv2d(x, en.zeros((2, 4, 3, 3)))
        with pytest.raises(ContractError):
            en.conv2d(x, en.zeros((2, 3, 3, 3)), bias=en.zeros((1, 3, 1, 1)))

    def test_linearity(self):
        for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
            r = rng(7)
            x = r.standard_normal((1, 2, 6, 6)).astype(dtype)
            y = r.standard_normal((1, 2, 6, 6)).astype(dtype)
            w = en.Tensor(r.standard_normal((3, 2, 3, 3)).astype(dtype))
            a, b = dtype(r.uniform(-2, 2)), dtype(r.uniform(-2, 2))
            spec = en.ConvSpec(padding=(1, 1))
            mixed = en.conv2d(en.Tensor(a * x + b * y), w, spec=spec).data
            parts = (a * en.conv2d(en.Tensor(x), w, spec=spec).data
                     + b * en.conv2d(en.Tensor(y), w, spec=spec).data)
            assert np.max(np.abs(mixed - parts)) < tol


class TestElementwise:
    def test_mul_with_ones_is_identity(self):
        x = en.Tensor(rng().standard_normal((1, 3, 4, 4)))
        assert np.array_equal(en.mul(x, en.ones_like(x)).data, x.data)

    def test_sigmoid_of_zero(self):
        assert np.all(en.sigmoid(en.zeros((1, 2, 2, 2))).data == 0.5)

    def test_sigmoid_saturation_is_finite(self):
        y = en.sigmoid(en.Tensor(np.asarray([[[[-500.0, 500.0]]]], np.float64))).data
        assert np.all(np.isfinite(y))
        assert 0.0 <= y[0, 0, 0, 0] < 1e-200
        assert y[0, 0, 0, 1] == 1.0

    def test_three_four_five(self):
        gx = en.full((1, 1, 1, 1), 3.0)
        gy = en.full((1, 1, 1, 1), 4.0)
        assert en.add(en.square(gx), en.square(gy)).item() == 25.0
        assert en.edge_magnitude(gx, gy).item() == 5.0

    def test_incompatible_broadcast(self):
        with pytest.raises(ContractError):
            en.add(en.zeros((1, 2, 4, 4)), en.zeros((1, 3, 4, 4)))

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ContractError):
            en.add(en.zeros((1, 1, 2, 2), np.float32), en.zeros((1, 1, 2, 2), np.float64))


class TestPoolAndResample:
    def test_global_pool_examples(self):
        x = en.Tensor(np.asarray([[[[1, 2], [3, 4]]]], np.float64))
        assert en.global_avg_pool(x).item() == 2.5
        assert en.global_max_pool(x).item() == 4.0

    def test_avg_equals_max_on_constant(self):
        x = en.full((2, 3, 4, 4), 1.5)
        assert np.array_equal(en.global_avg_pool(x).data, en.global_max_pool(x).data)

    def test_avg_never_exceeds_max(self):
        x = en.Tensor(rng(3).standard_normal((2, 4, 5, 5)))
        assert np.all(en.global_avg_pool(x).data <= en.global_max_pool(x).data)

    def test_empty_spatial_is_domain_error(self):
        with pytest.raises(DomainError):
            en.global_avg_pool(en.zeros((1, 2, 0, 3)))

    def test_up2_replicates(self):
        x = en.Tensor(np.asarray([[[[1, 2], [3, 4]]]], np.float64))
        want = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        assert np.array_equal(en.up2_nearest(x).data[0, 0], want)
        single = en.full((1, 1, 1, 1), 7.0)
        assert np.all(en.up2_nearest(single).data == 7.0)

    def test_down2_of_up2_round_trips(self):
        x = en.Tensor(rng(5).standard_normal((2, 3, 4, 6)))
        back = en.down2_max(en.up2_nearest(x))
        assert np.array_equal(back.data, x.data)

    def test_down2_odd_dims_is_shape_error(self):
        with pytest.raises(ShapeError):
            en.down2_max(en.zeros((1, 1, 3, 4)))


class TestConcatSliceLinear:
    def test_concat_channel_count(self):
        a = en.zeros((1, 64, 32, 32))
        b = en.zeros((1, 128, 32, 32))
        assert en.concat_channels([a, b]).dims == (1, 192, 32, 32)

    def test_concat_single_is_identity(self):
        x = en.Tensor(rng().standard_normal((1, 3, 2, 2)))
        assert np.array_equal(en.concat_channels([x]).data, x.data)

    def test_concat_slice_round_trip(self):
        r = rng(11)
        xs = [en.Tensor(r.standard_normal((1, c, 3, 3))) for c in (2, 3, 4)]
        cat = en.concat_channels(xs)
        start = 0
        for x in xs:
            assert np.array_equal(cat.data[:, start:start + x.dims[1]], x.data)
            start += x.dims[1]

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ContractError):
            en.concat_channels([en.zeros((1, 2, 4, 4)), en.zeros((1, 2, 3, 4))])

    def test_linear_identity_and_zero(self):
        # a 1x1 conv on N x C x 1 x 1 descriptors is the per-sample linear map
        x = en.Tensor(rng(2).standard_normal((2, 3, 1, 1)))
        eye = en.Tensor(np.eye(3).reshape(3, 3, 1, 1))
        assert np.array_equal(en.conv2d(x, eye).data, x.data)
        bias = en.Tensor(rng(4).standard_normal((1, 3, 1, 1)))
        out = en.conv2d(en.zeros((2, 3, 1, 1), np.float64), eye, bias)
        assert np.array_equal(out.data, np.broadcast_to(bias.data, (2, 3, 1, 1)))

    def test_linear_matches_dot_oracle(self):
        r = rng(9)
        x = r.standard_normal((2, 8, 1, 1))
        w = r.standard_normal((3, 8, 1, 1))
        b = r.standard_normal((1, 3, 1, 1))
        got = en.conv2d(en.Tensor(x), en.Tensor(w), en.Tensor(b)).data
        assert np.max(np.abs(got - linear_reference(x, w, b))) < 1e-12

    def test_channel_mean(self):
        x = en.Tensor(rng(6).standard_normal((2, 5, 3, 3)))
        got = en.channel_mean(x)
        assert got.dims == (2, 1, 3, 3)
        assert np.allclose(got.data[:, 0], x.data.mean(axis=1), atol=1e-12)
