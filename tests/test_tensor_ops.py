"""Forward contracts of the tensor core: shapes, values, errors."""

import itertools
import re

import numpy as np
import pytest

import edgeneck as en
import edgeneck.tensor as tensor_core
from edgeneck.errors import ContractError, DomainError, ShapeError
from edgeneck.gradcheck import grad_check

from reference import conv2d_backward_reference, conv2d_reference, gamma, linear_reference


def rng(seed=0):
    return np.random.default_rng(seed)


def assert_within_rounding_bound(got, x, w, b, spec, u=2.0 ** -53):
    """|got - want| <= 2*gamma(K+1) * (sum|x||w| + |b|) elementwise, at unit roundoff ``u``.

    ``want`` is the loop oracle; each side is within gamma(K+1) of the
    exact sum (Higham 2002, 3.1), hence the factor 2.  Any wrong tap,
    stride, dilation or padding is an O(1) error.
    """
    args = (spec.stride, spec.padding, spec.dilation)
    want = conv2d_reference(x, w, b, *args)
    magnitude = conv2d_reference(np.abs(x), np.abs(w), np.abs(b), *args)
    k = w.shape[1] * w.shape[2] * w.shape[3]
    assert np.all(np.abs(got - want) <= 2 * gamma(k + 1, u) * magnitude)


class TestTensorType:
    def test_rejects_non_4d(self):
        with pytest.raises(ContractError):
            en.Tensor(np.zeros((3, 3)))

    def test_rejects_a_leading_probe_axis(self):
        # ops take data with leading axes, but only the gradient checker builds such tensors
        with pytest.raises(ContractError, match="must be 4-D"):
            en.Tensor(np.zeros((3, 1, 1, 2, 2)))

    def test_rejects_integer_buffers(self):
        with pytest.raises(ContractError):
            en.Tensor(np.zeros((1, 1, 2, 2), np.int32))

    def test_rejects_non_native_byte_order(self):
        # a byte-swapped float32 buffer used to build, then break dtype_name and repr
        with pytest.raises(ContractError):
            en.Tensor(np.zeros((1, 1, 2, 2), np.dtype(np.float32).newbyteorder()))

    def test_zero_dim_is_valid_and_empty(self):
        t = en.Tensor(np.zeros((1, 0, 4, 4), np.float32))
        assert t.dims == (1, 0, 4, 4)
        assert t.data.size == 0

    def test_grad_buffer_allocated_by_backward(self):
        t = en.Tensor(np.zeros((2, 3, 4, 5), np.float32), requires_grad=True)
        assert t.grad is None
        with en.Tape() as tape:
            loss = en.sum_all(t)
        en.backward(tape, loss)
        assert t.grad.shape == t.dims

    def test_complex128_is_named(self):
        t = en.Tensor(np.zeros((1, 2, 1, 3), np.complex128), requires_grad=True)
        assert t.dtype_name == "c128"
        assert repr(t) == "Tensor(1x2x1x3, c128, requires_grad=True)"

    def test_item_requires_single_element(self):
        assert en.Tensor(np.full((1, 1, 1, 1), 2.5, np.float32)).item() == 2.5
        with pytest.raises(ContractError):
            en.Tensor(np.ones((1, 2, 1, 1), np.float32)).item()

    @pytest.mark.parametrize("dtype, value, kind", [
        (np.float32, 0.1, float), (np.float64, 0.1, float), (np.complex128, 0.1 - 1e-30j, complex),
    ], ids=["f32", "f64", "c128"])
    def test_item_is_a_python_number_of_the_element_kind(self, dtype, value, kind):
        got = en.Tensor(np.full((1, 1, 1, 1), value, dtype)).item()
        assert type(got) is kind
        assert got == dtype(value)  # f32 keeps its rounded value: 0.1 reads 0.10000000149...


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


CONV_CASES = [
    dict(x=(1, 2, 5, 5), w=(3, 2, 3, 3), spec=en.ConvSpec(padding=(1, 1))),
    dict(x=(2, 3, 7, 6), w=(4, 3, 3, 2),
         spec=en.ConvSpec(stride=(2, 1), padding=(2, 1), dilation=(1, 2))),
    dict(x=(2, 6, 1, 1), w=(4, 6, 1, 1), spec=en.ConvSpec()),  # the channel gate's 1x1
    dict(x=(2, 1, 7, 8), w=(1, 1, 3, 3), spec=en.ConvSpec()),  # Sobel on a channel mean
    dict(x=(1, 64, 12, 12), w=(8, 64, 3, 3), spec=en.ConvSpec(padding=(1, 1))),  # K = 577
]


class TestConv2d:
    def test_zero_sum_kernel_on_constant_field(self):
        x = en.Tensor(np.ones((1, 1, 3, 3), np.float64))
        w = en.Tensor(np.asarray(en.SOBEL_X, np.float64).reshape(1, 1, 3, 3))
        y = en.conv2d(x, w, spec=en.ConvSpec(padding=(1, 1)))
        assert y.data[0, 0, 1, 1] == 0.0

    def test_row_gradient_single_value(self):
        x = en.Tensor(np.asarray([[[[0, 1, 2]] * 3]], np.float64))
        w = en.Tensor(np.asarray(en.SOBEL_X, np.float64).reshape(1, 1, 3, 3))
        y = en.conv2d(x, w)
        assert y.dims == (1, 1, 1, 1)
        assert y.item() == -8.0

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_matches_reference_within_rounding_bound(self, case):
        r = rng(42)
        x = r.standard_normal(case["x"])
        w = r.standard_normal(case["w"])
        b = r.standard_normal((1, case["w"][0], 1, 1))
        got = en.conv2d(en.Tensor(x), en.Tensor(w), en.Tensor(b), case["spec"]).data
        assert_within_rounding_bound(got, x, w, b, case["spec"])

    @pytest.mark.parametrize("tile_bytes", [None, 1], ids=["default_tiles", "one_row"])
    @pytest.mark.parametrize("case", CONV_CASES + [
        dict(x=(2, 3, 5, 7), w=(4, 3, 1, 1), spec=en.ConvSpec(stride=(1, 3)))])  # strided 1x1
    def test_complex_input_against_real_weight(self, monkeypatch, case, tile_bytes):
        """A complex-step probe's conv: real and imaginary parts are the real convs of x's parts."""
        if tile_bytes is not None:
            monkeypatch.setattr(tensor_core, "_TILE_BYTES", tile_bytes)
        r = rng(45)
        x = r.standard_normal(case["x"]) + 1j * r.standard_normal(case["x"])
        w = r.standard_normal(case["w"])
        b = r.standard_normal((1, case["w"][0], 1, 1))
        got = en.conv2d(en.Tensor(x), en.Tensor(w), en.Tensor(b), case["spec"]).data
        assert got.dtype == np.complex128
        assert_within_rounding_bound(got.real, x.real, w, b, case["spec"])
        assert_within_rounding_bound(got.imag, x.imag, w, 0 * b, case["spec"])

    @pytest.mark.parametrize("case", [c for c in CONV_CASES if any(c["spec"].padding)])
    def test_padding_is_an_exact_copy(self, case):
        # output and weight gradient equal, bit for bit, those of an np.pad-ed unpadded conv
        r = rng(44)
        x, w = r.standard_normal(case["x"]), r.standard_normal(case["w"])
        b = en.Tensor(r.standard_normal((1, case["w"][0], 1, 1)))
        spec = case["spec"]
        py, px = spec.padding
        x_pad = np.pad(x, ((0, 0), (0, 0), (py, py), (px, px)))
        unpadded = en.ConvSpec(stride=spec.stride, dilation=spec.dilation)

        def run(xd, s):
            wt = en.Tensor(w, requires_grad=True)
            with en.Tape() as tape:
                y = en.conv2d(en.Tensor(xd), wt, b, s)
                loss = en.sum_all(en.mul(y, y))
            en.backward(tape, loss)
            return y.data, wt.grad

        for got, want in zip(run(x, spec), run(x_pad, unpadded)):
            assert np.array_equal(got, want)

    # Forward tiles here are 2*18*6*8 = 1728 bytes a row over oh = 5 rows, grad_w
    # chunks 6*2*5*6*8 = 2880 bytes a channel: 1 byte gives one-row tiles, 2 * 1728
    # gives rows 0-1, 2-3 and the uneven 4; both give one channel per chunk.
    @pytest.mark.parametrize("tile_bytes", [1, 2 * 1728], ids=["one_row", "two_rows"])
    def test_tile_seams(self, monkeypatch, tile_bytes):
        monkeypatch.setattr(tensor_core, "_TILE_BYTES", tile_bytes)
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

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_backward_matches_the_loop_adjoint_within_rounding_bound(self, monkeypatch, case):
        # each gradient element is a sum of L terms, each side within gamma(L) of the
        # exact one (Higham 2002, 3.1): L = N*OH*OW for grad_w and grad_b, at most
        # C_out*kH*kW for grad_x; at the default tile bound and the test_tile_seams ones
        r = rng(45)
        x = r.standard_normal((2,) + case["x"][1:])
        w = r.standard_normal(case["w"])
        b = r.standard_normal((1, case["w"][0], 1, 1))
        spec = case["spec"]
        c_out, _, kh, kw = w.shape
        oh, ow = spec.out_hw(*x.shape[2:], kh, kw)
        g = r.standard_normal((2, c_out, oh, ow))
        args = (spec.stride, spec.padding, spec.dilation)
        want = conv2d_backward_reference(x, w, g, *args)
        scale = conv2d_backward_reference(np.abs(x), np.abs(w), np.abs(g), *args)
        lengths = (c_out * kh * kw, 2 * oh * ow, 2 * oh * ow)
        for tile_bytes in (tensor_core._TILE_BYTES, 1, 2 * 1728):
            monkeypatch.setattr(tensor_core, "_TILE_BYTES", tile_bytes)
            leaves = [en.Tensor(a, requires_grad=True) for a in (x, w, b)]
            with en.Tape() as tape:
                loss = en.sum_all(en.mul(en.conv2d(*leaves, spec), en.Tensor(g)))
            en.backward(tape, loss)
            for name, t, ref, mag, n_terms in zip("xwb", leaves, want, scale, lengths):
                assert np.all(np.abs(t.grad - ref) <= 2 * gamma(n_terms + 1) * mag), \
                    (name, tile_bytes)

    # On the test_tile_seams case a forward or grad_x row is 1728 bytes of columns and a
    # grad_w channel 2880: 1 byte gives one unit per buffer, 2 * 1728 two rows and one
    # channel, 6000 three rows and two channels.
    @pytest.mark.parametrize("tile_bytes", [1, 2 * 1728, 6000])
    def test_every_column_buffer_keeps_the_tile_bound(self, monkeypatch, tile_bytes):
        monkeypatch.setattr(tensor_core, "_TILE_BYTES", tile_bytes)
        r = rng(43)
        x = r.standard_normal((2, 3, 7, 6))
        w = r.standard_normal((4, 3, 3, 2))
        spec = en.ConvSpec(stride=(2, 1), padding=(2, 1), dilation=(1, 2))
        n, k = 2, 3 * 3 * 2
        oh, ow = spec.out_hw(7, 6, 3, 2)
        # every forward and grad_w column buffer copies one _taps view; every grad_x
        # col2im buffer is the product of one matmul
        built = []
        taps, matmul = tensor_core._taps, np.matmul

        def recorded_taps(*args):
            view = taps(*args)
            built.append(view.nbytes)
            return view

        def recorded_matmul(*args, **kwargs):
            product = matmul(*args, **kwargs)
            built.append(product.nbytes)
            return product

        def check(unit):
            # each buffer within the bound or one unit, and together all N*K*OH*OW columns
            assert built and max(built) <= max(tile_bytes, unit), built
            assert sum(built) == n * k * oh * ow * x.itemsize, built
            built.clear()

        monkeypatch.setattr(tensor_core, "_taps", recorded_taps)
        en.conv2d(en.Tensor(x), en.Tensor(w), spec=spec)
        check(unit=n * k * ow * x.itemsize)
        for needs_x in (False, True):
            xt, wt = en.Tensor(x, requires_grad=needs_x), en.Tensor(w, requires_grad=not needs_x)
            with en.Tape() as tape:
                loss = en.sum_all(en.conv2d(xt, wt, spec=spec))
            built.clear()
            if needs_x:
                monkeypatch.setattr(tensor_core, "_taps", taps)
                monkeypatch.setattr(np, "matmul", recorded_matmul)
            en.backward(tape, loss)
            monkeypatch.setattr(np, "matmul", matmul)
            check(unit=n * k * ow * x.itemsize if needs_x else k // 3 * n * oh * ow * x.itemsize)

    # Three probes of the test_tile_seams x share each forward column buffer: a row of
    # them is 3 * 1728 bytes, so 1 byte gives one-row tiles and 2 * 3 * 1728 two rows.
    @pytest.mark.parametrize("tile_bytes", [1, 2 * 3 * 1728, 20000])
    def test_every_column_buffer_of_a_batched_conv_keeps_the_tile_bound(self, monkeypatch,
                                                                        tile_bytes):
        monkeypatch.setattr(tensor_core, "_TILE_BYTES", tile_bytes)
        r = rng(43)
        x = r.standard_normal((3, 2, 3, 7, 6))
        w = r.standard_normal((4, 3, 3, 2))
        spec = en.ConvSpec(stride=(2, 1), padding=(2, 1), dilation=(1, 2))
        n, k = 2, 3 * 3 * 2
        oh, ow = spec.out_hw(7, 6, 3, 2)
        built = []
        taps = tensor_core._taps

        def recorded_taps(*args):
            view = taps(*args)
            built.append(view.nbytes)
            return view

        monkeypatch.setattr(tensor_core, "_taps", recorded_taps)
        got = en.conv2d(tensor_core._tensor(x, False), en.Tensor(w), spec=spec).data
        assert built and max(built) <= max(tile_bytes, 3 * n * k * ow * x.itemsize), built
        assert sum(built) == 3 * n * k * oh * ow * x.itemsize, built
        for p in range(3):
            assert_within_rounding_bound(got[p], x[p], w, np.zeros((1, 4, 1, 1)), spec)

    def test_zero_output_dim_yields_empty(self):
        y = en.conv2d(en.Tensor(np.ones((1, 1, 3, 4), np.float32)),
                      en.Tensor(np.ones((2, 1, 4, 4), np.float32)))
        assert y.dims == (1, 2, 0, 1)

    def test_channel_group_mismatches(self):
        x = en.Tensor(np.zeros((1, 3, 4, 4), np.float32))
        with pytest.raises(ContractError):
            en.conv2d(x, en.Tensor(np.zeros((2, 2, 3, 3), np.float32)))
        with pytest.raises(ContractError):
            en.conv2d(x, en.Tensor(np.zeros((2, 4, 3, 3), np.float32)))
        with pytest.raises(ContractError):
            en.conv2d(x, en.Tensor(np.zeros((2, 3, 3, 3), np.float32)),
                      bias=en.Tensor(np.zeros((1, 3, 1, 1), np.float32)))

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


def _wide_field_specs():
    """The long convs of WideFieldBlock's branches 2..4: (kernel dims, spec)."""
    for k in (2, 3, 4):
        d = 2 * k - 1
        pad = d * (d - 1) // 2
        yield (1, d), en.ConvSpec(padding=(0, pad), dilation=(d, d))
        yield (d, 1), en.ConvSpec(padding=(pad, 0), dilation=(d, d))


class TestDeadTaps:
    """Taps that read only the zero border are left out of the im2col columns and the GEMM."""

    def test_live_range_against_brute_force(self):
        for size, pad, stride, dil, k in itertools.product(
                range(1, 8), range(6), (1, 2, 3, 7), range(1, 5), range(1, 6)):
            out = (size + 2 * pad - dil * (k - 1) - 1) // stride + 1
            if out < 1:
                continue
            live = {t for t in range(k)
                    if any(0 <= o * stride + t * dil - pad < size for o in range(out))}
            t0, t1 = tensor_core._live_taps(size, out, pad, stride, dil, k)
            case = (size, pad, stride, dil, k)
            assert 0 <= t0 <= t1 <= k, case
            assert live <= set(range(t0, t1)), case  # no tap that reads the image is dropped
            if stride == 1:
                assert set(range(t0, t1)) == live, case

    def test_a_conv_whose_every_tap_is_dead_gives_the_bias(self):
        r = rng(46)
        x, w, b = (r.standard_normal(d) for d in ((1, 2, 1, 1), (3, 2, 1, 1), (1, 3, 1, 1)))
        spec = en.ConvSpec(stride=3, padding=1)  # one output, reading the corner of the border

        def loss(x, w, b):
            y = en.conv2d(x, w, b, spec)
            return en.sum_all(en.mul(y, y))

        wt = en.Tensor(w, requires_grad=True)
        with en.Tape() as tape:
            out = loss(en.Tensor(x), wt, en.Tensor(b))
        en.backward(tape, out)
        assert np.array_equal(tape.records[0].output.data, b)
        assert np.array_equal(wt.grad, np.zeros_like(w))
        report = grad_check(loss, {"x": x, "w": w, "b": b})
        assert report.ok, report.format()

    @pytest.mark.parametrize("hw", [9, 2, 1])
    @pytest.mark.parametrize("kind", ["f32", "f64", "c128", "lead_x", "lead_w"])
    def test_wide_field_convs_on_narrow_maps_match_the_oracle(self, kind, hw):
        # 9x9 is block.wide_field's map; at 2x2 and 1x1 only the centre tap reads the image
        r = rng(47)
        for kdims, spec in _wide_field_specs():
            x = r.standard_normal((2, 3, hw, hw))
            w = r.standard_normal((4, 3) + kdims)
            b = r.standard_normal((1, 4, 1, 1))
            if kind in ("f32", "f64"):
                dtype = np.float32 if kind == "f32" else np.float64
                x, w, b = (a.astype(dtype) for a in (x, w, b))
                got = en.conv2d(en.Tensor(x), en.Tensor(w), en.Tensor(b), spec).data
                assert got.dtype == dtype
                assert_within_rounding_bound(got, x, w, b, spec, np.finfo(dtype).eps / 2)
            elif kind == "c128":  # a complex-step probe of x against the real weight
                x = x + 1j * r.standard_normal(x.shape)
                got = en.conv2d(en.Tensor(x), en.Tensor(w), en.Tensor(b), spec).data
                assert_within_rounding_bound(got.real, x.real, w, b, spec)
                assert_within_rounding_bound(got.imag, x.imag, w, 0 * b, spec)
            else:  # three complex probes along a leading axis of x or of w
                on_x = kind == "lead_x"
                steps = r.standard_normal((3,) + (x if on_x else w).shape)
                xs, ws = (x + 1j * steps, w) if on_x else (x, w + 1j * steps)
                got = en.conv2d(tensor_core._tensor(xs, False), tensor_core._tensor(ws, False),
                                en.Tensor(b), spec).data
                for p in range(3):
                    # the imaginary part is the conv with the probed operand's imaginary part
                    im_x, im_w = (steps[p], w) if on_x else (x, steps[p])
                    assert_within_rounding_bound(got[p].real, x, w, b, spec)
                    assert_within_rounding_bound(got[p].imag, im_x, im_w, 0 * b, spec)

    def test_branch_four_row_conv_builds_three_tap_columns_on_a_nine_wide_map(self, monkeypatch):
        # offsets -21..21 step 7 on 9 columns: only -7, 0 and +7 ever read the image
        built = []
        taps = tensor_core._taps

        def recorded_taps(*args):
            view = taps(*args)
            built.append(view.shape)
            return view

        monkeypatch.setattr(tensor_core, "_taps", recorded_taps)
        r = rng(48)
        x, w = r.standard_normal((1, 32, 9, 9)), r.standard_normal((32, 32, 1, 7))
        spec = en.ConvSpec(padding=(0, 21), dilation=(7, 7))
        got = en.conv2d(en.Tensor(x), en.Tensor(w), spec=spec).data
        assert built and all(shape[-4:-2] == (1, 3) for shape in built), built
        assert_within_rounding_bound(got, x, w, np.zeros((1, 32, 1, 1)), spec)


class TestElementwise:
    def test_mul_with_ones_is_identity(self):
        x = en.Tensor(rng().standard_normal((1, 3, 4, 4)))
        assert np.array_equal(en.mul(x, en.Tensor(np.ones_like(x.data))).data, x.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_is_bit_equal_to_a_select(self, dtype):
        info = np.finfo(dtype)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, info.smallest_subnormal,
                   -info.smallest_subnormal, info.tiny, -info.tiny, info.max, -info.max]
        mixed = np.concatenate([np.asarray(special, dtype),
                                rng(5).standard_normal(53).astype(dtype)])
        # fmax keeps the sign of -0 in some head or tail elements that its vector
        # loop leaves over, so -0 also fills every position of every length to 33
        for x in [mixed.reshape(1, 1, 8, 8)] + [np.full((1, 1, 1, n), -0.0, dtype)
                                                for n in range(1, 34)]:
            with en.Tape() as tape:
                y = en.relu(en.Tensor(x, requires_grad=True)).data
            want = np.where(x > 0, x, dtype(0))
            assert y.tobytes() == want.tobytes()  # the sign bit of zero and NaN to 0 included
            assert np.array_equal(tape.records[-1].saved["branch"], x > 0)

    def test_sigmoid_of_zero(self):
        assert np.all(en.sigmoid(en.Tensor(np.zeros((1, 2, 2, 2), np.float32))).data == 0.5)

    def test_sigmoid_saturation_is_finite(self):
        y = en.sigmoid(en.Tensor(np.asarray([[[[-500.0, 500.0]]]], np.float64))).data
        assert np.all(np.isfinite(y))
        assert 0.0 <= y[0, 0, 0, 0] < 1e-200
        assert y[0, 0, 0, 1] == 1.0

    def test_three_four_five(self):
        gx = en.Tensor(np.full((1, 1, 1, 1), 3.0, np.float32))
        gy = en.Tensor(np.full((1, 1, 1, 1), 4.0, np.float32))
        assert en.add(en.mul(gx, gx), en.mul(gy, gy)).item() == 25.0
        assert en.edge_magnitude(gx, gy).item() == 5.0

    def test_incompatible_broadcast(self):
        with pytest.raises(ContractError):
            en.add(en.Tensor(np.zeros((1, 2, 4, 4), np.float32)),
                   en.Tensor(np.zeros((1, 3, 4, 4), np.float32)))

    def test_mixed_dtypes_rejected(self):
        with pytest.raises(ContractError):
            en.add(en.Tensor(np.zeros((1, 1, 2, 2), np.float32)),
                   en.Tensor(np.zeros((1, 1, 2, 2), np.float64)))


class TestPoolAndResample:
    def test_global_pool_examples(self):
        x = en.Tensor(np.asarray([[[[1, 2], [3, 4]]]], np.float64))
        assert en.global_avg_pool(x).item() == 2.5
        assert en.global_max_pool(x).item() == 4.0

    def test_avg_equals_max_on_constant(self):
        x = en.Tensor(np.full((2, 3, 4, 4), 1.5, np.float32))
        assert np.array_equal(en.global_avg_pool(x).data, en.global_max_pool(x).data)

    def test_avg_never_exceeds_max(self):
        x = en.Tensor(rng(3).standard_normal((2, 4, 5, 5)))
        assert np.all(en.global_avg_pool(x).data <= en.global_max_pool(x).data)

    def test_empty_spatial_is_domain_error(self):
        with pytest.raises(DomainError):
            en.global_avg_pool(en.Tensor(np.zeros((1, 2, 0, 3), np.float32)))

    @pytest.mark.parametrize("dims", [(2, 3, 4, 5), (1, 2, 1, 5), (2, 1, 4, 1), (1, 1, 1, 1)])
    def test_replicate_pad_is_an_exact_copy(self, dims):
        x = rng(9).standard_normal(dims)
        got = en.replicate_pad(en.Tensor(x)).data
        assert np.array_equal(got, np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), mode="edge"))

    @pytest.mark.parametrize("dims", [(1, 2, 1, 4), (1, 2, 3, 1), (2, 1, 1, 1)])
    def test_replicate_pad_gradient_at_unit_extent(self, dims):
        # at H = 1 (W = 1) both border rows (columns) fold onto the one row (column)
        r = rng(10)
        n, c, h, w = dims
        weights = en.Tensor(r.standard_normal((n, c, h + 2, w + 2)))
        report = grad_check(lambda x: en.sum_all(en.mul(en.replicate_pad(x), weights)),
                            {"x": r.standard_normal(dims)})
        assert report.ok, report.format()
        assert report.probed == n * c * h * w

    def test_up2_replicates(self):
        x = en.Tensor(np.asarray([[[[1, 2], [3, 4]]]], np.float64))
        want = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        assert np.array_equal(en.up2_nearest(x).data[0, 0], want)
        single = en.Tensor(np.full((1, 1, 1, 1), 7.0, np.float32))
        assert np.all(en.up2_nearest(single).data == 7.0)

    def test_down2_of_up2_round_trips(self):
        x = en.Tensor(rng(5).standard_normal((2, 3, 4, 6)))
        back = en.down2_max(en.up2_nearest(x))
        assert np.array_equal(back.data, x.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_down2_max_gives_the_first_maximal_element(self, dtype):
        # every 2x2 block over +-0, +-inf, NaN and ties: the strided max must give the
        # element the arg-max picks, which a tape saves and the gradient follows; laid
        # out wide (long vector loops) and square (short loops with tails)
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0]
        blocks = np.asarray(list(itertools.product(values, repeat=4)), dtype)  # 7^4 blocks
        ties = rng(6).integers(-1, 2, (4, 1000)).astype(dtype) * dtype(0.5)
        ties[rng(7).random(ties.shape) < 0.3] = -0.0
        for quads in (blocks.T, ties):
            count = quads.shape[1]
            for rows in (1, 7 if count % 7 == 0 else 8):
                grid = quads.reshape(2, 2, rows, count // rows)
                flat = np.ascontiguousarray(grid.transpose(2, 3, 0, 1)).reshape(rows, -1, 4)
                want = np.take_along_axis(flat, flat.argmax(axis=2)[..., None], axis=2)
                x = np.ascontiguousarray(grid.transpose(2, 0, 3, 1)).reshape(
                    1, 1, 2 * rows, 2 * (count // rows))
                with en.Tape() as tape:
                    taped = en.down2_max(en.Tensor(x, requires_grad=True)).data
                assert np.array_equal(tape.records[-1].saved["branch"][0, 0], flat.argmax(axis=2))
                for got in (en.down2_max(en.Tensor(x)).data, taped):
                    assert got.tobytes() == want.reshape(got.shape).tobytes()

    def test_down2_odd_dims_is_shape_error(self):
        with pytest.raises(ShapeError):
            en.down2_max(en.Tensor(np.zeros((1, 1, 3, 4), np.float32)))


class TestConcatSliceLinear:
    def test_concat_channel_count(self):
        a = en.Tensor(np.zeros((1, 64, 32, 32), np.float32))
        b = en.Tensor(np.zeros((1, 128, 32, 32), np.float32))
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
            en.concat_channels([en.Tensor(np.zeros((1, 2, 4, 4), np.float32)),
                                en.Tensor(np.zeros((1, 2, 3, 4), np.float32))])

    def test_linear_identity_and_zero(self):
        # a 1x1 conv on N x C x 1 x 1 descriptors is the per-sample linear map
        x = en.Tensor(rng(2).standard_normal((2, 3, 1, 1)))
        eye = en.Tensor(np.eye(3).reshape(3, 3, 1, 1))
        assert np.array_equal(en.conv2d(x, eye).data, x.data)
        bias = en.Tensor(rng(4).standard_normal((1, 3, 1, 1)))
        out = en.conv2d(en.Tensor(np.zeros((2, 3, 1, 1), np.float64)), eye, bias)
        assert np.array_equal(out.data, np.broadcast_to(bias.data, (2, 3, 1, 1)))

    def test_linear_matches_dot_oracle(self):
        r = rng(9)
        x = r.standard_normal((2, 8, 1, 1))
        w = r.standard_normal((3, 8, 1, 1))
        b = r.standard_normal((1, 3, 1, 1))
        got = en.conv2d(en.Tensor(x), en.Tensor(w), en.Tensor(b)).data
        assert np.max(np.abs(got - linear_reference(x, w, b))) < 1e-12


# the operand dims of each op that checks one element type; concat_channels takes a list
OPERANDS = {
    "conv2d": [(1, 2, 4, 4), (3, 2, 3, 3), (1, 3, 1, 1)],
    "add": [(1, 2, 3, 3), (1, 2, 3, 3)],
    "mul": [(1, 2, 3, 3), (1, 1, 3, 3)],
    "edge_magnitude": [(1, 1, 3, 3), (1, 1, 3, 3)],
    "concat_channels": [(1, 1, 3, 3), (1, 2, 3, 3), (1, 3, 3, 3)],
}


def call(op, tensors):
    return en.concat_channels(tensors) if op == "concat_channels" else getattr(en, op)(*tensors)


class TestRefusals:
    """Every operand position and every axis refuses with ``ContractError`` and its message."""

    @pytest.mark.parametrize("base, odd", [(np.float32, np.float64), (np.float64, np.float32)])
    @pytest.mark.parametrize("op, at", [(op, at) for op, dims in OPERANDS.items()
                                        for at in range(len(dims))])
    def test_one_operand_of_another_element_type(self, op, at, base, odd):
        tensors = [en.Tensor(np.ones(d, odd if i == at else base))
                   for i, d in enumerate(OPERANDS[op])]
        message = "operands must share one element type, got ['float32', 'float64']"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            call(op, tensors)
        assert call(op, [en.Tensor(t.data.astype(base)) for t in tensors]).dtype == base

    @pytest.mark.parametrize("base, odd", [(np.float32, np.complex128),
                                           (np.complex128, np.float32)])
    @pytest.mark.parametrize("op, at", [(op, at) for op, dims in OPERANDS.items()
                                        for at in range(len(dims))])
    def test_float32_against_complex128(self, op, at, base, odd):
        tensors = [en.Tensor(np.ones(d, odd if i == at else base))
                   for i, d in enumerate(OPERANDS[op])]
        message = "operands must share one element type, got ['complex128', 'float32']"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            call(op, tensors)

    @pytest.mark.parametrize("base, odd", [(np.float64, np.complex128),
                                           (np.complex128, np.float64)])
    @pytest.mark.parametrize("op, at", [(op, at) for op, dims in OPERANDS.items()
                                        for at in range(len(dims))])
    def test_float64_meets_complex128(self, op, at, base, odd):
        """A complex-step probe reaches one operand: the result is what all-complex operands give.

        Equal within rounding: a conv of real x and w with a complex bias may run its GEMM real.
        """
        r = rng(at)
        kinds = [odd if i == at else base for i in range(len(OPERANDS[op]))]
        tensors = [en.Tensor(r.standard_normal(d) + 1j * r.standard_normal(d)
                             if kind == np.complex128 else r.standard_normal(d))
                   for d, kind in zip(OPERANDS[op], kinds)]
        got = call(op, tensors)
        want = call(op, [en.Tensor(t.data.astype(np.complex128)) for t in tensors])
        assert got.dtype == np.complex128
        np.testing.assert_allclose(got.data, want.data, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("op", ["add", "mul"])
    @pytest.mark.parametrize("axis", range(4))
    def test_dims_that_do_not_broadcast_at_one_axis(self, op, axis):
        a = (2, 3, 4, 5)
        b = tuple(d + 1 if i == axis else d for i, d in enumerate(a))
        message = f"dims {a} and {b} are not broadcast-compatible at axis {axis}"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            call(op, [en.Tensor(np.ones(a)), en.Tensor(np.ones(b))])
        ones = tuple(1 if i == axis else d for i, d in enumerate(a))  # broadcasts either way
        assert call(op, [en.Tensor(np.ones(a)), en.Tensor(np.ones(ones))]).dims == a
        assert call(op, [en.Tensor(np.ones(ones)), en.Tensor(np.ones(a))]).dims == a


def _probe_values(r, dims, complex_step):
    """Values with exact zeros and ties; a complex step adds ``i H`` of either sign, or none."""
    data = r.integers(-2, 3, dims) * 0.5
    data[r.random(dims) < 0.2] = -0.0
    if complex_step:
        return data + 1j * 1e-30 * r.integers(-1, 2, dims)
    return data


# each forward op and its operand dims, broadcasting where the op allows
LEADING = {
    "conv2d": (lambda x, w, b: en.conv2d(x, w, b, en.ConvSpec(stride=(2, 1), padding=(2, 1),
                                                               dilation=(1, 2))),
               [(2, 3, 7, 6), (4, 3, 3, 2), (1, 4, 1, 1)]),
    "add": (en.add, [(2, 3, 4, 4), (1, 3, 1, 1)]),
    "mul": (en.mul, [(1, 1, 3, 3), (1, 4, 3, 3)]),
    "relu": (en.relu, [(1, 3, 4, 4)]),
    "sigmoid": (en.sigmoid, [(1, 2, 3, 3)]),
    "edge_magnitude": (en.edge_magnitude, [(1, 2, 4, 4), (1, 2, 4, 4)]),
    "global_avg_pool": (en.global_avg_pool, [(2, 3, 4, 5)]),
    "global_max_pool": (en.global_max_pool, [(2, 3, 4, 5)]),
    "up2_nearest": (en.up2_nearest, [(1, 2, 3, 3)]),
    "down2_max": (en.down2_max, [(2, 2, 4, 6)]),
    "replicate_pad": (en.replicate_pad, [(1, 2, 3, 4)]),
    "concat_channels": (lambda *xs: en.concat_channels(list(xs)),
                        [(1, 2, 3, 3), (1, 1, 3, 3), (1, 3, 3, 3)]),
    "sum_all": (en.sum_all, [(2, 3, 4, 5)]),
}


def test_leading_cases_cover_every_op():
    assert set(LEADING) == set(tensor_core.BACKWARD)


def _taped(op, tensors):
    """``op(*tensors)`` on a tape: its data and its ``branch`` entry, ``None`` if it has none."""
    with en.Tape() as tape:
        out = op(*tensors)
    return out.data, tape.records[-1].saved.get("branch")


@pytest.mark.parametrize("kind", ["f64", "c128"])
@pytest.mark.parametrize("name, stacked", [
    (name, stacked) for name, (_, dims) in LEADING.items()
    for stacked in [(k,) for k in range(len(dims))] + ([tuple(range(len(dims)))]
                                                       if len(dims) > 1 else [])])
def test_a_leading_axis_equals_the_stacked_4d_calls(name, stacked, kind):
    """Three probes along a leading axis give, bit for bit, what three 4-D calls give.

    The operands in ``stacked`` carry the axis (complex for ``c128``, as a
    gradient checker's probes are); the others are shared float64 operands
    that broadcast against it.  Branch entries are compared too.
    """
    op, dims = LEADING[name]
    r = rng(50 + len(stacked))
    data = [np.stack([_probe_values(r, d, kind == "c128") for _ in range(3)])
            if k in stacked else _probe_values(r, d, False) for k, d in enumerate(dims)]
    batched, branch = _taped(op, [tensor_core._tensor(a, True) for a in data])
    for p in range(3):
        want, want_branch = _taped(op, [en.Tensor(a[p] if k in stacked else a, requires_grad=True)
                                        for k, a in enumerate(data)])
        assert batched.dtype == want.dtype and batched[p].shape == want.shape
        assert batched[p].tobytes() == want.tobytes()
        if want_branch is None:
            assert branch is None
        else:
            assert branch[p].shape == want_branch.shape
            assert branch[p].tobytes() == want_branch.tobytes()


@pytest.mark.parametrize("op", ["add", "conv2d", "concat_channels"])
def test_leading_axes_that_do_not_broadcast_are_refused(op):
    dims = {"add": [(1, 1, 2, 2), (1, 1, 2, 2)], "conv2d": [(1, 1, 3, 3), (2, 1, 1, 1)],
            "concat_channels": [(1, 1, 2, 2), (1, 2, 2, 2)]}[op]
    tensors = [tensor_core._tensor(np.ones((lead,) + d), True) for lead, d in zip((2, 3), dims)]
    with pytest.raises(ContractError):
        call(op, tensors)
