"""Multi-level regrouping: channel contract, locality, ablation modes."""

import numpy as np
import pytest

import edgeneck as en
from edgeneck.aggregation import MODES, aggregation_plan, plan_channels
from edgeneck.backbone import STRIDES
from edgeneck.errors import ConfigError


def make_set(channels=(16, 32, 64, 128, 256), base=64, batch=1, seed=0,
             requires_grad=False, dtype=np.float64):
    rng = np.random.default_rng(seed)
    levels = []
    for i, (stride, c) in enumerate(zip(STRIDES, channels)):
        hw = base >> i
        data = rng.standard_normal((batch, c, hw, hw)).astype(dtype)
        levels.append(en.PyramidLevel(stride, en.Tensor(data, requires_grad)))
    return en.PyramidSet(levels)


class TestPlan:
    def test_full_channel_contract(self):
        plan = aggregation_plan("full")
        assert plan_channels(plan, (16, 32, 64, 128, 256)) == (48, 224, 384, 256)
        assert plan_channels(plan, (1, 2, 3, 4, 5)) == (3, 9, 9, 5)
        assert plan_channels(plan, (8, 8, 8, 8, 8)) == (16, 24, 16, 8)

    def test_full_strides(self):
        plan = aggregation_plan("full")
        assert tuple(stride for stride, _ in plan) == (8, 16, 32, 64)

    def test_low3_structure(self):
        plan = aggregation_plan("low3")
        assert tuple(stride for stride, _ in plan) == (8, 16)
        assert plan_channels(plan, (16, 32, 64, 128, 256)) == (48, 96)

    def test_high3_structure(self):
        plan = aggregation_plan("high3")
        assert tuple(stride for stride, _ in plan) == (16, 32, 64)
        assert plan_channels(plan, (16, 32, 64, 128, 256)) == (192, 384, 256)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            aggregation_plan("mid3")


class TestAggregateFull:
    def test_channels_and_spatial(self):
        feats = make_set()
        merged = en.aggregate(feats)
        assert merged.strides == (8, 16, 32, 64)
        assert merged.channels == (48, 224, 384, 256)
        assert tuple(lv.tensor.dims[2] for lv in merged) == (32, 16, 8, 4)

    def test_zero_in_zero_out(self):
        feats = en.PyramidSet([
            en.PyramidLevel(s, en.zeros((1, c, 64 >> i, 64 >> i)))
            for i, (s, c) in enumerate(zip(STRIDES, (4, 8, 8, 16, 16)))
        ])
        for lv in en.aggregate(feats):
            assert not lv.tensor.data.any()

    def test_concat_order_by_slicing(self):
        feats = make_set(channels=(4, 8, 16, 32, 64), seed=3)
        merged = en.aggregate(feats)
        f1, f2, f3, f4, f5 = feats.tensors()
        fa1 = merged.by_stride(8).tensor
        assert np.array_equal(fa1.data[:, 0:4], en.down2_max(f1).data)
        assert np.array_equal(fa1.data[:, 4:12], f2.data)
        fa2 = merged.by_stride(16).tensor
        assert np.array_equal(fa2.data[:, 0:8], en.down2_max(f2).data)
        assert np.array_equal(fa2.data[:, 8:24], f3.data)
        assert np.array_equal(fa2.data[:, 24:56], en.up2_nearest(f4).data)
        fa3 = merged.by_stride(32).tensor
        assert np.array_equal(fa3.data[:, 0:32], f4.data)
        assert np.array_equal(fa3.data[:, 32:96], en.up2_nearest(f5).data)
        assert np.array_equal(merged.by_stride(64).tensor.data, f5.data)

    def test_locality_of_mid_feature(self):
        base = make_set(channels=(4, 8, 8, 16, 16), seed=4)
        bumped_levels = []
        for lv in base:
            data = lv.tensor.data.copy()
            if lv.stride == 16:
                data += 1.0
            bumped_levels.append(en.PyramidLevel(lv.stride, en.Tensor(data)))
        a = en.aggregate(base)
        b = en.aggregate(en.PyramidSet(bumped_levels))
        changed = [lv.stride for lv, other in zip(a, b)
                   if not np.array_equal(lv.tensor.data, other.tensor.data)]
        assert changed == [16]

    def test_gradient_reaches_every_input(self):
        feats = make_set(channels=(2, 2, 2, 2, 2), base=16, seed=5, requires_grad=True)
        with en.Tape() as tape:
            merged = en.aggregate(feats)
            loss = en.sum_all(merged[0].tensor)
            for lv in list(merged)[1:]:
                loss = en.add(loss, en.sum_all(lv.tensor))
        en.backward(tape, loss)
        for lv in feats:
            assert lv.tensor.grad.any(), f"no gradient reached stride {lv.stride}"

    def test_wrong_strides_rejected(self):
        feats = make_set(channels=(4, 8, 8, 16, 16))
        partial = en.PyramidSet(list(feats)[:4])
        with pytest.raises(ConfigError):
            en.aggregate(partial)


class TestAblationModes:
    def test_full_mode_is_default(self):
        feats = make_set(channels=(4, 8, 8, 16, 16), seed=6)
        a = en.aggregate(feats)
        b = en.aggregate(feats, mode="full")
        for x, y in zip(a, b):
            assert np.array_equal(x.tensor.data, y.tensor.data)

    def _perturbed(self, feats, stride, seed=99):
        rng = np.random.default_rng(seed)
        levels = []
        for lv in feats:
            data = lv.tensor.data
            if lv.stride == stride:
                data = data + rng.standard_normal(data.shape)
            levels.append(en.PyramidLevel(lv.stride, en.Tensor(data)))
        return en.PyramidSet(levels)

    def test_low3_ignores_coarse_inputs(self):
        feats = make_set(channels=(4, 8, 8, 16, 16), seed=7)
        base = en.aggregate(feats, mode="low3")
        assert base.strides == (8, 16)
        assert base.channels == (12, 16)
        for stride in (32, 64):
            other = en.aggregate(self._perturbed(feats, stride), mode="low3")
            for x, y in zip(base, other):
                assert np.array_equal(x.tensor.data, y.tensor.data)
        other = en.aggregate(self._perturbed(feats, 4), mode="low3")
        assert not np.array_equal(base[0].tensor.data, other[0].tensor.data)

    def test_high3_ignores_fine_inputs(self):
        feats = make_set(channels=(4, 8, 8, 16, 16), seed=8)
        base = en.aggregate(feats, mode="high3")
        assert base.strides == (16, 32, 64)
        assert base.channels == (24, 32, 16)
        for stride in (4, 8):
            other = en.aggregate(self._perturbed(feats, stride), mode="high3")
            for x, y in zip(base, other):
                assert np.array_equal(x.tensor.data, y.tensor.data)
        other = en.aggregate(self._perturbed(feats, 16), mode="high3")
        assert not np.array_equal(base[0].tensor.data, other[0].tensor.data)

    def test_modes_constant(self):
        assert MODES == ("full", "low3", "high3")
