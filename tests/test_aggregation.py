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
    levels = {}
    for i, (stride, c) in enumerate(zip(STRIDES, channels)):
        hw = base >> i
        data = rng.standard_normal((batch, c, hw, hw)).astype(dtype)
        levels[stride] = en.Tensor(data, requires_grad)
    return levels


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
        assert list(merged) == [8, 16, 32, 64]
        assert [t.dims[1:3] for t in merged.values()] == [(48, 32), (224, 16), (384, 8), (256, 4)]

    def test_zero_in_zero_out(self):
        feats = {s: en.Tensor(np.zeros((1, c, 64 >> i, 64 >> i), np.float32))
                 for i, (s, c) in enumerate(zip(STRIDES, (4, 8, 8, 16, 16)))}
        for t in en.aggregate(feats).values():
            assert not t.data.any()

    def test_concat_order_by_slicing(self):
        feats = make_set(channels=(4, 8, 16, 32, 64), seed=3)
        merged = en.aggregate(feats)
        f1, f2, f3, f4, f5 = feats.values()
        fa1 = merged[8]
        assert np.array_equal(fa1.data[:, 0:4], en.down2_max(f1).data)
        assert np.array_equal(fa1.data[:, 4:12], f2.data)
        fa2 = merged[16]
        assert np.array_equal(fa2.data[:, 0:8], en.down2_max(f2).data)
        assert np.array_equal(fa2.data[:, 8:24], f3.data)
        assert np.array_equal(fa2.data[:, 24:56], en.up2_nearest(f4).data)
        fa3 = merged[32]
        assert np.array_equal(fa3.data[:, 0:32], f4.data)
        assert np.array_equal(fa3.data[:, 32:96], en.up2_nearest(f5).data)
        assert np.array_equal(merged[64].data, f5.data)

    def test_locality_of_mid_feature(self):
        base = make_set(channels=(4, 8, 8, 16, 16), seed=4)
        bumped = dict(base)
        bumped[16] = en.Tensor(base[16].data + 1.0)
        a = en.aggregate(base)
        b = en.aggregate(bumped)
        changed = [stride for stride in a if not np.array_equal(a[stride].data, b[stride].data)]
        assert changed == [16]

    def test_gradient_reaches_every_input(self):
        feats = make_set(channels=(2, 2, 2, 2, 2), base=16, seed=5, requires_grad=True)
        with en.Tape() as tape:
            first, *rest = en.aggregate(feats).values()
            loss = en.sum_all(first)
            for t in rest:
                loss = en.add(loss, en.sum_all(t))
        en.backward(tape, loss)
        for stride, t in feats.items():
            assert t.grad.any(), f"no gradient reached stride {stride}"

    def test_wrong_strides_rejected(self):
        feats = make_set(channels=(4, 8, 8, 16, 16))
        partial = {s: feats[s] for s in STRIDES[:4]}
        with pytest.raises(ConfigError):
            en.aggregate(partial)


class TestAblationModes:
    def test_full_mode_is_default(self):
        feats = make_set(channels=(4, 8, 8, 16, 16), seed=6)
        a = en.aggregate(feats)
        b = en.aggregate(feats, mode="full")
        assert list(a) == list(b)
        for stride in a:
            assert np.array_equal(a[stride].data, b[stride].data)

    def _perturbed(self, feats, stride, seed=99):
        rng = np.random.default_rng(seed)
        moved = dict(feats)
        moved[stride] = en.Tensor(feats[stride].data + rng.standard_normal(feats[stride].dims))
        return moved

    def test_low3_ignores_coarse_inputs(self):
        feats = make_set(channels=(4, 8, 8, 16, 16), seed=7)
        base = en.aggregate(feats, mode="low3")
        assert [(s, t.dims[1]) for s, t in base.items()] == [(8, 12), (16, 16)]
        for stride in (32, 64):
            other = en.aggregate(self._perturbed(feats, stride), mode="low3")
            for s, t in base.items():
                assert np.array_equal(t.data, other[s].data)
        other = en.aggregate(self._perturbed(feats, 4), mode="low3")
        assert not np.array_equal(base[8].data, other[8].data)

    def test_high3_ignores_fine_inputs(self):
        feats = make_set(channels=(4, 8, 8, 16, 16), seed=8)
        base = en.aggregate(feats, mode="high3")
        assert [(s, t.dims[1]) for s, t in base.items()] == [(16, 24), (32, 32), (64, 16)]
        for stride in (4, 8):
            other = en.aggregate(self._perturbed(feats, stride), mode="high3")
            for s, t in base.items():
                assert np.array_equal(t.data, other[s].data)
        other = en.aggregate(self._perturbed(feats, 16), mode="high3")
        assert not np.array_equal(base[16].data, other[16].data)

    def test_modes_constant(self):
        assert MODES == ("full", "low3", "high3")
