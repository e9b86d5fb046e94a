"""Stub backbone: stride ladder, channel plan, input validation."""

import numpy as np
import pytest

import edgeneck as en
from edgeneck.backbone import STRIDES
from edgeneck.errors import ContractError, ShapeError


def make_backbone(seed=0, channels=(16, 32, 64, 128, 256)):
    return en.Backbone("t.bb", en.Params(np.random.default_rng(seed), np.float64), channels)


def image(h=256, w=256, seed=1, dtype=np.float64):
    return en.Tensor(np.random.default_rng(seed).standard_normal((1, 3, h, w)).astype(dtype))


class TestContract:
    def test_default_plan_on_256(self):
        feats = make_backbone()(image())
        assert tuple(feats) == STRIDES == (4, 8, 16, 32, 64)
        assert [t.dims[1:] for t in feats.values()] == \
            [(16, 64, 64), (32, 32, 32), (64, 16, 16), (128, 8, 8), (256, 4, 4)]

    def test_rectangle(self):
        feats = make_backbone()(image(128, 192))
        assert [t.dims[2:] for t in feats.values()] == \
            [(32, 48), (16, 24), (8, 12), (4, 6), (2, 3)]

    def test_custom_channels(self):
        feats = make_backbone(channels=(4, 8, 8, 16, 16))(image(64, 64))
        assert [t.dims[1] for t in feats.values()] == [4, 8, 8, 16, 16]

    def test_bad_channel_plan(self):
        with pytest.raises(ContractError):
            make_backbone(channels=(4, 8, 8))
        with pytest.raises(ContractError):
            make_backbone(channels=(4, 8, 0, 16, 16))


class TestBehavior:
    def test_deterministic_build_and_run(self):
        a = make_backbone(seed=7)(image(64, 64, seed=2))
        b = make_backbone(seed=7)(image(64, 64, seed=2))
        for stride in STRIDES:
            assert np.array_equal(a[stride].data, b[stride].data)

    def test_zero_image_zero_features(self):
        feats = make_backbone()(en.Tensor(np.zeros((1, 3, 64, 64), np.float64)))
        for t in feats.values():
            assert not t.data.any()

    def test_outputs_non_negative(self):
        feats = make_backbone()(image(64, 64))
        for t in feats.values():
            assert np.all(t.data >= 0)


class TestValidation:
    def test_indivisible_spatial_names_64(self):
        bb = make_backbone()
        for h, w in [(100, 256), (256, 100), (63, 63)]:
            with pytest.raises(ShapeError, match="64"):
                bb(image(h, w))

    def test_wrong_channel_count(self):
        bb = make_backbone()
        with pytest.raises(ContractError):
            bb(en.Tensor(np.zeros((1, 4, 64, 64), np.float64)))
