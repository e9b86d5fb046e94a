"""Top-down pyramid fusion: width, shape, dependency direction, level contract."""

import numpy as np
import pytest

import edgeneck as en
from edgeneck.errors import ContractError, ShapeError
from edgeneck.levels import check_levels


def make_levels(channels=(6, 10, 14, 18), base=32, seed=0, bump=None):
    """Four levels at strides 8..64; ``bump`` adds 1 to one stride's data."""
    rng = np.random.default_rng(seed)
    levels = {}
    for i, c in enumerate(channels):
        stride = 8 << i
        hw = base >> i
        data = rng.standard_normal((1, c, hw, hw))
        if bump == stride:
            data = data + 1.0
        levels[stride] = en.Tensor(data)
    return levels


def make_pyramid(channels=(6, 10, 14, 18), width=8, seed=1, params=None):
    if params is None:
        params = en.Params(np.random.default_rng(seed), np.float64)
    level_channels = [(8 << i, c) for i, c in enumerate(channels)]
    return en.TopDownPyramid("t.pyr", params, level_channels, width)


class TestShapes:
    def test_width_and_spatial_contract(self):
        pyr = make_pyramid(width=8)
        outs = pyr(make_levels())
        assert list(outs) == [8, 16, 32, 64]
        assert [t.dims[1:3] for t in outs.values()] == [(8, 32), (8, 16), (8, 8), (8, 4)]

    def test_zero_inputs_zero_outputs(self):
        pyr = make_pyramid()
        zeros = {8 << i: en.Tensor(np.zeros((1, c, 32 >> i, 32 >> i), np.float64))
                 for i, c in enumerate((6, 10, 14, 18))}
        for t in pyr(zeros).values():
            assert not t.data.any()

    def test_parameter_inventory(self):
        params = en.Params(np.random.default_rng(1), np.float64)
        make_pyramid(channels=(4, 6, 8, 10), width=12, params=params)
        dims = {name: p.dims for name, p in params.items()}
        assert dims["t.pyr.s8.lateral.w"] == (12, 4, 1, 1)
        assert dims["t.pyr.s64.lateral.w"] == (12, 10, 1, 1)
        assert dims["t.pyr.s16.smooth.w"] == (12, 12, 3, 3)
        assert len(dims) == 16  # 4 levels x (lateral, smooth) x (w, b)


class TestDependencyDirection:
    def changed_strides(self, bump_stride):
        pyr = make_pyramid()
        base = pyr(make_levels())
        moved = pyr(make_levels(bump=bump_stride))
        return [stride for stride in base
                if not np.array_equal(base[stride].data, moved[stride].data)]

    def test_coarsest_feeds_everything(self):
        assert self.changed_strides(64) == [8, 16, 32, 64]

    def test_finest_feeds_only_itself(self):
        assert self.changed_strides(8) == [8]

    def test_middle_feeds_downward_only(self):
        assert self.changed_strides(32) == [8, 16, 32]
        assert self.changed_strides(16) == [8, 16]

    def test_upsampled_path_carries_smoothed_output(self):
        # The coarser level's contribution is its finished (smoothed)
        # output: zeroing a smooth weight at stride 64 must change what
        # stride 32 receives, not only G4 itself.
        pyr = make_pyramid()
        levels = make_levels()
        base = pyr(levels)
        pyr.smooths[64].weight.value.data[...] = 0.0
        moved = pyr(levels)
        assert not np.array_equal(base[32].data, moved[32].data)


def _level(stride, n=1, hw=None):
    hw = 32 // stride if hw is None else hw
    return en.Tensor(np.zeros((n, 2, hw, hw), np.float32))


@pytest.mark.parametrize("levels, error, fragment", [
    ({}, ContractError, "at least one level"),
    ({4: _level(4), 16: _level(16)}, ContractError,
     "strides must double per level, got 4 then 16"),
    ({4: _level(4), 8: _level(8, hw=3)}, ShapeError,
     "level at stride 8 has spatial 3x3, inconsistent with source resolution 32x32"),
    ({4: _level(4), 8: _level(8, n=2)}, ContractError, "one batch size"),
], ids=["empty", "strides", "resolution", "batch"])
def test_level_contract_refusals(levels, error, fragment):
    """``check_levels`` and every block that takes levels in refuse alike."""
    pyr = en.TopDownPyramid("t.pyr", en.Params(np.random.default_rng(0), np.float32),
                            [(s, 2) for s in levels], 2)
    for entry in (check_levels, pyr, en.aggregate):
        with pytest.raises(error, match=fragment):
            entry(levels)
