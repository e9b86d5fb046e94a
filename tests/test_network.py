"""Full pipeline wiring: names, ablation shapes, coarsest-level bypass."""

import hashlib

import numpy as np
import pytest

import edgeneck as en
from edgeneck.errors import ContractError, DomainError

SMALL = dict(channels=(4, 8, 8, 16, 16), pyramid_width=8, reduction=4)


def run(seed=0, fa_mode="full", hw=64, **kw):
    opts = {**SMALL, **kw}
    net = en.Network(seed=seed, fa_mode=fa_mode, **opts)
    return net, net.forward(en.noise_image(seed, hw, hw, opts.get("dtype", np.float32)))


class TestNamedTensors:
    def test_full_mode_names_and_shapes(self):
        net, result = run()
        shapes = {k: v.dims for k, v in result.named.items()}
        assert shapes["feat.s4"] == (1, 4, 16, 16)
        assert shapes["feat.s64"] == (1, 16, 1, 1)
        assert shapes["edged.s4"] == (1, 4, 16, 16)
        assert shapes["edged.s8"] == (1, 8, 8, 8)
        assert shapes["agg.s8"] == (1, 12, 8, 8)
        assert shapes["agg.s16"] == (1, 32, 4, 4)
        assert shapes["agg.s32"] == (1, 32, 2, 2)
        assert shapes["agg.s64"] == (1, 16, 1, 1)
        for stride in (8, 16, 32):
            assert shapes[f"wide.s{stride}"][1] == 8
        assert "wide.s64" not in shapes
        assert all(shapes[f"out.s{s}"][1] == 8 for s in (8, 16, 32, 64))

    def test_low3_mode_levels(self):
        net, result = run(fa_mode="low3")
        assert [k for k in result.named if k.startswith("out.")] == ["out.s8", "out.s16"]
        assert {k for k in result.named if k.startswith("agg.")} == {"agg.s8", "agg.s16"}
        assert {k for k in result.named if k.startswith("wide.")} == {"wide.s8"}

    def test_high3_mode_levels(self):
        net, result = run(fa_mode="high3")
        assert [k for k in result.named if k.startswith("out.")] == \
            ["out.s16", "out.s32", "out.s64"]
        assert {k for k in result.named if k.startswith("wide.")} == \
            {"wide.s16", "wide.s32"}

    def test_outputs_view_is_the_named_outputs(self):
        """``outputs`` lists the ``out.s*`` entries of ``named``: same objects, same order."""
        for mode in en.MODES:
            _, result = run(fa_mode=mode)
            outs = [(name, t) for name, t in result.named.items() if name.startswith("out.")]
            view = [(lv.stride, lv.tensor) for lv in result.outputs]
            assert [(f"out.s{s}", id(t)) for s, t in view] == [(n, id(t)) for n, t in outs]
            assert list(map(id, result.outputs.tensors())) == [id(t) for _, t in outs]


class TestCoarsestBypass:
    def test_refined_coarsest_is_aggregate_tensor(self):
        net = en.Network(seed=0, **SMALL)
        taken = []
        pyramid = net.pyramid

        def spy(levels):
            taken.append(levels)
            return pyramid(levels)
        net.pyramid = spy
        result = net.forward(en.noise_image(0, 64, 64))
        assert taken[0][64] is result.named["agg.s64"]

    def test_wide_params_cannot_reach_coarsest_output(self):
        net = en.Network(seed=3, fa_mode="full", **SMALL)
        img = en.noise_image(3, 64, 64)
        base = net.forward(img)
        for p in net.parameters():
            if p.name.startswith("wide."):
                p.value.data[...] += 0.25
        moved = net.forward(img)
        assert np.array_equal(base.named["out.s64"].data, moved.named["out.s64"].data)
        assert not np.array_equal(base.named["out.s32"].data, moved.named["out.s32"].data)


class TestDeterminism:
    def test_same_seed_same_everything(self):
        _, a = run(seed=5)
        _, b = run(seed=5)
        assert a.named.keys() == b.named.keys()
        for k in a.named:
            assert np.array_equal(a.named[k].data, b.named[k].data), k

    def test_different_seed_differs(self):
        _, a = run(seed=5)
        _, b = run(seed=6)
        assert not np.array_equal(a.named["out.s8"].data, b.named["out.s8"].data)

    def test_parameter_names_unique_and_stable(self):
        net1 = en.Network(seed=0, **SMALL)
        net2 = en.Network(seed=1, **SMALL)
        names1 = [p.name for p in net1.parameters()]
        assert names1 == [p.name for p in net2.parameters()]
        assert len(names1) == len(set(names1))

    def test_parameter_order_and_draws_are_pinned(self):
        """Creation order fixes both the seeded draws and the weights-dump layout."""
        params = en.Network(seed=0).parameters()
        h = hashlib.blake2b(digest_size=8)
        for p in params:
            h.update(p.name.encode())
            h.update(p.value.data.tobytes())
        assert (len(params), h.hexdigest()) == (102, "c3bb65c125107979")
        groups = list(dict.fromkeys(".".join(p.name.split(".")[:2]) for p in params))
        assert groups == [
            "backbone.stem1", "backbone.stem2", "backbone.stage2", "backbone.stage3",
            "backbone.stage4", "backbone.stage5", "edge.gate", "wide.s8", "wide.s16",
            "wide.s32", "pyramid.s8", "pyramid.s16", "pyramid.s32", "pyramid.s64",
        ]


class TestValidation:
    def test_dtype_mismatch_rejected(self):
        net = en.Network(seed=0, dtype=np.float64, **SMALL)
        with pytest.raises(ContractError):
            net.forward(en.noise_image(0, 64, 64, np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_rejected(self, bad):
        net = en.Network(seed=0, **SMALL)
        data = en.noise_image(0, 64, 64).data.copy()
        data[0, 1, 5, 7] = bad
        data[0, 2, 9, 3] = bad
        with pytest.raises(DomainError, match=r"\(0, 1, 5, 7\)"):
            net.forward(en.Tensor(data))

    def test_timings_filled_when_requested(self):
        net = en.Network(seed=0, **SMALL)
        laps = {}
        net.forward(en.noise_image(0, 64, 64), timings=laps)
        assert set(laps) == {"backbone", "edge", "aggregate", "wide", "pyramid"}
        assert all(v >= 0 for v in laps.values())


def test_network_allocates_no_gradients():
    # gradient buffers come from backward, so inference never holds them
    assert all(p.grad is None for p in en.Network().parameters())


CONFIGS = pytest.mark.parametrize("config", [{}, SMALL], ids=["default", "small"])
DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])


class TestBatchIndependence:
    """Metamorphic relations over the batch axis: images in one batch never mix."""

    @staticmethod
    def forwards(config, dtype):
        net = en.Network(seed=5, dtype=dtype, **config)
        images = [en.noise_image(seed, 64, 64, dtype).data for seed in (6, 7)]
        batch = net.forward(en.Tensor(np.concatenate(images))).named
        reverse = net.forward(en.Tensor(np.concatenate(images[::-1]))).named
        singles = [net.forward(en.Tensor(image)).named for image in images]
        return batch, reverse, singles

    @CONFIGS
    @DTYPES
    def test_a_batch_forward_equals_single_image_forwards(self, config, dtype):
        batch, _, singles = self.forwards(config, dtype)
        assert batch.keys() == singles[0].keys()
        for name, t in batch.items():
            assert t.dims[0] == 2, name
            for j, single in enumerate(singles):  # image by image, bit for bit
                assert t.data[j].tobytes() == single[name].data[0].tobytes(), (name, j)

    @CONFIGS
    @DTYPES
    def test_reversing_the_batch_reverses_every_named_tensor(self, config, dtype):
        batch, reverse, _ = self.forwards(config, dtype)
        assert batch.keys() == reverse.keys()
        for name, t in batch.items():
            assert reverse[name].data.tobytes() == t.data[::-1].tobytes(), name
