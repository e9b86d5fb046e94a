"""Top-level property gates, one per release criterion.

Each test prints one [PASS]/[FAIL] line outside pytest's capture so the
verdicts are visible in any run log.
"""

import contextlib
import time

import numpy as np
import pytest

import edgeneck as en
from edgeneck import gradcheck
from edgeneck.edge_attention import ChannelAttention
from edgeneck.netpbm import read_image, write_image
from edgeneck.verify import checks_for_scope

from reference import (
    deep_sobel_reference, normalize_map_reference, sobel_magnitude_reference,
)

SMALL = dict(channels=(4, 8, 8, 16, 16), pyramid_width=8, reduction=4)


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def watch(name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[FAIL] {name}")
            raise
        else:
            with capsys.disabled():
                print(f"[PASS] {name}")

    return watch


def test_gradient_suite(criterion):
    with criterion("gradient suite: ops, blocks, pipeline at complex step 1e-30, tol 1e-10, "
                   "< 300 s"):
        started = time.perf_counter()
        assert gradcheck.H == 1e-30
        for label, thunk in checks_for_scope("all", seed=1):
            report = thunk()
            assert report.tol == 1e-10, label
            assert report.ok, f"{label}: {report.format()}"
            assert report.max_rel_err < 1e-10, label
        assert time.perf_counter() - started < 300.0


def test_sobel_oracle(criterion):
    with criterion("deep Sobel vs nested-loop oracle 1e-12 (f64), offset invariance 1e-5 (f32)"):
        dims_list = [
            (1, 1, 5, 5), (1, 2, 6, 7), (2, 3, 9, 8), (1, 4, 12, 11),
            (2, 2, 16, 15), (1, 8, 20, 19), (2, 5, 23, 21), (1, 6, 27, 26),
            (2, 7, 30, 29), (2, 8, 33, 31),
        ]
        for seed, dims in enumerate(dims_list):
            x = np.random.default_rng(seed).standard_normal(dims)
            gx, gy = en.deep_sobel(en.Tensor(x))
            rx, ry = deep_sobel_reference(x)
            assert np.max(np.abs(gx.data - rx)) <= 1e-12, dims
            assert np.max(np.abs(gy.data - ry)) <= 1e-12, dims

        rng = np.random.default_rng(99)
        x32 = rng.standard_normal((2, 4, 10, 12)).astype(np.float32)
        offsets = rng.uniform(-2.0, 2.0, (1, 4, 1, 1)).astype(np.float32)
        gx1, gy1 = en.deep_sobel(en.Tensor(x32))
        gx2, gy2 = en.deep_sobel(en.Tensor(x32 + offsets))
        assert np.max(np.abs(gx1.data - gx2.data)) < 1e-5
        assert np.max(np.abs(gy1.data - gy2.data)) < 1e-5


def test_attention_bound(criterion):
    with criterion("channel gate: |out| <= |in| with sign kept on 100 inputs; zero -> zero"):
        gate = ChannelAttention("acc.gate", en.Params(np.random.default_rng(5), np.float64), 8, 4)
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal((1, 8, 4, 4))
            out = gate(en.Tensor(x)).data
            assert np.all(np.abs(out) <= np.abs(x))
            assert np.all((out == 0) | (np.sign(out) == np.sign(x)))
        zero_out = gate(en.Tensor(np.zeros((2, 8, 3, 3), np.float64))).data
        assert not zero_out.any()


def test_channel_contract_and_ablation(criterion):
    with criterion("aggregation channels {c1+c2, c2+c3+c4, c4+c5, c5}; low3/high3 dependencies"):
        plan = en.aggregation_plan("full")
        for channels in [(16, 32, 64, 128, 256), (4, 8, 8, 16, 16), (3, 5, 7, 11, 13)]:
            c1, c2, c3, c4, c5 = channels
            assert en.plan_channels(plan, channels) == \
                (c1 + c2, c2 + c3 + c4, c4 + c5, c5)

        def feature_set(bump_stride=None):
            rng = np.random.default_rng(17)
            levels = {}
            for i, (stride, c) in enumerate(zip((4, 8, 16, 32, 64), (4, 8, 8, 16, 16))):
                data = rng.standard_normal((1, c, 64 >> i, 64 >> i))
                if stride == bump_stride:
                    data = data + 1.0
                levels[stride] = en.Tensor(data)
            return levels

        def moved_by(mode, bump_stride):
            base = en.aggregate(feature_set(), mode)
            bumped = en.aggregate(feature_set(bump_stride), mode)
            return any(not np.array_equal(base[s].data, bumped[s].data) for s in base)

        for stride in (4, 8, 16):
            assert moved_by("low3", stride), f"low3 must use stride {stride}"
        for stride in (32, 64):
            assert not moved_by("low3", stride), f"low3 must ignore stride {stride}"
        for stride in (16, 32, 64):
            assert moved_by("high3", stride), f"high3 must use stride {stride}"
        for stride in (4, 8):
            assert not moved_by("high3", stride), f"high3 must ignore stride {stride}"


def test_impulse_structure(criterion):
    with criterion("wide-field branch reach == (0,3,10,21,0); non-negative; zero -> zero"):
        params = en.Params(np.random.default_rng(23), np.float64)
        block = en.WideFieldBlock("acc.wide", params, 2, 3)
        data = np.zeros((1, 2, 47, 47))
        data[0, :, 23, 23] = 1.0
        x = en.Tensor(data)
        for k in (1, 2, 3, 4, 5):
            response = np.abs(block.branch_response(x, k).data).sum(axis=(0, 1))
            ys, xs = np.nonzero(response)
            measured = (int(ys.max() - 23), int(xs.max() - 23))
            assert measured == (23 - int(ys.min()), 23 - int(xs.min()))
            assert measured == en.receptive_extent(k), f"branch {k}"

        noise = en.Tensor(np.random.default_rng(29).standard_normal((1, 2, 9, 9)))
        assert np.all(block(noise).data >= 0)
        assert not block(en.Tensor(np.zeros((1, 2, 8, 8), np.float64))).data.any()


def test_topdown_contract(criterion):
    with criterion("pyramid dims follow inputs; G_i depends on RF_j iff j >= i; coarsest bypass"):
        level_channels = [(8, 6), (16, 10), (32, 14), (64, 18)]
        pyr = en.TopDownPyramid("acc.pyr", en.Params(np.random.default_rng(31), np.float64),
                                level_channels, 8)

        def levels(bump_stride=None):
            rng = np.random.default_rng(37)
            out = {}
            for i, (stride, c) in enumerate(level_channels):
                data = rng.standard_normal((1, c, 32 >> i, 32 >> i))
                if stride == bump_stride:
                    data = data + 1.0
                out[stride] = en.Tensor(data)
            return out

        base_in = levels()
        base = pyr(base_in)
        assert list(base) == list(base_in)
        for stride, rf in base_in.items():
            assert base[stride].dims == (1, 8) + rf.dims[2:]
        for j, stride_j in enumerate((8, 16, 32, 64)):
            moved = pyr(levels(stride_j))
            changed = [s for s in base if not np.array_equal(base[s].data, moved[s].data)]
            assert changed == [8, 16, 32, 64][: j + 1], f"perturbed RF at {stride_j}"

        net = en.Network(seed=41, **SMALL)
        img = en.noise_image(41, 64, 64)
        pyramid, taken = net.pyramid, []

        def spy(levels):
            taken.append(levels)
            return pyramid(levels)
        net.pyramid = spy
        before = net.forward(img)
        assert taken[0][64] is before.named["agg.s64"]
        for p in net.parameters():
            if p.name.startswith("wide."):
                p.value.data[...] += 0.125
        after = net.forward(img)
        assert np.array_equal(before.named["out.s64"].data, after.named["out.s64"].data)
        assert not np.array_equal(before.named["out.s32"].data, after.named["out.s32"].data)


def test_determinism_and_serialization(criterion, run_cli, tmp_path):
    with criterion("fixed seed: bit-identical reports and dumps; dump -> load-verify bit-exact"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "input = noise:64x64\nseed = 7\nchannels = 4, 8, 8, 16, 16\n"
            "pyramid_width = 8\nreduction_ratio = 4\n"
        )
        outs = []
        for d in ("d1", "d2"):
            code, out, _ = run_cli("forward", "--config", cfg, "--dump-dir", tmp_path / d)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert (tmp_path / "d1" / "tensors.erlw").read_bytes() == \
            (tmp_path / "d2" / "tensors.erlw").read_bytes()
        assert (tmp_path / "d1" / "report.txt").read_text() == \
            (tmp_path / "d2" / "report.txt").read_text()

        box = tmp_path / "w.erlw"
        code, out, _ = run_cli("weights", "dump", box, "--config", cfg)
        assert code == 0
        code, out, _ = run_cli("weights", "load-verify", box, "--config", cfg)
        assert code == 0 and "bit-exact" in out


def test_cli_edge_speed_and_oracle(criterion, run_cli, tmp_path):
    with criterion("edge command on 256x256 step: < 1 s, maximum adjacent to the step"):
        img = np.zeros((256, 256), np.uint8)
        img[:, 128:] = 255
        src, dst = tmp_path / "step.pgm", tmp_path / "edge.pgm"
        write_image(src, img)
        started = time.perf_counter()
        code, _, _ = run_cli("edge", src, dst)
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 1.0, f"edge extraction took {elapsed:.3f}s"
        _, got = read_image(dst)
        want = normalize_map_reference(sobel_magnitude_reference(img / 255.0))
        assert np.array_equal(got, want)
        maximal_cols = np.unique(np.nonzero(got == got.max())[1])
        assert maximal_cols.tolist() == [127, 128]
