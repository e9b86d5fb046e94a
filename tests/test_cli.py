"""End-to-end command tests, run in-process through main()."""

import struct

import numpy as np
import pytest

from edgeneck import BACKWARD, Network, verify
from edgeneck.netpbm import read_image, write_image
from edgeneck.report import parse_report, tensor_stats
from edgeneck.weights import MAGIC, VERSION, pack_entries, read_container, unpack_entries

from reference import normalize_map_reference, sobel_magnitude_reference

SMALL_CFG = (
    "input = noise:64x64\n"
    "channels = 4, 8, 8, 16, 16\n"
    "pyramid_width = 8\n"
    "reduction_ratio = 4\n"
)


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG)
    return path


def step_image(h=256, w=256):
    img = np.zeros((h, w), np.uint8)
    img[:, w // 2:] = 255
    return img


class TestEdge:
    def test_step_image_oracle(self, run_cli, tmp_path):
        src, dst = tmp_path / "step.pgm", tmp_path / "edge.pgm"
        write_image(src, step_image())
        code, out, err = run_cli("edge", src, dst)
        assert code == 0 and "256x256" in out
        _, got = read_image(dst)
        want = normalize_map_reference(sobel_magnitude_reference(step_image() / 255.0))
        assert np.array_equal(got, want)
        # response confined to the two columns adjacent to the step
        assert np.all(got[:, 127:129] == 255)
        got[:, 127:129] = 0
        assert not got.any()

    def test_random_image_matches_reference(self, run_cli, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (40, 56), np.uint8)
        src, dst = tmp_path / "r.pgm", tmp_path / "e.pgm"
        write_image(src, img)
        code, _, _ = run_cli("edge", src, dst)
        assert code == 0
        _, got = read_image(dst)
        want = normalize_map_reference(sobel_magnitude_reference(img / 255.0))
        assert got.shape == want.shape
        assert np.max(np.abs(got.astype(int) - want.astype(int))) <= 1

    def test_uniform_image_all_black(self, run_cli, tmp_path):
        src, dst = tmp_path / "g.pgm", tmp_path / "e.pgm"
        write_image(src, np.full((16, 16), 77, np.uint8))
        code, _, _ = run_cli("edge", src, dst)
        assert code == 0
        _, got = read_image(dst)
        assert not got.any()

    def test_color_input_uses_luma(self, run_cli, tmp_path):
        gray = step_image(32, 32)
        color = np.stack([gray, gray, gray], axis=2)
        psrc, pdst = tmp_path / "g.pgm", tmp_path / "ge.pgm"
        csrc, cdst = tmp_path / "c.ppm", tmp_path / "ce.pgm"
        write_image(psrc, gray)
        write_image(csrc, color)
        assert run_cli("edge", psrc, pdst)[0] == 0
        assert run_cli("edge", csrc, cdst)[0] == 0
        assert read_image(pdst)[1].tolist() == read_image(cdst)[1].tolist()

    def test_preserves_rectangles(self, run_cli, tmp_path):
        src, dst = tmp_path / "r.pgm", tmp_path / "e.pgm"
        write_image(src, np.zeros((24, 56), np.uint8))
        assert run_cli("edge", src, dst)[0] == 0
        assert read_image(dst)[1].shape == (24, 56)

    def test_bad_maxval_exits_3(self, run_cli, tmp_path):
        src = tmp_path / "bad.pgm"
        src.write_bytes(b"P5\n2 2\n128\n" + bytes(4))
        code, _, err = run_cli("edge", src, tmp_path / "o.pgm")
        assert code == 3 and "byte" in err and "maxval" in err

    def test_missing_input_exits_3(self, run_cli, tmp_path):
        code, _, err = run_cli("edge", tmp_path / "none.pgm", tmp_path / "o.pgm")
        assert code == 3 and "error:" in err


class TestForward:
    def test_deterministic_report(self, run_cli, small_cfg):
        code1, out1, _ = run_cli("forward", "--config", small_cfg, "--seed", 7)
        code2, out2, _ = run_cli("forward", "--config", small_cfg, "--seed", 7)
        assert code1 == code2 == 0
        assert out1 == out2
        report = parse_report(out1)
        assert report["config.seed"] == "7"
        assert report["config.fa_mode"] == "full"
        assert report["shape.feat.s4"] == "1x4x16x16"

    def test_out_widths_follow_pyramid_width(self, run_cli, small_cfg):
        _, out, _ = run_cli("forward", "--config", small_cfg)
        report = parse_report(out)
        for stride in (8, 16, 32, 64):
            assert report[f"shape.out.s{stride}"].split("x")[1] == "8"

    def test_fa_mode_changes_structure(self, run_cli, small_cfg):
        _, full, _ = run_cli("forward", "--config", small_cfg)
        _, low3, _ = run_cli("forward", "--config", small_cfg, "--fa-mode", "low3")
        assert full != low3
        low_report = parse_report(low3)
        assert "shape.out.s64" in parse_report(full)
        assert "shape.out.s64" not in low_report
        assert low_report["config.fa_mode"] == "low3"
        assert {k for k in low_report if k.startswith("shape.out.")} == \
            {"shape.out.s8", "shape.out.s16"}

    def test_dump_dir_reproducible_and_recomputable(self, run_cli, small_cfg, tmp_path):
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        assert run_cli("forward", "--config", small_cfg, "--dump-dir", d1)[0] == 0
        assert run_cli("forward", "--config", small_cfg, "--dump-dir", d2)[0] == 0
        assert (d1 / "tensors.erlw").read_bytes() == (d2 / "tensors.erlw").read_bytes()
        report1 = (d1 / "report.txt").read_text()
        dumped = read_container(d1 / "tensors.erlw")
        parsed = parse_report(report1)
        for name, arr in dumped.items():
            assert parsed[f"shape.{name}"] == "x".join(str(d) for d in arr.shape)
            for stat, value in tensor_stats(arr).items():
                assert float(parsed[f"stats.{name}.{stat}"]) == value

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stats_equal_those_of_an_f64_copy(self, dtype):
        arr = (np.random.default_rng(9).standard_normal((1, 64, 16, 16)) + 3).astype(dtype)
        wide = arr.astype(np.float64)
        want = {"min": float(wide.min()), "max": float(wide.max()), "mean": float(wide.mean()),
                "l2": float(np.sqrt(np.sum(wide * wide)))}
        assert {k: repr(v) for k, v in tensor_stats(arr).items()} == \
            {k: repr(v) for k, v in want.items()}
        assert arr.tobytes() == wide.astype(dtype).tobytes()  # squared in a copy, never in place

    def test_timings_lines_only_on_request(self, run_cli, small_cfg):
        _, plain, _ = run_cli("forward", "--config", small_cfg)
        _, timed, _ = run_cli("forward", "--config", small_cfg, "--timings")
        assert not [ln for ln in plain.splitlines() if ln.startswith("time.")]
        timed_lines = [ln for ln in timed.splitlines() if ln.startswith("time.")]
        assert {ln.split("=")[0] for ln in timed_lines} == \
            {"time.backbone", "time.edge", "time.aggregate", "time.wide", "time.pyramid"}

    def test_unknown_config_key_exits_2(self, run_cli, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rainbows=5\n")
        code, _, err = run_cli("forward", "--config", cfg)
        assert code == 2 and "rainbows" in err

    def test_image_path_starting_with_noise(self, run_cli, tmp_path, monkeypatch):
        pixels = np.random.default_rng(3).integers(0, 256, (64, 64, 3), dtype=np.uint8)
        write_image(tmp_path / "noise_img.ppm", pixels)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("noise:64x64", "noise_img.ppm"))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli("forward", "--config", cfg)
        assert code == 0, err
        assert parse_report(out)["config.input"] == "noise_img.ppm"

    def test_grey_image_is_replicated_to_three_channels(self, run_cli, tmp_path, monkeypatch):
        grey = np.random.default_rng(4).integers(0, 256, (64, 64), dtype=np.uint8)
        write_image(tmp_path / "grey.pgm", grey)
        write_image(tmp_path / "grey.ppm", np.repeat(grey[:, :, None], 3, axis=2))
        monkeypatch.chdir(tmp_path)
        reports = []
        for name in ("grey.pgm", "grey.ppm"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(SMALL_CFG.replace("noise:64x64", name))
            code, out, err = run_cli("forward", "--config", cfg)
            assert code == 0, err
            reports.append(out.replace(name, "<input>"))
        assert reports[0] == reports[1]  # the same image as a PPM with three equal channels

    def test_forward_with_weights_roundtrip(self, run_cli, small_cfg, tmp_path):
        box = tmp_path / "w.erlw"
        assert run_cli("weights", "dump", box, "--config", small_cfg)[0] == 0
        _, plain, _ = run_cli("forward", "--config", small_cfg)
        code, loaded, _ = run_cli("forward", "--config", small_cfg, "--weights", box)
        assert code == 0
        assert loaded == plain  # dump holds the same seeded parameters


class TestGradcheck:
    def test_ops_scope_passes(self, run_cli):
        code, out, _ = run_cli("gradcheck", "--scope", "ops")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("op.")]
        assert len(lines) == len(verify.op_checks())
        assert all(": ok " in ln for ln in lines)
        assert "gradcheck scope=ops: all ok" in out

    def test_corrupted_backward_detected(self, run_cli, monkeypatch):
        original = BACKWARD["mul"]

        def corrupted(rec, grad_out):
            ga, gb = original(rec, grad_out)
            return (None if ga is None else ga * 1.5,
                    None if gb is None else gb * 1.5)

        monkeypatch.setitem(BACKWARD, "mul", corrupted)
        code, out, _ = run_cli("gradcheck", "--scope", "ops")
        assert code == 1
        assert "op.mul.broadcast: FAILED" in out
        assert "gradcheck scope=ops: FAILURES" in out

    def test_failed_line_names_the_worst_coordinate(self, run_cli, monkeypatch):
        original = BACKWARD["global_avg_pool"]
        _, plain, _ = run_cli("gradcheck", "--scope", "ops")
        monkeypatch.setitem(BACKWARD, "global_avg_pool",
                            lambda rec, g: (original(rec, g)[0] * 1.5,))
        [run] = [run for label, run in verify.op_checks() if label == "op.global_avg_pool"]
        [entry] = run().entries
        code, out, _ = run_cli("gradcheck", "--scope", "ops")
        assert code == 1
        [failed] = [ln for ln in out.splitlines() if ": FAILED " in ln]
        assert failed.startswith("op.global_avg_pool: FAILED ")
        assert failed.endswith(" worst=x@({},{},{},{})".format(*entry.worst_coord))
        # passing lines are those of a clean run, byte for byte
        ok_lines = [ln for ln in out.splitlines() if ": ok " in ln]
        assert len(ok_lines) == len(verify.op_checks()) - 1
        assert all(ln in plain.splitlines() for ln in ok_lines)
        assert "worst=" not in plain


class TestWeights:
    def test_dump_then_verify(self, run_cli, small_cfg, tmp_path):
        box = tmp_path / "w.erlw"
        code, out, _ = run_cli("weights", "dump", box, "--config", small_cfg)
        assert code == 0 and "wrote" in out
        entries = read_container(box)
        net = Network(seed=0, channels=(4, 8, 8, 16, 16), pyramid_width=8, reduction=4)
        assert len(entries) == len(net.parameters()) + 4
        code, out, _ = run_cli("weights", "load-verify", box, "--config", small_cfg)
        assert code == 0 and "bit-exact" in out

    def test_tampered_weights_fail_verification(self, run_cli, small_cfg, tmp_path):
        box = tmp_path / "w.erlw"
        run_cli("weights", "dump", box, "--config", small_cfg)
        entries = unpack_entries(box.read_bytes())
        entries["pyramid.s8.smooth.w"] = entries["pyramid.s8.smooth.w"] + np.float32(0.5)
        box.write_bytes(pack_entries(entries))
        code, out, _ = run_cli("weights", "load-verify", box, "--config", small_cfg)
        assert code == 1 and "differs" in out and "check.out.s8" in out

    def test_truncated_container_exits_3(self, run_cli, small_cfg, tmp_path):
        box = tmp_path / "w.erlw"
        run_cli("weights", "dump", box, "--config", small_cfg)
        blob = box.read_bytes()
        box.write_bytes(blob[: len(blob) // 2])
        code, _, err = run_cli("weights", "load-verify", box, "--config", small_cfg)
        assert code == 3 and "needs" in err and "remain" in err

    def test_malformed_entry_exits_3(self, run_cli, small_cfg, tmp_path):
        box = tmp_path / "w.erlw"
        header = MAGIC + struct.pack("<HI", VERSION, 1)
        for name, dims, message in [(b"\xff", (1, 1, 1, 1), "not valid UTF-8"),
                                    (b"x", (65536,) * 4, "truncated container")]:
            descriptor = struct.pack("<B4IB", 4, *dims, 0)
            box.write_bytes(header + struct.pack("<H", len(name)) + name + descriptor + bytes(4))
            code, _, err = run_cli("weights", "load-verify", box, "--config", small_cfg)
            assert code == 3 and message in err

    def test_non_finite_parameter_exits_3(self, run_cli, small_cfg, tmp_path):
        box = tmp_path / "w.erlw"
        run_cli("weights", "dump", box, "--config", small_cfg)
        entries = unpack_entries(box.read_bytes())
        entries["pyramid.s8.smooth.b"][0, 2, 0, 0] = np.nan
        box.write_bytes(pack_entries(entries))
        message = "pyramid.s8.smooth.b: non-finite value nan at index (0, 2, 0, 0)"
        for argv in (("forward", "--config", small_cfg, "--weights", box),
                     ("weights", "load-verify", box, "--config", small_cfg)):
            code, out, err = run_cli(*argv)
            assert code == 3 and message in err and out == ""

    def test_dtype_mismatch_exits_3(self, run_cli, tmp_path):
        f64_cfg = tmp_path / "d.cfg"
        f64_cfg.write_text(SMALL_CFG + "dtype = f64\n")
        f32_cfg = tmp_path / "s.cfg"
        f32_cfg.write_text(SMALL_CFG)
        box = tmp_path / "w.erlw"
        assert run_cli("weights", "dump", box, "--config", f64_cfg)[0] == 0
        code, _, err = run_cli("weights", "load-verify", box, "--config", f32_cfg)
        assert code == 3 and "refused" in err

    def test_unexpected_reference_entry_exits_3(self, run_cli, small_cfg, tmp_path):
        box = tmp_path / "w.erlw"
        run_cli("weights", "dump", box, "--config", small_cfg)
        entries = unpack_entries(box.read_bytes())
        entries["check.out.s128"] = entries["check.out.s64"]
        box.write_bytes(pack_entries(entries))
        code, _, err = run_cli("weights", "load-verify", box, "--config", small_cfg)
        assert code == 3 and "unexpected reference entry 'check.out.s128'" in err

    def test_container_without_references_rejected(self, run_cli, small_cfg, tmp_path):
        box = tmp_path / "w.erlw"
        run_cli("weights", "dump", box, "--config", small_cfg)
        entries = unpack_entries(box.read_bytes())
        params = {k: v for k, v in entries.items() if not k.startswith("check.")}
        box.write_bytes(pack_entries(params))
        code, _, err = run_cli("weights", "load-verify", box, "--config", small_cfg)
        assert code == 3 and "no reference outputs" in err


class TestUsage:
    def test_no_command_is_usage_error(self, run_cli):
        assert run_cli()[0] == 2

    def test_unknown_command(self, run_cli):
        assert run_cli("train")[0] == 2

    def test_bad_scope_value(self, run_cli):
        assert run_cli("gradcheck", "--scope", "everything")[0] == 2

    def test_negative_seed_exits_2(self, run_cli, small_cfg):
        for argv in (("gradcheck", "--seed", -1), ("forward", "--config", small_cfg, "--seed", -1)):
            code, _, err = run_cli(*argv)
            assert code == 2 and "--seed" in err
