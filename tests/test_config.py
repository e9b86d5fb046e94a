"""Run-configuration parsing: defaults, validation, overrides."""

import numpy as np
import pytest

from edgeneck.config import RunConfig, load_config, noise_size, parse_config
from edgeneck.errors import ConfigError


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert cfg.input == "noise"
        assert cfg.seed == 0
        assert cfg.channels == (16, 32, 64, 128, 256)
        assert cfg.pyramid_width == 256
        assert cfg.fa_mode == "full"
        assert cfg.reduction_ratio == 16
        assert cfg.dtype == "f32"
        assert cfg.np_dtype == np.float32

    def test_full_file(self):
        cfg = parse_config(
            "# run setup\n"
            "input = noise:128x192\n"
            "seed = 7\n"
            "channels = 4, 8, 8, 16, 16\n"
            "pyramid_width = 32\n"
            "fa_mode = high3  # ablation\n"
            "reduction_ratio = 4\n"
            "dtype = f64\n"
            "dump_dir = out\n"
        )
        assert cfg.input == "noise:128x192"
        assert cfg.seed == 7
        assert cfg.channels == (4, 8, 8, 16, 16)
        assert cfg.pyramid_width == 32
        assert cfg.fa_mode == "high3"
        assert cfg.reduction_ratio == 4
        assert cfg.np_dtype == np.float64
        assert cfg.dump_dir == "out"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n   \n# only comments\nseed=3\n\n")
        assert cfg.seed == 3


class TestValidation:
    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"<config>:2.*'colour'"):
            parse_config("seed=1\ncolour=blue\n")

    def test_duplicate_key_names_key(self):
        with pytest.raises(ConfigError, match=r"duplicate.*'seed'"):
            parse_config("seed=1\nseed=2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("seed 1\n")

    def test_bad_ints(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed=soon\n")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed=-1\n")
        with pytest.raises(ConfigError, match="pyramid_width"):
            parse_config("pyramid_width=0\n")
        with pytest.raises(ConfigError, match="reduction_ratio"):
            parse_config("reduction_ratio=-2\n")

    def test_bad_channels(self):
        with pytest.raises(ConfigError, match="5 counts"):
            parse_config("channels=1,2,3\n")
        with pytest.raises(ConfigError, match="channels"):
            parse_config("channels=1,2,3,4,zero\n")

    def test_bad_mode_and_dtype(self):
        with pytest.raises(ConfigError, match="fa_mode"):
            parse_config("fa_mode=mid3\n")
        with pytest.raises(ConfigError, match="dtype"):
            parse_config("dtype=f16\n")

    def test_complex128_refused(self):
        # a tensor may hold complex128 for a gradient check's probe; a run may not
        with pytest.raises(ConfigError, match=r"dtype must be one of \('f32', 'f64'\)"):
            parse_config("dtype=c128\n")

    def test_bad_input(self):
        with pytest.raises(ConfigError):
            parse_config("input=\n")
        with pytest.raises(ConfigError, match="HxW"):
            parse_config("input=noise:128\n")
        with pytest.raises(ConfigError, match="height"):
            parse_config("input=noise:0x64\n")


class TestNoiseSize:
    def test_plain_noise_default(self):
        assert noise_size("noise") == (256, 256)

    def test_explicit(self):
        assert noise_size("noise:128x192") == (128, 192)
        assert noise_size("noise:64X64") == (64, 64)

    def test_image_path_is_not_noise(self):
        assert noise_size("noise_img.ppm") is None
        assert noise_size("images/noise.pgm") is None


class TestOverride:
    def test_none_values_keep_existing(self):
        cfg = RunConfig(seed=4).override(seed=None, fa_mode=None)
        assert cfg.seed == 4 and cfg.fa_mode == "full"

    def test_real_values_replace(self):
        cfg = RunConfig().override(seed=9, fa_mode="low3")
        assert cfg.seed == 9 and cfg.fa_mode == "low3"


class TestLoad:
    def test_load_names_file_in_errors(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\nwhat=no\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            load_config(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")
