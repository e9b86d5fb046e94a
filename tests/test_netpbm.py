"""Binary netpbm parsing, canonical writing, and byte-offset errors."""

import numpy as np
import pytest

from edgeneck.errors import FormatError
from edgeneck.netpbm import parse_image, read_image, to_luma, write_image


def gray_blob(w=3, h=2, raster=None):
    raster = bytes(range(w * h)) if raster is None else raster
    return f"P5\n{w} {h}\n255\n".encode() + raster


class TestParse:
    def test_p5_roundtrip_values(self):
        magic, arr = parse_image(gray_blob())
        assert magic == "P5"
        assert arr.shape == (2, 3)
        assert arr.tolist() == [[0, 1, 2], [3, 4, 5]]

    def test_p6_shape_and_order(self):
        raster = bytes([10, 20, 30, 40, 50, 60])
        magic, arr = parse_image(b"P6\n2 1\n255\n" + raster)
        assert magic == "P6"
        assert arr.shape == (1, 2, 3)
        assert arr[0, 0].tolist() == [10, 20, 30]
        assert arr[0, 1].tolist() == [40, 50, 60]

    def test_comments_and_mixed_whitespace(self):
        blob = b"P5 # magic\n# a wide comment\n 3\t2 # dims\n255\n" + bytes(6)
        magic, arr = parse_image(blob)
        assert arr.shape == (2, 3)

    def test_crlf_single_separator(self):
        # \r counts as the single pre-raster whitespace byte; the \n that
        # follows must then belong to the raster.
        blob = b"P5\n1 2\n255\r" + b"\nx"
        _, arr = parse_image(blob)
        assert arr.tolist() == [[10], [120]]

    def test_luma_p6_averages(self):
        arr = np.array([[[30, 60, 90]]], np.uint8)
        assert to_luma("P6", arr)[0, 0] == 60.0

    def test_luma_p5_passthrough(self):
        arr = np.array([[7]], np.uint8)
        assert to_luma("P5", arr)[0, 0] == 7.0


class TestWrite:
    def test_gray_write_parse_roundtrip(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "a.pgm"
        write_image(path, img)
        magic, back = read_image(path)
        assert magic == "P5" and np.array_equal(back, img)

    def test_color_write_parse_roundtrip(self, tmp_path):
        img = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        path = tmp_path / "a.ppm"
        write_image(path, img)
        magic, back = read_image(path)
        assert magic == "P6" and np.array_equal(back, img)

    def test_canonical_bytes_stable(self, tmp_path):
        # write(parse(write(x))) must reproduce the file byte for byte
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        p1, p2 = tmp_path / "1.pgm", tmp_path / "2.pgm"
        write_image(p1, img)
        _, back = read_image(p1)
        write_image(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_writer_shape_validation(self, tmp_path):
        with pytest.raises(FormatError, match=r"HxW or HxWx3 array, got shape \(2, 2, 4\)"):
            write_image(tmp_path / "x.pam", np.zeros((2, 2, 4), np.uint8))


class TestErrors:
    def offset_of(self, blob):
        with pytest.raises(FormatError) as err:
            parse_image(blob)
        msg = str(err.value)
        assert msg.startswith("byte ")
        return int(msg.split()[1].rstrip(":")), msg

    def test_bad_magic_at_zero(self):
        off, msg = self.offset_of(b"P3\n1 1\n255\n\x00")
        assert off == 0 and "P3" in msg

    def test_nondigit_width_points_at_token(self):
        off, msg = self.offset_of(b"P5\nwide 2\n255\n" + bytes(2))
        assert off == 3 and "width" in msg

    def test_bad_maxval_points_at_token(self):
        off, msg = self.offset_of(b"P5\n3 2\n65535\n" + bytes(6))
        assert off == 7 and "maxval" in msg

    def test_missing_separator_after_magic(self):
        off, msg = self.offset_of(b"P5" + b"3 2\n255\n" + bytes(6))
        assert off == 2 and "whitespace" in msg

    def test_truncated_raster_counts_bytes(self):
        off, msg = self.offset_of(gray_blob(raster=bytes(4)))
        assert "expected 6 bytes, got 4" in msg

    def test_trailing_bytes_rejected(self):
        off, msg = self.offset_of(gray_blob(raster=bytes(8)))
        assert "2 trailing bytes" in msg
        assert off == len(gray_blob(raster=bytes(8))) - 2

    def test_zero_dims_rejected(self):
        self.offset_of(b"P5\n0 2\n255\n")

    def test_missing_file_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_image(tmp_path / "absent.pgm")

    def test_read_image_prefixes_path(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n1 1\n254\n\x00")
        with pytest.raises(FormatError, match="bad.pgm"):
            read_image(bad)
