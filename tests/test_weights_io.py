"""Weights container: byte layout, round-trips, strict loading."""

import struct

import numpy as np
import pytest

from edgeneck.errors import FormatError, LoadError
from edgeneck.tensor import Parameter
from edgeneck.weights import (
    MAGIC, VERSION, load_into_parameters, pack_entries, read_container,
    split_entries, unpack_entries, write_container,
)


def sample_entries():
    rng = np.random.default_rng(0)
    return {
        "a.w": rng.standard_normal((2, 3, 1, 1)).astype(np.float32),
        "a.b": rng.standard_normal((1, 2, 1, 1)).astype(np.float64),
        "z.first": rng.standard_normal((1, 1, 2, 2)).astype(np.float32),
    }


class TestRoundTrip:
    def test_pack_unpack_identity(self):
        entries = sample_entries()
        back = unpack_entries(pack_entries(entries))
        assert list(back) == list(entries)  # insertion order kept, not sorted
        for name in entries:
            assert back[name].dtype == entries[name].dtype
            assert np.array_equal(back[name], entries[name])

    def test_repack_is_byte_identical(self):
        blob = pack_entries(sample_entries())
        assert pack_entries(unpack_entries(blob)) == blob

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "w.erlw"
        blob = write_container(path, sample_entries())
        assert path.read_bytes() == blob
        back = read_container(path)
        assert np.array_equal(back["a.w"], sample_entries()["a.w"])

    def test_header_layout(self):
        blob = pack_entries({"x": np.zeros((1, 1, 1, 1), np.float32)})
        assert blob[:4] == MAGIC == b"ERLW"
        version, count = struct.unpack("<HI", blob[4:10])
        assert (version, count) == (VERSION, 1)
        name_len = struct.unpack("<H", blob[10:12])[0]
        assert blob[12:12 + name_len] == b"x"

    def test_empty_container(self):
        assert unpack_entries(pack_entries({})) == {}

    def test_split_entries(self):
        entries = {
            "a.w": np.zeros((1, 1, 1, 1), np.float32),
            "check.out.s8": np.zeros((1, 2, 1, 1), np.float32),
        }
        params, checks = split_entries(entries)
        assert list(params) == ["a.w"] and list(checks) == ["check.out.s8"]


class TestPackValidation:
    def test_non_float_dtype_rejected(self):
        with pytest.raises(FormatError, match="dtype"):
            pack_entries({"x": np.zeros((1, 1, 1, 1), np.int32)})

    def test_complex128_rejected(self):
        with pytest.raises(FormatError, match="unsupported dtype complex128"):
            pack_entries({"x": np.zeros((1, 1, 1, 1), np.complex128)})

    def test_wrong_rank_rejected(self):
        with pytest.raises(FormatError, match="rank"):
            pack_entries({"x": np.zeros((2, 2), np.float32)})


class TestUnpackValidation:
    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            unpack_entries(b"NOPE" + bytes(6))

    def test_bad_version(self):
        blob = MAGIC + struct.pack("<HI", 9, 0)
        with pytest.raises(FormatError, match="version 9"):
            unpack_entries(blob)

    def test_truncation_names_need_and_have(self):
        blob = pack_entries(sample_entries())
        with pytest.raises(FormatError, match="needs .* bytes .* remain"):
            unpack_entries(blob[:-3])

    def test_trailing_bytes(self):
        blob = pack_entries(sample_entries())
        with pytest.raises(FormatError, match="4 trailing bytes"):
            unpack_entries(blob + bytes(4))

    def test_name_not_utf8_names_the_entry(self):
        blob = (MAGIC + struct.pack("<HI", VERSION, 1) + struct.pack("<H", 2) + b"\xff\xfe"
                + struct.pack("<B4IB", 4, 1, 1, 1, 1, 0) + bytes(4))
        with pytest.raises(FormatError, match="entry 0 name .* not valid UTF-8"):
            unpack_entries(blob)

    @pytest.mark.parametrize("offset, was, value, message", [
        (13, 4, 3, "x: rank must be 4, got 3"),  # rank byte after magic, header and name
        (30, 0, 7, "x: unknown dtype code 7"),  # dtype byte after rank and four dims
    ])
    def test_patched_descriptor_names_the_entry(self, offset, was, value, message):
        blob = bytearray(pack_entries({"x": np.zeros((1, 1, 1, 1), np.float32)}))
        assert blob[offset] == was
        blob[offset] = value
        with pytest.raises(FormatError, match=message):
            unpack_entries(bytes(blob))

    def test_repeated_name_rejected(self):
        zeros = np.zeros((1, 1, 1, 1), np.float32)
        blob = pack_entries({"a": zeros, "b": zeros})
        assert blob.count(b"b") == 1  # the second name; the zero payloads hold no such byte
        with pytest.raises(FormatError, match="duplicate tensor name 'a'"):
            unpack_entries(blob.replace(b"b", b"a"))

    def test_dims_product_beyond_int64_is_truncation(self):
        # 65536**4 = 2**64 wraps to 0 in int64 arithmetic
        blob = (MAGIC + struct.pack("<HI", VERSION, 1) + struct.pack("<H", 1) + b"x"
                + struct.pack("<B4IB", 4, 65536, 65536, 65536, 65536, 0))
        with pytest.raises(FormatError, match="truncated container: x payload"):
            unpack_entries(blob)

    def test_read_container_prefixes_path(self, tmp_path):
        path = tmp_path / "w.erlw"
        path.write_bytes(b"NOPE")
        with pytest.raises(FormatError, match="w.erlw"):
            read_container(path)


class TestLoadIntoParameters:
    def make_params(self, dtype=np.float32):
        return {
            "a.w": Parameter("a.w", np.ones((2, 3, 1, 1), dtype)),
            "a.b": Parameter("a.b", np.zeros((1, 2, 1, 1), dtype)),
        }

    def test_copies_values(self):
        params = self.make_params()
        new = np.full((2, 3, 1, 1), 7.0, np.float32)
        load_into_parameters(params, {"a.w": new})
        assert np.array_equal(params["a.w"].value.data, new)
        assert params["a.b"].value.data[0, 0, 0, 0] == 0.0  # untouched

    def test_unknown_name(self):
        with pytest.raises(LoadError, match="unknown tensor"):
            load_into_parameters(self.make_params(),
                                 {"b.w": np.zeros((1, 1, 1, 1), np.float32)})

    def test_dim_mismatch(self):
        with pytest.raises(LoadError, match="dims"):
            load_into_parameters(self.make_params(),
                                 {"a.w": np.zeros((3, 2, 1, 1), np.float32)})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_before_any_copy(self, bad):
        params = self.make_params()
        b = np.zeros((1, 2, 1, 1), np.float32)
        b[0, 1, 0, 0] = bad
        entries = {"a.w": np.full((2, 3, 1, 1), 7.0, np.float32), "a.b": b}
        message = rf"a\.b: non-finite value {bad!r} at index \(0, 1, 0, 0\)"
        with pytest.raises(LoadError, match=message):
            load_into_parameters(params, entries)
        assert np.all(params["a.w"].value.data == 1.0)  # the valid entry before it was not copied

    def test_dtype_conversion_refused(self):
        with pytest.raises(LoadError, match="refused"):
            load_into_parameters(self.make_params(),
                                 {"a.w": np.zeros((2, 3, 1, 1), np.float64)})
