"""Binary named-tensor container, bit-exact across platforms.

Layout (all integers little-endian):

    magic           4 bytes  "ERLW"
    version         u16      currently 1
    count           u32      number of entries
    per entry:
        name length u16, then that many UTF-8 bytes
        rank        u8       always 4
        dims        4 x u32
        dtype       u8       0 = f32, 1 = f64
        payload     dims product x element size, little-endian raw

Entries preserve insertion order, so dump(load(blob)) reproduces the
container byte for byte.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError, LoadError
from .tensor import DTYPE_NAMES

MAGIC = b"ERLW"
VERSION = 1
CHECK_PREFIX = "check."  # names of stored reference outputs, kept apart from parameters

_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def pack_entries(entries):
    """Serialize an ordered name -> 4-D float array dict to bytes."""
    chunks = [MAGIC, struct.pack("<HI", VERSION, len(entries))]
    for name, arr in entries.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODE:
            raise FormatError(f"{name}: unsupported dtype {arr.dtype} for serialization")
        if arr.ndim != 4:
            raise FormatError(f"{name}: only rank-4 tensors are serializable, got {arr.ndim}")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B4IB", 4, *arr.shape, _DTYPE_CODE[arr.dtype]))
        code = _DTYPE_CODE[arr.dtype]
        chunks.append(arr.astype(_CODE_DTYPE[code], copy=False).tobytes())
    return b"".join(chunks)


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.blob):
            raise FormatError(
                f"truncated container: {what} needs {n} bytes at offset {self.pos}, "
                f"only {len(self.blob) - self.pos} remain"
            )
        piece = self.blob[self.pos:self.pos + n]
        self.pos += n
        return piece

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def unpack_entries(blob):
    """Parse container bytes into an ordered name -> array dict."""
    r = _Reader(blob)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, count = r.unpack("<HI", "header")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}, expected {VERSION}")
    entries = {}
    for i in range(count):
        (name_len,) = r.unpack("<H", f"entry {i} name length")
        raw = r.take(name_len, f"entry {i} name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"entry {i} name {raw!r} is not valid UTF-8") from None
        rank, d0, d1, d2, d3, code = r.unpack("<B4IB", f"{name} descriptor")
        if rank != 4:
            raise FormatError(f"{name}: rank must be 4, got {rank}")
        if code not in _CODE_DTYPE:
            raise FormatError(f"{name}: unknown dtype code {code}")
        dims = (d0, d1, d2, d3)
        dtype = _CODE_DTYPE[code]
        nbytes = math.prod(dims) * dtype.itemsize  # exact: no int64 wrap-around
        payload = r.take(nbytes, f"{name} payload")
        if name in entries:
            raise FormatError(f"duplicate tensor name {name!r}")
        entries[name] = np.frombuffer(payload, dtype).reshape(dims).copy()
    if r.pos != len(blob):
        raise FormatError(f"{len(blob) - r.pos} trailing bytes after entry {count - 1}")
    return entries


def write_container(path, entries):
    blob = pack_entries(entries)
    with open(path, "wb") as fh:
        fh.write(blob)
    return blob


def read_container(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return unpack_entries(blob)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def split_entries(entries):
    """Separate parameter entries from ``CHECK_PREFIX`` reference entries."""
    params = {k: v for k, v in entries.items() if not k.startswith(CHECK_PREFIX)}
    checks = {k: v for k, v in entries.items() if k.startswith(CHECK_PREFIX)}
    return params, checks


def load_into_parameters(params, entries):
    """Copy container entries into a name -> Parameter map, strictly.

    Every entry must name a known parameter with identical dims and
    element type, and hold only finite values; dtype conversion is refused
    rather than silent.  Nothing is copied unless every entry passes.
    """
    for name, arr in entries.items():
        if name not in params:
            raise LoadError(f"container names unknown tensor {name!r}")
        value = params[name].value
        if tuple(arr.shape) != tuple(value.dims):
            raise LoadError(
                f"{name}: container dims {tuple(arr.shape)} != model dims {tuple(value.dims)}"
            )
        if arr.dtype != value.dtype:
            have = DTYPE_NAMES[arr.dtype]
            want = value.dtype_name
            raise LoadError(
                f"{name}: container holds {have} but the model runs {want}; "
                f"conversion is refused, rebuild with dtype={have}"
            )
        finite = np.isfinite(arr)
        if not finite.all():
            at = tuple(int(i) for i in np.unravel_index(np.argmin(finite), arr.shape))
            raise LoadError(f"{name}: non-finite value {float(arr[at])!r} at index {at}")
    for name, arr in entries.items():
        params[name].value.data[...] = arr
