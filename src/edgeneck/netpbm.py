"""Binary netpbm image I/O: 8-bit P5 (gray) and P6 (color) only.

The parser follows the netpbm grammar: the magic, width, height and
maxval tokens are separated by whitespace, ``#`` starts a comment that
runs to end of line, and exactly one whitespace byte separates the
maxval from the raster.  Malformed input raises ``FormatError`` naming
the byte offset where parsing stopped.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError

_WHITESPACE = b" \t\r\n\v\f"


class _Scanner:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0
        self.token_start = 0

    def error(self, message):
        raise FormatError(f"byte {self.pos}: {message}")

    def skip_separators(self):
        """Advance over whitespace and comments; at least one byte required."""
        start = self.pos
        while self.pos < len(self.blob):
            byte = self.blob[self.pos:self.pos + 1]
            if byte in (b"#",):
                nl = self.blob.find(b"\n", self.pos)
                self.pos = len(self.blob) if nl < 0 else nl + 1
            elif byte and byte in _WHITESPACE:
                self.pos += 1
            else:
                break
        if self.pos == start:
            self.error("expected whitespace between header tokens")

    def token(self):
        start = self.token_start = self.pos
        while self.pos < len(self.blob) and self.blob[self.pos:self.pos + 1] not in _WHITESPACE:
            if self.blob[self.pos:self.pos + 1] == b"#":
                break
            self.pos += 1
        if self.pos == start:
            self.error("expected a header token, found none")
        return self.blob[start:self.pos]

    def number(self, what):
        tok = self.token()
        if not tok.isdigit():
            self.pos = self.token_start
            self.error(f"{what} must be a decimal integer, got {tok!r}")
        return int(tok)

    def token_error(self, message):
        """Report an error at the start of the token just consumed."""
        self.pos = self.token_start
        self.error(message)


def parse_image(blob):
    """Parse P5/P6 bytes into (magic, uint8 array HxW or HxWx3)."""
    scan = _Scanner(blob)
    magic = blob[:2]
    if magic not in (b"P5", b"P6"):
        scan.error(f"unsupported magic {magic!r}; only binary P5/P6 accepted")
    scan.pos = 2
    scan.skip_separators()
    width = scan.number("width")
    scan.skip_separators()
    height = scan.number("height")
    scan.skip_separators()
    maxval = scan.number("maxval")
    if maxval != 255:
        scan.token_error(f"maxval must be 255, got {maxval}")
    if scan.pos >= len(blob) or blob[scan.pos:scan.pos + 1] not in _WHITESPACE:
        scan.error("expected a single whitespace byte before the raster")
    scan.pos += 1
    if width < 1 or height < 1:
        scan.error(f"image dims must be positive, got {width}x{height}")
    samples = width * height * (3 if magic == b"P6" else 1)
    raster = blob[scan.pos:]
    if len(raster) < samples:
        scan.error(f"raster truncated: expected {samples} bytes, got {len(raster)}")
    if len(raster) > samples:
        scan.pos += samples
        scan.error(f"{len(raster) - samples} trailing bytes after the raster")
    arr = np.frombuffer(raster, np.uint8, count=samples)
    if magic == b"P6":
        return "P6", arr.reshape(height, width, 3).copy()
    return "P5", arr.reshape(height, width).copy()


def read_image(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return parse_image(blob)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_image(path, pixels):
    """Write a HxW uint8 array as canonical binary P5, or a HxWx3 one as P6."""
    arr = np.ascontiguousarray(pixels, np.uint8)
    if arr.ndim == 2:
        magic = "P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = "P6"
    else:
        raise FormatError(f"image writer needs a HxW or HxWx3 array, got shape {arr.shape}")
    header = f"{magic}\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + arr.tobytes())


def to_luma(magic, pixels):
    """Average the three channels of a P6 raster; P5 passes through."""
    if magic == "P5":
        return pixels.astype(np.float64)
    return pixels.astype(np.float64).sum(axis=2) / 3.0
