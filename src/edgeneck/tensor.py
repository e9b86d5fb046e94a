"""Dense 4-D tensors, the differentiable kernel set, and the reverse-mode tape.

Everything in this library moves through one currency: a contiguous
row-major ``(N, C, H, W)`` float buffer (complex128 only inside the
gradient checker's probes).  All ops are pure functions over
immutable tensors.  Each forward op acts on the trailing ``(N, C, H, W)``
axes of its operands' data and broadcasts over any leading axes, numpy
style, so one call computes a batch of probes stacked along a leading
probe axis.  :class:`Tensor` itself is 4-D: only the gradient checker
builds tensors with leading axes, the way :func:`_record` builds results,
and no backward rule sees one.

While a :class:`Tape` is active, ops whose result depends on a
gradient-carrying tensor append a record; :func:`backward` walks those
records in exact reverse creation order and accumulates ``d(root)/d(leaf)``
into the ``grad`` of every leaf it reaches, made on first reach.  Every
active tape also lists every op call with its arguments, output and record.

Convolution uses the cross-correlation convention (no kernel flip) and is
lowered to im2col plus matrix multiplies (GEMM), forward and backward.
Every im2col and col2im buffer is bounded by ``_TILE_BYTES``, or holds one
tiling unit when that is larger:

* forward: per tile of output rows, one GEMM per image (and per leading
  index) into the output, the tile's columns holding every image;
* input gradient: per tile of output rows, one GEMM
  ``W^T (K x C_out) @ grad_out (C_out x N*rows*OW)`` with the batch folded
  into the columns, its product scattered one ``(ky, kx)`` tap at a time
  through a ``(C, N, H, W)`` view of the padded gradient;
* weight gradient: per chunk of input channels, one GEMM over all
  ``N*OH*OW`` positions, again with the batch folded.

The summation order is the BLAS library's, so results agree with a scalar
nested-loop reference within the rounding-error bound of a length-``L``
dot product (``L = C*kH*kW`` forward, ``N*OH*OW`` for the weight gradient,
``C_out*kH*kW`` for the input gradient), not bit-for-bit; they are
deterministic on one machine.  The forward skips each tap that reads only
the zero border (a dilated tap past a narrow map's edge), so its dot
products have ``C*(live taps)`` terms; the bound with the full ``L`` holds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, ShapeError, UsageError

DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}  # what a run computes in
# a tensor may also hold complex128: the gradient checker's complex-step probes
_ELEMENT_NAMES = {**DTYPE_NAMES, np.dtype(np.complex128): "c128"}


class Tensor:
    """A dense ``(N, C, H, W)`` array with an optional gradient buffer.

    Data is treated as immutable after construction.  ``grad`` starts as
    ``None``; the first :func:`backward` that reaches a leaf created with
    ``requires_grad=True`` gives it a buffer of identical dims, and later
    calls accumulate into it until :meth:`zero_grad` is called.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ContractError(f"tensor data must be 4-D (N,C,H,W), got shape {arr.shape}")
        if arr.dtype not in _ELEMENT_NAMES:
            raise ContractError(
                f"unsupported element type {arr.dtype}; use float32, float64 or complex128")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def dims(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def dtype_name(self):
        return _ELEMENT_NAMES[self.data.dtype]

    def item(self):
        """The one element: a Python ``float``, or a ``complex`` for complex128."""
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got dims {self.dims}")
        return self.data.item()

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0

    def __repr__(self):
        shape = "x".join(str(d) for d in self.dims)
        return f"Tensor({shape}, {self.dtype_name}, requires_grad={self.requires_grad})"


class Parameter:
    """A named leaf tensor whose gradient buffer :func:`backward` allocates and keeps."""

    __slots__ = ("name", "value")

    def __init__(self, name, data):
        self.name = name
        self.value = Tensor(data, requires_grad=True)

    @property
    def dims(self):
        return self.value.dims

    @property
    def grad(self):
        return self.value.grad

    def zero_grad(self):
        self.value.zero_grad()

    def __repr__(self):
        shape = "x".join(str(d) for d in self.dims)
        return f"Parameter({self.name!r}, {shape}, {self.value.dtype_name})"


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class TapeRecord:
    """One recorded op: op name, input refs, output ref, saved intermediates.

    An op that takes a branch (a relu mask, a pool arg-max) saves that
    decision under ``"branch"``; its backward rule reads it from there, and
    a gradient-check probe hands it back to the op, as ``branch=``, to apply.
    """

    op: str
    inputs: tuple
    output: Tensor
    saved: dict


class Tape:
    """Ordered op record for one execution context.

    Use as a context manager.  While it is active, every op call, made on
    it or on a tape opened inside it, is listed in ``calls`` as
    ``((op, args, kwargs), output, record)``, ``record`` being the
    :class:`TapeRecord` the call appended to the innermost tape, or
    ``None``.  While it is the innermost active tape, every op whose
    output depends on a gradient-carrying tensor appends a record.
    """

    def __init__(self):
        self.records = []
        self.calls = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.records)


_TAPE_STACK = []


def _tensor(data, requires_grad):
    """A tensor over ``data`` as it is, unchecked: an op's result, or a batch of probes."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = requires_grad
    t.grad = None
    return t


def _record(op, inputs, data, branch=None, **saved):
    """Every op's result: ``data``, needing a gradient when any input does.

    The record is taped when a tape is active and some input needs a
    gradient; only then is ``branch``, a function that computes the op's
    branch decision, called and its result saved under ``"branch"``, so
    an untaped op builds no mask or arg-max that nothing would read.
    """
    out = _tensor(data, False)
    for t in inputs:  # a plain loop: any() over a generator adds a frame to every op
        if t.requires_grad:
            out.requires_grad = True
            break
    if _TAPE_STACK and out.requires_grad:
        if branch is not None:
            saved["branch"] = branch()
        _TAPE_STACK[-1].records.append(TapeRecord(op, tuple(inputs), out, saved))
    return out


def _listed(op):
    """``op``, each call listed on every active tape with the record it made."""
    @functools.wraps(op)
    def call(*args, **kwargs):
        out = op(*args, **kwargs)
        if _TAPE_STACK:
            records = _TAPE_STACK[-1].records
            rec = records[-1] if records and records[-1].output is out else None
            entry = ((op, args, kwargs), out, rec)
            for tape in _TAPE_STACK:
                tape.calls.append(entry)
        return out
    return call


# ---------------------------------------------------------------------------
# Shape helpers
# ---------------------------------------------------------------------------

def _pair(value, name):
    if isinstance(value, int):
        value = (value, value)
    pair = tuple(int(v) for v in value)
    if len(pair) != 2:
        raise ContractError(f"{name} must be an int or a pair, got {value!r}")
    return pair


@dataclass(frozen=True)
class ConvSpec:
    """Stride / padding / dilation bundle for :func:`conv2d`."""

    stride: tuple = (1, 1)
    padding: tuple = (0, 0)
    dilation: tuple = (1, 1)

    def __post_init__(self):
        object.__setattr__(self, "stride", _pair(self.stride, "stride"))
        object.__setattr__(self, "padding", _pair(self.padding, "padding"))
        object.__setattr__(self, "dilation", _pair(self.dilation, "dilation"))
        if min(self.stride) < 1:
            raise ContractError(f"stride must be >= 1, got {self.stride}")
        if min(self.padding) < 0:
            raise ContractError(f"padding must be >= 0, got {self.padding}")
        if min(self.dilation) < 1:
            raise ContractError(f"dilation must be >= 1, got {self.dilation}")

    def out_hw(self, h, w, kh, kw):
        """Output spatial dims: floor((D + 2p - d*(k-1) - 1)/s) + 1, each >= 0."""
        oh = (h + 2 * self.padding[0] - self.dilation[0] * (kh - 1) - 1) // self.stride[0] + 1
        ow = (w + 2 * self.padding[1] - self.dilation[1] * (kw - 1) - 1) // self.stride[1] + 1
        if oh < 0 or ow < 0:
            raise ShapeError(
                f"convolution output dims ({oh}, {ow}) are negative for input "
                f"({h}, {w}), kernel ({kh}, {kw}), spec {self}"
            )
        return oh, ow


# the result type where float64 meets complex128: a complex-step probe reached one operand
MIXED_DTYPES = {(np.dtype(np.float64), np.dtype(np.complex128)): np.dtype(np.complex128),
                (np.dtype(np.complex128), np.dtype(np.float64)): np.dtype(np.complex128)}


def _same_dtype(*tensors):
    """The operands' result element type; a ``None`` operand (no bias) is skipped.

    Operands share one element type, except that float64 and complex128
    mix into complex128; float32 meets neither.  Each ``data.dtype`` is
    compared with the type so far in a plain loop, which allocates nothing;
    only a refusal builds the sorted set that words it.
    """
    dtype = tensors[0].data.dtype
    for t in tensors:
        if t is not None and t.data.dtype != dtype:
            dtype = MIXED_DTYPES.get((dtype, t.data.dtype))
            if dtype is None:
                names = sorted({str(u.data.dtype) for u in tensors if u is not None})
                raise ContractError(f"operands must share one element type, got {names}")
    return dtype


def _lead(*arrays):
    """The leading axes, before ``(N, C, H, W)``, that ``arrays`` broadcast to; skips ``None``."""
    lead = ()
    for a in arrays:
        if a is not None and a.ndim > 4 and a.shape[:-4] != lead:
            if not lead:
                lead = a.shape[:-4]
                continue
            try:
                lead = np.broadcast_shapes(lead, a.shape[:-4])
            except ValueError:
                shapes = [a.shape for a in arrays if a is not None]
                raise ContractError(f"leading axes of {shapes} do not broadcast") from None
    return lead


def _reduce_broadcast(grad, dims):
    """Sum-reduce a gradient over the axes that were broadcast in forward."""
    axes = tuple(i for i in range(4) if dims[i] == 1 and grad.shape[i] > 1)
    return grad.sum(axis=axes, keepdims=True) if axes else grad


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

@_listed
def conv2d(x, weight, bias=None, spec=ConvSpec()):
    """Cross-correlate ``x`` with ``weight`` under ``spec``.

    ``weight`` dims are ``(C_out, C_in, kH, kW)``; an optional bias has
    dims ``(1, C_out, 1, 1)``; leading axes of all three broadcast.
    Computed as im2col plus GEMM over row
    tiles of at most ``_TILE_BYTES`` of columns; taps that read only the
    zero border for every output are skipped, so each output element is a
    dot product of ``C_in*(live taps)`` terms, at most ``C_in*kH*kW``,
    summed in the BLAS library's order: deterministic on one machine but
    not bit-exact across platforms.
    """
    dtype = _same_dtype(x, weight, bias)
    n, c, h, w = x.data.shape[-4:]
    c_out, c_in, kh, kw = weight.data.shape[-4:]
    if c_in != c:
        raise ContractError(f"weight in-channel dim {c_in} != input channels {c}")
    if bias is not None and bias.data.shape[-4:] != (1, c_out, 1, 1):
        raise ContractError(f"bias dims {bias.dims} != (1, {c_out}, 1, 1)")
    oh, ow = spec.out_hw(h, w, kh, kw)

    out = _conv_forward(x.data, weight.data, None if bias is None else bias.data, spec, oh, ow,
                        dtype)
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _record("conv2d", inputs, out, spec=spec)


# Upper bound on the bytes of one im2col or col2im buffer: N*K*rows*OW
# elements for a forward or input-gradient tile of output rows, and
# kH*kW*N*OH*OW per input channel for a weight-gradient chunk; a buffer
# holds at least one row or channel.  2 MiB holds seven output rows of the
# pyramid's 3x3 smooth at stride 8 (K = 2304, f32), both for one 256^2
# image (OW = 32) and for a batch of two 128^2 images (OW = 16), and keeps
# a 2048^2 input from materializing its whole column matrix (about 600 MB
# for that layer).
_TILE_BYTES = 2 << 20


def _padded(xd, padding):
    """``xd`` copied into a zero border of ``padding = (py, px)``; C-contiguous either way."""
    py, px = padding
    if not (py or px):
        return np.ascontiguousarray(xd)
    h, w = xd.shape[-2:]
    xp = np.zeros(xd.shape[:-2] + (h + 2 * py, w + 2 * px), xd.dtype)
    xp[..., py:py + h, px:px + w] = xd
    return xp


def _taps(xp, kh, kw, spec, c0, cc, row0, rows, ow, ky0=0, kx0=0):
    """Read-only im2col view ``(..., N, cc, kH, kW, rows, OW)`` from channel ``c0``, row ``row0``.

    ``xp`` is the view's buffer, so it must be C-contiguous; its leading
    axes are kept, ``row0`` counts output rows, and tap ``(ky0, kx0)`` is first.
    """
    sc, sh, sw = xp.strides[-3:]
    (sy, sx), (dy, dx) = spec.stride, spec.dilation
    cols = np.ndarray(xp.shape[:-3] + (cc, kh, kw, rows, ow), xp.dtype, xp,
                      c0 * sc + (row0 * sy + ky0 * dy) * sh + kx0 * dx * sw,
                      xp.strides[:-3] + (sc, sh * dy, sw * dx, sh * sy, sw * sx))
    cols.flags.writeable = False
    return cols


def _live_taps(size, out, pad, stride, dilation, k):
    """The taps ``[t0, t1)`` of one kernel axis that can read the image, not only its zero border.

    Tap ``t`` at output ``o`` reads image index ``o*stride + t*dilation - pad``.  Kept is
    each tap whose reads, first output to last, span part of ``[0, size)``: at stride 1
    exactly the live taps, at a larger stride also any that step over the image.
    """
    t0 = max(0, -(((out - 1) * stride - pad) // dilation))  # ceil((pad - (out-1)*stride) / d)
    t1 = min(k, (size - 1 + pad) // dilation + 1)
    return (t0, t1) if t0 < t1 else (0, 0)  # no live tap


def _tile(count, unit_bytes):
    """How many units of ``unit_bytes`` (at least one) fit in ``_TILE_BYTES``."""
    return max(1, min(count, _TILE_BYTES // max(1, unit_bytes)))


def _conv_forward(xd, wd, bias_d, spec, oh, ow, dtype):
    """The conv output as ``dtype``, the operands' result type (complex if any operand is).

    Leading axes broadcast: the images of every leading index of ``xd``
    share each row tile's columns, and one GEMM per image and leading
    index of ``wd`` writes them.
    """
    n, c, h, w = xd.shape[-4:]
    c_out, _, kh, kw = wd.shape[-4:]
    images = xd.shape[:-3]  # the leading axes and N
    out = np.empty(_lead(xd, wd) + (n, c_out, oh * ow), dtype)  # the row tiles write every element
    if out.size:
        # a tap that reads only the zero border adds nothing: im2col and the GEMM skip it
        (sy, sx), (py, px), (dy, dx) = spec.stride, spec.padding, spec.dilation
        y0, y1 = _live_taps(h, oh, py, sy, dy, kh)
        x0, x1 = _live_taps(w, ow, px, sx, dx, kw)
        kh, kw, k = y1 - y0, x1 - x0, c * (y1 - y0) * (x1 - x0)
        xp = _padded(xd, spec.padding)
        # one matrix for all N images; a copy only when taps were dropped
        w2 = wd[..., y0:y1, x0:x1].reshape(wd.shape[:-4] + (1, c_out, k))
        # complex x against a real w: one real GEMM over the columns read as
        # interleaved (re, im) pairs, half the work of a complex GEMM
        pair = 2 if xd.dtype == np.complex128 and wd.dtype == np.float64 else 1
        sink = out.view(np.float64) if pair == 2 else out
        step = _tile(oh, math.prod(images) * k * ow * xd.itemsize)
        for row0 in range(0, oh, step):
            rows = min(step, oh - row0)
            # a view for an unpadded 1x1 stride-1 conv; otherwise the im2col copy
            cols = _taps(xp, kh, kw, spec, 0, c, row0, rows, ow, y0, x0)
            cols = cols.reshape(images + (k, rows * ow))
            if pair == 2:  # a strided 1x1 conv's one-row view is not contiguous
                cols = np.ascontiguousarray(cols).view(np.float64)
            np.matmul(w2, cols, out=sink[..., pair * row0 * ow:pair * (row0 + rows) * ow])
    out = out.reshape(out.shape[:-1] + (oh, ow))
    if bias_d is not None:
        if _lead(out, bias_d) == out.shape[:-4]:
            out += bias_d
        else:  # a bias with leading axes that the conv's columns lack
            out = out + bias_d
    return out


def _conv_backward(rec, grad_out):
    x, weight = rec.inputs[0], rec.inputs[1]
    bias = rec.inputs[2] if len(rec.inputs) == 3 else None
    spec = rec.saved["spec"]
    xd, wd = x.data, weight.data
    n, c, h, w = xd.shape
    c_out, _, kh, kw = wd.shape
    oh, ow = grad_out.shape[2:]
    k = c * kh * kw
    py, px = spec.padding
    # grad_out with the batch folded into the columns: (C_out, N, OH*OW)
    go = grad_out.reshape(n, c_out, oh * ow).transpose(1, 0, 2)

    grad_x = None
    if x.requires_grad:
        # col2im: one W^T @ grad_out per row tile over columns (C_out, N*rows*OW),
        # its (K, N*rows*OW) product scattered one (ky, kx) tap at a time
        gxp = np.zeros((n, c, h + 2 * py, w + 2 * px), xd.dtype)
        gxc = gxp.transpose(1, 0, 2, 3)  # (C, N, H, W) view
        (sy, sx), (dy, dx) = spec.stride, spec.dilation
        wt = wd.reshape(c_out, k).T
        if grad_out.size:
            step = _tile(oh, n * k * ow * xd.itemsize)
            for row0 in range(0, oh, step):
                rows = min(step, oh - row0)
                g = np.matmul(wt, go[:, :, row0 * ow:(row0 + rows) * ow].reshape(c_out, -1))
                g = g.reshape(c, kh, kw, n, rows, ow)
                for ky in range(kh):
                    y0 = row0 * sy + ky * dy
                    ys = slice(y0, y0 + (rows - 1) * sy + 1, sy)
                    for kx in range(kw):
                        x0 = kx * dx
                        gxc[:, :, ys, x0:x0 + (ow - 1) * sx + 1:sx] += g[:, ky, kx]
        grad_x = gxp[:, :, py:py + h, px:px + w]

    grad_w = None
    if weight.requires_grad:
        # grad_out @ cols^T per chunk of input channels, which write every column
        grad_w = np.empty_like(wd) if grad_out.size else np.zeros_like(wd)
        if grad_out.size:
            xp = _padded(xd, spec.padding)
            go2 = go.reshape(c_out, n * oh * ow)
            gw2 = grad_w.reshape(c_out, k)
            taps = kh * kw
            step = _tile(c, taps * n * oh * ow * xd.itemsize)
            for c0 in range(0, c, step):
                cc = min(step, c - c0)
                cols = _taps(xp, kh, kw, spec, c0, cc, 0, oh, ow)
                cols = cols.transpose(1, 2, 3, 0, 4, 5).reshape(cc * taps, n * oh * ow)
                np.matmul(go2, cols.T, out=gw2[:, c0 * taps:(c0 + cc) * taps])

    grad_b = None
    if bias is not None and bias.requires_grad:
        grad_b = grad_out.sum(axis=(0, 2, 3)).reshape(1, c_out, 1, 1)
    return (grad_x, grad_w) if bias is None else (grad_x, grad_w, grad_b)


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------

def _check_broadcast(a_dims, b_dims):
    """Refuse dims that do not broadcast, aligned from the last axis; the axis is the longer's."""
    if a_dims == b_dims:
        return
    longer = max(len(a_dims), len(b_dims))
    for axis in range(longer - min(len(a_dims), len(b_dims)), longer):
        da, db = a_dims[axis - longer], b_dims[axis - longer]
        if da != db and da != 1 and db != 1:
            raise ContractError(
                f"dims {a_dims} and {b_dims} are not broadcast-compatible at axis {axis}"
            )


@_listed
def add(a, b):
    _same_dtype(a, b)
    _check_broadcast(a.dims, b.dims)
    return _record("add", (a, b), a.data + b.data)


def _add_backward(rec, grad_out):
    a, b = rec.inputs
    ga = _reduce_broadcast(grad_out, a.dims) if a.requires_grad else None
    gb = _reduce_broadcast(grad_out, b.dims) if b.requires_grad else None
    return ga, gb


@_listed
def mul(a, b):
    _same_dtype(a, b)
    _check_broadcast(a.dims, b.dims)
    return _record("mul", (a, b), a.data * b.data)


def _mul_backward(rec, grad_out):
    a, b = rec.inputs
    ga = _reduce_broadcast(grad_out * b.data, a.dims) if a.requires_grad else None
    gb = _reduce_broadcast(grad_out * a.data, b.dims) if b.requires_grad else None
    return ga, gb


@_listed
def relu(x, branch=None):
    xd = x.data
    zero = xd.dtype.type(0)
    if branch is not None:
        return _record("relu", (x,), np.where(branch, xd, zero), branch=lambda: branch)
    # bit-equal to where(x > 0, x, 0) without its data-dependent branch:
    # fmax sends NaN to 0, and adding +0 turns a -0 that fmax may keep into +0
    out = np.fmax(xd, zero)
    out += zero
    return _record("relu", (x,), out, branch=lambda: xd > 0)


def _relu_backward(rec, grad_out):
    return (grad_out * rec.saved["branch"],)


@_listed
def sigmoid(x):
    xd = x.data
    # exp of a non-positive argument only, so large |x| cannot overflow
    pos = xd >= 0
    z = np.exp(np.where(pos, -xd, xd))
    out_d = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z)).astype(xd.dtype, copy=False)
    return _record("sigmoid", (x,), out_d)


def _sigmoid_backward(rec, grad_out):
    s = rec.output.data
    return (grad_out * s * (1.0 - s),)


@_listed
def edge_magnitude(gx, gy, branch=None):
    """Pointwise sqrt(gx^2 + gy^2) with a zero gradient at exactly (0, 0).

    A fused op: composing sqrt, add and square would send an infinite
    factor through the chain where both inputs vanish, while the magnitude
    itself has a well-defined (sub)gradient of zero there.
    """
    _same_dtype(gx, gy)
    if gx.dims != gy.dims:
        if gx.dims[-4:] != gy.dims[-4:]:
            raise ContractError(f"edge_magnitude dims differ: {gx.dims} vs {gy.dims}")
        _lead(gx.data, gy.data)
    mag = np.sqrt(gx.data * gx.data + gy.data * gy.data)
    if branch is not None:
        return _record("edge_magnitude", (gx, gy), np.where(branch, mag, 0), branch=lambda: branch)
    return _record("edge_magnitude", (gx, gy), mag, branch=lambda: mag > 0)


def _edge_magnitude_backward(rec, grad_out):
    gx, gy = rec.inputs
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(rec.saved["branch"], grad_out / rec.output.data,
                         grad_out.dtype.type(0))
    ga = scale * gx.data if gx.requires_grad else None
    gb = scale * gy.data if gy.requires_grad else None
    return ga, gb


# ---------------------------------------------------------------------------
# Reductions and resampling
# ---------------------------------------------------------------------------

def _spatial_flat(x, op):
    """``x`` as ... x N x C x (H*W), refusing an empty spatial extent."""
    h, w = x.dims[-2:]
    if h * w < 1:
        raise DomainError(f"{op} over empty spatial extent {h}x{w}")
    return x.data.reshape(x.dims[:-2] + (h * w,))


@_listed
def global_avg_pool(x):
    """Average over all H*W positions per sample and channel, to N x C x 1 x 1."""
    flat = _spatial_flat(x, "global_avg_pool")
    out_d = flat.mean(axis=-1).reshape(flat.shape[:-1] + (1, 1))
    return _record("global_avg_pool", (x,), out_d.astype(x.dtype, copy=False))


@_listed
def global_max_pool(x, branch=None):
    """Maximum over all H*W positions per sample and channel, to N x C x 1 x 1."""
    flat = _spatial_flat(x, "global_max_pool")
    idx = flat.argmax(axis=-1) if branch is None else branch  # first maximal in scan order
    at = idx[(None,) * (flat.ndim - 1 - idx.ndim) + (..., None)]  # any leading axes of x broadcast
    out_d = np.take_along_axis(flat, at, axis=-1).reshape(flat.shape[:-1] + (1, 1))
    return _record("global_max_pool", (x,), out_d, branch=lambda: idx)


def _global_avg_pool_backward(rec, grad_out):
    (x,) = rec.inputs
    n, c, h, w = x.dims
    g = np.broadcast_to(grad_out / (h * w), (n, c, h, w)).astype(grad_out.dtype, copy=True)
    return (g,)


def _global_max_pool_backward(rec, grad_out):
    (x,) = rec.inputs
    n, c, h, w = x.dims
    flat = np.zeros((n, c, h * w), grad_out.dtype)
    np.put_along_axis(flat, rec.saved["branch"][:, :, None], grad_out.reshape(n, c, 1), axis=2)
    return (flat.reshape(n, c, h, w),)


@_listed
def up2_nearest(x):
    """Double H and W by replicating each pixel into a 2x2 block."""
    return _record("up2_nearest", (x,), np.repeat(np.repeat(x.data, 2, axis=-2), 2, axis=-1))


@_listed
def down2_max(x, branch=None):
    """Halve H and W by a 2x2, stride-2 max."""
    xd = x.data
    h, w = xd.shape[-2:]
    if h % 2 or w % 2:
        raise ShapeError(f"down2_max needs even spatial dims, got {h}x{w}")
    outer = xd.shape[:-2]
    corners = xd[..., 0::2, 0::2], xd[..., 0::2, 1::2], xd[..., 1::2, 0::2], xd[..., 1::2, 1::2]
    if branch is not None:
        return _record("down2_max", (x,), np.choose(branch, corners), branch=lambda: branch)

    def first_maximal():  # index of the first maximal element per block, row-major
        blocks = xd.reshape(outer + (h // 2, 2, w // 2, 2)).swapaxes(-3, -2)
        return blocks.reshape(outer + (h // 2, w // 2, 4)).argmax(axis=-1)

    # that element's value, with no arg-max: np.maximum returns a NaN operand,
    # and its second operand on a tie, so passing the later element first keeps
    # the earlier of +0 and -0 (of two NaNs it keeps the later)
    top = np.maximum(corners[1], corners[0])
    bottom = np.maximum(corners[3], corners[2])
    return _record("down2_max", (x,), np.maximum(bottom, top, out=bottom),
                   branch=first_maximal)


def _up2_nearest_backward(rec, grad_out):
    # pairwise, (a00 + a01) + (a10 + a11): what numpy's reshape-sum over the
    # two 2-axes gives, except at a grad_out 2 wide, which numpy sums in sequence
    g = grad_out[:, :, 0::2, 0::2] + grad_out[:, :, 0::2, 1::2]
    g += grad_out[:, :, 1::2, 0::2] + grad_out[:, :, 1::2, 1::2]
    return (g,)


def _down2_max_backward(rec, grad_out):
    (x,) = rec.inputs
    n, c, h, w = x.dims
    flat = np.zeros((n, c, h // 2, w // 2, 4), grad_out.dtype)
    np.put_along_axis(flat, rec.saved["branch"][..., None], grad_out[..., None], axis=4)
    g = flat.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return (np.ascontiguousarray(g),)


@_listed
def replicate_pad(x):
    """Grow H and W by one pixel on each side, repeating the border values.

    Filters applied after this pad see a locally constant extension of the
    image instead of an artificial step against zero, so zero-sum kernels
    stay silent on flat regions all the way to the border.
    """
    h, w = x.dims[-2:]
    if h < 1 or w < 1:
        raise DomainError(f"replicate_pad needs a non-empty spatial extent, got {h}x{w}")
    out_d = _padded(x.data, (1, 1))
    out_d[..., 1:-1, ::w + 1] = x.data[..., [0, -1]]  # first and last column
    out_d[..., ::h + 1, :] = out_d[..., [1, -2], :]  # first and last row, corners included
    return _record("replicate_pad", (x,), out_d)


def _replicate_pad_backward(rec, grad_out):
    # Fold the border columns, then the border rows, onto the edges they
    # copy; the corners ride along with the columns.  At w == 1 (h == 1)
    # both folds land on the one column (row), which is the replica count.
    cols = grad_out[:, :, :, 1:-1].copy()
    cols[:, :, :, 0] += grad_out[:, :, :, 0]
    cols[:, :, :, -1] += grad_out[:, :, :, -1]
    g = cols[:, :, 1:-1].copy()
    g[:, :, 0] += cols[:, :, 0]
    g[:, :, -1] += cols[:, :, -1]
    return (g,)


@_listed
def concat_channels(xs):
    """Concatenate along the channel axis, preserving input order; leading axes broadcast."""
    xs = tuple(xs)
    if not xs:
        raise ContractError("concat_channels needs at least one tensor")
    _same_dtype(*xs)
    base = xs[0].dims
    for t in xs[1:]:
        if (t.dims[-4], t.dims[-2], t.dims[-1]) != (base[-4], base[-2], base[-1]):
            raise ContractError(
                f"concat_channels spatial/batch mismatch: {t.dims} vs {base}"
            )
    lead = _lead(*(t.data for t in xs))
    parts = [t.data if t.dims[:-4] == lead else np.broadcast_to(t.data, lead + t.dims[-4:])
             for t in xs]
    return _record("concat_channels", xs, np.concatenate(parts, axis=-3))


def _concat_channels_backward(rec, grad_out):
    grads = []
    offset = 0
    for t in rec.inputs:
        c = t.dims[1]
        grads.append(grad_out[:, offset:offset + c].copy() if t.requires_grad else None)
        offset += c
    return tuple(grads)


@_listed
def sum_all(x):
    """Sum every element into a 1 x 1 x 1 x 1 scalar tensor, one per leading index."""
    lead = x.dims[:-4]
    total = x.data.reshape(lead + (-1,)).sum(axis=-1, dtype=x.dtype)
    return _record("sum_all", (x,), total.reshape(lead + (1, 1, 1, 1)))


def _sum_all_backward(rec, grad_out):
    (x,) = rec.inputs
    return (np.broadcast_to(grad_out.reshape(()), x.dims).astype(grad_out.dtype, copy=True),)


# ---------------------------------------------------------------------------
# Backward dispatch
# ---------------------------------------------------------------------------

BACKWARD = {
    "conv2d": _conv_backward,
    "add": _add_backward,
    "mul": _mul_backward,
    "relu": _relu_backward,
    "sigmoid": _sigmoid_backward,
    "edge_magnitude": _edge_magnitude_backward,
    "global_avg_pool": _global_avg_pool_backward,
    "global_max_pool": _global_max_pool_backward,
    "up2_nearest": _up2_nearest_backward,
    "down2_max": _down2_max_backward,
    "replicate_pad": _replicate_pad_backward,
    "concat_channels": _concat_channels_backward,
    "sum_all": _sum_all_backward,
}


def backward(tape, root):
    """Accumulate d(root)/d(leaf) into the grad buffer of every leaf reached.

    ``root`` must be a 1x1x1x1 scalar produced on ``tape``.  Records are
    visited in exact reverse creation order.  A leaf -- a tensor that no
    record on the tape produced -- takes each gradient into its buffer as
    soon as a record delivers it, so no leaf gradient is held to the end;
    gradients accumulate across repeated calls until the leaves are
    explicitly zeroed.
    """
    if root.dims != (1, 1, 1, 1):
        raise ContractError(f"backward root must be a 1x1x1x1 scalar, got dims {root.dims}")
    produced = {id(rec.output) for rec in tape.records}
    if id(root) not in produced:
        raise UsageError("backward root was not produced on this tape")

    # id(tensor produced on the tape) -> gradient accumulated so far
    pending = {id(root): np.ones((1, 1, 1, 1), root.dtype)}
    for rec in reversed(tape.records):
        grad_out = pending.pop(id(rec.output), None)
        if grad_out is None:
            continue
        grads = BACKWARD[rec.op](rec, grad_out)
        for inp, g in zip(rec.inputs, grads):
            if g is None or not inp.requires_grad:
                continue
            if id(inp) in produced:
                held = pending.get(id(inp))
                # out-of-place: backward rules may alias one array to several
                # inputs (add with no broadcast), so never mutate
                pending[id(inp)] = g if held is None else held + g
            else:
                if inp.grad is None:
                    inp.grad = np.zeros_like(inp.data)
                inp.grad += g
